"""Build · solve · serve benchmark of the Laplacian solver (README.md)."""

"""Data structures for the approximate block Cholesky chain.

``BlockCholesky`` (Algorithm 1) produces ``(G^(0), …, G^(d); F₁, …, F_d)``.
A :class:`Level` stores what iteration ``k`` eliminated — the 5-DD set
``F_k``, the remaining set ``C_k``, and the sub-blocks of
``L_{G^(k-1)}`` that ``ApplyCholesky`` needs (``X_k + Y_k = (L)_{F_kF_k}``
and the coupling block ``L_{F_kC_k}``).  A :class:`CholeskyChain` is the
full output plus the dense base-case pseudoinverse.

:meth:`CholeskyChain.dense_factorization` materialises
``(U^(d))ᵀ D^(d) U^(d)`` (equations (5)/(6) of the paper) for the
Theorem 3.9-(5) approximation tests; it reconstructs the matrix by the
recursion in the proof of Theorem 3.10:

    ``L^{(d,k)} = [[L_FF, L_FC], [L_CF, L^{(d,k+1)}]]``

with the convention that the ``F``/``C`` blocks come from ``G^(k)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graphs.laplacian import LaplacianBlocks, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.jacobi import JacobiOperator

__all__ = ["Level", "CholeskyChain"]


@dataclass
class Level:
    """One elimination round ``k`` of ``BlockCholesky``.

    Attributes
    ----------
    F, C:
        Global vertex ids eliminated / kept at this round (both sorted).
    idxF, idxC:
        Positions of ``F`` / ``C`` inside the *parent* level's active
        array — the coordinates ``ApplyCholesky`` works in.
    blocks:
        ``X``, ``Y``, ``L_FC`` of ``L_{G^(k-1)}`` under the ``F ⊔ C``
        bipartition (positional).
    jacobi:
        The operator ``Z^(k)`` of Lemma 3.5 (attached after the chain
        length ``d`` is known, since the paper sets ε = 1/(2d)).
    parent_edges:
        Multi-edge count of ``G^(k-1)`` (for cost accounting/diagnostics).
    """

    F: np.ndarray
    C: np.ndarray
    idxF: np.ndarray
    idxC: np.ndarray
    blocks: LaplacianBlocks
    parent_edges: int
    jacobi: JacobiOperator | None = None
    L_CF: sp.csr_matrix | None = None

    def attach_jacobi(self, eps: float) -> None:
        """Instantiate ``Z^(k)`` with accuracy ε (Algorithm 2 line 4)."""
        self.jacobi = JacobiOperator(self.blocks.X, self.blocks.Y, eps)
        self.L_CF = self.blocks.L_FC.T.tocsr()

    def nbytes(self) -> int:
        """Bytes of the arrays a solve consumes at this level (the
        payload-shipping cost): index maps, ``X``/``Y``, and both
        coupling CSR triples."""
        total = int(self.idxF.nbytes) + int(self.idxC.nbytes)
        total += int(self.blocks.X.nbytes)
        for M in (self.blocks.Y, self.blocks.L_FC,
                  self.L_CF if self.L_CF is not None
                  else self.blocks.L_FC.T.tocsr()):
            total += int(M.data.nbytes) + int(M.indices.nbytes) \
                + int(M.indptr.nbytes)
        return total

    @property
    def nf(self) -> int:
        """Eliminated-block size ``|F|`` of this level."""
        return self.F.size

    @property
    def nc(self) -> int:
        """Surviving-block size ``|C|`` of this level."""
        return self.C.size


@dataclass
class CholeskyChain:
    """Output of ``BlockCholesky``: the graphs, levels, and base case.

    ``graphs`` is ``None`` when the chain was built with
    ``keep_graphs=False`` (streaming mode — each per-level graph is
    dropped once its blocks are extracted).  Edge-count diagnostics
    keep working through the cached ``logical_edges``/``stored_edges``
    lists; only :meth:`dense_factorization` (and other consumers of the
    graphs themselves) require ``keep_graphs=True``.
    """

    n: int
    graphs: list[MultiGraph] | None
    levels: list[Level]
    final_active: np.ndarray
    final_pinv: np.ndarray
    jacobi_eps: float
    logical_edges: list[int] | None = None
    stored_edges: list[int] | None = None
    #: Schur samples drawn per level by the connectivity certificate.
    certificate_attempts: list[int] | None = None

    @property
    def d(self) -> int:
        """Number of elimination rounds (paper's ``d = O(log n)``)."""
        return len(self.levels)

    def _require_graphs(self) -> list[MultiGraph]:
        if self.graphs is None:
            from repro.errors import FactorizationError
            raise FactorizationError(
                "chain was built with keep_graphs=False; per-level "
                "graphs were dropped after block extraction — rebuild "
                "with keep_graphs=True for graph-level diagnostics")
        return self.graphs

    @property
    def edge_counts(self) -> list[int]:
        """``m(G^(0)), …, m(G^(d))`` — Theorem 3.9-(1) says this never
        exceeds ``m(G^(0))``.  Counts *logical* multi-edges (implicit
        multiplicities expanded)."""
        if self.logical_edges is not None:
            return list(self.logical_edges)
        return [g.m_logical for g in self._require_graphs()]

    @property
    def stored_edge_counts(self) -> list[int]:
        """Edge *groups* physically held per level — the memory story;
        with implicit multiplicities this is far below
        :attr:`edge_counts`."""
        if self.stored_edges is not None:
            return list(self.stored_edges)
        return [g.m for g in self._require_graphs()]

    @property
    def active_counts(self) -> list[int]:
        """|active set| per level; shrinks ≥ 1/40 per round (Lemma 3.4)."""
        counts = [self.n]
        for level in self.levels:
            counts.append(level.C.size)
        return counts

    def total_stored_edges(self) -> int:
        """Sum of physically stored edge groups across all levels."""
        return sum(self.stored_edge_counts)

    # -- flat-array payload (shipped solves, DESIGN.md §10) ----------------

    @property
    def nbytes(self) -> int:
        """Bytes of the solve-time chain payload: every level's arrays
        (:meth:`Level.nbytes`) plus the dense base-case pseudoinverse.
        This is exactly what :meth:`payload_arrays` ships through shared
        memory, so it is the observable cost of `ship_solves`."""
        return sum(self.level_nbytes()) + int(self.final_pinv.nbytes)

    def level_nbytes(self) -> list[int]:
        """Per-level payload bytes (``[level 1, …, level d]``)."""
        return [level.nbytes() for level in self.levels]

    def payload_arrays(self) -> tuple[dict, dict]:
        """Flatten the solve-time chain state into named arrays.

        Returns ``(arrays, meta)``: ``arrays`` maps string keys to the
        per-level ndarrays (index maps, ``X``, CSR triples of ``Y`` /
        ``L_FC`` / ``L_CF``) plus ``final_pinv`` — everything
        :class:`repro.core.apply_cholesky.ApplyCholeskyOperator` reads
        during an apply, nothing else; ``meta`` holds the picklable
        scalars (``n``, ``d``, ``jacobi_eps``) needed to rebuild shapes.
        :meth:`from_payload` inverts this mapping with pure view-wiring
        (no float is recomputed), so a reconstructed chain's applies are
        bit-identical to the original's.
        """
        arrays: dict = {"final_pinv": self.final_pinv}
        for k, level in enumerate(self.levels):
            if level.jacobi is None or level.L_CF is None:
                from repro.errors import FactorizationError
                raise FactorizationError(
                    "cannot export a chain payload before attach_jacobi")
            p = f"lv{k}_"
            arrays[p + "idxF"] = level.idxF
            arrays[p + "idxC"] = level.idxC
            arrays[p + "X"] = level.blocks.X
            for tag, M in (("Y", level.blocks.Y),
                           ("LFC", level.blocks.L_FC),
                           ("LCF", level.L_CF)):
                arrays[p + tag + "_data"] = M.data
                arrays[p + tag + "_indices"] = M.indices
                arrays[p + tag + "_indptr"] = M.indptr
        meta = {"n": int(self.n), "d": int(self.d),
                "jacobi_eps": float(self.jacobi_eps)}
        return arrays, meta

    def payload_fingerprint(self) -> str:
        """Hex digest of the solve-time payload (:meth:`payload_arrays`).

        Two chains with equal fingerprints produce bit-identical
        preconditioner applies, because the payload is *everything* an
        apply reads.  The serving cache uses this as its cheap equality
        witness that a cached chain and a fresh rebuild of the same
        ``(graph, options, seed)`` are interchangeable (DESIGN.md §12).
        """
        import hashlib

        arrays, meta = self.payload_arrays()
        h = hashlib.sha256()
        h.update(repr(sorted(meta.items())).encode())
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name])
            h.update(name.encode())
            h.update(str(arr.dtype).encode())
            h.update(repr(arr.shape).encode())
            h.update(arr.tobytes())
        return h.hexdigest()

    @classmethod
    def from_payload(cls, arrays: dict, meta: dict) -> "CholeskyChain":
        """Rebuild a view-only solve chain from :meth:`payload_arrays`.

        Every level is wired directly over the given arrays (typically
        read-only shared-memory views): CSR blocks via zero-copy
        ``csr_matrix((data, indices, indptr))`` and the Jacobi operator
        via :meth:`repro.linalg.jacobi.JacobiOperator.from_parts`.  The
        result supports :class:`ApplyCholeskyOperator` construction and
        application only (graphs and global vertex ids are not shipped —
        ``F``/``C`` alias the positional index maps, which preserves the
        ``nf``/``nc`` sizes the apply needs).
        """
        eps = float(meta["jacobi_eps"])
        levels: list[Level] = []
        for k in range(int(meta["d"])):
            p = f"lv{k}_"
            idxF = arrays[p + "idxF"]
            idxC = arrays[p + "idxC"]
            nf, nc = idxF.size, idxC.size

            def csr(tag: str, shape):
                return sp.csr_matrix(
                    (arrays[p + tag + "_data"],
                     arrays[p + tag + "_indices"],
                     arrays[p + tag + "_indptr"]),
                    shape=shape, copy=False)

            Y = csr("Y", (nf, nf))
            L_FC = csr("LFC", (nf, nc))
            L_CF = csr("LCF", (nc, nf))
            level = Level(F=idxF, C=idxC, idxF=idxF, idxC=idxC,
                          blocks=LaplacianBlocks(X=arrays[p + "X"],
                                                 Y=Y, L_FC=L_FC),
                          parent_edges=0,
                          jacobi=JacobiOperator.from_parts(
                              arrays[p + "X"], Y, eps),
                          L_CF=L_CF)
            levels.append(level)
        final_pinv = arrays["final_pinv"]
        return cls(n=int(meta["n"]), graphs=None, levels=levels,
                   final_active=np.arange(final_pinv.shape[0]),
                   final_pinv=final_pinv, jacobi_eps=eps,
                   logical_edges=[], stored_edges=[])

    # -- dense reconstruction (test oracle) --------------------------------

    def dense_factorization(self) -> np.ndarray:
        """Materialise ``(U^(d))ᵀ D^(d) U^(d)`` (Theorem 3.9-(5) oracle).

        O(n³)-ish; small-n tests/benches only.
        """
        # Base case: L_{G^(d)} on the final active set, in sorted order.
        base = laplacian(self._require_graphs()[-1]).toarray()
        S = base[np.ix_(self.final_active, self.final_active)]
        # Fold levels back up:
        #   L^{(d,k)} = [I 0; L_CF L_FF⁻¹ I] [L_FF 0; 0 L^{(d,k+1)}]
        #               [I L_FF⁻¹ L_FC; 0 I]
        #             = [L_FF, L_FC; L_CF, L^{(d,k+1)} + L_CF L_FF⁻¹ L_FC].
        import scipy.linalg

        for level in reversed(self.levels):
            LFF = np.diag(level.blocks.X) + level.blocks.Y.toarray()
            LFC = level.blocks.L_FC.toarray()
            nf, nc = level.nf, level.nc
            M = np.zeros((nf + nc, nf + nc))
            M[:nf, :nf] = LFF
            M[:nf, nf:] = LFC
            M[nf:, :nf] = LFC.T
            # L_FF is PD (X > 0 plus a PSD Laplacian), so solve directly.
            M[nf:, nf:] = S + LFC.T @ scipy.linalg.solve(
                LFF, LFC, assume_a="sym")
            # Un-permute [F..., C...] back into parent-active positions.
            parent_size = nf + nc
            order = np.concatenate([level.idxF, level.idxC])
            out = np.zeros((parent_size, parent_size))
            out[np.ix_(order, order)] = M
            S = out
        return S

    def summary(self) -> str:
        """One-line-per-level diagnostics."""
        lines = [f"CholeskyChain: n={self.n} d={self.d} "
                 f"jacobi_eps={self.jacobi_eps:.4g}"]
        actives = self.active_counts
        counts = self.edge_counts
        for k, level in enumerate(self.levels):
            lines.append(
                f"  level {k + 1}: |F|={level.nf} |C|={level.nc} "
                f"edges(G^{k})={counts[k]} -> "
                f"edges(G^{k + 1})={counts[k + 1]}")
        lines.append(f"  base case: {actives[-1]} vertices, "
                     f"{counts[-1]} multi-edges")
        return "\n".join(lines)

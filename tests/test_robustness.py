"""Failure injection: the robustness mechanisms must actually fire."""

import importlib
import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro import LaplacianSolver, practical_options
from repro.core.richardson import preconditioned_richardson
from repro.errors import ConnectivityCertificateWarning, ConvergenceError
from repro.graphs import generators as G
from repro.graphs.laplacian import apply_laplacian, laplacian
from repro.graphs.multigraph import MultiGraph
from repro.linalg.ops import relative_lnorm_error
from repro.linalg.pinv import dense_laplacian_pinv, exact_solution


class TestRichardsonDivergenceGuard:
    def test_guard_trips_on_bad_preconditioner(self):
        g = G.grid2d(6, 6)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        bad = lambda v: 25.0 * (P @ v)  # noqa: E731  B ≈_{ln 25} L⁺ ≫ δ=1
        b = np.random.default_rng(0).standard_normal(g.n)
        b -= b.mean()
        with pytest.raises(ConvergenceError, match="diverged"):
            preconditioned_richardson(
                lambda v: apply_laplacian(g, v), bad, b,
                delta=1.0, eps=1e-6)

    def test_guard_quiet_on_good_preconditioner(self):
        g = G.grid2d(6, 6)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        b = np.random.default_rng(1).standard_normal(g.n)
        b -= b.mean()
        res = preconditioned_richardson(
            lambda v: apply_laplacian(g, v), lambda v: P @ v, b,
            delta=1.0, eps=1e-8)
        assert np.isfinite(res.x).all()

    def test_guard_can_be_disabled(self):
        g = G.grid2d(5, 5)
        P = dense_laplacian_pinv(laplacian(g).toarray())
        bad = lambda v: 25.0 * (P @ v)  # noqa: E731
        b = np.random.default_rng(2).standard_normal(g.n)
        b -= b.mean()
        res = preconditioned_richardson(
            lambda v: apply_laplacian(g, v), bad, b, delta=1.0,
            eps=1e-2, divergence_guard=False)
        assert res.iterations >= 1  # ran to completion, however badly


class TestSolverFallback:
    def test_pcg_fallback_still_accurate(self, monkeypatch):
        g = G.grid2d(10, 10)
        solver = LaplacianSolver(g, options=practical_options(), seed=0)
        # Sabotage the preconditioner scale so Richardson (δ=1) diverges
        # while PCG (scale-invariant) still converges.
        true_apply = solver.preconditioner.apply
        monkeypatch.setattr(solver.preconditioner, "apply",
                            lambda b: 25.0 * true_apply(b))
        b = np.random.default_rng(3).standard_normal(g.n)
        b -= b.mean()
        rep = solver.solve_report(b, eps=1e-8)
        assert rep.method == "richardson->pcg"
        err = relative_lnorm_error(laplacian(g), rep.x,
                                   exact_solution(g, b))
        assert err <= 1e-6


class TestConnectivityCertificate:
    def test_bridge_graphs_survive_small_alpha(self):
        # Without the Fact 2.4 resampling, barbells at tiny α lose
        # their bridge with constant probability per level and the
        # solve silently fails (this was a real regression).
        g = G.barbell(60, 3)
        b = np.random.default_rng(4).standard_normal(g.n)
        b -= b.mean()
        for seed in range(3):
            solver = LaplacianSolver(g, options=practical_options(),
                                     seed=seed)
            x = solver.solve(b, eps=1e-6)
            err = relative_lnorm_error(laplacian(g), x,
                                       exact_solution(g, b))
            assert err <= 1e-6

    def test_chain_levels_stay_connected(self):
        from repro.graphs.validation import connected_components

        g = G.barbell(60, 3)
        solver = LaplacianSolver(g, options=practical_options(), seed=1)
        chain = solver.chain
        for k, level in enumerate(chain.levels):
            sub, _ = chain.graphs[k + 1].induced_subgraph(level.C)
            assert int(connected_components(sub).max()) == 0


# The package attribute ``repro.core.block_cholesky`` is the function;
# the certificate's collaborators are looked up on the modules.
_bc = importlib.import_module("repro.core.block_cholesky")
_validation = importlib.import_module("repro.graphs.validation")

#: No splitting and a small base case: more levels, and the grid and
#: barbell chains resample at least once for seed 0.  The sampler is
#: pinned so that the environment cannot change which samples are drawn.
_RESAMPLING = dict(alpha_scale=0.0, min_vertices=8, sampler="alias")
_CHAIN_CASES = {
    "grid": lambda: G.grid2d(12, 12),
    "regular": lambda: G.with_random_weights(
        G.random_regular(144, 4, seed=5), seed=6),
    "barbell": lambda: G.barbell(20, 3),
}


def _reference_components(graph: MultiGraph) -> np.ndarray:
    """Oracle: a plain union-find; each vertex is labelled by its root."""
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(graph.u.tolist(), graph.v.tolist()):
        parent[find(b)] = find(a)
    return np.array([find(x) for x in range(graph.n)], dtype=np.int64)


def _assert_chains_identical(a, b) -> None:
    assert a.d == b.d
    for la, lb in zip(a.levels, b.levels):
        assert la.F.tobytes() == lb.F.tobytes()
        assert la.C.tobytes() == lb.C.tobytes()
    assert len(a.graphs) == len(b.graphs)
    for ga, gb in zip(a.graphs, b.graphs):
        for name in ("u", "v", "w", "mult"):
            x, y = getattr(ga, name), getattr(gb, name)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    assert a.final_pinv.tobytes() == b.final_pinv.tobytes()


def _isolate(graph: MultiGraph, vertex: int) -> MultiGraph:
    """``graph`` without the edges at ``vertex`` (which becomes isolated)."""
    keep = (graph.u != vertex) & (graph.v != vertex)
    mult = None if graph.mult is None else graph.mult[keep]
    return MultiGraph(graph.n, graph.u[keep], graph.v[keep], graph.w[keep],
                      mult=mult)


class TestCertificatePasses:
    @pytest.mark.parametrize("coalesce", [False, True])
    @pytest.mark.parametrize("name", sorted(_CHAIN_CASES))
    def test_compiled_certificate_matches_reference(self, monkeypatch,
                                                    name, coalesce):
        graph = _CHAIN_CASES[name]()
        opts = replace(practical_options(), coalesce_emitted=coalesce,
                       **_RESAMPLING)
        compiled = _validation.connected_components
        calls = []

        def counted(g):
            calls.append(g.n)
            return compiled(g)

        monkeypatch.setattr(_validation, "connected_components", counted)
        fast = _bc.block_cholesky(graph, options=opts, seed=0)
        monkeypatch.setattr(_validation, "connected_components",
                            _reference_components)
        slow = _bc.block_cholesky(graph, options=opts, seed=0)

        _assert_chains_identical(fast, slow)
        assert fast.certificate_attempts == slow.certificate_attempts
        resamples = sum(fast.certificate_attempts) - fast.d
        if name != "regular":
            assert resamples >= 1  # the retry path is exercised
        # One pass per sample plus the input graph's: the graph being
        # eliminated is never certified again.
        assert len(calls) <= fast.d + resamples + 1


class TestCertificateGiveUp:
    def test_disconnected_sample_is_resampled(self, monkeypatch):
        real = _bc.terminal_walks
        calls = []

        def first_bad(current, C, **kwargs):
            nxt, stats = real(current, C, **kwargs)
            calls.append(C.size)
            if len(calls) == 1:
                nxt = _isolate(nxt, C[-1])
            return nxt, stats

        monkeypatch.setattr(_bc, "terminal_walks", first_bad)
        g = G.grid2d(12, 12)
        opts = replace(practical_options(), min_vertices=16,
                       sampler="alias")
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConnectivityCertificateWarning)
            solver = LaplacianSolver(g, options=opts, seed=0)
        chain = solver.chain
        assert chain.certificate_attempts == [2] + [1] * (chain.d - 1)
        assert len(calls) == chain.d + 1
        b = np.random.default_rng(5).standard_normal(g.n)
        b -= b.mean()
        x = solver.solve(b, eps=1e-6)
        assert relative_lnorm_error(laplacian(g), x,
                                    exact_solution(g, b)) <= 1e-6

    def test_give_up_warns_and_the_chain_still_builds(self, monkeypatch):
        real = _bc.terminal_walks

        def always_bad(current, C, **kwargs):
            nxt, stats = real(current, C, **kwargs)
            return _isolate(nxt, C[-1]), stats

        monkeypatch.setattr(_bc, "terminal_walks", always_bad)
        g = G.grid2d(12, 12)
        # Without the incremental store: the kept sample drops pass-
        # through edges that the store would otherwise still hold.
        opts = replace(practical_options(), min_vertices=16,
                       incremental_csr=False, sampler="alias")
        with pytest.warns(ConnectivityCertificateWarning,
                          match=f"after {_bc.MAX_ATTEMPTS} samples") as rec:
            solver = LaplacianSolver(g, options=opts, seed=0)
        chain = solver.chain
        # Level 0 gives up and keeps a sample with the last vertex
        # isolated.  That vertex has no edges, so it is never
        # eliminated: every later sample isolates the same vertex and
        # has the carried baseline's two components, which passes.
        assert chain.certificate_attempts == \
            [_bc.MAX_ATTEMPTS] + [1] * (chain.d - 1)
        assert sum(issubclass(w.category, ConnectivityCertificateWarning)
                   for w in rec) == 1
        assert chain.final_active[-1] == g.n - 1
        # The chain still solves, but it cannot see the isolated
        # vertex's direction: the answer is finite and its residual,
        # reported as measured, shows the weak preconditioner.
        b = np.random.default_rng(5).standard_normal(g.n)
        b -= b.mean()
        rep = solver.solve_report(b, eps=1e-6)
        assert np.all(np.isfinite(rep.x))
        residual = np.linalg.norm(apply_laplacian(g, rep.x) - b)
        assert rep.residual_2norm == pytest.approx(residual)
        assert residual > 1e-6 * np.linalg.norm(b)


class TestWalkCap:
    def test_cap_produces_diagnostic(self):
        from repro.errors import SamplingError
        from repro.sampling.walks import WalkEngine

        g = G.path(300)
        is_term = np.zeros(g.n, dtype=bool)
        is_term[0] = True
        engine = WalkEngine(g, is_term)
        with pytest.raises(SamplingError, match="5-DD"):
            engine.run(np.array([g.n - 1]), seed=0, max_steps=5)

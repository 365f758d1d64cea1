"""Tests of the benchmark's own code, on tiny inputs.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from perfbench import trace
from perfbench import workloads as W
from repro.config import reset_env_caches
from repro.graphs import generators as G

TINY = W.Sizes.tiny()


@pytest.fixture(autouse=True)
def default_settings(monkeypatch):
    """Run with the code's defaults, as the benchmark does."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        monkeypatch.delenv(var)
    reset_env_caches()
    yield
    reset_env_caches()


def test_untraced_run_installs_no_wrappers(monkeypatch):
    before = trace.snapshot()

    def refuse(self):
        raise AssertionError("an untraced run installed wrappers")

    monkeypatch.setattr(trace.Tracer, "install", refuse)
    result = W.run("build", 0, 0.05, trace=False, sizes=TINY)
    assert result.tracer is None
    assert result.correct and result.failed == 0
    assert trace.snapshot() == before


def test_traced_run_wraps_then_restores_every_target(monkeypatch):
    before = trace.snapshot()
    during = {}
    install = trace.Tracer.install

    def spy(self):
        install(self)
        during.update(trace.snapshot())

    monkeypatch.setattr(trace.Tracer, "install", spy)
    result = W.run("serve", 0, 0.5, trace=True, sizes=TINY)
    assert result.tracer is not None and result.correct
    assert all(during[key] is not raw for key, raw in before.items())
    after = trace.snapshot()
    assert all(after[key] is raw for key, raw in before.items())


def test_tracer_restores_when_traced_code_raises():
    before = trace.snapshot()
    with pytest.raises(RuntimeError):
        with trace.Tracer():
            raise RuntimeError("boom")
    after = trace.snapshot()
    assert all(after[key] is raw for key, raw in before.items())


def test_oracle_rejects_a_solution_off_by_ten_eps():
    g = G.with_random_weights(G.grid2d(6, 6), seed=0)
    oracle = W.Oracle(g)
    b = W._rhs(1, g.n, 1)[:, 0]
    xstar = oracle.solve(b)
    np.testing.assert_allclose(xstar, np.linalg.pinv(oracle.L.toarray()) @ b,
                               atol=1e-10)
    d = W._rhs(2, g.n, 1)[:, 0]
    d *= np.sqrt((xstar @ oracle.L @ xstar) / (d @ oracle.L @ d))
    assert oracle.check(xstar, xstar)[0]
    assert oracle.check(xstar + 0.5 * W.EPS * d, xstar)[0]
    ok, detail = oracle.check(xstar + 10 * W.EPS * d, xstar)
    assert not ok and detail.startswith("wrong")


def test_wrong_answers_fail_their_ops(monkeypatch):
    from repro.core.solver import LaplacianSolver

    solve_many = LaplacianSolver.solve_many
    monkeypatch.setattr(
        LaplacianSolver, "solve_many",
        lambda self, B, eps=1e-6: 1.01 * solve_many(self, B, eps))
    result = W.run("build", 0, 0.5, trace=False, sizes=TINY)
    assert not result.correct
    assert result.failed == result.attempted
    assert result.metrics["success_rate"][0] == 0.0
    assert [f["op"] for f in result.record["failures"]] == \
        list(range(result.attempted))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_seed_fixes_the_op_sequence(name):
    make = W.WORKLOADS[name]
    first = W.digest(make(3, TINY, 2.0).sequence(8))
    assert W.digest(make(3, TINY, 2.0).sequence(8)) == first
    assert W.digest(make(4, TINY, 2.0).sequence(8)) != first


def test_seed_fixes_the_arrival_schedule():
    a, b, c = (W.serve_schedule(s, 20.0) for s in (3, 3, 4))
    for field in ("due", "graph", "width"):
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.due, c.due)
    assert a.requests == c.requests
    assert np.all(np.diff(a.due) > 0)
    assert set(a.width) == set(range(1, 9))


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_top_level_spans_account_for_op_wall_time(name):
    result = W.run(name, 0, 0.5, trace=True, sizes=TINY)
    phase = result.phases["traced"]
    rows = W.op_accounting(result.tracer, phase)
    assert len(rows) == len(phase.ops)
    for wall, top, unattributed in rows:
        assert 0.0 < top <= 1.05 * wall
        assert abs(top + unattributed - wall) <= 0.05 * wall
        if not phase.open_loop:
            # The top-level spans cover at least 95% of each op.
            assert unattributed <= 0.05 * wall
    assert result.metrics["bench.trace_overhead"][0] > 0
    busy = {k: v for k, (v, unit) in result.metrics.items()
            if k.endswith(".busy_s")}
    assert sum(busy.values()) > 0


def test_host_factor_scales_by_the_nearest_probes():
    probe = W.HostProbe()
    ref = W.REFERENCE_PROBE_MS / 1e3
    # Six probes at twice the reference time, then six at the reference.
    probe.spans = [(float(i), i + ref * (2.0 if i < 6 else 1.0))
                   for i in range(12)]
    assert probe.factor(1.0, 2.0) == pytest.approx(0.5)
    assert probe.factor(9.0, 10.0) == pytest.approx(1.0)


def test_serve_probes_run_only_while_no_batch_does():
    result = W.run("serve", 0, 3.0, trace=True, sizes=TINY)
    phase = result.phases["traced"]
    batches = [s for s in result.tracer.spans if s.layer == "serve.service"]
    during = [(t0, t1) for t0, t1 in result.probe.spans
              if phase.ops[0].t0 < t0 < phase.ops[-1].t1]
    assert batches and during
    for t0, t1 in result.probe.spans:
        assert all(t1 <= b.t0 or t0 >= b.t1 for b in batches)

"""Inputs, oracle, workloads and metrics of the build · serve benchmark.

Every input, every solver seed and the serve arrival schedule come from
the workload seed.  The program runs pinned to one worker
(``backend="serial"``, ``workers=1``); every other setting keeps the
code's default.  See ``perfbench/README.md`` for why each workload
exists and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perfbench.trace import Tracer, covered_seconds
from repro import LaplacianSolver, SolverOptions, SolverService
from repro.graphs import generators as G

#: Accuracy every solve asks for, and the oracle's pass threshold on the
#: relative L-norm error.
EPS = 1e-6
#: Offered load on ``serve``: arrival events per second, each carrying
#: 1-8 requests (4.5 on average).  About a quarter of the event rate the
#: service sustains on these graphs in a normal host period, so that a
#: host period 2-3x slower still leaves headroom instead of a backlog.
SERVE_EVENT_RATE = 1.5
#: A serve request that resolves later than this after its due time
#: counts as failed.
SERVE_LIMIT_S = 2.0
#: How long to wait for the serve backlog after the schedule ends.
SERVE_DRAIN_S = 60.0
#: The host probe's time (ms) on the reference host: a 2-CPU x86_64
#: machine on which the probe's median was about 14 ms (README.md).
#: Reported times are scaled to it.
REFERENCE_PROBE_MS = 14.0
#: How many probes, the nearest in time, set one op's host factor.
PROBE_NEIGHBOURS = 6
#: Probes run in each gap: between closed-loop ops and set-ups, and in
#: an idle gap of the serve schedule.
PROBES_PER_GAP = 3
#: Serve probes only while no request is pending and the next event is
#: due at least this far away, so a probe never delays the program.
SERVE_PROBE_GAP_S = 0.1


def solver_options() -> SolverOptions:
    """The execution pinning; every other option keeps its default."""
    return SolverOptions(backend="serial", workers=1)


def _seeds(seed: int, tag: int, k: int) -> list[int]:
    """``k`` independent integer seeds for one workload's stream ``tag``."""
    state = np.random.SeedSequence([seed, tag]).generate_state(k)
    return [int(s) for s in state]


def _rhs(seed: int, n: int, k: int) -> np.ndarray:
    """``k`` mean-zero Gaussian right-hand sides as an ``(n, k)`` array."""
    B = np.random.default_rng(seed).standard_normal((n, k))
    return B - B.mean(axis=0)


@dataclass(frozen=True)
class Sizes:
    """Input sizes; :meth:`tiny` is for the benchmark's own tests."""

    build_grid_side: int = 25
    build_regular_n: int = 625
    serve_grid_side: int = 20
    serve_n: int = 400
    setup_reps: int = 3

    @classmethod
    def tiny(cls) -> "Sizes":
        return cls(build_grid_side=12, build_regular_n=144,
                   serve_grid_side=8, serve_n=64, setup_reps=1)


# -- the oracle ---------------------------------------------------------------

class Oracle:
    """Exact solutions by a sparse direct solve, sharing no solver code.

    The Laplacian is assembled here from the edge arrays, grounded at
    vertex 0 and solved with ``scipy.sparse.linalg.spsolve``; the
    solution is projected to mean zero.
    """

    def __init__(self, graph) -> None:
        u, v, w = graph.u, graph.v, graph.w
        n = graph.n
        A = sp.coo_matrix((np.concatenate([w, w]),
                           (np.concatenate([u, v]), np.concatenate([v, u]))),
                          shape=(n, n)).tocsr()
        self.L = (sp.diags(np.asarray(A.sum(axis=1)).ravel()) - A).tocsr()
        self._grounded = self.L[1:, 1:].tocsc()

    def solve(self, B: np.ndarray) -> np.ndarray:
        """``L⁺ B`` for ``(n,)`` or ``(n, k)`` right-hand sides."""
        B = B - B.mean(axis=0)
        X = np.zeros_like(B)
        sol = spla.spsolve(self._grounded, B[1:])
        X[1:] = sol.reshape(X[1:].shape)
        return X - X.mean(axis=0)

    def error(self, x: np.ndarray, xstar: np.ndarray) -> float:
        """Relative L-norm error ``‖x − x*‖_L / ‖x*‖_L``."""
        e = x - xstar
        return float(np.sqrt(max(e @ (self.L @ e), 0.0)
                             / (xstar @ (self.L @ xstar))))

    def check(self, x, xstar, eps: float = EPS) -> tuple[bool, str]:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != xstar.shape or not np.isfinite(x).all():
            return False, f"wrong: shape {x.shape} or non-finite entries"
        err = self.error(x, xstar)
        if err <= eps:
            return True, ""
        return False, f"wrong: relative L-norm error {err:.3e} > {eps:g}"


# -- records ------------------------------------------------------------------

@dataclass
class OpRecord:
    """One timed op: a build or a serve request."""

    index: int
    t0: float               # start (serve: due time)
    t1: float               # end (serve: resolved; nan if never)
    ok: bool = False
    wrong: bool = False     # output failed the oracle or the op raised
    detail: str = ""
    batch: int = -1         # serve only

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


@dataclass
class Phase:
    """The timed ops of one measured phase and what the loop observed."""

    ops: list[OpRecord]
    wall_s: float                       # throughput denominator
    open_loop: bool = False
    extra: dict = field(default_factory=dict)

    def op_ids(self) -> set:
        """The trace op ids of this phase's ops (serve: their batches)."""
        if self.open_loop:
            return {f"batch{r.batch}" for r in self.ops if r.batch >= 0}
        return {r.index for r in self.ops}

    @property
    def passed(self) -> int:
        return sum(r.ok for r in self.ops)

    def latencies_ms(self) -> np.ndarray:
        t = np.array([r.seconds for r in self.ops]) * 1e3
        return t[np.isfinite(t)]


# -- the host probe -----------------------------------------------------------

class HostProbe:
    """A fixed host kernel, timed between ops to follow the host's speed.

    The kernel is a 100k-step Python loop plus 50 sparse matvecs on a
    128×128 grid Laplacian; it runs no program code.  On the shared
    hosts this benchmark runs on, the speed of plain Python code drifts
    by tens of percent over seconds to minutes.  Every reported time is
    therefore scaled to the reference host: a time measured over
    ``[t0, t1]`` is multiplied by :meth:`factor`, ``REFERENCE_PROBE_MS``
    over the median of the ``PROBE_NEIGHBOURS`` probes nearest in time.
    The record keeps the raw times beside the scaled ones.
    """

    def __init__(self) -> None:
        side = 128
        path = sp.diags([np.ones(side - 1), -2 * np.ones(side),
                         np.ones(side - 1)], [-1, 0, 1])
        self._A = (sp.kron(path, sp.eye(side))
                   + sp.kron(sp.eye(side), path)).tocsr()
        self.spans: list[tuple[float, float]] = []   # (t0, t1) per probe

    def run(self, reps: int = PROBES_PER_GAP) -> float:
        """Time the kernel ``reps`` times; the median of these, in ms."""
        times = []
        for _ in range(reps):
            x = np.ones(self._A.shape[0])
            t0 = time.perf_counter()
            acc = 0
            for i in range(100_000):
                acc += i * i
            for _ in range(50):
                x = self._A @ x * 0.125
            t1 = time.perf_counter()
            self.spans.append((t0, t1))
            times.append(t1 - t0)
        return statistics.median(times) * 1e3

    def ms(self) -> np.ndarray:
        return np.array([t1 - t0 for t0, t1 in self.spans]) * 1e3

    def factor(self, t0: float, t1: float) -> float:
        """The scale from this host to the reference host over
        ``[t0, t1]``: ``REFERENCE_PROBE_MS`` over the median of the
        probes whose midpoints are nearest the interval's midpoint."""
        mid = np.array([(a + b) / 2 for a, b in self.spans])
        near = np.argsort(np.abs(mid - (t0 + t1) / 2),
                          kind="stable")[:PROBE_NEIGHBOURS]
        return REFERENCE_PROBE_MS / float(np.median(self.ms()[near]))


def _timed_op(op, check, index: int, tracer: Tracer | None) -> OpRecord:
    """Time ``op(index)``, then ``check`` its output outside the timer.
    An op, or the program call inside a check, that raises fails."""
    if tracer is not None:
        tracer.set_op(index)
    error = None
    t0 = time.perf_counter()
    try:
        out = op(index)
    except Exception as exc:
        error = exc
    rec = OpRecord(index, t0, time.perf_counter())
    if tracer is not None:
        tracer.set_op(None)
    if error is None:
        try:
            rec.ok, rec.detail = check(index, out)
        except Exception as exc:
            error = exc
    if error is not None:
        rec.detail = f"exception: {error!r}"
    rec.wrong = not rec.ok
    return rec


def closed_loop(op, check, seconds: float, probe: HostProbe,
                tracer: Tracer | None = None) -> Phase:
    """One caller: run ``op(i)`` back to back until the ops' own wall
    time reaches ``seconds``; ``check`` runs after each op's timer
    stops.  The host probe runs before the first op and after each
    check."""
    ops: list[OpRecord] = []
    timed = 0.0
    probe.run()
    while not ops or timed < seconds:
        rec = _timed_op(op, check, len(ops), tracer)
        timed += rec.seconds
        ops.append(rec)
        probe.run()
    return Phase(ops, wall_s=timed)


# -- workloads ----------------------------------------------------------------

class Build:
    """Closed loop of cold chain builds over a fixed graph × seed cycle."""

    name = "build"

    def __init__(self, seed: int, sizes: Sizes, seconds: float) -> None:
        s = _seeds(seed, 1, 8)
        side = sizes.build_grid_side
        self.graphs = {
            "grid": G.grid2d(side, side),
            "regular": G.with_random_weights(
                G.random_regular(sizes.build_regular_n, 4, seed=s[0]),
                seed=s[1]),
        }
        self.cycle = [("grid", s[2]), ("regular", s[3]),
                      ("grid", s[4]), ("regular", s[5])]
        self.rhs = {name: _rhs(s[6] + i, g.n, 1)[:, 0]
                    for i, (name, g) in enumerate(self.graphs.items())}
        self.oracle = {name: Oracle(g) for name, g in self.graphs.items()}
        self.xstar = {name: self.oracle[name].solve(self.rhs[name])
                      for name in self.graphs}

    def sequence(self, count: int) -> list:
        """The inputs of the first ``count`` ops, in order."""
        return [(name, seed, self.graphs[name]) for name, seed in
                (self.cycle[i % len(self.cycle)] for i in range(count))]

    def setup(self):
        name, seed = self.cycle[0]
        return LaplacianSolver(self.graphs[name], options=solver_options(),
                               seed=seed)

    def warmup(self, state) -> None:
        pass  # the set-up build is the warm-up

    def teardown(self, state) -> None:
        state.close()

    def measure(self, state, seconds: float, probe: HostProbe,
                tracer=None) -> Phase:
        def op(i):
            name, seed = self.cycle[i % len(self.cycle)]
            return LaplacianSolver(self.graphs[name],
                                   options=solver_options(), seed=seed)

        def check(i, solver):
            name = self.cycle[i % len(self.cycle)][0]
            x = solver.solve_many(self.rhs[name][:, None], eps=EPS)[:, 0]
            chain_bytes.append(solver.chain.nbytes)
            solver.close()
            return self.oracle[name].check(x, self.xstar[name])

        chain_bytes: list[int] = []
        phase = closed_loop(op, check, seconds, probe, tracer)
        phase.extra["chain_nbytes"] = float(np.mean(chain_bytes)) \
            if chain_bytes else 0.0
        return phase


@dataclass(frozen=True)
class Schedule:
    """Open-loop arrival events: due offsets (s), graph index, width."""

    due: np.ndarray
    graph: np.ndarray
    width: np.ndarray

    @property
    def requests(self) -> int:
        return int(self.width.sum())


def serve_schedule(seed: int, seconds: float) -> Schedule:
    """``round(seconds · SERVE_EVENT_RATE)`` events, one slot of
    ``1 / SERVE_EVENT_RATE`` s each, each arriving uniformly at random
    inside the middle half of its slot.

    The events cycle through the 24 (width 1..8, graph 0..2) pairs
    before shuffling, so the mix of pairs, and with it the request
    count, depends on the event count only; the seed decides their
    order and the jitter.
    """
    rng = np.random.default_rng(_seeds(seed, 3, 1)[0])
    k = max(1, int(round(seconds * SERVE_EVENT_RATE)))
    slot = np.arange(k) + rng.uniform(0.25, 0.75, size=k)
    due = slot / SERVE_EVENT_RATE
    pair = rng.permutation(np.resize(np.arange(24), k))
    return Schedule(due=due, graph=pair % 3, width=pair % 8 + 1)


class Serve:
    """Open loop of single-RHS requests through ``SolverService.submit``."""

    name = "serve"

    def __init__(self, seed: int, sizes: Sizes, seconds: float) -> None:
        s = _seeds(seed, 4, 8)
        side, n = sizes.serve_grid_side, sizes.serve_n
        self.graphs = [
            G.grid2d(side, side),
            G.with_random_weights(G.random_regular(n, 4, seed=s[0]),
                                  seed=s[1]),
            G.watts_strogatz(n, 4, 0.1, seed=s[2]),
        ]
        self.chain_seeds = s[3:6]
        self.schedule = serve_schedule(seed, seconds)
        graph_of = np.repeat(self.schedule.graph, self.schedule.width)
        self.request_graph = graph_of
        self.event_of = np.repeat(np.arange(self.schedule.due.size),
                                  self.schedule.width)
        # One warm-up request per graph, then the scheduled requests.
        self.warm_rhs = [_rhs(s[6] + g, graph.n, 1)[:, 0]
                         for g, graph in enumerate(self.graphs)]
        self.rhs: list[np.ndarray] = [None] * graph_of.size
        self.xstar: list[np.ndarray] = [None] * graph_of.size
        self.oracle = [Oracle(g) for g in self.graphs]
        for g, graph in enumerate(self.graphs):
            idx = np.flatnonzero(graph_of == g)
            if idx.size == 0:
                continue
            B = _rhs(s[7] + g, graph.n, idx.size)
            X = self.oracle[g].solve(B)
            for j, i in enumerate(idx):
                self.rhs[i] = B[:, j]
                self.xstar[i] = X[:, j]

    def sequence(self, count: int) -> list:
        """The graphs, chain seeds, arrival schedule and the first
        ``count`` requests' right-hand sides."""
        sched = self.schedule
        return [self.graphs, self.chain_seeds, sched.due, sched.graph,
                sched.width, self.rhs[:count]]

    def setup(self):
        svc = SolverService(options=solver_options()).start()
        keys = [svc.register(g, seed=seed)
                for g, seed in zip(self.graphs, self.chain_seeds)]
        return svc, keys

    def warmup(self, state) -> None:
        svc, keys = state
        for key, b in zip(keys, self.warm_rhs):
            svc.solve(key, b, eps=EPS)

    def teardown(self, state) -> None:
        state[0].close()

    def measure(self, state, seconds: float, probe: HostProbe,
                tracer=None) -> Phase:
        svc, keys = state
        sched = self.schedule
        done_at = np.full(self.request_graph.size, np.nan)

        def stamp(i, _future):
            done_at[i] = time.perf_counter()

        hits0, misses0 = svc.cache.hits, svc.cache.misses
        batches0 = svc.batcher.batches
        futures = []
        lag = np.zeros(sched.due.size)
        i = 0
        resolved = 0    # futures[:resolved] are done
        probe.run()
        start = time.perf_counter()
        for e, offset in enumerate(sched.due):
            due = start + offset
            # Probe only in an idle gap: nothing pending, and the
            # next event not due for a while.  Waiting for the
            # pending requests ends in time for the next event.
            while resolved < len(futures):
                if futures[resolved].done():
                    resolved += 1
                    continue
                wait_s = due - time.perf_counter() - SERVE_PROBE_GAP_S
                if wait_s <= 0:
                    break
                concurrent.futures.wait([futures[resolved]],
                                        timeout=wait_s)
            for _ in range(PROBES_PER_GAP):
                if (resolved < len(futures)
                        or due - time.perf_counter() < SERVE_PROBE_GAP_S):
                    break
                probe.run(1)
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag[e] = time.perf_counter() - due
            key = keys[sched.graph[e]]
            for _ in range(sched.width[e]):
                try:
                    fut = svc.submit(key, self.rhs[i], eps=EPS)
                except Exception as exc:  # counts as a failed request
                    fut = concurrent.futures.Future()
                    fut.set_exception(exc)
                fut.add_done_callback(functools.partial(stamp, i))
                futures.append(fut)
                i += 1
        end = start + seconds
        delay = end - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        outstanding = sum(not f.done() for f in futures)
        concurrent.futures.wait(futures, timeout=SERVE_DRAIN_S)
        probe.run()

        ops = []
        for i, fut in enumerate(futures):
            due = start + sched.due[self.event_of[i]]
            rec = OpRecord(i, due, done_at[i])
            if not fut.done():
                rec.wrong, rec.detail = True, "never resolved"
            elif fut.exception() is not None:
                rec.wrong = True
                rec.detail = f"exception: {fut.exception()!r}"
            else:
                res = fut.result()
                rec.batch = res.batch_seq
                ok, rec.detail = self.oracle[self.request_graph[i]].check(
                    res.x, self.xstar[i])
                rec.wrong = not ok
                late = rec.seconds > SERVE_LIMIT_S
                if ok and late:
                    rec.detail = f"late: {rec.seconds * 1e3:.1f} ms"
                rec.ok = ok and not late
            ops.append(rec)
        last = np.nanmax(done_at) if np.isfinite(done_at).any() else end
        hits = svc.cache.hits - hits0
        lookups = hits + svc.cache.misses - misses0
        extra = {
            "schedule_s": seconds,
            "events": int(sched.due.size),
            "offered_req_per_s": sched.requests / seconds,
            "outstanding_at_schedule_end": int(outstanding),
            "generator_lag_ms": lag * 1e3,
            "cache_hit_ratio": hits / lookups if lookups else 0.0,
            "batches": svc.batcher.batches - batches0,
            "chain_nbytes": float(svc.cache.total_bytes()),
            "knobs": svc.stats()["knobs"],
        }
        # Throughput's denominator: first due time to last resolution.
        return Phase(ops, wall_s=last - (start + sched.due[0]),
                     open_loop=True, extra=extra)


WORKLOADS = {w.name: w for w in (Build, Serve)}


def digest(items) -> str:
    """SHA-256 of nested inputs: arrays by bytes, graphs by edge arrays."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, (list, tuple)):
            for item in x:
                feed(item)
        elif isinstance(x, np.ndarray):
            h.update(x.dtype.str.encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif hasattr(x, "u") and hasattr(x, "w"):
            feed([x.n, x.u, x.v, x.w])
        else:
            h.update(repr(x).encode())

    feed(items)
    return h.hexdigest()


# -- running and reducing -----------------------------------------------------

def percentile(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


@dataclass
class Result:
    """What one run reports: metrics plus the record printed beside them."""

    metrics: dict          # name -> (value, unit)
    attempted: int
    failed: int
    correct: bool
    record: dict
    phases: dict           # "untraced" / "traced" -> Phase
    probe: HostProbe
    tracer: Tracer | None = None


def proc_status_mb(field_name: str) -> float:
    """A ``/proc/self/status`` memory field (``VmRSS``, ``VmHWM``) in MB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field_name + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field_name} in /proc/self/status")


def reset_peak_rss() -> float:
    """Lower the process's RSS high-water mark to its current RSS and
    return that RSS in MB.  What the interpreter, the libraries, the
    inputs and the oracle hold is then left out of the peak."""
    gc.collect()
    with open("/proc/self/clear_refs", "w") as refs:
        refs.write("5")
    return proc_status_mb("VmRSS")


def scaled_ms(phase: Phase, probe: HostProbe) -> np.ndarray:
    """The phase's op latencies in ms, scaled to the reference host."""
    return np.array([r.seconds * 1e3 * probe.factor(r.t0, r.t1)
                     for r in phase.ops if np.isfinite(r.t1)])


def end_to_end(phase: Phase, setups: list[tuple[float, float]],
               peak_rss_mb: float, probe: HostProbe) -> dict:
    """The end-to-end metrics; times are scaled to the reference host.
    Serve throughput is not: the schedule, not the host, sets it."""
    lat = scaled_ms(phase, probe)
    if phase.open_loop:
        throughput = phase.passed / phase.wall_s
    else:
        throughput = phase.passed / (lat.sum() / 1e3)
    return {
        "setup_s": (statistics.median(
            (t1 - t0) * probe.factor(t0, t1) for t0, t1 in setups), "s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "throughput_per_s": (throughput, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "success_rate": (phase.passed / len(phase.ops), "ratio"),
    }


def op_accounting(tracer: Tracer, phase: Phase) -> list[tuple]:
    """Per op: ``(wall, sum of top-level span durations, unattributed)``.

    Closed loops: the op's own spans with no parent.  Serve: a
    request's top-level spans are its wait (due time to the start of
    its batch's solve) and its batch's ``serve.service`` span.
    Unattributed time is the op's wall time outside the union of its
    top-level spans.
    """
    top = tracer.top_level()
    rows = []
    for rec in phase.ops:
        if not phase.open_loop:
            spans = top.get(rec.index, [])
            total = sum(s.t1 - s.t0 for s in spans)
            covered = covered_seconds(spans, rec.t0, rec.t1)
        else:
            spans = [s for s in top.get(f"batch{rec.batch}", [])
                     if s.layer == "serve.service"]
            if not spans or not np.isfinite(rec.t1):
                continue
            batch = spans[0]
            total = (batch.t0 - rec.t0) + (batch.t1 - batch.t0)
            covered = min(batch.t1, rec.t1) - rec.t0
        rows.append((rec.seconds, total, rec.seconds - covered))
    return rows


def per_layer(tracer: Tracer, phase: Phase, untraced: Phase,
              probe: HostProbe) -> dict:
    """Per-layer metrics of a traced phase, per op unless named a ratio,
    a count per call, or a per-batch or per-run figure (README.md)."""
    ops = phase.op_ids()
    totals = tracer.layer_totals(ops)
    n_ops = max(len(phase.ops), 1)

    def get(layer, key="busy"):
        return totals.get(layer, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for layer in ("graphs.validation", "graphs.multigraph",
                  "graphs.laplacian", "core.boundedness", "core.dd_subset",
                  "core.terminal_walks", "sampling.inc_csr",
                  "sampling.walks", "core.chain", "linalg.pinv",
                  "core.richardson", "core.apply_cholesky", "linalg.jacobi",
                  "core.solver"):
        m[f"{layer}.busy_s"] = (get(layer) / n_ops, "s")
    m["graphs.validation.calls"] = (
        get("graphs.validation", "calls") / n_ops, "count")
    m["core.dd_subset.eliminated_ratio"] = (ratio(
        get("core.dd_subset", "eliminated"),
        get("core.dd_subset", "active")), "ratio")
    m["core.terminal_walks.accept_ratio"] = (ratio(
        get("core.block_cholesky", "levels"),
        get("core.terminal_walks", "calls")), "ratio")
    m["core.block_cholesky.self_s"] = (
        get("core.block_cholesky") / n_ops, "s")
    m["core.block_cholesky.levels"] = (ratio(
        get("core.block_cholesky", "levels"),
        get("core.block_cholesky", "calls")), "count")
    m["core.richardson.iterations"] = (ratio(
        get("core.richardson", "iterations"),
        get("core.richardson", "calls")), "count")
    for layer in ("core.apply_cholesky", "linalg.jacobi", "linalg.cg"):
        m[f"{layer}.calls"] = (get(layer, "calls") / n_ops, "count")
    m["core.chain.nbytes"] = (phase.extra.get("chain_nbytes", 0.0), "bytes")

    batches = [s for s in tracer.spans
               if s.layer == "serve.service" and s.op in ops]
    start = {s.op: s.t0 for s in batches}
    wait_ms = [(start[f"batch{r.batch}"] - r.t0) * 1e3 for r in phase.ops
               if f"batch{r.batch}" in start]
    solve_ms = [(s.t1 - s.t0) * 1e3 for s in tracer.spans
                if s.layer == "core.solver" and s.parent is not None
                and s.parent.layer == "serve.service" and s.op in ops]
    busy = sum(s.t1 - s.t0 for s in batches)
    m["serve.cache.hit_ratio"] = (
        phase.extra.get("cache_hit_ratio", 0.0), "ratio")
    m["serve.cache.build_s"] = (sum(s.t1 - s.t0 for s in tracer.spans
                                    if s.layer == "serve.cache"), "s")
    m["serve.batcher.batches"] = (float(len(batches)), "count")
    m["serve.batcher.width_mean"] = (ratio(
        sum(s.counts["width"] for s in batches), len(batches)), "count")
    m["serve.batcher.wait_ms_p50"] = (percentile(wait_ms, 50), "ms")
    m["serve.batcher.wait_ms_p90"] = (percentile(wait_ms, 90), "ms")
    m["serve.service.solve_ms_p50"] = (percentile(solve_ms, 50), "ms")
    m["serve.service.utilization"] = (
        ratio(busy, phase.extra.get("schedule_s", 0.0)), "ratio")

    rows = op_accounting(tracer, phase)
    m["bench.unattributed_s"] = (
        ratio(sum(r[2] for r in rows), len(rows)), "s")
    m["bench.trace_overhead"] = (ratio(
        percentile(scaled_ms(phase, probe), 50),
        percentile(scaled_ms(untraced, probe), 50)), "ratio")
    m["bench.generator_lag_ms_p90"] = (
        percentile(phase.extra.get("generator_lag_ms", []), 90), "ms")
    return m


def run(name: str, seed: int, seconds: float, trace: bool,
        sizes: Sizes = Sizes()) -> Result:
    """One benchmark run of workload ``name``.

    Set-up runs ``sizes.setup_reps`` times (``setup_s`` is the median);
    warm-up ops follow, then the untraced timed phase.  With ``trace``
    a second phase runs a fresh set-up and the same ops under the
    tracer, and the result carries per-layer metrics instead of the
    end-to-end ones.  The host probe runs between set-ups and between
    ops, and end-to-end times are scaled by it (:class:`HostProbe`).
    """
    workload = WORKLOADS[name](seed, sizes, seconds)
    probe = HostProbe()
    calibration_start = probe.run(5)
    rss_before_setup = reset_peak_rss()
    setups = []
    state = None
    for _ in range(sizes.setup_reps):
        if state is not None:
            workload.teardown(state)
        t0 = time.perf_counter()
        state = workload.setup()
        setups.append((t0, time.perf_counter()))
        probe.run()
    try:
        workload.warmup(state)
        phases = {"untraced": workload.measure(state, seconds, probe)}
        rss_peak = proc_status_mb("VmHWM")
    finally:
        workload.teardown(state)
    tracer = None
    if trace:
        tracer = Tracer()
        with tracer:
            state = workload.setup()
            try:
                workload.warmup(state)
                phases["traced"] = workload.measure(state, seconds, probe,
                                                    tracer)
            finally:
                workload.teardown(state)
    calibration_end = probe.run(5)
    if trace:
        metrics = per_layer(tracer, phases["traced"], phases["untraced"],
                            probe)
    else:
        metrics = end_to_end(phases["untraced"], setups,
                             rss_peak - rss_before_setup, probe)

    ops = [(phase_name, rec) for phase_name, phase in phases.items()
           for rec in phase.ops]
    failures = [{"phase": p, "op": r.index, "detail": r.detail}
                for p, r in ops if not r.ok]
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "sizes": dataclasses.asdict(sizes),
        "setup_s_reps": [t1 - t0 for t0, t1 in setups],
        "setup_s_reps_scaled": [(t1 - t0) * probe.factor(t0, t1)
                                for t0, t1 in setups],
        "rss_mb": {"before_setup": rss_before_setup, "peak": rss_peak},
        "latency_ms": {p: {"n": len(ph.ops),
                           "p50": percentile(scaled_ms(ph, probe), 50),
                           "p90": percentile(scaled_ms(ph, probe), 90),
                           "raw_p50": percentile(ph.latencies_ms(), 50),
                           "raw_p90": percentile(ph.latencies_ms(), 90),
                           "raw_all": [round(float(t), 3)
                                       for t in ph.latencies_ms()]}
                       for p, ph in phases.items()},
        "calibration_ms": {"start": calibration_start,
                           "end": calibration_end},
        "host_probe": {"reference_ms": REFERENCE_PROBE_MS,
                       "probes": len(probe.spans),
                       "p10_ms": percentile(probe.ms(), 10),
                       "p50_ms": percentile(probe.ms(), 50),
                       "p90_ms": percentile(probe.ms(), 90)},
        "failures": failures,
    }
    untraced = phases["untraced"]
    if name == "serve":
        lag = untraced.extra["generator_lag_ms"]
        record["serve"] = {
            "event_rate_per_s": SERVE_EVENT_RATE,
            "offered_req_per_s": untraced.extra["offered_req_per_s"],
            "latency_limit_ms": SERVE_LIMIT_S * 1e3,
            "events": untraced.extra["events"],
            "requests": len(untraced.ops),
            "outstanding_at_schedule_end":
                untraced.extra["outstanding_at_schedule_end"],
            "generator_lag_ms_p50": percentile(lag, 50),
            "generator_lag_ms_p90": percentile(lag, 90),
            "generator_lag_ms_max": float(np.max(lag)),
            "batches": untraced.extra["batches"],
            "knobs": untraced.extra["knobs"],
        }
    return Result(metrics=metrics, attempted=len(ops), failed=len(failures),
                  correct=not any(r.wrong for _, r in ops), record=record,
                  phases=phases, probe=probe, tracer=tracer)

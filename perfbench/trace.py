"""Outside-in span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions from the
benchmark's own code: :meth:`Tracer.install` swaps the attributes listed
in :data:`TARGETS` for timing wrappers, in memory, and
:meth:`Tracer.restore` puts every original object back.  Nothing in the
program's source changes.

Names a module brings in with ``from X import f`` are patched on the
importing module (``naive_split`` on ``repro.core.solver``); names
imported inside a function body (``connected_components``,
``pinv_psd``) are patched on the module that defines them, because the
call looks them up there at run time.  Owners are resolved with
``importlib.import_module``: the package attribute
``repro.core.block_cholesky`` is the function, not the module.

Each call becomes a :class:`Span` (layer, start, end, parent span, op
id).  Spans stay in memory until :meth:`Tracer.save` writes them out.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _dd_counts(args, kwargs, result) -> dict:
    active = kwargs.get("active")
    return {"eliminated": int(np.size(result)),
            "active": int(np.size(active))}


def _levels(args, kwargs, result) -> dict:
    return {"levels": len(result.levels)}


def _iterations(args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations)}


def _batch_width(args, kwargs, result) -> dict:
    return {"width": int(_arg(args, kwargs, 2, "B").shape[1])}


def _batch_op(args, kwargs) -> str:
    return f"batch{_arg(args, kwargs, 6, 'batch_seq')}"


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``.  ``count`` maps
    ``(args, kwargs, result)`` to counters stored on the span; ``op_of``
    maps ``(args, kwargs)`` to the op id the call and its children carry
    (the serve batch a solve-thread call belongs to).
    """

    owner: str
    attr: str
    layer: str
    count: Callable | None = None
    op_of: Callable | None = None


TARGETS: tuple[Target, ...] = (
    # Build path.
    Target("repro.graphs.validation", "connected_components",
           "graphs.validation"),
    Target("repro.graphs.multigraph:MultiGraph", "induced_subgraph",
           "graphs.multigraph"),
    Target("repro.core.block_cholesky", "laplacian_blocks",
           "graphs.laplacian"),
    Target("repro.core.block_cholesky", "laplacian", "graphs.laplacian"),
    Target("repro.graphs.laplacian", "laplacian", "graphs.laplacian"),
    Target("repro.core.solver", "naive_split", "core.boundedness"),
    Target("repro.core.block_cholesky", "five_dd_subset", "core.dd_subset",
           count=_dd_counts),
    Target("repro.core.block_cholesky", "terminal_walks",
           "core.terminal_walks"),
    Target("repro.sampling.inc_csr:IncrementalWalkCSR", "__init__",
           "sampling.inc_csr"),
    Target("repro.sampling.inc_csr:IncrementalWalkCSR", "restricted_view",
           "sampling.inc_csr"),
    Target("repro.sampling.inc_csr:IncrementalWalkCSR", "alias_planes",
           "sampling.inc_csr"),
    Target("repro.sampling.inc_csr:IncrementalWalkCSR", "advance",
           "sampling.inc_csr"),
    Target("repro.sampling.inc_csr:IncrementalWalkCSR", "live_graph",
           "sampling.inc_csr"),
    Target("repro.sampling.walks:WalkEngine", "__init__", "sampling.walks"),
    Target("repro.sampling.walks:WalkEngine", "from_adjacency",
           "sampling.walks"),
    Target("repro.sampling.walks:WalkEngine", "run", "sampling.walks"),
    Target("repro.sampling.walks:WalkEngine", "run_chunked",
           "sampling.walks"),
    Target("repro.core.chain:Level", "attach_jacobi", "core.chain"),
    Target("repro.linalg.pinv", "pinv_psd", "linalg.pinv"),
    Target("repro.core.solver", "block_cholesky", "core.block_cholesky",
           count=_levels),
    # Solve path.
    Target("repro.core.solver", "preconditioned_richardson",
           "core.richardson", count=_iterations),
    Target("repro.core.apply_cholesky:ApplyCholeskyOperator", "apply",
           "core.apply_cholesky"),
    Target("repro.linalg.jacobi:JacobiOperator", "apply", "linalg.jacobi"),
    Target("repro.core.solver:LaplacianSolver", "solve_many_report",
           "core.solver"),
    Target("repro.core.solver:LaplacianSolver", "apply_L", "core.solver"),
    Target("repro.core.solver", "project_out_ones", "core.solver"),
    Target("repro.core.solver", "conjugate_gradient", "linalg.cg"),
    # Serve path.
    Target("repro.serve.service:SolverService", "_build", "serve.cache"),
    Target("repro.serve.service:SolverService", "_run_batch",
           "serve.service", count=_batch_width, op_of=_batch_op),
)


def resolve_owner(owner: str):
    """The module or class an owner string names."""
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


def snapshot() -> dict:
    """The raw object behind every target attribute, by identity."""
    return {(t.owner, t.attr): vars(resolve_owner(t.owner))[t.attr]
            for t in TARGETS}


class Span:
    """One timed call: ``t1 - t0`` seconds in ``layer``."""

    __slots__ = ("layer", "t0", "t1", "parent", "op", "counts")

    def __init__(self, layer: str, parent, op) -> None:
        self.layer = layer
        self.parent = parent
        self.op = op
        self.counts: dict | None = None


class Tracer:
    """Records spans around the calls listed in :data:`TARGETS`.

    Each thread keeps its own span stack, so a span's parent is the
    innermost open span of the same thread.  A span takes its parent's
    op id, a top-level span the id its thread last passed to
    :meth:`set_op`; a target with ``op_of`` always starts a new
    top-level span with the op id it computes.  Use as a context
    manager: entering installs the wrappers, leaving restores the
    originals even when the traced code raised.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- op attribution ------------------------------------------------------

    def set_op(self, op) -> None:
        """Tag spans that the calling thread opens from now on."""
        self._local.op = op

    # -- installing and restoring --------------------------------------------

    def _wrap(self, fn, target: Target):
        spans = self.spans
        local = self._local
        layer = target.layer
        count = target.count
        op_of = target.op_of
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            if op_of is not None:
                parent, op = None, op_of(args, kwargs)
            elif stack:
                parent = stack[-1]
                op = parent.op
            else:
                parent, op = None, getattr(local, "op", None)
            span = Span(layer, parent, op)
            spans.append(span)
            stack.append(span)
            span.t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Swap every target attribute for its timing wrapper."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in TARGETS:
                owner = resolve_owner(target.owner)
                raw = vars(owner)[target.attr]
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._saved.append((owner, target.attr, raw))
                setattr(owner, target.attr, wrapped)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put back every original attribute (last installed first)."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- analysis ------------------------------------------------------------

    def layer_totals(self, ops: set) -> dict:
        """Per layer, over spans whose op id is in ``ops``: ``busy``
        self seconds, ``calls``, and the spans' summed counters.

        A span's self time is its duration minus the durations of its
        direct children; children of one span run in its thread, one
        after another, so they never overlap.
        """
        child = {}
        for s in self.spans:
            if s.parent is not None:
                key = id(s.parent)
                child[key] = child.get(key, 0.0) + (s.t1 - s.t0)
        totals: dict[str, dict] = {}
        for s in self.spans:
            if s.op not in ops:
                continue
            row = totals.setdefault(s.layer, {"busy": 0.0, "calls": 0})
            row["busy"] += (s.t1 - s.t0) - child.get(id(s), 0.0)
            row["calls"] += 1
            if s.counts:
                for name, value in s.counts.items():
                    row[name] = row.get(name, 0) + value
        return totals

    def top_level(self) -> dict:
        """Spans with no parent span, grouped by op id."""
        groups: dict = {}
        for s in self.spans:
            if s.parent is None:
                groups.setdefault(s.op, []).append(s)
        return groups

    def save(self, path, t_origin: float, extra: dict | None = None
             ) -> None:
        """Write spans as columns to a compressed ``.npz``.

        Times are seconds after ``t_origin``; ``parent`` is a row index
        (-1 for none); ``op`` is the op id as text (empty for set-up).
        """
        index = {id(s): i for i, s in enumerate(self.spans)}
        layers = sorted({s.layer for s in self.spans})
        layer_id = {name: i for i, name in enumerate(layers)}
        columns = {
            "layers": np.array(layers, dtype=str),
            "layer": np.array([layer_id[s.layer] for s in self.spans],
                              dtype=np.int16),
            "t0": np.array([s.t0 - t_origin for s in self.spans]),
            "t1": np.array([s.t1 - t_origin for s in self.spans]),
            "parent": np.array([-1 if s.parent is None
                                else index[id(s.parent)]
                                for s in self.spans], dtype=np.int64),
            "op": np.array(["" if s.op is None else str(s.op)
                            for s in self.spans], dtype=str),
        }
        for name, values in (extra or {}).items():
            columns[name] = np.asarray(values)
        np.savez_compressed(path, **columns)


def covered_seconds(spans, lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals inside ``[lo, hi]``."""
    total = 0.0
    end = lo
    for s in sorted(spans, key=lambda s: s.t0):
        a, b = max(s.t0, end), min(s.t1, hi)
        if b > a:
            total += b - a
            end = b
    return total

"""Build · serve benchmark of the Laplacian solver.

Run from the repository root::

    python3 perfbench/run.py --workload build --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a second, traced phase (and writes its spans to
``perfbench/traces/``).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it (prefixed ``record``) holds the environment, the host
probe, the raw times behind the scaled ones and every failed op.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "traces"

#: Thread pools of the numeric libraries, pinned before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_environment() -> list[str]:
    """One thread per numeric library; drop every ``REPRO_*`` variable
    so the program's own settings take the code's defaults.  Returns
    the names removed."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin the environment before numpy is imported")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    removed = sorted(v for v in os.environ if v.startswith("REPRO_"))
    for var in removed:
        del os.environ[var]
    return removed


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(removed: list[str]) -> dict:
    import numpy
    import scipy

    from perfbench.workloads import solver_options
    from repro.serve import (default_serve_cache_bytes,
                             default_serve_max_batch,
                             default_serve_max_pending,
                             default_serve_window_ms)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    opts = solver_options()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "repro_env_removed": removed,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "solver_options": {**dataclasses.asdict(opts),
                           "resolved_sampler": opts.resolve_sampler(),
                           "resolved_coalesce": opts.resolve_coalesce(),
                           "resolved_ship_solves":
                               opts.resolve_ship_solves()},
        "serve_defaults": {"window_ms": default_serve_window_ms(),
                           "max_batch": default_serve_max_batch(),
                           "cache_bytes": default_serve_cache_bytes(),
                           "max_pending": default_serve_max_pending()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    removed = pin_environment()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import workloads

    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    record = {**result.record, "environment": environment(removed)}
    if result.tracer is not None:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        path = TRACE_DIR / f"{args.workload}-seed{args.seed}.npz"
        phase = result.phases["traced"]
        t_origin = phase.ops[0].t0
        result.tracer.save(path, t_origin, extra={
            "op_t0": [r.t0 - t_origin for r in phase.ops],
            "op_t1": [r.t1 - t_origin for r in phase.ops],
            "op_batch": [r.batch for r in phase.ops]})
        record["trace_file"] = str(path.relative_to(ROOT))

    for name, (value, unit) in result.metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    print("record " + json.dumps(record, default=float))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

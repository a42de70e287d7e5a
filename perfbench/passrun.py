"""Run one pass of a workload in this (fresh) process; write JSON.

Usage::

    python3 perfbench/passrun.py --phase cold|rerun --workload NAME \\
        --seed N --trace 0|1 --cache DIR --out FILE

``run.py`` starts one of these per pass, so every pass starts cold: no
modules imported beyond ``repro`` itself and an empty pre-trained memo.
A ``cold`` pass fills the empty cache directory ``--cache``; a
``rerun`` pass reads it back.  With ``--trace 1`` the pass runs under
:class:`layers.LayerTracer` and the file also holds its totals.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, run_cold, run_rerun  # noqa: E402


def fingerprint() -> dict:
    """The host and software a pass ran on."""
    import numpy

    from repro.core.kernels import active_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernel_backend": active_backend().name,
    }


def peak_rss_mb(jobs: int) -> float:
    """This process's peak RSS plus ``jobs`` times its largest worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs else 0
    return (own + jobs * child) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", required=True, choices=("cold", "rerun"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cache", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    from repro.experiments.registry import ensure_registered

    ensure_registered()
    workload = WORKLOADS[args.workload]
    run = run_cold if args.phase == "cold" else run_rerun
    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = run(workload, args.seed, args.cache)
    finally:
        traced_wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        busy = traced_wall - out.get("idle_s", 0.0)
        out["trace"] = {"wall_s": busy, "totals": tracer.snapshot()}
    out["peak_rss_mb"] = peak_rss_mb(workload.jobs())
    out["host"] = fingerprint()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

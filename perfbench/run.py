"""The benchmark command for the TECO reproduction (host time only).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs cold passes (``workloads.py``), each in a
fresh process, until ``--seconds`` are used, times set-up (``import
repro`` plus ``ensure_registered()`` in a fresh interpreter) at the
start, after each pass and at the end, and reports the end-to-end metrics of
``BENCHMARK.json``.  With
``--trace 1`` it runs an untraced cold pass and re-run, a traced cold
pass and re-run, and another untraced cold pass, and reports the
per-layer metrics: the two traced passes as one trace, the untraced
re-run's cache latencies, and ``bench.trace_overhead``.

Every pass's result hashes must equal the ones recorded in
``expected.json``, and a trace's accounting must hold (see
:meth:`layers.LayerTracer.accounting_problems`); otherwise the command
exits 1 and reports no metrics.  The last line of standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go to ``.perfbench-tmp/`` in the checkout
and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import LayerTracer  # noqa: E402
from workloads import WORKLOADS, data_seed  # noqa: E402

#: Fewest fresh interpreters timed per run for ``setup_s`` (the median
#: counts).
SETUP_RUNS = 10
SETUP_CODE = (
    "import repro\n"
    "from repro.experiments.registry import ensure_registered\n"
    "ensure_registered()\n"
)
#: Seconds beyond ``--seconds`` before a running pass is killed.  A
#: ``--trace 0`` run starts no pass that it expects to end after
#: ``--seconds``; a ``--trace 1`` run makes a fixed set of passes.
SLACK_S = 130.0


class BenchError(Exception):
    """The run cannot report metrics (a failed check or a child error)."""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # Turn SIGTERM into an exception, so that the running child's process
    # group is killed and waited for, and the scratch directory removed.
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected(args.workload, args.seed)
    tmp = ROOT / ".perfbench-tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + args.seconds + SLACK_S
    try:
        env = child_env(tmp)
        if args.trace:
            # The first pass of a run is often slower than later ones, so
            # the untraced pass that the overhead divides by comes last.
            first = run_child("cold", args, 0, env, tmp, deadline)
            warm = run_child("rerun", args, 0, env, tmp, deadline, first["cache"])
            cold = run_child("cold", args, 1, env, tmp, deadline)
            rerun = run_child("rerun", args, 1, env, tmp, deadline, cold["cache"])
            plain = run_child("cold", args, 0, env, tmp, deadline)
            passes = [first, warm, cold, rerun, plain]
        else:
            passes, setup = run_passes(args, env, tmp, deadline)
        attempted = sum(p["attempted"] for p in passes)
        problems = check(passes, expected)
        if args.trace and not problems:
            values, trace_problems = per_layer(args.workload, plain, warm, cold, rerun)
            problems += trace_problems
        elif not problems:
            values = end_to_end(passes, setup)
        host = dict(passes[0]["host"], commit=git_commit())
        print("host " + json.dumps(host, sort_keys=True))
        cold_walls = [round(p["wall_s"], 4) for p in passes if p["phase"] == "cold"]
        print("cold passes wall_s:", cold_walls)
        if problems:
            for line in problems:
                print(f"check failed: {line}", file=sys.stderr)
            print(json.dumps(
                {"correct": False, "attempted": attempted,
                 "failed": len(problems), "metrics": {}}
            ))
            return 1
        declared = declared_metrics("per_layer" if args.trace else "end_to_end")
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared.items()
        }
        print(json.dumps(
            {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
        ))
        return 0
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def load_expected(workload: str, seed: int) -> dict:
    """Recorded ``{cell: result hash}`` for the data seed ``seed`` selects."""
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)[workload][str(data_seed(seed))]


def declared_metrics(group: str) -> dict[str, str]:
    """``{name: unit}`` of one metric group of ``BENCHMARK.json``."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[group]}


def child_env(tmp: Path) -> dict:
    """The environment of every child: ``src`` importable, the default
    kernel backend, and caches and temp files inside ``tmp``."""
    env = dict(os.environ)
    env.pop("REPRO_KERNEL", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CACHE_DIR"] = str(tmp / "default-cache")
    env["TMPDIR"] = str(tmp)
    return env


def run_checked(cmd: list[str], env: dict, deadline: float) -> None:
    """Run ``cmd`` in its own process group; kill the group at ``deadline``.

    The wait blocks in ``waitpid`` (a timer does the killing), so the
    measured duration is not rounded up to a polling interval.
    """
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, start_new_session=True
    )
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        code = proc.wait()
    except BaseException:
        kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    if expired.is_set():
        raise BenchError(f"timed out: {' '.join(cmd)}")
    if code != 0:
        raise BenchError(f"exit code {code}: {' '.join(cmd)}")


def time_setup(env: dict, deadline: float) -> float:
    """Seconds for a fresh interpreter to import and register everything."""
    t0 = time.perf_counter()
    run_checked([sys.executable, "-c", SETUP_CODE], env, deadline)
    return time.perf_counter() - t0


def run_child(
    phase: str, args, trace: int, env: dict, tmp: Path, deadline: float,
    cache: str | None = None,
) -> dict:
    """One pass in a fresh process; returns what it wrote.

    A cold pass gets a new empty cache directory, returned as ``cache``.
    """
    if cache is None:
        cache = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    out = tmp / f"pass-{time.monotonic_ns()}.json"
    run_checked(
        [
            sys.executable, str(HERE / "passrun.py"), "--phase", phase,
            "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace), "--cache", cache, "--out", str(out),
        ],
        env,
        deadline,
    )
    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["phase"], result["cache"] = phase, cache
    return result


def run_passes(args, env: dict, tmp: Path, deadline: float) -> tuple[list, list]:
    """Half of :data:`SETUP_RUNS` timed set-ups, then cold passes, each
    followed by a timed set-up, while one more as long as the longest so
    far fits in ``--seconds`` (at least one); then set-ups up to
    :data:`SETUP_RUNS`.  So the set-ups sample the run from start to end
    even when one pass fills it.  Returns the passes and set-up times."""
    t0 = time.monotonic()
    setup = [time_setup(env, deadline) for _ in range(SETUP_RUNS // 2)]
    passes: list[dict] = []
    longest = 0.0
    while True:
        t = time.monotonic()
        passes.append(run_child("cold", args, 0, env, tmp, deadline))
        setup.append(time_setup(env, deadline))
        longest = max(longest, time.monotonic() - t)
        if time.monotonic() - t0 + longest > args.seconds:
            break
    while len(setup) < SETUP_RUNS:
        setup.append(time_setup(env, deadline))
    return passes, setup


def check(passes: list[dict], expected: dict) -> list[str]:
    """Every way the passes' outputs differ from what they must be."""
    problems = []
    for i, p in enumerate(passes):
        problems += [f"pass {i}: {e}" for e in p["errors"]]
        for key in sorted(set(expected) | set(p["hashes"])):
            got, want = p["hashes"].get(key), expected.get(key)
            if got != want:
                problems.append(f"pass {i}: {key} hash {got} != recorded {want}")
    return problems


def end_to_end(passes: list[dict], setup: list[float]) -> dict[str, float]:
    """Medians over the run's set-ups and cold passes; the peak RSS."""
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }


def per_layer(
    workload: str, plain: dict, warm: dict, cold: dict, rerun: dict
) -> tuple[dict, list[str]]:
    """The traced cold pass and re-run as one trace, the untraced pair's
    cache latencies, and every problem with the trace.

    A warm pass or a window of hits lasts milliseconds, and the host this
    was tuned on switches between a fast state and one about 1.85 times
    slower for seconds at a time, so each lands wholly in one state; the
    fastest window is the steady figure.
    """
    tracer = LayerTracer()
    tracer.merge(cold["trace"]["totals"])
    tracer.merge(rerun["trace"]["totals"])
    wall = cold["trace"]["wall_s"] + rerun["trace"]["wall_s"]
    values = tracer.metrics(wall)
    values["bench.trace_overhead"] = cold["wall_s"] / plain["wall_s"]
    values["cache.warm_wall_s"] = warm["warm_wall_s"]
    values["cache.hit_ms.p50"] = min(w[0] for w in warm["hit_windows"])
    values["cache.hit_ms.p95"] = min(w[1] for w in warm["hit_windows"])
    problems = tracer.accounting_problems(wall)
    if WORKLOADS[workload].fabrics:
        # The conservation checks must have had something to check.
        for counter in ("interconnect.fabrics_checked", "interconnect.links_checked"):
            if tracer.counters[counter] == 0:
                problems.append(f"{counter} is 0 on a workload that builds fabrics")
    return values, problems


def git_commit() -> str:
    """The checkout's commit, read from ``.git`` (``unknown`` without one)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main())

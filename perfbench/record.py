"""Record the result hashes the benchmark checks, into ``expected.json``.

Usage, from the root of a checkout::

    python3 perfbench/record.py

Runs one untraced cold pass per workload and data seed, and writes each
cell's result hash to a fresh ``expected.json``, so that every recorded
hash comes from the same source tree.  Re-record only when a change is meant to alter
simulated results; a change that claims only speed must leave every
recorded hash as it is.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, child_env, run_child  # noqa: E402
from workloads import DATA_SEEDS, WORKLOADS  # noqa: E402

#: Per-pass time limit while recording.
PASS_BUDGET_S = 600.0


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    recorded = {}
    tmp = ROOT / ".perfbench-tmp" / "record"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        env = child_env(tmp)
        for name in WORKLOADS:
            per_seed = {}
            for seed in range(DATA_SEEDS):
                run_args = SimpleNamespace(workload=name, seed=seed)
                out = run_child(
                    "cold", run_args, 0, env, tmp, time.monotonic() + PASS_BUDGET_S
                )
                if out["errors"]:
                    print(f"{name} seed {seed}: {out['errors']}", file=sys.stderr)
                    return 1
                per_seed[str(seed)] = dict(sorted(out["hashes"].items()))
                print(f"{name} seed {seed}: {len(out['hashes'])} cells", flush=True)
            recorded[name] = per_seed
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    path = HERE / "expected.json"
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

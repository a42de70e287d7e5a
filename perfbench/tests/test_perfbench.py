"""Tests of the benchmark itself (not of the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

The command-level tests run ``perfbench/run.py`` on the sweep-cache
workload (its passes take about two seconds) inside a copy of the
checkout, so a corrupted ``expected.json`` never touches the real one.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from layers import BOUNDARIES, InvariantError, LayerTracer  # noqa: E402


def _bound_attributes() -> dict:
    """``(owner id, attribute) -> value`` for everything a tracer may patch."""
    from repro.experiments import registry

    registry.ensure_registered()
    owners = [m for n, m in sys.modules.items() if n == "repro" or n.startswith("repro.")]
    for spec in registry.all_specs():
        owners.append(spec)
    for module in list(owners):
        if module is None:
            continue
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__.startswith("repro"):
                owners.append(value)
    return {
        (id(o), attr): value
        for o in owners
        if o is not None
        for attr, value in list(vars(o).items())
    }


def test_traced_run_restores_every_wrapped_attribute():
    from repro.experiments import registry

    before = _bound_attributes()
    tracer = LayerTracer()
    with tracer:
        during = _bound_attributes()
        result = registry.run_experiment("table1", seed=0)
    changed = [k for k in before if during.get(k) is not before[k]]
    # every boundary, the experiments' runners, three constructors and the
    # two executor hooks were wrapped
    assert len(changed) >= len(BOUNDARIES) + len(registry.all_specs()) + 5
    after = _bound_attributes()
    assert [k for k in before if after.get(k) is not before[k]] == []
    assert tracer.stats["registry.run"].calls == 1
    assert tracer.stats["driver.run"].calls == 1
    assert result.result_hash == registry.run_experiment("table1", seed=0).result_hash


def test_a_real_trace_has_sound_accounting():
    import time

    from repro.experiments import registry

    registry.ensure_registered()
    with LayerTracer() as tracer:
        t0 = time.perf_counter()
        registry.run_experiment(
            "fig_zero3", params={"ranks": [1, 2], "formats": ["fp32"]}, seed=0
        )
        wall = time.perf_counter() - t0
    m = tracer.metrics(wall)
    shares = sum(v for k, v in m.items() if k.endswith("share"))
    assert shares == pytest.approx(1.0, abs=1e-9)
    assert tracer.accounting_problems(wall) == []
    assert m["offload.cluster_steps"] == 2 and m["sim.events"] > 0
    assert 0.0 < m["interconnect.link_util_max"] <= 1.0
    assert tracer.counters["interconnect.fabrics_checked"] > 0
    assert tracer.counters["interconnect.links_checked"] > 0


def _traced_one_call(self_s: float, total: float) -> LayerTracer:
    """A tracer whose only record is one ``sim.run`` call."""
    tracer = LayerTracer()
    stat = tracer.stats["sim.run"]
    stat.calls, stat.total, stat.self_s = 1, total, self_s
    tracer.layer_self["sim"] = self_s
    tracer.wrapped_seconds = total
    return tracer


def test_negative_self_time_is_reported():
    problems = _traced_one_call(-0.5, 1.0).accounting_problems(2.0)
    assert any(p.startswith("sim.run:") for p in problems)
    assert any(p.startswith("layer sim:") for p in problems)


def test_self_time_above_inclusive_time_is_reported():
    problems = _traced_one_call(1.5, 1.0).accounting_problems(2.0)
    assert [p for p in problems if p.startswith("sim.run:")]


def test_wrapped_time_above_the_wall_is_reported():
    assert _traced_one_call(0.5, 1.0).accounting_problems(2.0) == []
    problems = _traced_one_call(0.5, 1.0).accounting_problems(0.9)
    assert [p for p in problems if p.startswith("wrapped calls")]


def test_a_fabric_workload_that_checked_no_fabric_fails():
    import run

    totals = LayerTracer().snapshot()
    traced = {"wall_s": 1.0, "trace": {"wall_s": 1.0, "totals": totals}}
    untraced = {"wall_s": 1.0, "warm_wall_s": 0.1, "hit_windows": [[0.1, 0.2]]}
    _, problems = run.per_layer("fabric-replay", untraced, untraced, traced, traced)
    assert any("fabrics_checked" in p for p in problems)
    assert any("links_checked" in p for p in problems)
    _, problems = run.per_layer("train-dba", untraced, untraced, traced, traced)
    assert problems == []


def test_fabric_byte_conservation_violation_is_reported():
    tracer = LayerTracer()
    stats = SimpleNamespace(
        port_bytes={0: 10.0}, total_bytes=11.0, switch_wait=0.0, pool_wait=0.0
    )
    tracer._fabrics.append(SimpleNamespace(name="f", stats=stats))
    with pytest.raises(InvariantError):
        tracer.check_cell()


def test_link_utilisation_above_one_is_reported():
    tracer = LayerTracer()
    link = SimpleNamespace(
        name="l", sim=SimpleNamespace(now=1.0), busy_time=2.0,
        utilization=lambda horizon: 2.0 / horizon,
    )
    tracer._links.append(link)
    with pytest.raises(InvariantError):
        tracer.check_cell()


# -- the command ---------------------------------------------------------------


@pytest.fixture(scope="module")
def checkout(tmp_path_factory) -> Path:
    """A copy of the files the benchmark runs from."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(ROOT / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
    return root


def _run(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "sweep-cache",
            "--seed", "0", "--seconds", "1", "--trace", str(trace),
        ],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_are_exactly_the_declared_ones(checkout, trace, group):
    proc = _run(checkout, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = json.loads((checkout / "BENCHMARK.json").read_text())[group]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert not (checkout / ".perfbench-tmp").exists() or not any(
        (checkout / ".perfbench-tmp").iterdir()
    )


def test_corrupted_expected_hash_fails_the_command(checkout, tmp_path):
    bad = tmp_path / "checkout"
    shutil.copytree(checkout, bad)
    path = bad / "perfbench" / "expected.json"
    expected = json.loads(path.read_text())
    cell = sorted(expected["sweep-cache"]["0"])[0]
    expected["sweep-cache"]["0"][cell] = "0" * 64
    path.write_text(json.dumps(expected))
    proc = _run(bad, 0)
    assert proc.returncode != 0
    assert cell in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["metrics"] == {}


def test_without_the_program_the_command_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "train-dba",
            "--seed", "0", "--seconds", "1", "--trace", "0",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

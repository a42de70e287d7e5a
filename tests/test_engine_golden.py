"""Bit-identity golden test for the six training-step engines.

``tests/data/golden_engine_steps.json`` holds, for a small grid of
configurations of every engine (ZeRO-Offload, TECO, activation offload,
ZeRO-3, data-parallel, multi-tenant cluster), the ``repr`` of every
field of the step's result.  ``repr`` of a float round-trips exactly, so
comparing with ``==`` pins each number to the last bit: a refactor of
the engines' step logic must reproduce every breakdown, byte count and
queueing figure unchanged, not merely to a tolerance.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python tests/test_engine_golden.py --regenerate
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.coherence.home_agent import CoherenceMode
from repro.models import get_model
from repro.offload.cluster import ClusterEngine
from repro.offload.engines import SystemKind, TECOEngine, ZeROOffloadEngine
from repro.offload.group_offload import (
    ActivationOffloadEngine,
    GroupOffloadPolicy,
)
from repro.offload.parallel import ClusterParams, DataParallelEngine
from repro.offload.zero3 import Zero3Engine

FIXTURE = Path(__file__).parent / "data" / "golden_engine_steps.json"

MODEL = "gpt2"


def _cases() -> dict:
    """Case id -> zero-argument callable returning one step's result."""
    spec = get_model(MODEL)
    n_layers = spec.n_layers
    cases = {}
    for batch in (4, 32):
        for dpu in (False, True):
            cases[f"zero-offload/b{batch}/dpu={dpu}"] = (
                lambda b=batch, d=dpu: ZeROOffloadEngine(spec, b, dpu=d)
            )
    for dba in (False, True):
        for mode in CoherenceMode:
            cases[f"teco/dba={dba}/{mode.value}"] = (
                lambda d=dba, m=mode: TECOEngine(spec, 4, dba=d, coherence=m)
            )
    policies = {
        "all-g1-p1": GroupOffloadPolicy(n_layers=n_layers),
        "half-g2-p0": GroupOffloadPolicy.from_fraction(
            n_layers, 0.5, group_size=2, prefetch_groups=0
        ),
        "g3-p2-skip": GroupOffloadPolicy(
            n_layers=n_layers,
            group_size=3,
            prefetch_groups=2,
            skip_layers=(0, 4),
        ),
    }
    for name, policy in policies.items():
        for dba in (False, True):
            cases[f"activation/{name}/dba={dba}"] = (
                lambda p=policy, d=dba: ActivationOffloadEngine(
                    spec, 8, policy=p, dba=d
                )
            )
    for ranks in (1, 4):
        for fmt in ("fp32", "int8-dba"):
            for prefetch in (0, 1):
                cases[f"zero3/r{ranks}/{fmt}/p{prefetch}"] = (
                    lambda r=ranks, f=fmt, p=prefetch: Zero3Engine(
                        spec, 8, ranks=r, prefetch_layers=p, wire_format=f
                    )
                )
    for kind in SystemKind:
        for n_gpus in (1, 4):
            cases[f"dp/{kind.value}/n{n_gpus}"] = (
                lambda k=kind, n=n_gpus: DataParallelEngine(
                    k, spec, 8, ClusterParams(n_gpus=n)
                )
            )
    for kind in (SystemKind.ZERO_OFFLOAD, SystemKind.TECO_REDUCTION):
        for hosts, tenants in ((1, 1), (2, 4)):
            for policy in ("fair", "shared"):
                for reduce in (False, True):
                    cases[
                        f"cluster/{kind.value}/h{hosts}t{tenants}/"
                        f"{policy}/reduce={reduce}"
                    ] = (
                        lambda k=kind, h=hosts, t=tenants, p=policy, r=reduce: (
                            ClusterEngine(
                                k,
                                spec,
                                8,
                                ClusterParams(n_gpus=2),
                                n_hosts=h,
                                n_tenants=t,
                                policy=p,
                                reduce_in_fabric=r,
                                grad_wire_format="fp16",
                            )
                        )
                    )
    return cases


CASES = _cases()


def result_fields(obj, prefix: str = "") -> dict[str, str]:
    """``repr`` of every field of a result dataclass, flattened.

    Nested dataclasses (an ``ActivationStepResult``'s breakdown) and
    tuples of them (a ``ClusterStepResult``'s per-tenant breakdowns)
    expand into dotted / indexed keys.
    """
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        key = prefix + f.name
        if dataclasses.is_dataclass(value):
            out.update(result_fields(value, key + "."))
        elif (
            isinstance(value, tuple)
            and value
            and all(dataclasses.is_dataclass(v) for v in value)
        ):
            for i, v in enumerate(value):
                out.update(result_fields(v, f"{key}[{i}]."))
        else:
            out[key] = repr(value)
    return out


def snapshot() -> dict:
    """Every case's result fields, keyed by case id."""
    return {
        case: result_fields(make().simulate_step())
        for case, make in CASES.items()
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    assert FIXTURE.exists(), (
        f"missing fixture {FIXTURE}; regenerate with "
        "`PYTHONPATH=src python tests/test_engine_golden.py --regenerate`"
    )
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_step_is_bit_identical(case, golden):
    got = result_fields(CASES[case]().simulate_step())
    assert got == golden[case]


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        FIXTURE.parent.mkdir(exist_ok=True)
        FIXTURE.write_text(json.dumps(snapshot(), indent=1) + "\n")
        print(f"wrote {FIXTURE}")
    else:
        sys.exit("run under pytest, or pass --regenerate")

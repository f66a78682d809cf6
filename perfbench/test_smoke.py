"""A smoke size of every workload, each run in about a second.

Run with ``python3 -m pytest perfbench``. Every metric BENCHMARK.json names
must be emitted, with its unit, by the untraced and the traced run.
"""

import json
import math
from pathlib import Path

import pytest

import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_with_its_unit(workload, trace, section):
    result, report = run.run(workload, seed=3, seconds=0.5, trace=bool(trace), smoke=True)

    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1 and result["failed"] == 0
    # A few-student test split cannot promise an AUC above chance; every
    # other output check must hold at smoke size too.
    assert {name: ok for name, ok in report["checks"].items()
            if name != "test_auc_in_range" and not ok} == {}
    assert report["environment"]["nproc"] >= 1
    if trace:
        assert math.isfinite(result["metrics"]["trace.overhead_share"]["value"])

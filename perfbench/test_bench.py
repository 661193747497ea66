"""Smoke test of the benchmark itself, at tiny sizes (about half a minute).

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import math
from dataclasses import replace

import pytest

import run

run.import_program()

import workloads  # noqa: E402  (needs the program on sys.path first)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return {
        "sweep-binary": lambda: workloads.SweepBinary(grid_plain=4, grid_erased=3,
                                                      budgets=(0.0, 0.2, 0.4)),
        "sweep-small": lambda: workloads.SweepSmall(classes=workloads.SIZE_CLASSES[::7]),
        "lossy-table": lambda: workloads.LossyTable(grid_steps=3),
        "sim-campaign": lambda: workloads.SimCampaign(n=8, trials=5),
    }[name]()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_printed_with_unit(name, trace, capsys):
    record = run.measure_and_report(tiny(name), seed=3, seconds=0, trace=trace, out_dir=None)
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["failures"]
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert f"# {m['name']} = {got['value']!r} {m['unit']}" in lines
        if not trace:
            assert got["value"] > 0


def test_rate_sum_repeats_for_a_seed(capsys):
    first = run.measure_and_report(tiny("sweep-small"), 5, 0, 0, out_dir=None)
    second = run.measure_and_report(tiny("sweep-small"), 5, 0, 0, out_dir=None)
    capsys.readouterr()
    assert first["metrics"]["rate_sum"]["value"] == second["metrics"]["rate_sum"]["value"]


def _lowered(solve):
    def corrupt(*args, **kwargs):
        point = solve(*args, **kwargs)
        return replace(point, rate=point.rate - 0.05)
    return corrupt


def _overspent(solve):
    def corrupt(spec, budget, *args, **kwargs):
        return solve(spec, budget + 0.2, *args, **kwargs)
    return corrupt


def _miscounted(campaign):
    def corrupt(*args, **kwargs):
        rep = campaign(*args, **kwargs)
        return replace(rep, breakdown={**rep.breakdown,
                                       "decoder-none": rep.breakdown["decoder-none"] + 1})
    return corrupt


@pytest.mark.parametrize("name, target, corrupt", [
    ("sweep-binary", "solve_noncausal", _lowered),
    ("sweep-small", "solve_causal", _overspent),
    ("lossy-table", "solve_lossy_causal", _lowered),
    ("sim-campaign", "run_campaign", _miscounted),
])
def test_corrupted_answer_trips_a_gate(name, target, corrupt, monkeypatch, capsys):
    monkeypatch.setattr(workloads, target, corrupt(getattr(workloads, target)))
    record = run.measure_and_report(tiny(name), seed=3, seconds=0, trace=0, out_dir=None)
    capsys.readouterr()
    assert not record["correct"]
    assert record["failed"] >= 1

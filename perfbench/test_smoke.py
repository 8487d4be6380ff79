"""Smoke test of the benchmark harness on a tiny rigid sweep (A2 only)."""

import json
import math

import run

run._import_program()

import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _a2_sweep():
    w = workloads.rigid_sweep(0, workloads.load_reference())
    w.items = [name for name in w.items if name.startswith("A2:")]
    return w


def test_every_metric_emitted_with_unit_and_traced_self_times_add_up():
    raw = run.measure(_a2_sweep(), 0, True, run.import_seconds())
    values = run.summarize(raw)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = run.select_metrics(SPEC, values, trace)
        assert [m["name"] for m in SPEC[key]] == list(metrics)
        for m in SPEC[key]:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
            assert math.isfinite(got["value"])
    statuses = {r[2] for _, recs in raw["passes"] for r in recs}
    assert statuses <= {"pass", "defect"}, statuses
    bound = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["run_s"]
    traced = values["trace.run_s"]
    assert abs(values["trace.self_sum_s"] - traced) <= bound * traced
    assert values["bench.item.calls"] == 10
    assert values["rigidmodel.build_rigid.calls"] == 10

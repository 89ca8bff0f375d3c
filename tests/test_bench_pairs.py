import argparse
import json
from pathlib import Path

import pytest

from support import load_module

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


@pytest.fixture()
def bench_pairs():
    return load_module(SCRIPT, "bench_pairs")


def test_traced_values_are_the_median_of_three_alternating_runs(bench_pairs, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout, seed, trace))
        value = 10.0 * (checkout == "change") + len(calls)
        metrics = {k: {"value": value, "unit": "s"} for k in END_TO_END}
        metrics.update({k: {"value": value, "unit": "count"} for k in PER_LAYER})
        # a traced pass at half the reference host speed: its times halve
        metrics["builder.s0_glue.self_s"] = {"value": value, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": 4.0, "unit": "s"}
        run = {"pass_wall_s": [4.0, 4.0, 9.0], "pass_scale": [0.5, 0.5]}
        return {"correct": True, "failed": 0, "attempted": 5, "metrics": metrics, "run": run}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    args = argparse.Namespace(
        parent="parent", change="change", pairs=2, seed=1, seconds=1,
        end_to_end=END_TO_END, per_layer=PER_LAYER,
    )
    record, traced, correct = bench_pairs.measure(args, "surfaces")
    assert correct and record["seeds"] == [1, 2]
    # the change side runs 10 higher, so it wins nothing
    assert record["metrics"]["wall_s"]["gain_rule_met"] is False
    assert [c[:2] for c in calls if c[2]] == [
        ("parent", 101), ("change", 101), ("change", 102), ("parent", 102),
        ("parent", 103), ("change", 103),
    ]
    # the traced runs are calls 5-10: parent 5, 8, 9 and change 16, 17, 20
    assert traced["seeds"] == [101, 102, 103]
    assert traced["parent"]["builder.s0_glue.self_s"] == 8 / 2
    assert traced["change"]["builder.s0_glue.self_s"] == 17 / 2
    assert traced["change"]["domains.connects.calls"] == 17
    assert list(traced["parent"]) == list(traced["change"]) == PER_LAYER


def test_main_reads_the_benchmark_from_the_change_checkout(bench_pairs, monkeypatch, tmp_path):
    change, elsewhere = tmp_path / "change", tmp_path / "elsewhere"
    change.mkdir()
    elsewhere.mkdir()
    workloads = [{"name": "surfaces"}]
    bench = dict(BENCHMARK, run_seconds=1, workloads=workloads)
    (change / "BENCHMARK.json").write_text(json.dumps(bench))
    # a stray BENCHMARK.json beside --out is not the one measured
    (elsewhere / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 9, "workloads": []}))
    seen = []

    def fake_measure(args, workload):
        seen.append((workload, args.seconds))
        wall = {"parent": {"median": 2.0}, "change": {"median": 1.0}}
        return {"metrics": {"wall_s": wall}}, {}, True

    monkeypatch.setattr(bench_pairs, "measure", fake_measure)
    out = elsewhere / "BENCH_10.json"
    argv = [
        "--parent", str(tmp_path / "parent"), "--change", str(change), "--out", str(out),
        "--seed", "1", "--parent-commit", "abc", "--change-note", "n",
    ]
    assert bench_pairs.main(argv) == 0
    assert seen == [("surfaces", 1)]
    # each file holds its own two medians and no ratio chained onto another file's
    wall = json.loads(out.read_text())["workloads"]["surfaces"]["metrics"]["wall_s"]
    assert wall == {"parent": {"median": 2.0}, "change": {"median": 1.0}}


def test_the_record_follows_the_metric_names_of_the_change_benchmark(
    bench_pairs, monkeypatch, tmp_path
):
    # the change declares one more per-layer value and one end-to-end metric fewer
    bench = dict(BENCHMARK, run_seconds=1, workloads=[{"name": "surfaces"}])
    bench["end_to_end"] = [m for m in bench["end_to_end"] if m["name"] != "peak_rss_mb"]
    bench["per_layer"] = bench["per_layer"] + [{"name": "builder.s5.self_s", "unit": "s"}]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(bench))

    def fake_run(checkout, workload, seed, seconds, trace):
        names = list(END_TO_END) + PER_LAYER + ["builder.s5.self_s"]
        metrics = {k: {"value": 1.0, "unit": END_TO_END.get(k, "s")} for k in names}
        run = {"pass_wall_s": [1.0], "pass_scale": [1.0]}
        return {"correct": True, "failed": 0, "attempted": 1, "metrics": metrics, "run": run}

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH_1.json"
    argv = [
        "--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out),
        "--seed", "1", "--parent-commit", "abc", "--change-note", "n",
    ]
    assert bench_pairs.main(argv) == 0
    record = json.loads(out.read_text())
    metrics = record["workloads"]["surfaces"]["metrics"]
    assert {m: metrics[m]["unit"] for m in metrics} == {
        m["name"]: m["unit"] for m in bench["end_to_end"]
    }
    for side in ("parent", "change"):
        assert list(record["traced"]["surfaces"][side]) == [m["name"] for m in bench["per_layer"]]


def test_the_gain_rule_needs_both_the_wins_and_a_drop_beyond_the_parent_spread(bench_pairs):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]  # q1 1.225, q3 1.675
    rule = bench_pairs.gain_rule_met

    def met(change):
        wins = sum(c < p for p, c in zip(parent, change))
        return rule(bench_pairs.summary(parent), bench_pairs.summary(change), wins)

    # ten wins, but the medians differ by 0.01, well inside the parent's 0.45
    assert not met([p - 0.01 for p in parent])
    # the median drops by 0.6, but the change wins only eight pairs
    assert not met([p - 0.6 for p in parent[:8]] + [2.0, 2.0])
    # nine wins (a tie counts for neither) and a drop of 0.5
    assert met([p - 0.5 for p in parent[:9]] + [parent[9]])
    # ten wins and a drop of 0.4, still inside the spread
    assert not met([p - 0.4 for p in parent])

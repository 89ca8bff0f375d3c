"""Write a ``BENCH_<n>.json`` record from alternating parent/change benchmark runs.

Given two checkouts of the repository, the parent commit and the change,
this runs ``perfbench/run.py`` in each for every workload that the
change's ``BENCHMARK.json`` declares, for its ``run_seconds``: ``--pairs``
untraced pairs, the side that goes first alternating from pair to pair,
then three traced pairs on the seeds from ``--seed`` + 100 on.  It writes
the medians and quartiles of every ``end_to_end`` metric that file
declares, whether each one meets the gain rule (``gain_rule_met``), the
seeds, the run order, the failed operations and the median of the three
traced runs of each of its ``per_layer`` values, in the schema of
``BENCH_7.json``.  Traced times are brought to the probe's reference host
speed, as ``run.py`` brings untraced ones, so that traced runs made at
different host speeds agree.

Each file compares two commits directly.  Medians of different files are
not compared, nor are their ratios multiplied into a trajectory: probe
scaling does not remove drift between runs made days apart, and a product
of per-change ratios compounds each one's noise.  For the ratio over a
longer range, run the pairs directly, with ``--parent`` a checkout of the
earlier commit.

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --out BENCH_8.json --pairs 10 --seed 8101 \\
        --parent-commit 71004ac --change-note "what the change does"

Each run is one process at a time, so the two sides see the same host.
The exit code is 1 when any run was not correct, 0 otherwise; the record
is written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
TRACED_RUNS = 3
RUN = "python3 perfbench/run.py --workload <w> --seed {seed} --seconds {seconds} --trace {trace}"


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` process in ``checkout``: its last output line,
    with the line before it, the run's record, under ``"run"``."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} printed nothing\n{proc.stderr}")
    return dict(json.loads(lines[-1]), run=json.loads(lines[-2]))


def probe_scaled(out: dict) -> dict:
    """The metrics of one traced run, its times at the probe's reference speed.

    ``run.py`` reports traced times raw and ``trace.untraced_wall_s`` as the
    untraced passes' median scaled wall over the traced pass's probe scale,
    so that scale is the median scaled wall over ``trace.untraced_wall_s``.
    """
    run, metrics = out["run"], out["metrics"]
    scaled = [w * f for w, f in zip(run["pass_wall_s"], run["pass_scale"])]
    scale = statistics.median(scaled) / metrics["trace.untraced_wall_s"]["value"]
    return {k: m["value"] * (scale if m["unit"] == "s" else 1) for k, m in metrics.items()}


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {
        "median": round(median, 6),
        "q1": round(q1, 6),
        "q3": round(q3, 6),
        "runs": [round(v, 6) for v in runs],
    }


def gain_rule_met(parent: dict, change: dict, wins: int) -> bool:
    """Whether a gain may be claimed on one metric, from the two sides'
    summaries and the pairs the change won (lower, ties counting for
    neither): it must win at least nine tenths of the pairs, and its median
    must be lower than the parent's by more than the parent's quartile
    distance q3 - q1."""
    spread = parent["q3"] - parent["q1"]
    return 10 * wins >= 9 * len(parent["runs"]) and parent["median"] - change["median"] > spread


def measure(args: argparse.Namespace, workload: str) -> tuple[dict, dict, bool]:
    """(workload record, traced record, every run correct) for one workload."""
    checkouts = {"parent": args.parent, "change": args.change}
    seeds = [args.seed + k for k in range(args.pairs)]
    first = [SIDES[k % 2] for k in range(args.pairs)]
    values: dict = {side: {m: [] for m in args.end_to_end} for side in SIDES}
    failed = dict.fromkeys(SIDES, 0)
    attempted, correct = None, True
    for seed, lead in zip(seeds, first):
        for side in (lead, SIDES[1 - SIDES.index(lead)]):
            out = run_once(checkouts[side], workload, seed, args.seconds, 0)
            correct &= bool(out["correct"])
            failed[side] += out["failed"]
            attempted = out["attempted"]
            for m in args.end_to_end:
                values[side][m].append(out["metrics"][m]["value"])
            print(f"{workload} seed {seed} {side}: wall_s {out['metrics']['wall_s']['value']:.4f}",
                  file=sys.stderr)
    metrics = {}
    for m in args.end_to_end:
        parent, change = (summary(values[side][m]) for side in SIDES)
        wins = sum(c < p for p, c in zip(values["parent"][m], values["change"][m]))
        metrics[m] = {
            "unit": args.end_to_end[m],
            "parent": parent,
            "change": change,
            "change_wins": wins,
            "median_change": round(change["median"] / parent["median"] - 1, 4),
            "gain_rule_met": gain_rule_met(parent, change, wins),
        }
    record = {
        "seeds": seeds,
        "first_in_pair": first,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    # the traced seeds sit 100 above the untraced ones, clear of any --pairs in use
    traced: dict = {"seeds": [args.seed + 100 + k for k in range(TRACED_RUNS)]}
    runs: dict = {side: [] for side in SIDES}
    for k, seed in enumerate(traced["seeds"]):
        for side in SIDES[:: 1 if k % 2 == 0 else -1]:
            out = run_once(checkouts[side], workload, seed, args.seconds, 1)
            correct &= bool(out["correct"])
            runs[side].append(probe_scaled(out))
    for side in SIDES:
        traced[side] = {
            k: round(statistics.median(m[k] for m in runs[side]), 6) for k in args.per_layer
        }
    return record, traced, correct


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change-note", required=True, help="one line on what the change does")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    args.seconds = bench["run_seconds"]
    args.end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    args.per_layer = [m["name"] for m in bench["per_layer"]]
    host = f"{os.cpu_count()}-core {platform.machine()} host, Python {platform.python_version()}"
    out = {
        "provenance": f"measured: {args.pairs} alternating parent/change pairs per workload "
        "by scripts/bench_pairs.py (not transcribed)",
        "change": args.change_note,
        "parent_commit": args.parent_commit,
        "command": RUN.format(seed="<s>", seconds=f"{args.seconds:g}", trace=0),
        "traced_command": RUN.format(seed="<s>", seconds=f"{args.seconds:g}", trace=1),
        "host": host + "; times, traced ones too, are probe-scaled to the reference host speed",
        "statistics": f"median and quartiles (inclusive method) over the {args.pairs} runs of "
        "each side; change_wins counts pairs where the change is lower; median_change is "
        "change median / parent median - 1; gain_rule_met is true when the change wins at "
        "least nine tenths of the pairs and parent median - change median exceeds the "
        f"parent's q3 - q1; each traced value is the median of {TRACED_RUNS} traced runs "
        "per side, the side that goes first alternating",
        "workloads": {},
        "traced": {},
    }
    all_correct = True
    for workload in (w["name"] for w in bench["workloads"]):
        record, traced, correct = measure(args, workload)
        out["workloads"][workload] = record
        out["traced"][workload] = traced
        all_correct &= correct
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())

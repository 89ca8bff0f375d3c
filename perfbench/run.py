"""Benchmark runner for hdindex: one workload per process, single-threaded.

Run from the repository root:

    python3 perfbench/run.py --workload check --seed 1 --seconds 25 --trace 0

The run makes whole passes over the cases, as many as fit in ``--seconds``
at the seed commit's speed (always at least one), checking every output
record against the pinned reference after each pass.  Before, between and
after the passes it sets up the workload afresh (import, parse and
validate, case-list preparation).  Every operation is timed in every pass.
A host-speed probe (``probe.py``) runs throughout, and every reported time
is scaled to the probe's reference speed: ``wall_s`` is the median scaled
pass, the latency percentiles are taken over each operation's median
scaled time in the passes, and ``setup_s`` is the median set-up scaled by
the probe samples of all set-ups.  With ``--trace 1`` the run then sets up
and runs one more pass under the span tracer, unscaled, checks the census
counts against the pinned ones and reports the
per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the seed, the counts and the failure fraction.  The exit code is 0
only when every output matched and every gated count held.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads
from probe import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench-trace"


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def checked(p, reference: dict):
    """Check a pass against the reference, then drop its records."""
    p.failed = workloads.failed_ops(p, reference)
    p.records = None
    return p


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hdindex" / "__init__.py").is_file():
        print(f"error: no hdindex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    prepare, run_pass, setups, pass_s = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[args.workload]

    count = max(1, round(args.seconds / pass_s))
    setup_times, setup_windows, passes, scales = [], [], [], []
    # The set-ups come before, between and after the passes, so that their
    # median is taken over the same stretch of time as the passes.
    with SpeedProbe() as probe:
        for i in range(count + 1):
            for _ in range(setups):
                # Drop the previous set-up first, so it neither inflates the
                # peak memory nor slows the collector in the next one.
                mods = cases = None
                gc.collect()
                mark = probe.mark()
                t0 = time.perf_counter()
                mods = workloads.import_hdindex()
                cases = prepare(mods, args.seed)
                setup_times.append(time.perf_counter() - t0)
                setup_windows.append((mark, probe.mark()))
            if i < count:
                mark = probe.mark()
                p = run_pass(mods, cases)
                scales.append(probe.scale((mark, probe.mark())))
                passes.append(checked(p, reference))
        setup_scale = probe.scale(*setup_windows)
        probe_samples = len(probe.samples)
    scaled_walls = [p.wall_s * f for p, f in zip(passes, scales)]
    # Each operation's median scaled time over the passes, so that the tail
    # is made of operations slow in most passes, not of those that one
    # stall (a preemption, a collection) hit once.
    by_op: dict[str, list[float]] = {}
    for p, f in zip(passes, scales):
        for key, t in p.ops.items():
            by_op.setdefault(key, []).append(t * f)
    ops = [statistics.median(times) for times in by_op.values()]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    census_counts = None
    if args.trace:
        mods = cases = None
        gc.collect()
        mods = workloads.import_hdindex()
        census = tracing.Census()
        with tracing.Tracer(census.observers()) as tracer:
            t0 = time.perf_counter()
            cases = prepare(mods, args.seed)
            setup_traced_s = time.perf_counter() - t0
            setup_self, _ = tracer.self_times()
            setup_spans = tracer.dump()
            tracer.clear()
            census.clear()
            with SpeedProbe() as probe:
                traced = run_pass(mods, cases)
                traced_scale = probe.scale((0, probe.mark()))
            # The median untraced pass at the traced pass's host speed, so
            # that drift between the passes does not show as overhead.
            untraced_wall_s = statistics.median(scaled_walls) / traced_scale
            metrics = tracing.layer_metrics(tracer, census, traced.wall_s, untraced_wall_s)
            spans = tracer.dump()
            census_counts = census.exact()
        metrics["diagram.parse_validate.self_s"] = (
            sum(t for span, t in setup_self.items() if span.startswith("diagram.")),
            "s",
        )
        metrics["setup.traced_s"] = (setup_traced_s, "s")
        passes.append(checked(traced, reference))
        tracing.write_spans(
            TRACE_DIR / f"{args.workload}-seed{args.seed}.json",
            {"workload": args.workload, "seed": args.seed,
             "setup": setup_spans, "pass": spans},
        )
    else:
        metrics = {
            "wall_s": (statistics.median(scaled_walls), "s"),
            "op_p50_ms": (percentile(ops, 0.50), "ms"),
            "op_p98_ms": (percentile(ops, 0.98), "ms"),
            "setup_s": (statistics.median(setup_times) * setup_scale, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    bad_counts = [
        {"pass": i, "counts": p.counts}
        for i, p in enumerate(passes)
        if p.counts != reference["counts"]
    ]
    bad_census = census_counts is not None and census_counts != reference["census"]
    correct = failed == 0 and not bad_counts and not bad_census
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_scale": scales,
        "pass_p50_ms": [percentile(list(p.ops.values()), 0.50) for p in passes],
        "pass_p98_ms": [percentile(list(p.ops.values()), 0.98) for p in passes],
        "counts": passes[0].counts,
        "expected_counts": reference["counts"],
        "count_mismatches": bad_counts,
        "census": census_counts,
        "expected_census": reference["census"],
        "fail_frac": failed / attempted,
        "setups_s": setup_times,
        "setup_scale": setup_scale,
        "probe_samples": probe_samples,
    }))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

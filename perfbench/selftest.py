"""Self-tests of the benchmark's own checks.  Run from the repository root:

    python3 perfbench/selftest.py

1. The reference gate passes real outputs and catches one altered record,
   on a slice of ``pi2-queries`` and ``surfaces`` and on a whole traced
   ``check`` pass.
2. The tracer rebinds every target in every ``hdindex`` module: none is
   missed, and on the traced ``check`` the call counts equal the counts of
   the seed commit (ROADMAP items 2 and 5 are expected to lower the
   ``find_domains`` and ``connects`` counts; update them with that change).
   Its census counts equal the pinned ones.
3. A rebinding undone on purpose is caught, both by the structural check
   and by a lower call count.

Takes about a minute; exits nonzero on the first failed test.
"""

from __future__ import annotations

import copy
import sys

import tracer as tracing
import workloads
from run import SRC

# Traced call counts of `hdindex --json check` at the seed commit.
CHECK_CALLS = {
    "domains.find_domains": 3438,
    "domains.connects": 33165,
    "builder.build_surface": 1322,
    "builder.stabilized_surface": 254,
}
SLICE = 12  # cases per workload in the quick gate tests


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}", file=sys.stderr)
        sys.exit(1)
    print(f"ok: {what}")


def altered(p, mutate) -> "workloads.Pass":
    """A copy of the pass whose first successful record is mutated."""
    q = copy.deepcopy(p)
    i = next(i for i, (_, rec, ok, _) in enumerate(q.records) if ok and rec)
    key, rec, ok, w = q.records[i]
    mutate(rec)
    q.records[i] = (key, rec, ok, w)
    return q


def gate_on_slice(name: str, mutate) -> None:
    prepare, run_pass, _, _ = workloads.WORKLOADS[name]
    reference = workloads.load_reference()[name]
    mods = workloads.import_hdindex()
    p = run_pass(mods, prepare(mods, 7)[:SLICE])
    expect(workloads.failed_ops(p, reference) == 0, f"{name}: real records pass the gate")
    expect(
        workloads.failed_ops(altered(p, mutate), reference) == 1,
        f"{name}: one altered record is caught",
    )


def bump_last_index(rec) -> None:
    if rec["index"]:
        rec["index"][-1]["mu"] += "1"
    else:
        rec["domains"].append("r0:1")


def bump_chi(rec) -> None:
    rec["chi"] += 1


def traced_check() -> None:
    prepare, run_pass, _, _ = workloads.WORKLOADS["check"]
    reference = workloads.load_reference()["check"]
    mods = workloads.import_hdindex()
    census = tracing.Census()
    with tracing.Tracer(census.observers()) as tracer:
        expect(tracer.missed_rebindings() == [], "tracer misses no rebinding")
        p = run_pass(mods, prepare(mods, 0))
    _, calls = tracer.self_times()
    for span, n in CHECK_CALLS.items():
        expect(calls.get(span) == n, f"traced check calls {span} {n} times (got {calls.get(span)})")
    expect(census.exact() == reference["census"], f"traced check census {reference['census']}")
    expect(p.counts == reference["counts"], f"check runs {reference['counts']}")
    expect(workloads.failed_ops(p, reference) == 0, "check: real records pass the gate")
    cases = next(rec["cases"] for _, rec, _, _ in p.records if rec["cases"])
    expect(
        workloads.failed_ops(altered(p, lambda rec: rec.update(cases=rec["cases"] + 1)), reference)
        == cases,
        "check: one altered suite record is caught, with its cases",
    )


def undone_rebinding_is_caught() -> None:
    prepare, run_pass, _, _ = workloads.WORKLOADS["pi2-queries"]
    counts = []
    for undo in (False, True):
        mods = workloads.import_hdindex()
        cases = prepare(mods, 7)[:SLICE]
        with tracing.Tracer() as tracer:
            if undo:
                # Put the unwrapped function back where formulas imported it.
                mods.formulas.connects = mods.formulas.connects.__wrapped__
            missed = tracer.missed_rebindings()
            run_pass(mods, cases)
        counts.append(tracer.self_times()[1].get("domains.connects", 0))
    expect(missed == ["hdindex.formulas.connects"],
           f"an undone rebinding shows as missed: {missed}")
    expect(counts[1] < counts[0], f"an undone rebinding lowers the connects count {counts}")


def main() -> int:
    sys.path.insert(0, str(SRC))
    gate_on_slice("pi2-queries", bump_last_index)
    gate_on_slice("surfaces", bump_chi)
    undone_rebinding_is_caught()
    traced_check()
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pin the reference outputs of every workload into ``reference.json``.

Run once from the repository root on the commit whose outputs are the
reference:

    python3 perfbench/pin_reference.py

It runs one traced pass of each workload and stores, per workload, the
counts that define it, the census counts of the traced pass and a digest of
every output record, keyed by case.  Neither records nor counts depend on
the seed, only the order of the records does.
"""

from __future__ import annotations

import json
import sys

import tracer as tracing
import workloads
from run import SRC


def main() -> int:
    sys.path.insert(0, str(SRC))
    reference = {}
    for name, (prepare, run_pass, _, _) in workloads.WORKLOADS.items():
        mods = workloads.import_hdindex()
        cases = prepare(mods, 0)
        census = tracing.Census()
        with tracing.Tracer(census.observers()):
            p = run_pass(mods, cases)
        bad = [key for key, _, ok, _ in p.records if not ok]
        if bad:
            print(f"error: {name}: {len(bad)} failed operations, e.g. {bad[0]}",
                  file=sys.stderr)
            return 1
        reference[name] = {
            "counts": p.counts,
            "census": census.exact(),
            "records": {key: workloads.digest(rec) for key, rec, _, _ in p.records},
        }
        print(f"{name}: {p.counts} {census.exact()} in {p.wall_s:.1f} s",
              file=sys.stderr)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

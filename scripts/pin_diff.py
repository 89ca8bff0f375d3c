"""Print every pinned benchmark value that the working tree would move.

Runs one traced pass of each workload on the cases of seed 0, as
``perfbench/pin_reference.py`` does, and compares its counts, its census
and the digest of every output record with ``perfbench/reference.json``,
and the traced call counts of the ``check`` pass with those that
``perfbench/selftest.py`` pins.  ``perfbench/`` is only imported, never
written.  Run from the repository root:

    python3 scripts/pin_diff.py

Prints one line per moved value, ``<workload> <part> <key>: <old> -> <new>``
(``missing`` for a value on one side only), in sorted order, and nothing
when nothing moved.  The exit code is 0 when nothing moved, 1 otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MISSING = "missing"


def moves(old: dict, new: dict) -> list[str]:
    """The lines naming each value of ``new`` that differs from ``old``.

    Both are ``{workload: {part: {key: value}}}``; a key on one side only
    is a move from or to ``missing``.
    """
    lines = []
    for name in sorted(old.keys() | new.keys()):
        parts_old, parts_new = old.get(name, {}), new.get(name, {})
        for part in sorted(parts_old.keys() | parts_new.keys()):
            was, now = parts_old.get(part, {}), parts_new.get(part, {})
            for key in sorted(was.keys() | now.keys()):
                a, b = was.get(key, MISSING), now.get(key, MISSING)
                if a != b:
                    lines.append(f"{name} {part} {key}: {a} -> {b}")
    return lines


def traced_values() -> tuple[dict, dict]:
    """(pinned, found): the reference values and this tree's, by workload."""
    sys.path.insert(0, str(PERFBENCH))
    import selftest
    import tracer as tracing
    import workloads
    from run import SRC

    sys.path.insert(0, str(SRC))
    pinned = workloads.load_reference()
    pinned["check"] = dict(pinned["check"], calls=selftest.CHECK_CALLS)
    found = {}
    for name, (prepare, run_pass, _, _) in workloads.WORKLOADS.items():
        mods = workloads.import_hdindex()
        cases = prepare(mods, 0)
        census = tracing.Census()
        with tracing.Tracer(census.observers()) as tracer:
            p = run_pass(mods, cases)
        found[name] = {
            "counts": p.counts,
            "census": census.exact(),
            "records": {key: workloads.digest(rec) for key, rec, _, _ in p.records},
        }
        if name == "check":
            calls = tracer.self_times()[1]
            found[name]["calls"] = {span: calls.get(span, 0) for span in selftest.CHECK_CALLS}
    return pinned, found


def main() -> int:
    lines = moves(*traced_values())
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

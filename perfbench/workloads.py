"""The three workloads of the hdindex benchmark.

Each workload has a set-up step (import, parse and validate the diagrams,
prepare the case list from the seed) and a pass (run every case once,
timing each operation).  A pass returns its output records; the run checks
them against the digests pinned in ``reference.json`` after the pass, so
checking is never timed.

* ``check``: ``hdindex --json check`` in-process on the bundled corpus at
  the default bounds.  Deterministic; the seed is recorded and unused.
* ``pi2-queries``: every ordered generator pair of the genus-2 and genus-3
  diagrams, in seeded order: ``find_domains`` in the signed box |c| <= 3,
  then ``index_report`` on each domain found.
* ``surfaces``: every positive domain with coefficients <= 4 on the same
  diagrams is built (``build_surface`` + ``to_json_dict``); those with
  coefficients <= 2 are also stabilized (``stabilized_surface`` +
  ``branched_cover_check``).  The case list is solved at set-up and run in
  seeded order, so no solve is timed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
import time
from pathlib import Path
from types import SimpleNamespace

REFERENCE = Path(__file__).with_name("reference.json")

# The genus-2 and genus-3 diagrams of the bundled corpus.
HIGHER_GENUS = ("genus2_bigons.hd", "genus2_s1s2.hd", "genus3_chain.hd")
PI2_BOX = 3  # signed box |c| <= 3
BUILD_BOX = 4  # positive domains built, coefficients <= 4
STABILIZE_BOX = 2  # positive domains stabilized, coefficients <= 2


def import_hdindex() -> SimpleNamespace:
    """Import the package afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules if m == "hdindex" or m.startswith("hdindex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("hdindex.cli")
    return SimpleNamespace(
        cli=cli,
        harness=sys.modules["hdindex.harness"],
        diagram=sys.modules["hdindex.diagram"],
        domains=sys.modules["hdindex.domains"],
        formulas=sys.modules["hdindex.formulas"],
        builder=sys.modules["hdindex.builder"],
    )


def digest(record) -> str:
    """Short digest of one output record, in the program's key order."""
    text = json.dumps(record, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Pass:
    """Outputs of one pass over a workload's cases."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        # key -> milliseconds of each timed operation
        self.ops: dict[str, float] = {}
        # (key, record or None if it raised, ok, operations it covers)
        self.records: list[tuple[str, object, bool, int]] = []
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}


def _load_valid(mods, names) -> dict:
    diagrams = {}
    for name in names:
        d = mods.harness.load_bundled(name)
        bad = mods.diagram.validate_diagram(d)
        if bad:
            raise RuntimeError(f"bundled diagram {name} is invalid: {bad}")
        diagrams[name] = d
    return diagrams


# ---------------------------------------------------------------------------
# check


def check_prepare(mods, seed: int):
    corpus = mods.harness.bundled_corpus()
    for name, d in corpus.items():
        if mods.diagram.validate_diagram(d):
            raise RuntimeError(f"bundled diagram {name} is invalid")
    return None


def check_pass(mods, cases) -> Pass:
    p = Pass()
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(["--json", "check"])
    p.wall_s = time.perf_counter() - t0
    # The timed operation is the whole command; its cases are what fail.
    p.ops["hdindex --json check"] = 1000.0 * p.wall_s
    suites = json.loads(buf.getvalue())["suites"]
    for rec in suites:
        del rec["elapsed"]
        p.records.append((rec["suite"], rec, rec["ok"], max(rec["cases"], 1)))
    if code != 0 and all(rec["ok"] for rec in suites):
        raise RuntimeError(f"hdindex check exited {code} with every suite ok")
    p.attempted = p.counts["cases"] = sum(rec["cases"] for rec in suites)
    return p


# ---------------------------------------------------------------------------
# pi2-queries


def pi2_prepare(mods, seed: int):
    cases = []
    for name, d in _load_valid(mods, HIGHER_GENUS).items():
        gens = mods.domains.enumerate_generators(d)
        for x in gens:
            for y in gens:
                key = f"{name}|{x.format()}|{y.format()}"
                cases.append((key, d, x, y))
    random.Random(seed).shuffle(cases)
    return cases


def pi2_pass(mods, cases) -> Pass:
    p = Pass()
    find_domains = mods.domains.find_domains
    index_report = mods.formulas.index_report
    clock = time.perf_counter
    found = 0
    t0 = clock()
    for key, d, x, y in cases:
        t = clock()
        try:
            doms = find_domains(d, x, y, PI2_BOX, False)
            rec = {
                "domains": [a.format() for a in doms],
                "index": [index_report(d, a, x, y).as_dict() for a in doms],
            }
            ok = True
        except Exception:  # a raising query is a failed operation
            rec, ok = None, False
        p.ops[key] = 1000.0 * (clock() - t)
        p.records.append((key, rec, ok, 1))
        if ok:
            found += len(doms)
    p.wall_s = clock() - t0
    p.attempted = len(cases)
    p.counts = {"queries": len(cases), "domains": found}
    return p


# ---------------------------------------------------------------------------
# surfaces


def surfaces_prepare(mods, seed: int):
    cases = []
    for name, d in _load_valid(mods, HIGHER_GENUS).items():
        gens = mods.domains.enumerate_generators(d)
        for x in gens:
            for y in gens:
                for a in mods.domains.find_domains(d, x, y, BUILD_BOX, True):
                    tail = f"{name}|{x.format()}|{y.format()}|{a.format()}"
                    cases.append(("build|" + tail, d, x, y, a))
                    if max(a.coeffs, default=0) <= STABILIZE_BOX:
                        cases.append(("stabilize|" + tail, d, x, y, a))
    random.Random(seed).shuffle(cases)
    return cases


def surfaces_pass(mods, cases) -> Pass:
    p = Pass()
    build_surface = mods.builder.build_surface
    stabilized_surface = mods.builder.stabilized_surface
    branched_cover_check = mods.builder.branched_cover_check
    clock = time.perf_counter
    t0 = clock()
    for key, d, x, y, a in cases:
        t = clock()
        try:
            if key.startswith("build|"):
                rec = build_surface(d, a, x, y).to_json_dict()
                ok = True
            else:
                s4 = stabilized_surface(d, a, x, y)
                cover = branched_cover_check(s4)
                rec = dict(s4.to_json_dict(), cover_check=cover)
                ok = cover["ok"]
        except Exception:  # a raising build is a failed operation
            rec, ok = None, False
        p.ops[key] = 1000.0 * (clock() - t)
        p.records.append((key, rec, ok, 1))
    p.wall_s = clock() - t0
    p.attempted = len(cases)
    builds = sum(1 for c in cases if c[0].startswith("build|"))
    p.counts = {"build": builds, "stabilize": len(cases) - builds}
    return p


WORKLOADS = {
    # name: (prepare, pass, set-ups before, between and after the passes,
    # seconds per pass at the seed commit on a 2-core x86-64 host).  The
    # pass time fixes how many passes a run makes, so that every commit is
    # measured with the same count.
    "check": (check_prepare, check_pass, 8, 30.4),
    "pi2-queries": (pi2_prepare, pi2_pass, 4, 5.4),
    "surfaces": (surfaces_prepare, surfaces_pass, 1, 11.4),
}


def failed_ops(p: Pass, reference: dict) -> int:
    """Operations (cases, on ``check``) that raised, failed a check or
    differ from the pinned reference record."""
    ref = reference["records"]
    return sum(
        w
        for key, rec, ok, w in p.records
        if not ok or ref.get(key) != digest(rec)
    )


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)

import importlib
import sys
from pathlib import Path

from hdindex.diagram import load_bundled
from hdindex.domains import Domain, Generator
from support import load_module

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    return load_module(TRACER, "perfbench_tracer")


def test_every_tracer_target_resolves(monkeypatch):
    # The benchmark's tracer rebinds these entry points by name; a rename in
    # hdindex must fail here, not in a benchmark run.
    targets = load_tracer(monkeypatch).TARGETS
    assert targets
    for modname, attr, span in targets:
        owner = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(owner, part), f"{span}: {modname}.{attr} is gone"
            owner = getattr(owner, part)
        assert callable(owner), span


def test_tracer_misses_no_rebinding(monkeypatch):
    # the benchmark's self-test checks this after a minute of tracing; an
    # alias that hides a traced entry point from the tracer fails here
    importlib.import_module("hdindex.cli")
    with load_tracer(monkeypatch).Tracer() as tracer:
        assert tracer.missed_rebindings() == []


def test_census_observers_read_real_stages(monkeypatch):
    # The benchmark's census reads corners() of each S0, boundary_arcs() of
    # each S2 and pushforward() of each S3; a builder without one of them
    # must fail here, not only in the benchmark's self-test.
    tracing = load_tracer(monkeypatch)
    importlib.import_module("hdindex.cli")
    builder = importlib.import_module("hdindex.builder")
    genus2, genus2s1s2 = load_bundled("genus2_bigons.hd"), load_bundled("genus2_s1s2.hd")
    cases = [
        # two odd corner classes of length three, each ground by one S1 cut
        (genus2, "r0:1,r1:1,r2:1,r3:1,r4:1,r5:1,r6:1", "y1,y2", "y1,x2"),
        # two cornerless boundary circles left after S2, spliced in S3
        (genus2s1s2, "r1:2,r2:1", "a,c", "a,c"),
    ]
    census = tracing.Census()
    with tracing.Tracer(census.observers()):
        for d, a, x, y in cases:
            x, y = Generator.parse(d, x), Generator.parse(d, y)
            builder.build_surface(d, Domain.parse(d, a), x, y)
    assert census.exact() == {
        "domains.found": 0,
        "builder.builds": 2,
        "builder.faces": 7 + 3,
        "builder.s1_cuts": 2,
        "builder.s3_circles": 2,
    }

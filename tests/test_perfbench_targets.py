import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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

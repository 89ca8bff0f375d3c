from pathlib import Path

import pytest

from support import load_module

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "pin_diff.py"


@pytest.fixture()
def pin_diff():
    return load_module(SCRIPT, "pin_diff")


def pins():
    return {
        "check": {
            "counts": {"cases": 14121},
            "calls": {"domains.connects": 33165, "builder.build_surface": 1322},
            "records": {"additivity[a.hd]": "00aa", "additivity[b.hd]": "11bb"},
        },
        "surfaces": {
            "census": {"builder.builds": 2114},
            "records": {"build|a.hd|x|y|0": "22cc", "stabilize|a.hd|x|y|0": "33dd"},
        },
    }


def test_nothing_moved_prints_nothing(pin_diff):
    assert pin_diff.moves(pins(), pins()) == []


def test_each_moved_value_is_named_with_its_old_and_new_value(pin_diff):
    new = pins()
    new["surfaces"]["records"]["stabilize|a.hd|x|y|0"] = "44ee"  # a moved digest
    new["surfaces"]["records"]["stabilize|a.hd|x|y|r0:1"] = "55ff"  # a new key
    del new["check"]["records"]["additivity[b.hd]"]  # a missing key
    new["check"]["calls"]["domains.connects"] = 33166  # a moved count
    assert pin_diff.moves(pins(), new) == [
        "check calls domains.connects: 33165 -> 33166",
        "check records additivity[b.hd]: 11bb -> missing",
        "surfaces records stabilize|a.hd|x|y|0: 33dd -> 44ee",
        "surfaces records stabilize|a.hd|x|y|r0:1: missing -> 55ff",
    ]


def test_a_workload_or_part_on_one_side_only_moves_every_value(pin_diff):
    new = pins()
    del new["surfaces"]
    new["check"]["census"] = {"builder.builds": 1322}
    assert pin_diff.moves(pins(), new) == [
        "check census builder.builds: missing -> 1322",
        "surfaces census builder.builds: 2114 -> missing",
        "surfaces records build|a.hd|x|y|0: 22cc -> missing",
        "surfaces records stabilize|a.hd|x|y|0: 33dd -> missing",
    ]

from fractions import Fraction
from types import SimpleNamespace

import pytest

from hdindex import builder, harness
from hdindex.builder import build_surface
from hdindex.domains import Domain, _lattice
from hdindex.harness import (
    BUNDLED_DIAGRAMS,
    SuiteResult,
    _is_disjoint_strip_class,
    additivity_suite,
    builder_consistency_suite,
    bundled_corpus,
    format_results,
    load_bundled,
    local_pattern_oracle,
    run_all,
    stabilization_suite,
    stabilized_surface_suite,
)
from hdindex.diagram import validate_diagram


def test_bundled_corpus_is_valid():
    corpus = bundled_corpus()
    assert set(corpus) == set(BUNDLED_DIAGRAMS)
    genera = sorted(d.genus for d in corpus.values())
    assert genera == [1, 1, 1, 2, 2, 3]
    for d in corpus.values():
        assert validate_diagram(d) == []


def test_local_pattern_oracle_small():
    res = local_pattern_oracle(2)
    assert res.ok
    assert res.cases == 27 * 5
    with pytest.raises(ValueError):
        local_pattern_oracle(0)


def test_additivity_small(torus3):
    res = additivity_suite(torus3, max_coeff=2)
    assert res.ok
    assert res.cases > 0


def test_stabilization_small(torus3):
    res = stabilization_suite(torus3, k_max=2, max_coeff=1)
    assert res.ok


def test_builder_suite_small(torus3, genus2s1s2):
    for d in (torus3, genus2s1s2):
        res = builder_consistency_suite(d, max_coeff=2)
        assert res.ok
        assert res.cases > 0


def test_stabilized_suite_small(genus2s1s2, torus1):
    res = stabilized_surface_suite(genus2s1s2, max_coeff=1)
    assert res.ok and res.cases > 0
    # genus one is skipped, not failed
    res = stabilized_surface_suite(torus1, max_coeff=1)
    assert res.ok and res.cases == 0


def test_run_all_times_each_suite_call(torus3):
    results = run_all({"t": torus3}, pattern_bound=1, max_coeff=1, k_max=1)
    timed = [r for r in results if not r.suite.startswith("validity")]
    assert len(timed) == 5 and all(r.elapsed > 0 for r in timed)
    # a suite called directly is not timed
    assert local_pattern_oracle(1).elapsed == 0.0


def test_strip_class_predicate(torus1, torus3, genus2):
    # the lone square of the one-crossing torus is the whole surface, glued
    # to itself: not an embedded strip
    assert not _is_disjoint_strip_class(torus1, Domain.parse(torus1, "r0:1"))
    assert _is_disjoint_strip_class(torus3, Domain.zero(torus3))
    assert _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:1"))
    assert not _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:2"))
    # adjacent supports share a vertex
    assert not _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:1,r2:1"))
    # the lens and a surrounding square share crossings
    assert not _is_disjoint_strip_class(genus2, Domain.parse(genus2, "r2:1,r7:1"))


def test_format_results_reports_failures():
    results = [
        SuiteResult("good", cases=3),
        SuiteResult("bad", cases=1, failures=[{"case": 1}]),
    ]
    text = format_results(results)
    assert "FAIL (1)" in text
    assert "good" in text


@pytest.mark.parametrize(
    "stray, failing",
    [(("open", 2), {"interior"}), (("closed", 3), {"interior", "corner"})],
)
def test_local_pattern_oracle_catches_a_stray_chain(monkeypatch, stray, failing):
    # a smooth pair breaks only the interior shape; a closed chain of length
    # three breaks both rules
    real = harness.local_vertex_chains
    extra = SimpleNamespace(kind=stray[0], length=stray[1])
    monkeypatch.setattr(harness, "local_vertex_chains", lambda c: real(c) + [extra])
    res = local_pattern_oracle(1)
    assert res.cases == 8 * 5
    assert {f["kind"] for f in res.failures} == failing
    assert len(res.failures) == (res.cases if len(failing) == 2 else 8)
    first = res.failures[0]
    assert (first["pattern"], first["kind"], first["chains"]) == ((0, 0, 0, 0), "interior", [stray])
    if "corner" in failing:
        bumped = [(f["pattern"], f["kind"]) for f in res.failures[1:5]]
        assert bumped == [
            ((1, 0, 0, 0), "corner"),
            ((0, 1, 0, 0), "corner"),
            ((0, 0, 1, 0), "corner"),
            ((0, 0, 0, 1), "corner"),
        ]
        assert res.failures[1]["chains"] == [("open", 1), stray]


def test_additivity_suite_catches_a_dropped_quadrant(monkeypatch, torus3):
    # n_p read from three of the four quadrants at p: mu is no longer
    # additive, while e (linear, whatever the quadrants) would still be.
    # The generator records are dropped, so each is rebuilt with weights
    # counted over the first three quadrants of each point in rotation order.
    lat = _lattice(torus3)
    three = {v: quadrants[:3] for v, quadrants in lat.quadrants.items()}
    mutant = lat._replace(quadrants=three, generators={})
    monkeypatch.setitem(torus3.__dict__, "_lattice", mutant)
    res = additivity_suite(torus3, max_coeff=1)
    assert all(sum(rec.weights) == 3 for rec in mutant.generators.values())
    assert res.cases == 34 and len(res.failures) == 2
    assert res.failures[0] == {
        "x": "v0",
        "y": "v2",
        "z": "v1",
        "a": "r1:1",
        "b": "r0:1,r1:1",
        "mu_a": "3/4",
        "mu_b": "1/2",
        "mu_ab": "3/2",
    }


def test_builder_suite_catches_a_wrong_strip_class_chi(monkeypatch, torus3):
    # the harness's embedded chi one too high: every strip class, and no
    # other domain, fails with both values
    real = harness.embedded_euler_char
    monkeypatch.setattr(harness, "embedded_euler_char", lambda *args: real(*args) + 1)
    res = builder_consistency_suite(torus3, max_coeff=1)
    strips = []
    for (x, y), domains in harness._domain_table(torus3, 1).items():
        for a in domains:
            if _is_disjoint_strip_class(torus3, a):
                chi = build_surface(torus3, a, x, y).chi
                problem = f"strip class chi {chi} != {real(torus3, a, x, y) + 1}"
                strips.append(
                    {"x": x.format(), "y": y.format(), "a": a.format(), "problems": [problem]}
                )
    assert res.cases == 10 and len(strips) == 5
    assert res.failures == strips


def test_stabilized_suite_catches_a_negative_branch_budget(monkeypatch, genus2s1s2):
    monkeypatch.setattr(builder, "branch_budget", lambda g, chi: Fraction(-1))
    res = stabilized_surface_suite(genus2s1s2, max_coeff=1)
    assert res.cases == 8 and len(res.failures) == 8
    for failure in res.failures:
        assert {"x", "y", "a"} <= set(failure)
        assert failure["problems"] == ["cover check"]
        report = failure["report"]
        assert report["branch_budget"] == "-1"
        assert not report["branch_budget_ok"] and not report["ok"]
        assert report["corner_halves_sum_is_genus"] and report["connected"]

import itertools
import re

import pytest

from hdindex import builder, harness
from hdindex.builder import build_surface
from hdindex.domains import Domain, Generator, _lattice
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
from support import generating_set_faults, mirror, zero_domain


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


def test_stabilization_suite_catches_a_doubled_surface_class(monkeypatch, torus3):
    # 2 Sigma for Sigma: mu and chi shift by twice the law, so every case
    # with k >= 1 fails, and each record's x, y and a parse back as the
    # command line's --from, --to and --domain read them
    real = harness.sigma_class
    monkeypatch.setattr(harness, "sigma_class", lambda d: 2 * real(d))
    res = stabilization_suite(torus3)
    assert res.cases == 76 and len(res.failures) == 57
    first = res.failures[0]
    assert list(first.items()) == [
        ("x", "v0"), ("y", "v0"), ("a", "0"), ("k", 1), ("mu", "4"), ("chi", "-3")
    ]
    for f in res.failures:
        x, y = Generator.parse(torus3, f["x"]), Generator.parse(torus3, f["y"])
        a = Domain.parse(torus3, f["a"])
        assert (x.format(), y.format(), a.format()) == (f["x"], f["y"], f["a"])


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
    results = run_all({"t": torus3})
    timed = [r for r in results if not r.suite.startswith("validity")]
    assert len(timed) == 5 and all(r.elapsed > 0 for r in timed)
    # a suite called directly is not timed
    assert local_pattern_oracle(1).elapsed == 0.0


def test_strip_class_predicate(torus1, torus3, genus2):
    # the lone square of the one-crossing torus is the whole surface, glued
    # to itself: not an embedded strip
    assert not _is_disjoint_strip_class(torus1, Domain.parse(torus1, "r0:1"))
    assert _is_disjoint_strip_class(torus3, zero_domain(torus3))
    assert _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:1"))
    assert not _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:2"))
    # adjacent supports share a vertex
    assert not _is_disjoint_strip_class(torus3, Domain.parse(torus3, "r1:1,r2:1"))
    # the lens and a surrounding square share crossings
    assert not _is_disjoint_strip_class(genus2, Domain.parse(genus2, "r2:1,r7:1"))


def two_pass_strip_class(d, a, disjoint=True):
    """The reference: every region of the support checked on its own, then
    the supports checked for a shared vertex in a second pass.  Without
    ``disjoint`` it is a seeded mutant that skips the second pass."""
    if any(c not in (0, 1) for c in a.coeffs):
        return False
    for idx in a.support():
        region = d.regions[idx]
        verts = [dart.vertex for dart in region.darts]
        darts = set(region.darts)
        if region.corner_count not in (2, 4) or len(set(verts)) != len(verts):
            return False
        if any(d.rev(dart) in darts for dart in darts):
            return False
    touched = set()
    for idx in a.support() if disjoint else ():
        verts = {dart.vertex for dart in d.regions[idx].darts}
        if touched & verts:
            return False
        touched |= verts
    return True


def strip_class_cases():
    """(d, a) for every 0/1 domain with at most three regions in its
    support, on the bundled diagrams and their mirrors."""
    for d0 in bundled_corpus().values():
        for d in (d0, mirror(d0)):
            n = len(d.regions)
            for k in range(4):
                for support in itertools.combinations(range(n), k):
                    yield d, Domain(tuple(int(i in support) for i in range(n)))


def test_the_one_pass_strip_class_test_matches_the_two_pass_reference():
    cases = list(strip_class_cases())
    strips = [two_pass_strip_class(d, a) for d, a in cases]
    assert (len(cases), sum(strips)) == (582, 74)
    assert [_is_disjoint_strip_class(d, a) for d, a in cases] == strips


def test_the_strip_class_reference_catches_supports_that_share_a_vertex():
    # the mutant takes 152 supports that touch for strip classes
    cases = list(strip_class_cases())
    mutant = [two_pass_strip_class(d, a, disjoint=False) for d, a in cases]
    assert sum(mutant) == 74 + 152
    assert sum(m != two_pass_strip_class(d, a) for m, (d, a) in zip(mutant, cases)) == 152


def test_format_results_reports_failures():
    results = [SuiteResult("good", cases=3), SuiteResult("bad", cases=1)]
    results[1].failures.append({"case": 1})
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
    monkeypatch.setattr(harness, "local_vertex_chains", lambda c: real(c) + [stray])
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
    mutant = _lattice(torus3)._replace(generators={})
    monkeypatch.setitem(torus3.__dict__, "_lattice", mutant)
    quadrants_at = torus3.quadrants_at
    monkeypatch.setitem(torus3.__dict__, "quadrants_at", lambda v: quadrants_at(v)[:3])
    res = additivity_suite(torus3, max_coeff=1)
    assert all(sum(rec.weights) == 3 for rec in mutant.generators.values())
    assert res.cases == 34 and len(res.failures) == 2
    assert generating_set_faults([torus3])
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


def test_stabilized_suite_catches_a_stray_slit(monkeypatch):
    # a builder mutant: one stray slit in the fresh surface copy of S4, at a
    # vertex away from the points of x, just before the contract is taken.
    # It costs chi one and leaves the corners, the pushforward and the
    # connectivity as they were, so the Euler law alone catches it.
    enforce = builder._enforce_contract

    def with_stray_slit(built):
        if built.stage == "S4":
            surf, d = built.surface, built.diagram
            fresh = len(surf.region) - len(d.regions)  # the copy's first face
            surf.slit_at_tail(
                next(
                    s
                    for s, p in enumerate(surf.partner)
                    if p != -1
                    and surf.face[s] >= fresh
                    and surf.tail(s)[0] == "v"
                    and surf.tail(s)[1] not in built.x.points
                )
            )
        return enforce(built)

    monkeypatch.setattr(builder, "_enforce_contract", with_stray_slit)
    law = re.compile(
        r"stage S4 contract: chi (-?\d+) breaks the Euler law chi\(S3\) \+ 2 - 4g - 2gL = (-?\d+)"
    )
    cases = 0
    for name in ("genus2_bigons.hd", "genus2_s1s2.hd", "genus3_chain.hd"):
        res = stabilized_surface_suite(load_bundled(name), max_coeff=2)
        assert res.cases and len(res.failures) == res.cases
        for failure in res.failures:
            assert {"x", "y", "a"} <= set(failure)
            chi, want = map(int, law.fullmatch(failure["error"]).groups())
            assert want == chi + 1
        cases += res.cases
    assert cases == 609


@pytest.mark.parametrize(
    "suite, name",
    [(builder_consistency_suite, "build_surface"), (stabilized_surface_suite, "stabilized_surface")],
)
def test_builder_suites_record_a_builder_error_and_build_on(monkeypatch, genus2s1s2, suite, name):
    # the suite calls the builder its module names when it runs, as a
    # tracer's wrapper is called: here the first call raises and every
    # other one builds
    real = getattr(harness, name)
    calls = []

    def first_fails(d, a, x, y):
        calls.append({"x": x.format(), "y": y.format(), "a": a.format()})
        if len(calls) == 1:
            raise builder.BuilderError("stage contract: injected")
        return real(d, a, x, y)

    monkeypatch.setattr(harness, name, first_fails)
    res = suite(genus2s1s2, max_coeff=1)
    assert res.cases == len(calls) > 1
    assert res.failures == [dict(calls[0], error="stage contract: injected")]

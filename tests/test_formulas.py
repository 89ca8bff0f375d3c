from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from hdindex.diagram import DiagramError
from hdindex.domains import (
    Domain,
    Generator,
    _checked_lattice,
    _lattice,
    connects,
    enumerate_generators,
    find_domains,
    sigma_class,
)
from hdindex.harness import bundled_corpus
from hdindex.formulas import (
    analytic_index,
    branch_budget,
    embedded_euler_char,
    euler_measure,
    generator_multiplicity,
    index_report,
    maslov_index,
    maslov_quarters,
    point_multiplicity,
)

F = Fraction


def chi_with_double_points(d, a, x, y, d_plus, d_minus):
    """chi of a representative with d_plus positive and d_minus negative
    transverse double points: the embedded chi plus 2 (d_plus - d_minus)."""
    return embedded_euler_char(d, a, x, y) + 2 * (d_plus - d_minus)


def test_euler_measure_basics(torus3):
    # square-free sanity: a bigon weighs 1/2, the octagon -1
    assert euler_measure(torus3, Domain.parse(torus3, "r1:1")) == F(1, 2)
    assert euler_measure(torus3, Domain.parse(torus3, "r0:1")) == -1
    assert euler_measure(torus3, sigma_class(torus3)) == 0


def test_euler_measure_of_sigma_is_chi(corpus):
    for d in corpus.values():
        assert euler_measure(d, sigma_class(d)) == 2 - 2 * d.genus


def test_point_multiplicity(torus3):
    b = Domain.parse(torus3, "r1:1")
    assert point_multiplicity(torus3, b, "v0") == F(1, 4)
    assert point_multiplicity(torus3, b, "v2") == F(1, 4)
    assert point_multiplicity(torus3, b, "v1") == 0
    sig = sigma_class(torus3)
    for v in torus3.vertices:
        assert point_multiplicity(torus3, sig, v) == 1
    with pytest.raises(DiagramError):
        point_multiplicity(torus3, b, "nope")


def test_torus_bigon_index(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    b = Domain.parse(torus3, "r1:1")
    assert maslov_index(torus3, b, v0, v2) == 1
    assert euler_measure(torus3, b) == F(1, 2)
    assert generator_multiplicity(torus3, b, v0) == F(1, 4)
    assert generator_multiplicity(torus3, b, v2) == F(1, 4)
    assert embedded_euler_char(torus3, b, v0, v2) == 1


def test_torus_complement_index(torus3):
    # the complement of the bigon in the surface class: e = -1/2 and both
    # endpoint multiplicities 3/4, matching mu = 1
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    h = Domain.parse(torus3, "r0:1,r2:1")
    assert euler_measure(torus3, h) == F(-1, 2)
    assert generator_multiplicity(torus3, h, v2) == F(3, 4)
    assert generator_multiplicity(torus3, h, v0) == F(3, 4)
    assert maslov_index(torus3, h, v2, v0) == 1


def test_sigma_index_decomposition(corpus):
    # the full surface class: mu = 2 as (2-2g) + g + g, on every diagram
    for d in corpus.values():
        g = d.genus
        x = enumerate_generators(d)[0]
        sig = sigma_class(d)
        assert euler_measure(d, sig) == 2 - 2 * g
        assert generator_multiplicity(d, sig, x) == g
        assert maslov_index(d, sig, x, x) == 2
        assert embedded_euler_char(d, sig, x, x) == g - 2 * g + (2 - 2 * g)


def test_zero_domain(torus3, genus2):
    for d, pts in ((torus3, ("v0",)), (genus2, ("x1", "x2"))):
        x = Generator(pts)
        z = Domain.zero(d)
        assert maslov_index(d, z, x, x) == 0
        assert embedded_euler_char(d, z, x, x) == d.genus


def test_example1_values(genus2):
    x = Generator(("x1", "x2"))
    y = Generator(("y1", "y2"))
    a = Domain.parse(genus2, "r2:1,r3:1,r4:1,r6:1,r7:2")
    assert euler_measure(genus2, a) == 1
    assert generator_multiplicity(genus2, a, x) == F(6, 4)
    assert generator_multiplicity(genus2, a, y) == F(6, 4)
    assert embedded_euler_char(genus2, a, x, y) == 2 - F(6, 4) - F(6, 4) + 1 == 0
    # resolving the double point of the two-strip representative, which
    # adds 2 (d_+ - d_-) to the embedded chi:
    assert chi_with_double_points(genus2, a, x, y, 1, 0) == 2
    assert analytic_index(2, 2, 1) == 2  # the two-disk representative
    assert maslov_index(genus2, a, x, y) == 4


def test_branch_budget():
    assert branch_budget(1, 1) == 0      # disk source over a torus diagram
    assert branch_budget(2, 0) == 2      # annulus source, genus two
    assert branch_budget(3, -4) == 7


def test_branch_budget_matches_prop_48_combination(genus2):
    # g - chi equals n_x + n_y - e - 2(d_+ - d_-) when chi comes from the
    # double-point formula
    x = Generator(("x1", "x2"))
    y = Generator(("y1", "y2"))
    a = Domain.parse(genus2, "r2:1,r3:1,r4:1,r6:1,r7:2")
    e = euler_measure(genus2, a)
    n_x = generator_multiplicity(genus2, a, x)
    n_y = generator_multiplicity(genus2, a, y)
    for d_plus, d_minus in ((0, 0), (1, 0), (2, 1)):
        chi = chi_with_double_points(genus2, a, x, y, d_plus, d_minus)
        assert branch_budget(2, chi) == n_x + n_y - e - 2 * (d_plus - d_minus)


def test_maslov_rejects_nonconnecting(torus3):
    v0, v1 = Generator(("v0",)), Generator(("v1",))
    b = Domain.parse(torus3, "r1:1")
    with pytest.raises(DiagramError):
        maslov_index(torus3, b, v0, v1)
    # the override evaluates the same expression off the strip classes
    val = maslov_index(torus3, b, v0, v1, force=True)
    assert val == euler_measure(torus3, b) + generator_multiplicity(
        torus3, b, v0
    ) + generator_multiplicity(torus3, b, v1)


def test_formulas_reject_wrong_length_domain(torus3):
    # torus_g1_3x has three regions; neither a spare nor a missing
    # coefficient may be ignored, with or without force
    v0 = Generator(("v0",))
    for bad in (Domain((1, 1, 1, 5)), Domain((1, 1))):
        with pytest.raises(DiagramError):
            euler_measure(torus3, bad)
        with pytest.raises(DiagramError):
            point_multiplicity(torus3, bad, "v0")
        with pytest.raises(DiagramError):
            generator_multiplicity(torus3, bad, v0)
        for formula in (maslov_index, embedded_euler_char, index_report):
            with pytest.raises(DiagramError):
                formula(torus3, bad, v0, v0, force=True)


def test_mirror_symmetry(corpus):
    # reversing the orientation of the surface fixes e, n and mu
    for d in corpus.values():
        m = d.mirror()
        # a mirrored face is the same disk walked the other way round, so it
        # consists of the reversed darts of the original face
        match = {}
        m_faces = {frozenset(r.darts): r.index for r in m.regions}
        for r in d.regions:
            match[r.index] = m_faces[frozenset(d.rev(dart) for dart in r.darts)]
        gens = enumerate_generators(d)
        for x in gens[:2]:
            for y in gens[:2]:
                for a in find_domains(d, x, y, 1, True)[:4]:
                    b_coeffs = [0] * len(m.regions)
                    for i, c in enumerate(a.coeffs):
                        b_coeffs[match[i]] = c
                    b = Domain(tuple(b_coeffs))
                    # the mirror flips the boundary convention, so the
                    # corresponding class runs from y to x
                    assert connects(m, b, y, x)
                    assert euler_measure(d, a) == euler_measure(m, b)
                    assert generator_multiplicity(
                        d, a, x
                    ) == generator_multiplicity(m, b, x)
                    assert maslov_index(d, a, x, y) == maslov_index(m, b, y, x)


def test_index_report_serialization(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    rep = index_report(torus3, Domain.parse(torus3, "r1:1"), v0, v2)
    d = rep.as_dict()
    assert d == {
        "g": "1",
        "e": "1/2",
        "n_x": "1/4",
        "n_y": "1/4",
        "mu": "1",
        "chi_emb": "1",
    }
    assert "mu = 1" in rep.as_text()


def test_integrality(corpus):
    # mu and chi_emb are integers on every connecting domain we enumerate
    for d in corpus.values():
        gens = enumerate_generators(d)
        for x in gens[:4]:
            for y in gens[:4]:
                for a in find_domains(d, x, y, 2, True):
                    assert maslov_index(d, a, x, y).denominator == 1
                    assert embedded_euler_char(d, a, x, y).denominator == 1


def quadrant_quarters(d, a, x):
    """4 n_x(A) summed straight off the diagram: A's coefficients on the
    four quadrants of each point of x."""
    return sum(a[q.region] for v in x.points for q in d.quadrants_at(v))


def test_generator_weights_count_the_quadrants_of_the_points(corpus):
    # for every generator of every bundled diagram and of its mirror, the
    # record's weight on a region is the number of x's quadrants in it
    for d in [*corpus.values(), *(d.mirror() for d in corpus.values())]:
        gens = enumerate_generators(d)
        for x in gens:
            _checked_lattice(d, x, x)
        records = _lattice(d).generators
        assert set(records) == {x.points for x in gens}
        for x in gens:
            weights = records[x.points].weights
            counts = Counter(q.region for v in x.points for q in d.quadrants_at(v))
            assert weights == tuple(counts[r] for r in range(len(d.regions)))
            assert sum(weights) == 4 * d.genus


INDEX_CORPUS = {
    key: (d, enumerate_generators(d))
    for name, diagram in bundled_corpus().items()
    for key, d in ((name, diagram), (f"{name} mirrored", diagram.mirror()))
}


@st.composite
def index_cases(draw):
    """A bundled diagram or its mirror, a generator pair on it and a
    domain: a class from x to y shifted by a multiple of Sigma, or random
    coefficients in -5..5, which almost never connect."""
    d, gens = INDEX_CORPUS[draw(st.sampled_from(sorted(INDEX_CORPUS)))]
    x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
    found = find_domains(d, x, y, 1, positive_only=False)
    if found and draw(st.booleans()):
        a = draw(st.sampled_from(found)) + draw(st.integers(-3, 3)) * sigma_class(d)
    else:
        n = len(d.regions)
        a = Domain(tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))))
    return d, a, x, y


@seed(191301)
@settings(max_examples=200, deadline=None, database=None)
@given(index_cases(), st.booleans())
def test_index_sums_match_a_quadrant_reference(case, force):
    d, a, x, y = case
    e4 = sum(c * (4 - r.corner_count) for c, r in zip(a.coeffs, d.regions))
    nx4, ny4 = quadrant_quarters(d, a, x), quadrant_quarters(d, a, y)
    assert generator_multiplicity(d, a, x) == F(nx4, 4)
    assert generator_multiplicity(d, a, y) == F(ny4, 4)
    mu4, chi4 = e4 + nx4 + ny4, 4 * d.genus - nx4 - ny4 + e4
    if force or connects(d, a, x, y):
        assert maslov_quarters(d, a, x, y, force) == mu4
        want = (d.genus, F(e4, 4), F(nx4, 4), F(ny4, 4), F(mu4, 4), F(chi4, 4))
        assert index_report(d, a, x, y, force) == want
    else:
        with pytest.raises(DiagramError, match="does not connect"):
            maslov_quarters(d, a, x, y)
        with pytest.raises(DiagramError, match="does not connect"):
            index_report(d, a, x, y)

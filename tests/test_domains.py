import gc
import random
import re
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from hdindex.diagram import ALPHA, BETA, DiagramError
from hdindex.domains import (
    Domain,
    Generator,
    _Factorization,
    _lattice,
    boundary_chain,
    connects,
    enumerate_generators,
    find_domains,
    is_positive,
    periodic_domain_basis,
    sigma_class,
    vertex_boundary,
)
from hdindex.harness import bundled_corpus, load_bundled


def brute_force_domains(d, x, y, max_coeff, positive_only):
    lo = 0 if positive_only else -max_coeff
    out = []
    for coeffs in product(range(lo, max_coeff + 1), repeat=len(d.regions)):
        a = Domain(coeffs)
        if connects(d, a, x, y):
            out.append(a)
    return out


def quadrant_vertex_boundary(d, a, family):
    """Independent oracle: read the vertex boundary off the four quadrants.

    Traveling along the curve through v, the coefficient is
    (left-in - right-in) - (left-out - right-out) where the four sectors
    are located from the rotation.
    """
    out = {}
    for v in d.vertices:
        rot = d.rotation[v]
        table = d.vertex_alpha if family == ALPHA else d.vertex_beta
        curve = table[v][0]
        fwd = next(dart for dart in rot if dart.curve == curve and dart.forward)
        bwd = next(dart for dart in rot if dart.curve == curve and not dart.forward)
        sector = {dart: d.face_of[dart] for dart in rot}
        i_f = rot.index(fwd)
        l_out = sector[fwd]                      # ccw from the outgoing dart
        r_out = sector[rot[(i_f - 1) % 4]]       # cw from the outgoing dart
        i_b = rot.index(bwd)
        l_in = sector[rot[(i_b - 1) % 4]]
        r_in = sector[bwd]
        out[v] = (a[l_in] - a[r_in]) - (a[l_out] - a[r_out])
    return out


def test_vertex_boundary_matches_quadrant_oracle(corpus):
    for d in corpus.values():
        doms = [sigma_class(d), Domain.zero(d)]
        doms.append(Domain(tuple(i % 3 for i in range(len(d.regions)))))
        doms.append(Domain(tuple((7 * i + 2) % 5 - 2 for i in range(len(d.regions)))))
        for a in doms:
            ch = boundary_chain(d, a)
            for family in (ALPHA, BETA):
                assert vertex_boundary(d, ch, family) == quadrant_vertex_boundary(
                    d, a, family
                )


def test_boundary_of_sigma_and_zero(corpus):
    for d in corpus.values():
        for a in (Domain.zero(d), sigma_class(d)):
            ch = boundary_chain(d, a)
            assert all(c == 0 for c in ch.alpha_part.values()) or a == sigma_class(d)
            assert all(v == 0 for v in vertex_boundary(d, ch, ALPHA).values())
            assert all(v == 0 for v in vertex_boundary(d, ch, BETA).values())


def vertex_boundaries(d, a):
    """The alpha vertex boundary of a and the negated beta one: a connects x
    to y by definition when both equal y - x."""
    ch = boundary_chain(d, a)
    beta = vertex_boundary(d, ch, BETA)
    return vertex_boundary(d, ch, ALPHA), {v: -c for v, c in beta.items()}


def y_minus_x(d, x, y):
    out = {v: 0 for v in d.vertices}
    for v in y.points:
        out[v] += 1
    for v in x.points:
        out[v] -= 1
    return out


def test_connects_matches_boundary_chain_definition(corpus):
    rng = random.Random(1301)
    for d in corpus.values():
        gens = enumerate_generators(d)
        randoms = [
            Domain(tuple(rng.randint(-3, 3) for _ in d.regions)) for _ in range(20)
        ]
        boundaries = {}
        for x in gens:
            for y in gens:
                want = y_minus_x(d, x, y)
                found = find_domains(d, x, y, 2, positive_only=False)
                for a in [Domain.zero(d), sigma_class(d), *found, *randoms]:
                    if a not in boundaries:
                        boundaries[a] = vertex_boundaries(d, a)
                    assert connects(d, a, x, y) == (boundaries[a] == (want, want))


PROPERTY_CORPUS = bundled_corpus()
PROPERTY_GENERATORS = {
    name: enumerate_generators(d) for name, d in PROPERTY_CORPUS.items()
}


@st.composite
def connects_cases(draw):
    """A bundled diagram, any generator pair on it and a domain: random with
    coefficients in -5..5 (zeros drawn often), the zero domain, Sigma, or a
    class found from x to y shifted by a multiple of Sigma."""
    name = draw(st.sampled_from(sorted(PROPERTY_CORPUS)))
    d, gens = PROPERTY_CORPUS[name], PROPERTY_GENERATORS[name]
    x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
    kind = draw(st.sampled_from(["random", "zero", "sigma", "class"]))
    if kind == "random":
        coeff = st.one_of(st.just(0), st.integers(-5, 5))
        n = len(d.regions)
        a = Domain(tuple(draw(st.lists(coeff, min_size=n, max_size=n))))
    elif kind == "class" and (found := find_domains(d, x, y, 1, positive_only=False)):
        a = draw(st.sampled_from(found)) + draw(st.integers(-2, 2)) * sigma_class(d)
    else:
        a = sigma_class(d) if kind == "sigma" else Domain.zero(d)
    return d, a, x, y


@seed(71301)
@settings(max_examples=400, deadline=None, database=None)
@given(connects_cases())
def test_connects_property_matches_boundary_chain_definition(case):
    d, a, x, y = case
    want = y_minus_x(d, x, y)
    assert connects(d, a, x, y) == (vertex_boundaries(d, a) == (want, want))


def test_connects_admits_no_invalid_generator(genus2):
    x, y = Generator(("x1", "x2")), Generator(("y1", "y2"))
    zero = Domain.zero(genus2)
    assert not connects(genus2, zero, x, y)
    bad = {
        Generator(("x1",)): "generator needs 2 points, got 1",
        Generator(("x1", "zz")): "unknown vertex 'zz' in generator",
        Generator(("q1", "x2")): "vertex 'q1' is not on alpha curve 'a1'",
        Generator(("y1", "q1")): "generator uses beta curve 'b1' twice (not a matching)",
    }
    for g, message in bad.items():
        for _ in range(3):
            for pair in ((g, y), (x, g), (g, g)):
                with pytest.raises(DiagramError) as err:
                    connects(genus2, zero, *pair)
                assert str(err.value) == message
            with pytest.raises(DiagramError, match=re.escape(message)):
                find_domains(genus2, g, y)
    assert _lattice(genus2).generators.keys() <= {g.points for g in enumerate_generators(genus2)}
    assert connects(genus2, zero, x, x)
    # admitted on genus2_bigons, still checked against each other diagram
    genus3 = load_bundled("genus3_chain.hd")
    for d in (genus3, genus3.mirror()):
        for pair in ((x, x), (x, Generator(("x1", "x2", "t")))):
            with pytest.raises(DiagramError, match="generator needs 3 points, got 2"):
                connects(d, Domain.zero(d), *pair)


def test_beta_vertex_boundary_is_minus_alpha(corpus):
    # why the boundary matrix needs no beta block
    rng = random.Random(4919)
    for d in corpus.values():
        gens = enumerate_generators(d)
        found = [a for x in gens for y in gens for a in find_domains(d, x, y, 2)]
        randoms = [
            Domain(tuple(rng.randint(-3, 3) for _ in d.regions)) for _ in range(20)
        ]
        for a in found + randoms:
            ch = boundary_chain(d, a)
            alpha = vertex_boundary(d, ch, ALPHA)
            assert vertex_boundary(d, ch, BETA) == {v: -c for v, c in alpha.items()}


def test_connects_rejects_wrong_length_domain(torus3):
    v0 = Generator(("v0",))
    for bad in (Domain((0, 0, 0, 0)), Domain((0, 0))):
        with pytest.raises(DiagramError):
            connects(torus3, bad, v0, v0)


def test_torus3_bigon_connects(torus3):
    # frozen from the sign convention: the bigon r1 runs from v0 to v2
    b = Domain.parse(torus3, "r1:1")
    v0, v1, v2 = (Generator((v,)) for v in ("v0", "v1", "v2"))
    assert connects(torus3, b, v0, v2)
    assert not connects(torus3, b, v2, v0)
    assert not connects(torus3, b, v0, v1)
    ch = boundary_chain(torus3, b)
    vb = vertex_boundary(torus3, ch, ALPHA)
    assert vb == {"v0": -1, "v1": 0, "v2": 1}
    assert vertex_boundary(torus3, ch, BETA) == {"v0": 1, "v1": 0, "v2": -1}


def test_connects_trivial_cases(torus2):
    gens = enumerate_generators(torus2)
    x, y = gens
    assert connects(torus2, Domain.zero(torus2), x, x)
    assert connects(torus2, sigma_class(torus2), x, x)
    assert not connects(torus2, Domain.zero(torus2), x, y)
    # the lens diagram has no strip classes between distinct generators
    assert find_domains(torus2, x, y, 3, positive_only=False) == []


def test_compose(torus3):
    # a class from x to y plus one from y to z is a class from x to z
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    bigon = Domain.parse(torus3, "r1:1")
    rest = Domain.parse(torus3, "r0:1,r2:1")
    assert connects(torus3, bigon, v0, v2) and connects(torus3, rest, v2, v0)
    assert bigon + rest == sigma_class(torus3)
    assert connects(torus3, bigon + rest, v0, v0)
    assert not connects(torus3, bigon, v2, v0)
    assert not connects(torus3, bigon + bigon, v0, v0)


def test_compose_rejects_mismatched_middle(torus3):
    # the bigon ends at v2, so adding a class from v1 to v1 gives no class
    # from v0 to v1
    v0, v1 = Generator(("v0",)), Generator(("v1",))
    bigon = Domain.parse(torus3, "r1:1")
    assert connects(torus3, Domain.zero(torus3), v1, v1)
    assert not connects(torus3, bigon + Domain.zero(torus3), v0, v1)


def test_positivity_and_sigma(torus3):
    assert is_positive(sigma_class(torus3))
    assert sigma_class(torus3).coeffs == (1, 1, 1)
    assert not is_positive(Domain.parse(torus3, "r0:-1,r1:1"))


def test_enumerate_generators(corpus, torus2, torus3, genus2):
    assert [g.format() for g in enumerate_generators(torus2)] == ["x", "y"]
    assert [g.format() for g in enumerate_generators(torus3)] == ["v0", "v1", "v2"]
    gens = enumerate_generators(genus2)
    assert len(gens) == 13
    for g in gens:
        # one point per alpha curve, distinct beta curves
        betas = {genus2.vertex_beta[v][0] for v in g.points}
        assert len(betas) == len(genus2.beta)


def test_enumerate_generators_in_lexicographic_order(corpus):
    # the alpha curves' vertex lists, taken in order, with each beta curve
    # used once: the order of a backtracking search over the alpha curves
    for d in corpus.values():
        want = [
            points
            for points in product(*(vs for _, vs in d.alpha))
            if len({d.vertex_beta[v][0] for v in points}) == len(points)
        ]
        assert [g.points for g in enumerate_generators(d)] == want


def test_solves_leave_no_cyclic_garbage(corpus):
    # every generator pair of the corpus at box 2, with the generators
    # enumerated inside: reference counting alone frees everything
    gc.collect()
    gc.disable()
    try:
        solves = 0
        for d in corpus.values():
            gens = enumerate_generators(d)
            for x in gens:
                for y in gens:
                    find_domains(d, x, y, 2)
                    find_domains(d, x, y, 2, positive_only=False)
                    solves += 1
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert solves == 863 and unreachable == 0


def test_find_domains_matches_brute_force(torus2, torus3, genus2s1s2):
    # torus2 and torus3 have periodic lattices of rank 1, genus2s1s2 of rank 2
    assert len(periodic_domain_basis(genus2s1s2)) == 2
    for d in (torus2, torus3, genus2s1s2):
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                for mc in (0, 1, 2):
                    for pos in (True, False):
                        got = find_domains(d, x, y, mc, pos)
                        want = brute_force_domains(d, x, y, mc, pos)
                        assert got == want
    # the lens diagram's two generators lie in different classes of H_1
    x, y = (_lattice(torus2).generators[g.points] for g in enumerate_generators(torus2))
    assert x.key != y.key


def test_find_domains_max_coeff_zero(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    assert find_domains(torus3, v0, v0, 0, True) == [Domain.zero(torus3)]
    assert find_domains(torus3, v0, v2, 0, True) == []


def test_solver_needs_non_unit_pivot():
    # 2 a0 + a1 = 1 has the integral solution (0, 1), but rational
    # elimination pivots on the 2 and lands on (1/2, 0)
    a = _Factorization.of([[2, 1]], 2).solve([1])
    assert a is not None and 2 * a[0] + a[1] == 1
    assert _Factorization.of([[2, 4]], 2).solve([1]) is None
    assert _Factorization.of([[2, 4], [1, 2]], 2).solve([2, 2]) is None


def _diagram(i):
    """Diagram i of the interleaved cache test, freshly parsed."""
    if i == 2:
        return load_bundled("genus2_bigons.hd")
    d = load_bundled("genus3_chain.hd")
    return d.mirror() if i == 1 else d


def _interleaved_queries(diagram_for, queries):
    """Answers to find_domains, then connects on the domains just found and
    on the last ones found on a diagram with as many regions, for each
    (diagram, x, y) query.  Every answer is also checked against the
    boundary-chain definition, which reads no cache."""
    out = []
    last: dict[int, list[Domain]] = {}
    for i, x, y in queries:
        d = diagram_for(i)
        n = len(d.regions)
        found = find_domains(d, x, y, 2, positive_only=False)
        probes = [sigma_class(d), *found, *last.get(n, [])]
        hits = [connects(d, a, x, y) for a in probes]
        want = y_minus_x(d, x, y)
        for a, hit in zip(probes, hits):
            assert hit == (vertex_boundaries(d, a) == (want, want))
        out.append((found, hits))
        last[n] = found or last.get(n, [])
    return out


def test_interleaved_queries_match_fresh_diagrams():
    # genus3_chain and its mirror share vertices, generators and region
    # count, so a cache shared between them would go unnoticed by lengths
    shared = [_diagram(i) for i in range(3)]
    gens = [enumerate_generators(d) for d in shared]
    rng = random.Random(4919)
    queries = []
    for _ in range(40):
        i = rng.randrange(3)
        queries.append((i, rng.choice(gens[i]), rng.choice(gens[i])))
    got = _interleaved_queries(lambda i: shared[i], queries)
    assert got == _interleaved_queries(_diagram, queries)
    assert any(found for found, _ in got)


def test_find_domains_closed_under_kernel(genus2s1s2):
    d = genus2s1s2
    gens = enumerate_generators(d)
    x, y = gens[0], gens[1]
    found = set(find_domains(d, x, y, 2, positive_only=False))
    basis = periodic_domain_basis(d)
    for a in found:
        for k in basis:
            shifted = a + k
            if all(-2 <= c <= 2 for c in shifted.coeffs):
                assert shifted in found


def test_periodic_domain_basis(corpus, torus2, genus2s1s2):
    for name, d in corpus.items():
        basis = periodic_domain_basis(d)
        sigma = sigma_class(d)
        # every basis element has vanishing vertex boundaries
        for b in basis:
            ch = boundary_chain(d, b)
            assert all(v == 0 for v in vertex_boundary(d, ch, ALPHA).values())
            assert all(v == 0 for v in vertex_boundary(d, ch, BETA).values())
        # the full surface class lies in the span (integer combination)
        assert _in_integer_span(basis, sigma)
    assert len(periodic_domain_basis(torus2)) == 1
    assert len(periodic_domain_basis(genus2s1s2)) == 2


def _in_integer_span(basis, target):
    # the echelonized basis makes span membership a greedy reduction
    residue = list(target.coeffs)
    for b in basis:
        pivot = next((i for i, c in enumerate(b.coeffs) if c != 0), None)
        if pivot is None:
            continue
        if residue[pivot] % b.coeffs[pivot] != 0:
            return False
        q = residue[pivot] // b.coeffs[pivot]
        residue = [r - q * c for r, c in zip(residue, b.coeffs)]
    return all(r == 0 for r in residue)


def test_sigma_preserves_connects(torus3, genus2):
    for d in (torus3, genus2):
        gens = enumerate_generators(d)
        sigma = sigma_class(d)
        for x in gens[:3]:
            for y in gens[:3]:
                for a in find_domains(d, x, y, 1, True):
                    assert connects(d, a + sigma, x, y)


def test_generator_parse_and_validate(genus2):
    g = Generator.parse(genus2, "x1,x2")
    assert g.points == ("x1", "x2")
    with pytest.raises(DiagramError):
        Generator.parse(genus2, "x1")
    with pytest.raises(DiagramError):
        Generator.parse(genus2, "x1,q1")  # q1 not on alpha curve a2... wrong curve
    with pytest.raises(DiagramError):
        Generator.parse(genus2, "y1,s1")  # both points on beta curve b1


def test_domain_parse_and_format(torus3):
    a = Domain.parse(torus3, "r0:2,r2:-1")
    assert a.coeffs == (2, 0, -1)
    assert a.format() == "r0:2,r2:-1"
    assert Domain.parse(torus3, "0") == Domain.zero(torus3)
    assert Domain.zero(torus3).format() == "0"
    with pytest.raises(DiagramError):
        Domain.parse(torus3, "r9:1")
    with pytest.raises(DiagramError):
        Domain.parse(torus3, "x0:1")
    with pytest.raises(DiagramError, match="bad domain term 'r1:one'"):
        Domain.parse(torus3, "r1:one")


@pytest.mark.parametrize(
    "text, message",
    [
        ("r1:1,r1:-1", "region 'r1' given twice"),
        ("r0:2, r0:2", "region 'r0' given twice"),
        ("r01:1", "region 'r01' should be written r1"),
        ("r+1:1", "region 'r\\+1' should be written r1"),
    ],
)
def test_domain_parse_refuses_a_region_named_twice_or_not_as_format_writes_it(
    torus3, text, message
):
    with pytest.raises(DiagramError, match=message):
        Domain.parse(torus3, text)


def test_domain_format_parses_back_to_the_same_domain(corpus):
    rng = random.Random(436)
    for d in corpus.values():
        for _ in range(20):
            a = Domain(tuple(rng.randint(-3, 3) for _ in d.regions))
            assert Domain.parse(d, a.format()) == a


def test_bad_arguments_raise_value_errors(torus3):
    x = Generator(("v0",))
    with pytest.raises(ValueError, match="max_coeff must be >= 0"):
        find_domains(torus3, x, x, -1)
    chain = boundary_chain(torus3, Domain.parse(torus3, "r1:1"))
    with pytest.raises(ValueError, match="family must be 'alpha' or 'beta'"):
        vertex_boundary(torus3, chain, "gamma")

import random
from itertools import product

import pytest

from hdindex.diagram import ALPHA, BETA, DiagramError
from hdindex.domains import (
    Domain,
    Generator,
    _Factorization,
    boundary_chain,
    compose,
    connects,
    enumerate_generators,
    find_domains,
    is_positive,
    periodic_domain_basis,
    sigma_class,
    vertex_boundary,
)
from hdindex.harness import load_bundled


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
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    bigon = Domain.parse(torus3, "r1:1")
    rest = Domain.parse(torus3, "r0:1,r2:1")
    total = compose(torus3, bigon, v0, v2, rest, v0)
    assert total == sigma_class(torus3)
    with pytest.raises(DiagramError):
        compose(torus3, bigon, v0, v2, bigon, v0)


def test_compose_rejects_mismatched_middle(torus3):
    v0, v1, v2 = (Generator((v,)) for v in ("v0", "v1", "v2"))
    bigon = Domain.parse(torus3, "r1:1")
    with pytest.raises(DiagramError):
        compose(torus3, bigon, v0, v1, Domain.zero(torus3), v1)


def test_positivity_and_sigma(torus3):
    assert is_positive(sigma_class(torus3))
    assert sigma_class(torus3).coeffs == (1, 1, 1)
    assert not is_positive(Domain.parse(torus3, "r1:1") - Domain.parse(torus3, "r0:1"))


def test_enumerate_generators(corpus, torus2, torus3, genus2):
    assert [g.format() for g in enumerate_generators(torus2)] == ["x", "y"]
    assert [g.format() for g in enumerate_generators(torus3)] == ["v0", "v1", "v2"]
    gens = enumerate_generators(genus2)
    assert len(gens) == 13
    for g in gens:
        # one point per alpha curve, distinct beta curves
        betas = {genus2.vertex_beta[v][0] for v in g.points}
        assert len(betas) == len(genus2.beta)


def test_find_domains_matches_brute_force(torus2, torus3):
    for d in (torus2, torus3):
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                for mc in (0, 1, 2):
                    for pos in (True, False):
                        got = find_domains(d, x, y, mc, pos)
                        want = brute_force_domains(d, x, y, mc, pos)
                        assert got == want


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

import gc
import random
import re
import tracemalloc
from functools import partial
from itertools import product
from operator import mul

import pytest
from hypothesis import given, seed, settings, strategies as st

from hdindex.diagram import ALPHA, BETA, Dart, DiagramError, HeegaardDiagram
from hdindex.domains import (
    Domain,
    Generator,
    MAX_COEFF,
    MAX_POINTS,
    PreconditionError,
    _Factorization,
    _boundary_matrix,
    _lattice,
    _records,
    connects,
    enumerate_generators,
    find_domains,
    is_positive,
    periodic_domain_basis,
    sigma_class,
)
from hdindex import builder
from hdindex.builder import build_surface, stabilized_surface
from hdindex.formulas import index_report
from hdindex.harness import bundled_corpus, load_bundled
from support import box_cases, mirror, valid_diagrams, y_minus_x, zero_domain


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
        curve = table[v]
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


def vertex_boundaries(d, a):
    """The reference definition of ``connects``, read edge by edge: the
    vertex boundary of the alpha part of the boundary of a, and that of
    the beta part negated.  a connects x to y by definition when both
    equal y - x.

    An edge run along its curve's listed direction carries the coefficient
    (left region) - (right region), and each vertex gets the edge of the
    family that runs into it minus the one that runs out of it.
    """
    alpha, beta = ({v: 0 for v in d.vertices} for _ in range(2))
    for name, vs in d.alpha + d.beta:
        part = alpha if d.curve_family[name] == ALPHA else beta
        for i, tail in enumerate(vs):
            head = vs[(i + 1) % len(vs)]
            # the edge's left region holds its forward dart at the tail, its
            # right region the backward dart at the head
            left, right = d.face_of[Dart(tail, name, True)], d.face_of[Dart(head, name, False)]
            part[head] += a[left] - a[right]
            part[tail] -= a[left] - a[right]
    return alpha, {v: -c for v, c in beta.items()}


def test_vertex_boundary_matches_quadrant_oracle(corpus):
    # on the corpus, its mirrors and the generated diagrams; each column of
    # the boundary matrix is one more input: the alpha vertex boundary of
    # its region's unit domain, read edge by edge
    diagrams = list(corpus.values())
    diagrams += [mirror(d) for d in diagrams] + valid_diagrams(seed=4919, count=60)
    for d in diagrams:
        n = len(d.regions)
        doms = [sigma_class(d), zero_domain(d)]
        doms.append(Domain(tuple(i % 3 for i in range(n))))
        doms.append(Domain(tuple((7 * i + 2) % 5 - 2 for i in range(n))))
        for a in doms:
            alpha, minus_beta = vertex_boundaries(d, a)
            assert alpha == quadrant_vertex_boundary(d, a, ALPHA)
            assert minus_beta == {v: -c for v, c in quadrant_vertex_boundary(d, a, BETA).items()}
        for r, column in enumerate(zip(*_boundary_matrix(d))):
            alpha, _ = vertex_boundaries(d, Domain(tuple(int(i == r) for i in range(n))))
            assert column == tuple(alpha[v] for v in d.vertices), (d, r)


def test_boundary_of_sigma_and_zero(corpus):
    for d in corpus.values():
        for a in (zero_domain(d), sigma_class(d)):
            for part in vertex_boundaries(d, a):
                assert all(v == 0 for v in part.values())


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
                for a in [zero_domain(d), sigma_class(d), *found, *randoms]:
                    if a not in boundaries:
                        boundaries[a] = vertex_boundaries(d, a)
                    assert connects(d, a, x, y) == (boundaries[a] == (want, want))


def test_the_definition_test_catches_a_dropped_column():
    # a seeded mutant of connects: on each fresh diagram one nonzero column
    # of the boundary matrix is dropped from its packed form
    # (torus_g1_1x has one region, and its column is zero)
    rng = random.Random(1801)
    mutated = 0
    for name, d in bundled_corpus().items():
        columns = list(zip(*_boundary_matrix(d)))
        nonzero = [i for i, column in enumerate(columns) if any(column)]
        if not nonzero:
            continue
        mutated += 1
        r = rng.choice(nonzero)
        lat = _lattice(d)
        d._lattice = lat._replace(packed=lat.packed[:r] + (0,) + lat.packed[r + 1 :])
        with pytest.raises(AssertionError):
            test_connects_matches_boundary_chain_definition({name: d})
    assert mutated == 5


PROPERTY_CORPUS = bundled_corpus()
PROPERTY_GENERATORS = {
    name: enumerate_generators(d) for name, d in PROPERTY_CORPUS.items()
}


# Multiples of Sigma for the shifted cases: small ones, and ones just inside
# and just outside the coefficient budget on either side, so that both the
# packed product and the refusal are tested at the edge of the budget.
SIGMA_SHIFTS = st.one_of(
    st.integers(-2, 2),
    st.integers(MAX_COEFF - 3, MAX_COEFF + 3),
    st.integers(-MAX_COEFF - 3, -MAX_COEFF + 3),
)


@st.composite
def connects_cases(draw):
    """A bundled diagram, any generator pair on it and a domain: the zero
    domain, Sigma, or one shifted by a multiple of Sigma, small or near
    +-MAX_COEFF: random with coefficients in -5..5 (zeros drawn often), which
    almost never connects, or a class found from x to y, which does."""
    name = draw(st.sampled_from(sorted(PROPERTY_CORPUS)))
    d, gens = PROPERTY_CORPUS[name], PROPERTY_GENERATORS[name]
    x, y = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
    kind = draw(st.sampled_from(["random", "zero", "sigma", "class"]))
    if kind == "random":
        coeff = st.one_of(st.just(0), st.integers(-5, 5))
        n = len(d.regions)
        a = Domain(tuple(draw(st.lists(coeff, min_size=n, max_size=n))))
        a += draw(SIGMA_SHIFTS) * sigma_class(d)
    elif kind == "class" and (found := find_domains(d, x, y, 1, positive_only=False)):
        a = draw(st.sampled_from(found)) + draw(SIGMA_SHIFTS) * sigma_class(d)
    else:
        a = sigma_class(d) if kind == "sigma" else zero_domain(d)
    return d, a, x, y


@seed(71301)
@settings(max_examples=400, deadline=None, database=None)
@given(connects_cases())
def test_connects_property_matches_boundary_chain_definition(case):
    # inside the budget connects is the definition; outside it refuses
    d, a, x, y = case
    if (m := max(map(abs, a.coeffs))) > MAX_COEFF:
        with pytest.raises(PreconditionError, match=f"^coefficient magnitude {m} exceeds"):
            connects(d, a, x, y)
    else:
        want = y_minus_x(d, x, y)
        assert connects(d, a, x, y) == (vertex_boundaries(d, a) == (want, want))


def test_every_row_of_the_boundary_matrix_has_absolute_sum_at_most_four(corpus):
    # the bound that makes the packed product exact inside the budget
    for d in corpus.values():
        assert max(sum(map(abs, row)) for row in _boundary_matrix(d)) <= 4


def test_the_guard_keeps_a_packed_collision_from_connecting(genus2, genus3, monkeypatch):
    # Where one region's column is another's moved down one vertex row, the
    # 32-bit packing of the second is 2^32 times the first, so 2^32 on the
    # first and -1 on the second packs to 0 although M . A is not 0.  Only
    # the coefficient budget keeps connects from answering True on it.
    cases = []
    for d in (genus2, genus3):
        columns = list(zip(*_boundary_matrix(d)))
        i, j = next(
            (i, j)
            for i, low in enumerate(columns)
            for j, high in enumerate(columns)
            if any(low) and not low[-1] and high == (0, *low[:-1])
        )
        coeffs = [0] * len(d.regions)
        coeffs[i], coeffs[j] = 1 << 32, -1
        a = Domain(tuple(coeffs))
        x = enumerate_generators(d)[0]
        assert sum(map(mul, _lattice(d).packed, a.coeffs)) == 0  # the packed product
        assert vertex_boundaries(d, a) != (y_minus_x(d, x, x),) * 2
        with pytest.raises(PreconditionError) as refused:
            connects(d, a, x, x)
        assert str(refused.value) == "coefficient magnitude 4294967296 exceeds the 268435455 limit"
        cases.append((d, a, x))
    # a seeded mutant: a budget past the packing's exact range lets it connect
    monkeypatch.setattr("hdindex.domains.MAX_COEFF", 1 << 40)
    assert all(connects(d, a, x, x) for d, a, x in cases)


def test_no_domain_the_program_makes_reaches_the_coefficient_budget():
    # find_domains refuses a box of width w once w ** rank exceeds
    # MAX_POINTS, and the rank of the periodic lattice is at least 1, since
    # Sigma is periodic: so w <= w ** rank <= MAX_POINTS, and every domain
    # it tests lies within +-MAX_POINTS.  A build of more than MAX_FACES
    # sheets is refused, so no surface is built from a coefficient past
    # MAX_FACES.  Raising either budget past MAX_COEFF would let domains the
    # program itself makes meet the refusal in connects.
    assert MAX_POINTS <= MAX_COEFF
    assert builder.MAX_FACES <= MAX_COEFF


def test_connects_admits_no_invalid_generator(genus2):
    x, y = Generator(("x1", "x2")), Generator(("y1", "y2"))
    zero = zero_domain(genus2)
    assert not connects(genus2, zero, x, y)
    bad = {
        Generator(("x1",)): "generator needs 2 points, got 1",
        Generator(("x1", "zz")): "unknown vertex 'zz' in generator",
        Generator(("q1", "x2")): "vertex 'q1' is not on alpha curve 'a1'",
        Generator(("y1", "q1")): "generator uses beta curve 'b1' twice (not a matching)",
    }
    # each reader of the generator records raises check_generator's message,
    # every time, and stores no record of the bad generator
    for g, message in bad.items():
        for _ in range(3):
            for pair in ((g, y), (x, g), (g, g)):
                for call in (connects, partial(index_report, force=True)):
                    with pytest.raises(DiagramError) as err:
                        call(genus2, zero, *pair)
                    assert str(err.value) == message
            with pytest.raises(DiagramError, match=re.escape(message)):
                find_domains(genus2, g, y)
    assert _lattice(genus2).generators.keys() <= {g.points for g in enumerate_generators(genus2)}
    assert connects(genus2, zero, x, x)
    # admitted on genus2_bigons, still checked against each other diagram
    genus3 = load_bundled("genus3_chain.hd")
    for d in (genus3, mirror(genus3)):
        for pair in ((x, x), (x, Generator(("x1", "x2", "t")))):
            with pytest.raises(DiagramError, match="generator needs 3 points, got 2"):
                connects(d, zero_domain(d), *pair)


def test_beta_vertex_boundary_is_minus_alpha(corpus):
    # why the boundary matrix needs no beta block
    rng = random.Random(4919)
    for d in corpus.values():
        found = [a for *_, a in box_cases([d], 2)]
        randoms = [
            Domain(tuple(rng.randint(-3, 3) for _ in d.regions)) for _ in range(20)
        ]
        for a in found + randoms:
            alpha, minus_beta = vertex_boundaries(d, a)
            assert minus_beta == alpha


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
    alpha, minus_beta = vertex_boundaries(torus3, b)
    assert alpha == minus_beta == {"v0": -1, "v1": 0, "v2": 1}


def test_connects_trivial_cases(torus2):
    gens = enumerate_generators(torus2)
    x, y = gens
    assert connects(torus2, zero_domain(torus2), x, x)
    assert connects(torus2, sigma_class(torus2), x, x)
    assert not connects(torus2, zero_domain(torus2), x, y)
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
    assert connects(torus3, zero_domain(torus3), v1, v1)
    assert not connects(torus3, bigon + zero_domain(torus3), v0, v1)


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
        betas = {genus2.vertex_beta[v] for v in g.points}
        assert len(betas) == len(genus2.beta)


def test_enumerate_generators_in_lexicographic_order(corpus):
    # the alpha curves' vertex lists, taken in order, with each beta curve
    # used once: the order of a backtracking search over the alpha curves
    for d in corpus.values():
        want = [
            points
            for points in product(*(vs for _, vs in d.alpha))
            if len({d.vertex_beta[v] for v in points}) == len(points)
        ]
        assert [g.points for g in enumerate_generators(d)] == want


def grid_diagram(g):
    """g alpha and g beta curves, each alpha meeting each beta once, so g!
    generators; it is not a valid diagram, but it is a diagram."""
    alpha = [(f"a{i}", [f"v{i}_{j}" for j in range(g)]) for i in range(g)]
    beta = [(f"b{j}", [f"v{i}_{j}" for i in range(g)]) for j in range(g)]
    return HeegaardDiagram(alpha, beta, {f"v{i}_{j}": 1 for i in range(g) for j in range(g)})


def test_enumerate_generators_refuses_past_the_matching_budget(monkeypatch, genus3):
    # the grid of genus 9 has 9!/2! = 181,440 partial matchings after seven
    # alpha curves, the first level past 2 ** 16; the level is counted
    # before it is built, so refusing it holds only the 60,480 before it
    d = grid_diagram(9)
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="^181440 partial matchings exceed the 65536 limit$"):
            enumerate_generators(d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    # genus3_chain's levels are 7, 23 and 26
    monkeypatch.setattr("hdindex.domains.MAX_GENERATORS", 26)
    assert len(enumerate_generators(genus3)) == 26
    monkeypatch.setattr("hdindex.domains.MAX_GENERATORS", 25)
    with pytest.raises(PreconditionError, match="^26 partial matchings exceed the 25 limit$"):
        enumerate_generators(genus3)


LATTICE_READERS = {
    "find_domains": lambda d, x: find_domains(d, x, x),
    "index_report": lambda d, x: index_report(d, zero_domain(d), x, x),
    "build_surface": lambda d, x: build_surface(d, zero_domain(d), x, x),
    "stabilized_surface": lambda d, x: stabilized_surface(d, zero_domain(d), x, x),
}


@pytest.mark.parametrize("reader", LATTICE_READERS)
def test_every_lattice_reader_keeps_the_crossing_budget(monkeypatch, reader):
    # each call parses a fresh diagram, since the lattice is kept on the instance
    call = LATTICE_READERS[reader]
    x = Generator(("x1", "x2"))
    n = len(load_bundled("genus2_bigons.hd").vertices)
    monkeypatch.setattr("hdindex.domains.MAX_CROSSINGS", n)
    call(load_bundled("genus2_bigons.hd"), x)
    monkeypatch.setattr("hdindex.domains.MAX_CROSSINGS", n - 1)
    with pytest.raises(PreconditionError, match=f"^{n} crossings exceed the {n - 1}-crossing limit$"):
        call(load_bundled("genus2_bigons.hd"), x)


def test_find_domains_walks_the_box_in_increasing_order(corpus):
    # no sort: the nested walk over the kernel basis is already lexicographic
    found = 0
    for d in corpus.values():
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                got = [a.coeffs for a in find_domains(d, x, y, 3, positive_only=False)]
                assert all(p < q for p, q in zip(got, got[1:]))
                found += len(got)
    assert found > 0


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
    _, rx, ry = _records(torus2, *enumerate_generators(torus2))
    assert rx.key != ry.key


def test_generators_of_different_class_keys_ask_connects_nothing(monkeypatch, corpus):
    # without the class-key test, find_domains walks these pairs' cosets
    # from a point that solves nothing, and still returns [] for each, but
    # only after 980 connects calls
    pairs = []
    for d in corpus.values():
        for x, y in product(enumerate_generators(d), repeat=2):
            _, rx, ry = _records(d, x, y)
            if rx.key != ry.key:
                pairs.append((d, x, y))
    calls = []
    monkeypatch.setattr("hdindex.domains.connects", lambda *args: calls.append(args))
    assert len(pairs) == 340
    assert all(find_domains(d, x, y, 2, False) == [] for d, x, y in pairs)
    assert calls == []


def test_find_domains_max_coeff_zero(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    assert find_domains(torus3, v0, v0, 0, True) == [zero_domain(torus3)]
    assert find_domains(torus3, v0, v2, 0, True) == []


def test_solver_needs_non_unit_pivot():
    # 2 a0 + a1 = 1 has the integral solution (0, 1), but rational
    # elimination pivots on the 2 and lands on (1/2, 0)
    residue, a = _Factorization.of([[2, 1]], 2).reduce([1])
    assert residue == [0] and 2 * a[0] + a[1] == 1
    assert any(_Factorization.of([[2, 4]], 2).reduce([1])[0])
    assert any(_Factorization.of([[2, 4], [1, 2]], 2).reduce([2, 2])[0])


def _diagram(i):
    """Diagram i of the interleaved cache test, freshly parsed."""
    if i == 2:
        return load_bundled("genus2_bigons.hd")
    d = load_bundled("genus3_chain.hd")
    return mirror(d) if i == 1 else d


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
            for part in vertex_boundaries(d, b):
                assert all(v == 0 for v in part.values())
        # the full surface class lies in the span (integer combination)
        assert _in_integer_span(basis, sigma)
    assert len(periodic_domain_basis(torus2)) == 1
    assert len(periodic_domain_basis(genus2s1s2)) == 2


def test_kernel_pivots_are_stored_with_the_factorization(corpus):
    for d in corpus.values():
        fact = _lattice(d).factorization
        assert fact.kernel_pivots == tuple(
            next(c for c, k in enumerate(vec) if k) for vec in fact.kernel
        )
        assert list(fact.kernel_pivots) == sorted(set(fact.kernel_pivots))


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
    assert Domain.parse(torus3, "0") == zero_domain(torus3)
    assert zero_domain(torus3).format() == "0"
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


@pytest.mark.parametrize("value", ["1_0", "+1", "01", "\u0661", " 1", "-0"])
def test_domain_parse_reads_a_coefficient_only_as_format_writes_it(torus3, value):
    # Python's int reads each of these (1_0 as 10, the others as 1 or 0)
    with pytest.raises(DiagramError, match="bad domain term"):
        Domain.parse(torus3, f"r1:{value}")


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


def test_find_domains_refuses_a_box_past_the_point_budget(monkeypatch, genus2s1s2):
    # rank 2 and the signed box |c| <= 3: at most 7 ** 2 = 49 points
    x = Generator(("a", "c"))
    assert len(periodic_domain_basis(genus2s1s2)) == 2
    monkeypatch.setattr("hdindex.domains.MAX_POINTS", 49)
    assert find_domains(genus2s1s2, x, x, 3, positive_only=False)
    monkeypatch.setattr("hdindex.domains.MAX_POINTS", 48)
    with pytest.raises(PreconditionError, match="^49 box points exceed the 48-point limit$"):
        find_domains(genus2s1s2, x, x, 3, positive_only=False)
    with pytest.raises(PreconditionError, match="max_coeff must be >= 0"):
        find_domains(genus2s1s2, x, x, -1)

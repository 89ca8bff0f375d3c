"""Seeded generated diagrams against re-stated reference routines.

The diagrams have at most seven vertices; some are two independent blocks,
so their traced surface is disconnected.  ``validate_diagram`` is compared
with a vertex DFS and a per-family region union-find, the one-pass grind
of stage S1 with the fixpoint grind it replaced, the class keys of
``find_domains`` with one solve per generator pair, the periodic rank
with the rank of the signed intersection matrix, the parity of the
Maslov index with the Z/2 grading from the crossing signs, and the
pivots that the echelon form reports with a rescan of each row.
Additivity of mu is checked on each class's generating set, and on the
corpus compared with the box suite.  Every build of a generated case must succeed.
"""

import copy
import random
from operator import mul

import pytest

from hdindex import builder, domains, formulas
from hdindex.builder import BuilderError
from hdindex.diagram import ALPHA, BETA, Dart, validate_diagram
from hdindex.domains import (
    Domain,
    Generator,
    _Factorization,
    _boundary_matrix,
    _lattice,
    _records,
    _row_echelon,
    enumerate_generators,
    find_domains,
    periodic_domain_basis,
)
from hdindex.formulas import maslov_quarters
from hdindex.harness import additivity_suite, bundled_corpus
from support import box_cases, class_frames, generating_set_faults, mirror, random_diagram
from support import valid_diagrams, y_minus_x

# -- the reference verdicts ---------------------------------------------------


def dfs_connected(d):
    """The traced surface is connected: every vertex reached across edges."""
    seen = {d.vertices[0]}
    stack = [d.vertices[0]]
    while stack:
        v = stack.pop()
        for dart in d.rotation[v]:
            w = d.rev(dart).vertex
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(d.vertices)


def complement_connected(d, cut_family):
    """The regions glued across edges of the other family form one class."""
    parent = list(range(len(d.regions)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for name, vs in d.alpha + d.beta:
        if d.curve_family[name] != cut_family:
            for i, tail in enumerate(vs):
                head = vs[(i + 1) % len(vs)]
                a, b = d.face_of[Dart(tail, name, True)], d.face_of[Dart(head, name, False)]
                parent[find(a)] = find(b)
    return len({find(i) for i in range(len(d.regions))}) == 1


def reference_codes(d):
    codes = []
    if len(d.alpha) != len(d.beta):
        codes.append("curve-count")
    if d.genus != len(d.alpha):
        codes.append("genus-mismatch")
    if not dfs_connected(d):
        codes.append("disconnected")
    codes += [
        code
        for family, code in ((ALPHA, "alpha-complement"), (BETA, "beta-complement"))
        if not complement_connected(d, family)
    ]
    return codes


def test_validation_verdicts_match_the_reference():
    rng = random.Random(1301)
    seen = set()
    for i in range(1500):
        d = random_diagram(rng, blocks=1 + i % 2)
        codes = [v.code for v in validate_diagram(d)]
        assert codes == reference_codes(d), d
        seen.update(codes)
    assert seen == {
        "curve-count",
        "genus-mismatch",
        "disconnected",
        "alpha-complement",
        "beta-complement",
    }


# -- the reference grind ------------------------------------------------------


def corner_chains(surf):
    """The odd open orbits at diagram vertices, by smallest side id, from a
    scan of every free side."""
    free = (s for s, p in enumerate(surf.partner) if p == -1)
    orbits = (surf.orbit(s) for s in free if surf.head[s][0] == "v")
    return sorted((o for o in orbits if len(o) % 2), key=min)


def fixpoint_grind(surf):
    """Grind the first long corner chain, rescan, until none is left."""
    guard = 0
    while True:
        target = next((o for o in corner_chains(surf) if len(o) >= 3), None)
        if target is None:
            return
        start_free, links, end_free = surf.class_slots(target)
        fam_start = surf.family(start_free)
        if fam_start == surf.family(end_free):
            raise BuilderError("odd chain with equal end families")
        if fam_start != ALPHA:
            links = list(reversed(links))
        for i in range(0, len(links), 2):
            if surf.family(links[i]) == ALPHA:
                raise BuilderError("cut scheduled along an alpha link")
            surf.slit_at_tail(links[i])
        guard += 1
        if guard > 4 * len(surf.nxt):
            raise BuilderError("bad-corner grinding does not terminate")


GRIND_DIAGRAMS = valid_diagrams(seed=4919, count=60)


def records(d, x, y, a):
    """The S3 and (genus above one) S4 records, or the builder's error text."""
    out = []
    for build in (builder.build_surface, builder.stabilized_surface)[: 1 + (d.genus > 1)]:
        try:
            out.append(build(d, a, x, y).to_json_dict())
        except BuilderError as exc:
            out.append(str(exc))
    return out


def grind_mismatches(monkeypatch):
    """Cases where the grind in the builder departs from the reference."""
    long_chains = 0
    found = []
    for d, x, y, a in box_cases(GRIND_DIAGRAMS, 2):
        s0 = builder.glue_copies(d, a)
        long_chains = max(long_chains, sum(len(o) >= 3 for o in corner_chains(s0.surface)))
        s1 = builder.cut_bad_corners(s0)
        if any(len(o) > 1 for o in corner_chains(s1.surface)):
            found.append((d, a, "S1 left a long corner chain"))
        ours = records(d, x, y, a)
        with monkeypatch.context() as m:
            m.setattr(builder, "_grind_odd_chains", fixpoint_grind)
            theirs = records(d, x, y, a)
        if ours != theirs:
            found.append((d, a, ours, theirs))
    # the corpus must hold builds with several chains to grind at once
    assert long_chains >= 3
    return found


def test_one_pass_grind_matches_the_fixpoint(monkeypatch):
    assert grind_mismatches(monkeypatch) == []


def test_grind_check_catches_a_grind_of_the_first_chain_only(monkeypatch):
    one_pass = builder._grind_odd_chains

    def first_chain_only(surf):
        first = [o for o in corner_chains(surf) if len(o) >= 3][:1]
        surf.circles = lambda: ([first], None)
        one_pass(surf)
        del surf.circles

    monkeypatch.setattr(builder, "_grind_odd_chains", first_chain_only)
    assert grind_mismatches(monkeypatch)


def build_errors():
    """(records, records that are the builder's error text) over every case."""
    out = [r for case in box_cases(GRIND_DIAGRAMS, 2) for r in records(*case)]
    return len(out), sum(isinstance(r, str) for r in out)


def test_generated_builds_succeed():
    # the one-pass and fixpoint grinds agree even where both raise, so the
    # builds must succeed on their own; only stage S1 grinds, and this
    # holds the later stages to right angles on diagrams outside the corpus
    assert build_errors() == (804, 0)


def test_build_check_catches_a_grind_that_cuts_nothing(monkeypatch):
    monkeypatch.setattr(builder, "_grind_odd_chains", lambda surf: None)
    assert build_errors() == (804, 226)


# -- the reference solve per pair ---------------------------------------------


REDUCE = _Factorization.reduce
KEY_BOX = 2


def target(d, x, y):
    """y - x as a list over the vertex rows of the boundary matrix."""
    return list(y_minus_x(d, x, y).values())


def reference_find_domains(d, x, y, box):
    """The signed-box classes from x to y from one solve of M a = y - x: the
    particular solution moved along the kernel basis inside the box.  There
    is no connects filter, since every coset point connects x to y."""
    lat = _lattice(d)
    residue, x0 = REDUCE(lat.factorization, target(d, x, y))
    if any(residue):
        return []
    points = [x0]
    for vec in lat.factorization.kernel:
        pc = next(c for c, k in enumerate(vec) if k)
        points = [
            [c + t * v for c, v in zip(p, vec)]
            for p in points
            for t in range(-((p[pc] + box) // vec[pc]), (box - p[pc]) // vec[pc] + 1)
        ]
    return [Domain(tuple(p)) for p in sorted(points) if -box <= min(p) and max(p) <= box]


def class_key_faults(diagrams):
    """Pairs whose keys disagree with the per-pair solve, or whose classes
    differ from the reference's, as whole lists: a wrong particular solution
    would leave find_domains silently empty.  Also counts the pairs with
    different keys and the nonempty lists, so a vacuous run shows."""
    faults, apart, nonempty = [], 0, 0
    for d in diagrams:
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                got = find_domains(d, x, y, KEY_BOX, positive_only=False)
                lat, rx, ry = _records(d, x, y)
                same = rx.key == ry.key
                residue, _ = REDUCE(lat.factorization, target(d, x, y))
                want = reference_find_domains(d, x, y, KEY_BOX)
                if same == any(residue) or got != want:
                    faults.append((d, x, y, got, want))
                apart += not same
                nonempty += bool(want)
    return faults, apart, nonempty


def residue_faults(diagrams):
    """Generators whose record is not (x reduced modulo im M, a(x)): M a(x)
    must be x - key, and every pivot coordinate of the key in [0, pivot)."""
    faults = []
    for d in diagrams:
        rows = _boundary_matrix(d)
        for x in enumerate_generators(d):
            lat, rec, _ = _records(d, x, x)
            image = [sum(map(mul, row, rec.potential)) for row in rows]
            point = target(d, Generator(()), x)
            reduced = all(0 <= rec.key[pc] < h[pc] for pc, h in lat.factorization.echelon)
            if [p - k for p, k in zip(point, rec.key)] != image or not reduced:
                faults.append((d, x, rec))
    return faults


def mirrored_corpus():
    """The bundled corpus and its mirrors, fresh."""
    corpus = list(bundled_corpus().values())
    return corpus + [mirror(d) for d in corpus]


def key_diagrams():
    """The bundled corpus, its mirrors and the generated diagrams, fresh."""
    return mirrored_corpus() + valid_diagrams(seed=4919, count=60)


def test_class_keys_match_the_per_pair_solve():
    diagrams = key_diagrams()
    faults, apart, nonempty = class_key_faults(diagrams)
    assert faults == []
    assert apart > 0 and nonempty > 0
    assert residue_faults(diagrams) == []


def ceiling_reduce(fact, target):
    """``_Factorization.reduce`` with the ceiling quotient at each pivot."""
    residue = list(target)
    a = [0] * len(fact.unimodular)
    for (pc, h), u in zip(fact.echelon, fact.unimodular):
        z = -(-residue[pc] // h[pc])
        residue = [r - z * c for r, c in zip(residue, h)]
        a = [x + z * c for x, c in zip(a, u)]
    return residue, a


def test_residue_check_catches_a_ceiling_reduction(monkeypatch):
    # residues in (-pivot, 0] are canonical too, so keys and classes stay
    # right under this mutant: only the residue window shows it
    monkeypatch.setattr(_Factorization, "reduce", ceiling_reduce)
    assert residue_faults(mirrored_corpus())


def test_class_key_check_catches_a_reversed_particular_solution(monkeypatch):
    # a(x) - a(y) in place of a(y) - a(x): the same as every potential negated
    def negated(fact, target):
        residue, a = REDUCE(fact, target)
        return residue, [-c for c in a]

    monkeypatch.setattr(_Factorization, "reduce", negated)
    faults, _, _ = class_key_faults(mirrored_corpus())
    assert faults and all(got == [] for _, _, _, got, _ in faults)


# -- the Hermite pass the solver no longer makes ------------------------------


def hermite(fact, nrows):
    """A copy of ``fact`` in Hermite normal form.  Each row of [H | U] with a
    negative pivot is negated, and then every entry above a pivot is reduced
    into [0, pivot), the pass that ``_row_echelon`` once ended with.  Neither
    step moves a pivot column, and the rows span the same lattices."""
    out = [list(h) + list(u) for (_, h), u in zip(fact.echelon, fact.unimodular)]
    out += [[0] * nrows + list(k) for k in fact.kernel]
    pivots = [next(c for c, k in enumerate(r) if k) for r in out]
    for r, pc in zip(out, pivots):
        if r[pc] < 0:
            r[:] = [-k for k in r]
    for i in reversed(range(len(out))):
        pc = pivots[i]
        for j in range(i):
            q = out[j][pc] // out[i][pc]
            out[j] = [a - q * b for a, b in zip(out[j], out[i])]
    n = len(fact.echelon)
    return _Factorization(
        tuple((pc, tuple(r[:nrows])) for pc, r in zip(pivots, out[:n])),
        tuple(tuple(r[nrows:]) for r in out),
        tuple(tuple(r[nrows:]) for r in out[n:]),
        tuple(pc - nrows for pc in pivots[n:]),
    )


def hermite_faults(diagrams):
    """What moves when the solver reads the Hermite form of each diagram's
    factorization (``hermite``, on a copy of the diagram) instead of its own:
    the class key of each generator, the ``find_domains`` list of each pair
    in the positive box 3 and the signed box 2, and the periodic rank.  Also
    counts the factorizations the pass changes and the nonempty lists, so a
    vacuous run shows."""
    faults, changed, nonempty = [], 0, 0
    for d in diagrams:
        lat = _lattice(d)
        fact = hermite(lat.factorization, len(lat.vertex_index))
        changed += fact != lat.factorization
        twin = copy.copy(d)
        twin._lattice = lat._replace(factorization=fact, generators={})
        if len(periodic_domain_basis(d)) != len(periodic_domain_basis(twin)):
            faults.append((d, "rank"))
        gens = enumerate_generators(d)
        for x in gens:
            if _records(d, x, x)[1].key != _records(twin, x, x)[1].key:
                faults.append((d, x, "key"))
            for y in gens:
                for box, positive in ((3, True), (2, False)):
                    got = find_domains(d, x, y, box, positive)
                    if got != find_domains(twin, x, y, box, positive):
                        faults.append((d, x, y, box, positive))
                    nonempty += bool(got)
    return faults, changed, nonempty


def test_nothing_needs_the_hermite_pass():
    # every echelon basis with positive pivots spans the same lattice, the
    # keys are canonical by the argument of ``_Factorization.reduce``, and
    # ``find_domains`` lists the coset's box points in lexicographic order
    faults, changed, nonempty = hermite_faults(key_diagrams())
    assert faults == []
    assert changed > 0 and nonempty > 0


def test_hermite_check_catches_a_negative_pivot(monkeypatch):
    # the last row of [H | U] is a kernel row; negated, it spans the same
    # lattice, but its pivot step is negative
    def negative_pivot(rows):
        out = _row_echelon(rows)
        pc, row = out[-1]
        out[-1] = pc, [-k for k in row]
        return out

    monkeypatch.setattr(domains, "_row_echelon", negative_pivot)
    faults, _, _ = hermite_faults(mirrored_corpus())
    assert faults


# -- the pivots the echelon form reports --------------------------------------


def augmented(rows, ncols):
    """[M^T | I] for the rows of M, as ``_Factorization.of`` reduces it."""
    return [[row[c] for row in rows] + [int(i == c) for i in range(ncols)] for c in range(ncols)]


def first_nonzero(row):
    return next(c for c, k in enumerate(row) if k)


def rescanned_factorization(rows, ncols):
    """``echelon`` and ``kernel_pivots`` as ``_Factorization.of`` made them
    before ``_row_echelon`` reported its pivots: each pivot found again by a
    scan of its row."""
    nrows = len(rows)
    reduced = [r for _, r in _row_echelon(augmented(rows, ncols))]
    echelon = tuple((first_nonzero(r), tuple(r[:nrows])) for r in reduced if any(r[:nrows]))
    kernel = [r[nrows:] for r in reduced[len(echelon) :]]
    return echelon, tuple(map(first_nonzero, kernel))


def pivot_faults(diagrams):
    """(diagram, what) where a pivot that ``_row_echelon`` reports, on [M^T | I]
    or on the signed intersection matrix, is not the first nonzero column of
    its row, or the pivots do not strictly increase, or ``_Factorization.of``
    departs from the rescanning reference."""
    faults = []
    for d in diagrams:
        rows, ncols = _boundary_matrix(d), len(d.regions)
        for matrix in (augmented(rows, ncols), intersection_matrix(d, d.signs)):
            pairs = domains._row_echelon(matrix)
            if any(pc != first_nonzero(r) for pc, r in pairs):
                faults.append((d, "first nonzero"))
            if any(p >= q for (p, _), (q, _) in zip(pairs, pairs[1:])):
                faults.append((d, "increasing"))
        fact = _Factorization.of(rows, ncols)
        if (fact.echelon, fact.kernel_pivots) != rescanned_factorization(rows, ncols):
            faults.append((d, "factorization"))
    return faults


def test_reported_pivots_match_a_rescan_of_each_row():
    assert pivot_faults(key_diagrams()) == []


def test_pivot_check_catches_a_pivot_one_column_late(monkeypatch):
    def late(rows):
        return [(pc + 1, row) for pc, row in _row_echelon(rows)]

    monkeypatch.setattr(domains, "_row_echelon", late)
    corpus = list(bundled_corpus().values())
    assert {what for _, what in pivot_faults(corpus)} == {"first nonzero", "factorization"}


# -- additivity on the generating set of each class ---------------------------


def test_additivity_holds_on_the_generating_set():
    diagrams = key_diagrams()
    frames = [frame for d in diagrams for frame in class_frames(d)]
    assert sum(len(pot) * (len(pot) + len(basis)) for _, pot, basis in frames) == 1510
    assert generating_set_faults(diagrams) == []


def shift_pair(monkeypatch, x, y):
    """4 mu raised by 4 on the pair (x, y) alone, wherever it is read."""
    sums = formulas._index_sums

    def shifted(d, a, u, v, force):
        e, n_x, n_y = sums(d, a, u, v, force)
        return (e + 4 if (u, v) == (x, y) else e), n_x, n_y

    monkeypatch.setattr(formulas, "_index_sums", shifted)


def box_missed_pairs(monkeypatch, d):
    """Each same-class ordered pair (x, y) with no positive box-2 domain, with
    whether a 4 mu shifted on it alone fails the generating set and whether
    it fails ``additivity_suite`` at its default box.

    The suite's table holds no domain from x to y, so a case meets the pair
    only as the (x, z) of A + B, and once: the suite fails on the shift
    exactly when it reads a mu from x to y at all, which one run with a spy
    tells."""
    read = set()
    sums = formulas._index_sums

    def spy(d, a, u, v, force):
        read.add((u, v))
        return sums(d, a, u, v, force)

    with monkeypatch.context() as m:
        m.setattr(formulas, "_index_sums", spy)
        assert additivity_suite(d).ok
    out = []
    for _, potentials, _ in class_frames(d):
        for x in potentials:
            for y in potentials:
                if not find_domains(d, x, y, 2):
                    with monkeypatch.context() as m:
                        shift_pair(m, x, y)
                        caught = bool(generating_set_faults([d]))
                    out.append((x, y, caught, (x, y) in read))
    return out


def test_the_generating_set_catches_shifts_the_box_misses(monkeypatch):
    corpus = bundled_corpus()
    pairs = {name: box_missed_pairs(monkeypatch, d) for name, d in corpus.items()}
    assert sum(map(len, pairs.values())) == 162
    assert all(caught for found in pairs.values() for _, _, caught, _ in found)
    missed = {
        name: [(x.format(), y.format()) for x, y, _, read in found if not read]
        for name, found in pairs.items()
    }
    assert {name: len(m) for name, m in missed.items() if m} == {
        "genus2_bigons.hd": 16,
        "genus3_chain.hd": 32,
    }
    assert missed["genus2_bigons.hd"][0] == ("y1,x2", "s1,s2")
    assert missed["genus3_chain.hd"][0] == ("y1,x2,t", "s1,s2,t")
    # the spy's verdict against the shifted suite itself, on the first
    # missed pair of genus2_bigons and its first caught one
    found = pairs["genus2_bigons.hd"]
    for x, y, _, read in (next(p for p in found if not p[3]), next(p for p in found if p[3])):
        with monkeypatch.context() as m:
            shift_pair(m, x, y)
            assert additivity_suite(corpus["genus2_bigons.hd"]).ok != read


# -- the periodic rank from the crossing signs --------------------------------


def beta_index(d):
    """Each crossing's beta curve index, read off the curve lists."""
    return {v: j for j, (_, vs) in enumerate(d.beta) for v in vs}


def intersection_matrix(d, signs):
    """The alpha-by-beta matrix of summed crossing ``signs``, read off the curve lists."""
    beta_of = beta_index(d)
    m = [[0] * len(d.beta) for _ in d.alpha]
    for i, (_, vs) in enumerate(d.alpha):
        for v in vs:
            m[i][beta_of[v]] += signs[v]
    return m


def rank_law_holds(d, signs):
    """Whether the periodic rank is 1 + g - rank(M) for M read with ``signs``.

    The periodic domains are H_2(Y) plus the full surface class, and
    b_1(Y) = g - rank(M); face tracing finds the one, the signs alone the
    other.
    """
    rank_m = len(_row_echelon(intersection_matrix(d, signs)))
    return len(periodic_domain_basis(d)) == 1 + d.genus - rank_m


def test_periodic_rank_is_one_plus_b1_from_the_signs():
    diagrams = key_diagrams()
    assert len(diagrams) == 72
    assert [d for d in diagrams if not rank_law_holds(d, d.signs)] == []


def test_rank_check_catches_a_flipped_sign():
    caught = {
        name: [v for v in d.vertices if not rank_law_holds(d, {**d.signs, v: -d.signs[v]})]
        for name, d in bundled_corpus().items()
    }
    assert {name: vs for name, vs in caught.items() if vs} == {
        "torus_g1_2x.hd": ["x", "y"],
        "genus2_s1s2.hd": ["a", "b"],
        "genus3_chain.hd": ["t", "s3"],
    }


def test_rank_check_catches_unsigned_counts():
    def caught(diagrams):
        return [d for d in diagrams if not rank_law_holds(d, dict.fromkeys(d.vertices, 1))]

    corpus = bundled_corpus()
    assert caught(corpus.values()) == [corpus["genus2_s1s2.hd"]]
    assert len(caught(valid_diagrams(seed=4919, count=60))) == 3


# -- the relative Z/2 grading from the crossing signs -------------------------


def grading(d, x, signs, permutation=True):
    """gr(x) = sign(sigma_x) * prod_i signs[x_i], where sigma_x takes each
    alpha index to the index of the beta curve through x's point on it."""
    beta_of = beta_index(d)
    perm = [beta_of[v] for v in x.points]
    gr = (-1) ** sum(p > q for i, p in enumerate(perm) for q in perm[i + 1 :]) if permutation else 1
    for v in x.points:
        gr *= signs[v]
    return gr


def grading_cases(diagrams):
    """(d, x, y, A): each ordered pair of a class at A = a(y) - a(x), the
    difference of the potentials, and each generator x with each periodic
    basis vector, from x to x.  mu is affine in A for fixed (x, y), so
    these cases decide the law on all of pi_2."""
    for d in diagrams:
        for _, potentials, basis in class_frames(d):
            for x, ax in potentials.items():
                for y, ay in potentials.items():
                    yield d, x, y, Domain(tuple(b - a for a, b in zip(ax, ay)))
                for p in basis:
                    yield d, x, x, p


def signed_grading(d, x):
    return grading(d, x, d.signs)


def grading_faults(diagrams, gr=signed_grading):
    """The cases where 4 mu is no multiple of 4 or (-1)^mu is not gr(x) gr(y)."""
    faults = []
    for d, x, y, a in grading_cases(diagrams):
        q = maslov_quarters(d, a, x, y)
        if q % 4 or (-1) ** (q // 4) != gr(d, x) * gr(d, y):
            faults.append((d, x, y, a))
    return faults


def test_mu_parity_is_the_z2_grading_from_the_signs():
    # the relative Z/2 grading of Ozsvath-Szabo (Ann. Math. 2004)
    diagrams = key_diagrams()
    assert sum(1 for _ in grading_cases(diagrams)) == 1510
    assert grading_faults(diagrams) == []


def _same(a, *terms):
    return terms


# (mutant, the terms of 4 mu from (A, 4e, 4n_x, 4n_y), gr, cases caught of
# the 572 on the bundled corpus).  A count may depend on which potentials
# and which periodic basis the solver picks: "region weight 3 - c_i" reads
# the coefficients themselves, so it counts the echelon basis's cases.
GRADING_MUTANTS = [
    ("e + 2n_x", lambda a, e, nx, ny: (e, 2 * nx), signed_grading, 266),
    ("e + n_x - n_y", lambda a, e, nx, ny: (e, nx, -ny), signed_grading, 356),
    (
        "region weight 3 - c_i",
        lambda a, e, nx, ny: (e - sum(a.coeffs), nx, ny),
        signed_grading,
        450,
    ),
    ("e + 2n_y", lambda a, e, nx, ny: (e, 2 * ny), signed_grading, 266),
    ("permutation sign dropped", _same, lambda d, x: grading(d, x, d.signs, False), 216),
    (
        "crossing signs dropped",
        _same,
        lambda d, x: grading(d, x, dict.fromkeys(d.vertices, 1)),
        258,
    ),
]


@pytest.mark.parametrize(
    ("terms", "gr", "caught"),
    [m[1:] for m in GRADING_MUTANTS],
    ids=[m[0] for m in GRADING_MUTANTS],
)
def test_grading_check_catches_each_mutant(monkeypatch, terms, gr, caught):
    sums = formulas._index_sums
    monkeypatch.setattr(
        formulas, "_index_sums", lambda d, a, x, y, force: terms(a, *sums(d, a, x, y, force))
    )
    corpus = bundled_corpus().values()
    assert sum(1 for _ in grading_cases(corpus)) == 572
    assert len(grading_faults(corpus, gr)) == caught

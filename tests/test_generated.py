"""Seeded generated diagrams against re-stated reference routines.

The diagrams have at most seven vertices; some are two independent blocks,
so their traced surface is disconnected.  ``validate_diagram`` is compared
with a vertex DFS and a per-family region union-find, the one-pass grind
of stage S1 with the fixpoint grind it replaced, and the class keys of
``find_domains`` with one solve per generator pair.  Every build of a
generated case must succeed.
"""

import random

from hdindex import builder
from hdindex.builder import BuilderError
from hdindex.diagram import ALPHA, BETA, HeegaardDiagram, validate_diagram
from hdindex.domains import (
    Domain,
    _Factorization,
    _lattice,
    _target_vector,
    connects,
    enumerate_generators,
    find_domains,
)
from hdindex.harness import bundled_corpus

MAX_VERTICES = 7


def split(rng, vertices, k):
    """``vertices`` shuffled and cut into k nonempty cyclic curves."""
    vs = list(vertices)
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, len(vs)), k - 1))
    return [vs[i:j] for i, j in zip([0] + cuts, cuts + [len(vs)])]


def random_diagram(rng, blocks):
    """One diagram of ``blocks`` blocks sharing no curve or vertex."""
    alpha, beta, signs = [], [], {}
    per_block = MAX_VERTICES // blocks
    for b in range(blocks):
        vs = [f"v{b}_{i}" for i in range(rng.randint(1, per_block))]
        top = min(3, len(vs))
        alpha += [(f"a{b}_{i}", c) for i, c in enumerate(split(rng, vs, rng.randint(1, top)))]
        beta += [(f"b{b}_{i}", c) for i, c in enumerate(split(rng, vs, rng.randint(1, top)))]
        signs.update((v, rng.choice((1, -1))) for v in vs)
    return HeegaardDiagram(alpha, beta, signs)


def valid_diagrams(seed, count):
    """``count`` diagrams of genus 1-3 that pass ``validate_diagram``."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = rng.randint(1, 3)
        vs = [f"v{i}" for i in range(rng.randint(g, MAX_VERTICES))]
        alpha = [(f"a{i}", c) for i, c in enumerate(split(rng, vs, g))]
        beta = [(f"b{i}", c) for i, c in enumerate(split(rng, vs, g))]
        d = HeegaardDiagram(alpha, beta, {v: rng.choice((1, -1)) for v in vs})
        if not validate_diagram(d):
            found.append(d)
    return found


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

    for name, edges in d.edges.items():
        if d.curve_family[name] != cut_family:
            for i in range(len(edges)):
                a, b = d.edge_sides(name, i)
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


def fixpoint_grind(surf):
    """Grind the first long corner chain, rescan, until none is left."""
    guard = 0
    while True:
        target = next((o for o in surf.corner_orbits() if len(o) >= 3), None)
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


def cases():
    for d in GRIND_DIAGRAMS:
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                for a in find_domains(d, x, y, 2):
                    yield d, a, x, y


def records(d, a, x, y):
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
    for d, a, x, y in cases():
        s0 = builder.glue_copies(d, a)
        long_chains = max(long_chains, sum(len(o) >= 3 for o in s0.surface.corner_orbits()))
        s1 = builder.cut_bad_corners(s0)
        if any(len(o) > 1 for o in s1.surface.corner_orbits()):
            found.append((d, a, "S1 left a long corner chain"))
        ours = records(d, a, x, y)
        with monkeypatch.context() as m:
            m.setattr(builder, "_grind_odd_chains", fixpoint_grind)
            theirs = records(d, a, x, y)
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
        first = [o for o in surf.corner_orbits() if len(o) >= 3][:1]
        surf.corner_orbits = lambda: first
        one_pass(surf)
        del surf.corner_orbits

    monkeypatch.setattr(builder, "_grind_odd_chains", first_chain_only)
    assert grind_mismatches(monkeypatch)


def build_errors():
    """(records, records that are the builder's error text) over every case."""
    out = [r for case in cases() for r in records(*case)]
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


def reference_find_domains(d, x, y, box):
    """The signed-box classes from x to y from one solve of M a = y - x: the
    particular solution moved along the kernel basis inside the box.  There
    is no connects filter, since every coset point connects x to y."""
    lat = _lattice(d)
    residue, x0 = REDUCE(lat.factorization, _target_vector(lat, x.points, y.points))
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
                lat = _lattice(d)
                same = lat.generators[x.points].key == lat.generators[y.points].key
                residue, _ = REDUCE(lat.factorization, _target_vector(lat, x.points, y.points))
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
        for x in enumerate_generators(d):
            connects(d, Domain.zero(d), x, x)  # validates x and makes its record
            lat = _lattice(d)
            rec = lat.generators[x.points]
            image = [0] * len(lat.vertex_index)
            for column, c in zip(lat.columns, rec.potential):
                for v, k in column:
                    image[v] += k * c
            point = _target_vector(lat, (), x.points)
            reduced = all(0 <= rec.key[pc] < h[pc] for pc, h in lat.factorization.echelon)
            if [p - k for p, k in zip(point, rec.key)] != image or not reduced:
                faults.append((d, x, rec))
    return faults


def key_diagrams():
    """The bundled corpus, its mirrors and the generated diagrams, fresh."""
    corpus = list(bundled_corpus().values())
    return corpus + [d.mirror() for d in corpus] + valid_diagrams(seed=4919, count=60)


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
    corpus = list(bundled_corpus().values())
    assert residue_faults(corpus + [d.mirror() for d in corpus])


def test_class_key_check_catches_a_reversed_particular_solution(monkeypatch):
    # a(x) - a(y) in place of a(y) - a(x): the same as every potential negated
    def negated(fact, target):
        residue, a = REDUCE(fact, target)
        return residue, [-c for c in a]

    monkeypatch.setattr(_Factorization, "reduce", negated)
    corpus = list(bundled_corpus().values())
    faults, _, _ = class_key_faults(corpus + [d.mirror() for d in corpus])
    assert faults and all(got == [] for _, _, _, got, _ in faults)

"""Seeded generated diagrams against re-stated reference routines.

The diagrams have at most seven vertices; some are two independent blocks,
so their traced surface is disconnected.  ``validate_diagram`` is compared
with a vertex DFS and a per-family region union-find, and the one-pass
grind of stage S1 with the fixpoint grind it replaced.
"""

import random

from hdindex import builder
from hdindex.builder import BuilderError
from hdindex.diagram import ALPHA, BETA, HeegaardDiagram, validate_diagram
from hdindex.domains import enumerate_generators, find_domains

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

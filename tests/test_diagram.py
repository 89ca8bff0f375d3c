import random
import time
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from hdindex.diagram import (
    Dart,
    DiagramError,
    HeegaardDiagram,
    Region,
    components,
    parse_diagram,
    validate_diagram,
)
from support import mirror, serialize_diagram, time_limit, valid_diagrams

ONE_CROSSING = "alpha a1: x\nbeta b1: x\nsign x: +\n"
TWO_CROSSING = "alpha a1: x y\nbeta b1: x y\nsign x: +\nsign y: +\n"
SPHERE = "alpha a1: x y\nbeta b1: x y\nsign x: +\nsign y: -\n"


def test_one_crossing_torus():
    d = parse_diagram(ONE_CROSSING)
    assert d.genus == 1
    assert len(d.regions) == 1
    assert d.regions[0].corner_count == 4
    assert validate_diagram(d) == []


def test_two_crossing_torus():
    d = parse_diagram(TWO_CROSSING)
    assert d.genus == 1
    assert d.region_census() == (4, 4)
    assert validate_diagram(d) == []


def test_sphere_rejected_by_validation():
    # one alpha and one beta meeting twice with opposite signs trace a
    # sphere of four bigons: the genus no longer matches the curve count
    d = parse_diagram(SPHERE)
    assert d.genus == 0
    assert d.region_census() == (2, 2, 2, 2)
    codes = [v.code for v in validate_diagram(d)]
    assert "genus-mismatch" in codes


def test_corner_sum_is_four_v(corpus):
    for d in corpus.values():
        assert sum(r.corner_count for r in d.regions) == 4 * len(d.vertices)


def test_gauss_bonnet_per_diagram(corpus):
    # sum over regions of (1 - corners/4) equals the Euler characteristic
    for d in corpus.values():
        total = sum(Fraction(4 - r.corner_count, 4) for r in d.regions)
        assert total == 2 - 2 * d.genus


def quadrant_faults(d, quadrants_at):
    """The (vertex, sector) pairs at which ``quadrants_at`` names a region
    that does not hold both darts bounding the sector: rotation dart i and
    ``rev(dart i+1)``, which the face walk takes one to the other."""
    darts = [set(r.darts) for r in d.regions]
    faults = []
    for v in d.vertices:
        rot = d.rotation[v]
        for i, region in enumerate(quadrants_at(v)):
            if not {rot[i], d.rev(rot[(i + 1) % 4])} <= darts[region]:
                faults.append((v, i))
    return faults


def test_quadrants_alternate_and_partition(corpus):
    for d in corpus.values():
        for v in d.vertices:
            quads = d.quadrants_at(v)
            assert len(quads) == 4
            rot = d.rotation[v]
            families = [d.curve_family[dart.curve] for dart in rot]
            assert families == ["alpha", "beta", "alpha", "beta"]
        assert quadrant_faults(d, d.quadrants_at) == []


def test_the_quadrant_oracle_catches_a_rotated_tuple(corpus):
    # a mutant that shifts each vertex's regions by one sector; torus_g1_1x
    # has one region, so the shift cannot show there, only on the corpus
    def rotated(d):
        return lambda v: d.quadrants_at(v)[1:] + d.quadrants_at(v)[:1]

    faults = {name: len(quadrant_faults(d, rotated(d))) for name, d in corpus.items()}
    assert faults == {
        "torus_g1_1x.hd": 0,
        "torus_g1_2x.hd": 8,
        "torus_g1_3x.hd": 8,
        "genus2_bigons.hd": 36,
        "genus2_s1s2.hd": 14,
        "genus3_chain.hd": 52,
    }


def test_quadrants_unknown_vertex(torus1):
    with pytest.raises(DiagramError):
        torus1.quadrants_at("nope")


def test_round_trip(corpus):
    for d in corpus.values():
        d2 = parse_diagram(serialize_diagram(d))
        assert d2.alpha == d.alpha
        assert d2.beta == d.beta
        assert d2.signs == d.signs
        assert serialize_diagram(d2) == serialize_diagram(d)


def test_face_structure_independent_of_curve_order(genus2):
    # listing the curves in another order relabels the regions but yields
    # the same multiset of faces (as dart sets)
    d = genus2
    flipped = HeegaardDiagram(list(reversed(d.alpha)), list(reversed(d.beta)), d.signs)
    faces1 = {frozenset(r.darts) for r in d.regions}
    faces2 = {frozenset(r.darts) for r in flipped.regions}
    assert faces1 == faces2


def test_mirror_preserves_face_multiset(corpus):
    for d in corpus.values():
        m = mirror(d)
        assert m.genus == d.genus
        assert m.region_census() == d.region_census()
        assert validate_diagram(m) == []


def test_edge_reversal_involution(corpus):
    for d in corpus.values():
        curves = dict(d.alpha + d.beta)
        for dart in d.darts():
            assert d.rev(d.rev(dart)) == dart
            # a 1-vertex curve pairs forward with backward at the same vertex
            assert d.rev(dart) != dart or len(curves[dart.curve]) > 1


def test_rev_matches_edge_lists(corpus):
    # every edge of every curve, the single-vertex curves' loops included
    loops = 0
    for d in corpus.values():
        for name, vs in d.alpha + d.beta:
            for i, tail in enumerate(vs):
                head = vs[(i + 1) % len(vs)]
                fwd, back = Dart(tail, name, True), Dart(head, name, False)
                assert d.rev(fwd) == back and d.rev(back) == fwd
                loops += tail == head
    assert loops > 0


def test_face_trace_partitions_darts(corpus):
    for d in corpus.values():
        seen = []
        for r in d.regions:
            seen.extend(r.darts)
        assert len(seen) == 8 * len(d.vertices) // 2
        assert len(set(seen)) == len(seen)


def face_trace_faults(d, regions):
    """The ways ``regions`` departs from the face-tracing spec, as
    (region id, fault) pairs: each region lists one orbit of the face step
    (rotation^-1 . edge reversal) in walk order from its first dart, that
    first dart is its first in ``darts()`` order, the ids count up from 0
    as those first darts go, and the regions cover every dart."""
    back = {dart: rot[i - 1] for rot in d.rotation.values() for i, dart in enumerate(rot)}
    order = {dart: n for n, dart in enumerate(d.darts())}
    faults = []
    for i, r in enumerate(regions):
        walk = [r.darts[0]]
        while (step := back[d.rev(walk[-1])]) != walk[0] and len(walk) <= len(order):
            walk.append(step)
        if tuple(walk) != r.darts:
            faults.append((r.index, "walk"))
        if min(r.darts, key=order.__getitem__) != r.darts[0]:
            faults.append((r.index, "first dart"))
        if r.index != i or (i and order[r.darts[0]] < order[regions[i - 1].darts[0]]):
            faults.append((r.index, "id"))
    if sorted(order[x] for r in regions for x in r.darts) != list(range(len(order))):
        faults.append((None, "cover"))
    return faults


def traced_regions(d, turn):
    """Regions traced test-side by first discovery over ``darts()`` with the
    step rotation^turn . edge reversal: turn -1 is the face step, +1 walks
    the clockwise faces."""
    step = {dart: rot[(i + turn) % 4] for rot in d.rotation.values() for i, dart in enumerate(rot)}
    seen, regions = set(), []
    for dart in d.darts():
        orbit = []
        while dart not in seen:
            seen.add(dart)
            orbit.append(dart)
            dart = step[d.rev(dart)]
        if orbit:
            regions.append(Region(len(regions), tuple(orbit)))
    return regions


def test_faces_follow_the_face_step_numbered_by_first_discovery(corpus):
    diagrams = list(corpus.values())
    diagrams += [mirror(d) for d in diagrams] + valid_diagrams(seed=4919, count=60)
    caught = Counter()
    for d in diagrams:
        assert face_trace_faults(d, d.regions) == []
        assert d.face_of == {x: r.index for r in d.regions for x in r.darts}
        assert face_trace_faults(d, traced_regions(d, -1)) == []
        mutants = {
            "clockwise": traced_regions(d, 1),
            "reversed ids": [Region(i, r.darts) for i, r in enumerate(d.regions[::-1])],
            "rotated start": [Region(r.index, r.darts[1:] + r.darts[:1]) for r in d.regions],
            "last dropped": d.regions[:-1],
        }
        caught.update(name for name, regions in mutants.items() if face_trace_faults(d, regions))
    # the clockwise faces are caught on every one of the 72 diagrams; a
    # reversal of the ids cannot show on the 28 that trace one region
    assert len(diagrams) == 72
    assert sum(len(d.regions) == 1 for d in diagrams) == 28
    assert caught == {"clockwise": 72, "reversed ids": 44, "rotated start": 72, "last dropped": 72}


# -- parse errors ----------------------------------------------------------


def test_parse_empty_alpha():
    with pytest.raises(DiagramError, match="no alpha curves"):
        parse_diagram("beta b: x\nsign x: +\n")


def test_parse_duplicate_vertex_in_family():
    text = "alpha a1: x\nalpha a2: x\nbeta b1: x\nsign x: +\n"
    with pytest.raises(DiagramError, match="twice in the alpha family"):
        parse_diagram(text)


def test_parse_missing_sign():
    with pytest.raises(DiagramError, match="missing sign"):
        parse_diagram("alpha a: x\nbeta b: x\n")


def test_parse_unknown_token_has_line_number():
    with pytest.raises(DiagramError, match="line 2"):
        parse_diagram("alpha a: x\nbogus q: x\nbeta b: x\nsign x: +\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("alpha a1 x", "line 2: expected 'alpha <name>: ...'"),
        ("alpha: x", "line 2: expected 'alpha <name>: ...'"),
        ("beta b1 b2: x", "line 2: expected 'beta <name>: ...'"),
        ("sign x +", "line 2: expected 'sign <name>: ...'"),
        ("bogus q: x", "line 2: unknown token 'bogus'"),
    ],
)
def test_parse_names_the_shape_a_keyword_line_needs(line, message):
    # a known keyword with a malformed head names its line shape; an unknown
    # first word is reported as such
    with pytest.raises(DiagramError) as err:
        parse_diagram(f"alpha a: x\n{line}\nbeta b: x\nsign x: +\n")
    assert str(err.value) == message


def test_parse_vertex_missing_from_beta():
    with pytest.raises(DiagramError, match="not on any beta"):
        parse_diagram("alpha a: x y\nbeta b: x\nsign x: +\nsign y: +\n")


def test_parse_duplicate_sign():
    with pytest.raises(DiagramError, match="duplicate sign"):
        parse_diagram("alpha a: x\nbeta b: x\nsign x: +\nsign x: -\n")


@pytest.mark.parametrize(
    "alpha, beta, signs, message",
    [
        ([("a", [])], [("b", ["x"])], {"x": 1}, "alpha curve 'a' has no vertices"),
        ([("a", ["x"])], [("b", [])], {"x": 1}, "beta curve 'b' has no vertices"),
        ([("a", ["x"])], [("b", ["x"])], {"x": 1, "q": 1}, "sign given for unknown vertex 'q'"),
        ([("a", ["x"])], [("b", ["x"])], {"x": 2}, "signs must be \\+1 or -1"),
        (
            [("a", ["x", "y"])],
            [("b1", ["x"]), ("b2", ["x", "y"])],
            {"x": 1, "y": 1},
            "vertex 'x' listed twice in the beta family",
        ),
        ([("a", ["x"])], [("b", ["x", "y"])], {"x": 1, "y": 1}, "vertex 'y' is not on any alpha curve"),
        ([("c", ["x"])], [("c", ["x"])], {"x": 1}, "duplicate curve name 'c'"),
        (
            [("c", ["x"]), ("c", ["y"])],
            [("b", ["x", "y"])],
            {"x": 1, "y": 1},
            "duplicate curve name 'c'",
        ),
    ],
)
def test_constructor_refuses_structural_defects(alpha, beta, signs, message):
    with pytest.raises(DiagramError, match=message):
        HeegaardDiagram(alpha, beta, signs)


def test_curve_count_mismatch_is_violation():
    text = "alpha a1: x\nalpha a2: y\nbeta b1: x y\nsign x: +\nsign y: +\n"
    d = parse_diagram(text)
    codes = [v.code for v in validate_diagram(d)]
    assert "curve-count" in codes


# Two one-crossing tori listed in one file.
TWO_TORI = "alpha a1: x\nalpha a2: y\nbeta b1: x\nbeta b2: y\nsign x: +\nsign y: +\n"
VIOLATIONS = {
    SPHERE: ["genus-mismatch", "alpha-complement", "beta-complement"],
    "alpha a1: x\nalpha a2: y\nbeta b1: x y\nsign x: +\nsign y: +\n": [
        "curve-count",
        "genus-mismatch",
        "alpha-complement",
    ],
    TWO_TORI: ["genus-mismatch", "disconnected", "alpha-complement", "beta-complement"],
}


def test_each_violation_code_fires():
    for text, codes in VIOLATIONS.items():
        assert [v.code for v in validate_diagram(parse_diagram(text))] == codes
    # together the inputs reach every code validate_diagram reports
    assert set().union(*VIOLATIONS.values()) == {
        "curve-count",
        "genus-mismatch",
        "disconnected",
        "alpha-complement",
        "beta-complement",
    }


def test_comments_and_blank_lines():
    d = parse_diagram("# a torus\n\nalpha a: x  # inline\nbeta b: x\nsign x: +\n")
    assert d.genus == 1


# Diagram texts as space-separated tokens, and the alphabet of the edits
# the fuzz makes to them, so that a generated text is sometimes a diagram
# and more often broken in one of many ways.
PARSER_BASES = tuple(
    text.replace(":", " :").replace("\n", " \n ").split(" ")
    for text in (ONE_CROSSING, TWO_CROSSING, SPHERE)
)
PARSER_TOKENS = ("alpha", "beta", "sign", "a1", "b1", "x", "y", ":", "+", "-", "*", "#", "\n")


@st.composite
def parser_text(draw):
    tokens = list(draw(st.sampled_from(PARSER_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        replaced = draw(st.integers(0, 1))
        tokens[i : i + replaced] = draw(st.lists(st.sampled_from(PARSER_TOKENS), max_size=2))
    return " ".join(tokens)


@seed(1301)
@settings(max_examples=400, deadline=None, database=None)
@given(parser_text())
def test_parser_accepts_or_raises_diagram_error(text):
    try:
        d = parse_diagram(text)
    except DiagramError:
        return
    assert isinstance(validate_diagram(d), list)


def bfs_components(n, pairs):
    """The classes of 0..n-1 joined by ``pairs``, by a breadth-first search
    from each unmet member in increasing order."""
    adjacent = [[] for _ in range(n)]
    for a, b in pairs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    met, classes = [False] * n, []
    for start in range(n):
        if met[start]:
            continue
        met[start], queue, members = True, deque([start]), []
        while queue:
            i = queue.popleft()
            members.append(i)
            for j in adjacent[i]:
                if not met[j]:
                    met[j] = True
                    queue.append(j)
        classes.append(sorted(members))
    return classes


def test_components_match_a_breadth_first_search():
    rng = random.Random(3105)
    sizes = set()
    for _ in range(300):
        n = rng.randint(0, 40)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n + 5))] if n else []
        assert components(n, pairs) == bfs_components(n, pairs), (n, pairs)
        sizes.add(len(bfs_components(n, pairs)))
    # singletons only, one class and everything between are all met
    assert {0, 1} <= sizes and max(sizes) > 20


@pytest.mark.parametrize("order", ["forward", "backward"])
def test_components_of_a_long_path_take_linear_time(order):
    # joined head to tail, each union makes the chain one longer; a final
    # pass that walks to the root without compressing the path would take
    # about n^2 / 2 = 2e10 steps here, so the time bound fails it
    n = 200_000
    pairs = [(i, i + 1) if order == "forward" else (i + 1, i) for i in range(n - 1)]
    with time_limit(5.0, "components of a 200,000-node path"):
        start = time.perf_counter()
        classes = components(n, pairs)
        elapsed = time.perf_counter() - start
    assert classes == [list(range(n))]
    assert elapsed < 5.0

from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from hdindex.diagram import (
    Dart,
    DiagramError,
    HeegaardDiagram,
    parse_diagram,
    serialize_diagram,
    validate_diagram,
)

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


def test_quadrants_alternate_and_partition(corpus):
    for d in corpus.values():
        for v in d.vertices:
            quads = d.quadrants_at(v)
            assert len(quads) == 4
            rot = d.rotation[v]
            families = [d.curve_family[dart.curve] for dart in rot]
            assert families == ["alpha", "beta", "alpha", "beta"]


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
        m = d.mirror()
        assert m.genus == d.genus
        assert m.region_census() == d.region_census()
        assert validate_diagram(m) == []


def test_edge_reversal_involution(corpus):
    for d in corpus.values():
        for dart in d.darts():
            assert d.rev(d.rev(dart)) == dart
            assert d.rev(dart) != dart or len(
                d.curve_vertices[dart.curve]
            ) > 1  # a 1-vertex curve pairs forward with backward at the same vertex


def test_rev_matches_edge_lists(corpus):
    # every edge of every curve, the single-vertex curves' loops included
    loops = 0
    for d in corpus.values():
        for name, edges in d.edges.items():
            for tail, head in edges:
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

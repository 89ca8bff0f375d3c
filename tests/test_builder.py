import gc
import hashlib
import inspect
import itertools
import json
import random
import re
import textwrap
import types
from fractions import Fraction

import pytest

from hdindex import builder
from hdindex.builder import (
    BuilderError,
    PreconditionError,
    add_degenerate_corners,
    branched_cover_check,
    build_surface,
    chains_at,
    cut_bad_corners,
    glue_copies,
    local_vertex_chains,
    splice_boundary_circles,
    stabilized_surface,
    stage_contract,
    BuiltSurface,
)
from hdindex.diagram import ALPHA, BETA, Dart, DiagramError, load_bundled
from hdindex.domains import (
    Domain,
    Generator,
    check_generator,
    enumerate_generators,
    find_domains,
    sigma_class,
)
from hdindex.formulas import embedded_euler_char
from hdindex.harness import builder_consistency_suite, stabilized_surface_suite
from support import mirror, time_limit, zero_domain


EXAMPLE1 = "r2:1,r3:1,r4:1,r6:1,r7:2"


def example1_data(genus2):
    return (
        Domain.parse(genus2, EXAMPLE1),
        Generator(("x1", "x2")),
        Generator(("y1", "y2")),
    )


# -- local chain model -------------------------------------------------------


def test_local_chains_empty():
    assert local_vertex_chains((0, 0, 0, 0)) == []


def test_local_chains_interior():
    # pattern (n, n+k, n+k+l, n+l): n closed 4-cycles plus k+l smooth pairs
    assert local_vertex_chains((1, 1, 1, 1)) == [("closed", 4)]
    assert sorted(local_vertex_chains((2, 3, 4, 3))) == [
        ("closed", 4),
        ("closed", 4),
        ("open", 2),
        ("open", 2),
    ]


def test_local_chains_plain_corner():
    assert local_vertex_chains((1, 0, 0, 0)) == [("open", 1)]


def test_local_chains_branching_corner():
    # one level below the bump: the odd chain winds once around, length 5
    assert local_vertex_chains((2, 1, 1, 1)) == [("open", 5)]


def test_local_chains_absorbed_two_chains():
    # the displayed case list of the source construction truncates this one:
    # tracing the gluings, the odd chain at pattern (2,2,2,1) has length 7
    # and there are no smooth pairs left over
    assert local_vertex_chains((2, 2, 2, 1)) == [("open", 7)]


# sha256 of the (kind, length) chain lists of every pattern with sector
# coefficients 0..5, in itertools.product order, as computed by the
# synthetic single-vertex model the real crossing replaced.
LOCAL_GOLDEN = (1296, "048fe97583a40338c66a6600b91c51a2e6bbfcff38ed623a2755d197e6abfa3b")


def test_local_chains_match_golden():
    records = [local_vertex_chains(p) for p in itertools.product(range(6), repeat=4)]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == LOCAL_GOLDEN


def test_local_model_crossing_is_generic(genus2):
    # the model reads its chains off x2 of genus2_bigons: the four sectors
    # must be distinct regions and no arc may come back to the crossing
    v = builder._MODEL_VERTEX
    assert builder._model_diagram().rotation == genus2.rotation
    assert len(set(genus2.quadrants_at(v))) == 4
    assert all(genus2.rev(dart).vertex != v for dart in genus2.rotation[v])


def box3_domains(d):
    """Every distinct positive domain of ``d`` at box 3, in coefficient order."""
    gens = enumerate_generators(d)
    domains = {a for x, y in itertools.product(gens, gens) for a in find_domains(d, x, y, 3)}
    return sorted(domains, key=lambda a: a.coeffs)


def local_model_mismatches(d):
    """(crossing checks, mismatches) of the S0 builds of ``d`` against the local model.

    Every distinct positive domain of ``d`` at box 3 is glued, and at every
    crossing the (kind, length) multiset of its chains is compared with
    that of the local model for the crossing's quadrant pattern.
    """
    checks = mismatches = 0
    for a in box3_domains(d):
        s0 = glue_copies(d, a)
        for v in d.vertices:
            pattern = tuple(a[r] for r in d.quadrants_at(v))
            checks += 1
            mismatches += sorted(chains_at(s0, v)) != sorted(local_vertex_chains(pattern))
    return checks, mismatches


def test_local_model_matches_every_crossing_of_real_builds(corpus):
    # crossings whose quadrants share a region are among them
    results = {name: local_model_mismatches(d) for name, d in corpus.items()}
    assert sum(checks for checks, _ in results.values()) == 5568
    assert {name: bad for name, (_, bad) in results.items() if bad} == {}


@pytest.mark.parametrize(
    "name, caught", [("genus2_s1s2.hd", (120, 18)), ("genus3_chain.hd", (3136, 172))]
)
def test_local_model_check_catches_a_bottom_aligned_alpha_seam(name, caught):
    # the first alpha seam glued bottom-aligned; not every alpha seam would
    # show (on genus3_chain 3 of 14 never do on these domains), this one does
    d = load_bundled(name)  # a fresh instance, so its template is this test's own
    rings, seams, slots = builder._s0_template(d)
    k = next(k for k, seam in enumerate(seams) if seam[0] == ALPHA)
    d._s0_template = (rings, seams[:k] + ((BETA,) + seams[k][1:],) + seams[k + 1 :], slots)
    assert local_model_mismatches(d) == caught


def test_classify_vertex_chains_on_diagram(genus2):
    a, x, y = example1_data(genus2)
    for v, want in (("x2", [("open", 5)]), ("y2", [("open", 5)]),
                    ("x1", [("open", 1)]), ("r1", [("open", 2)])):
        assert chains_at(glue_copies(genus2, a), v) == want
    # the sheets of the bad chain cover the five sector sheets: both lens
    # levels and the three surrounding squares at that crossing.  A
    # region's sheets are consecutive faces, so a face's level is its id
    # less the region's first face, plus one.
    surf = glue_copies(genus2, a).surface
    circles, _ = surf.corner_classes()
    (chain,) = [o for circle in circles for o in circle if surf.head[o[0]] == ("v", "x2")]
    faces = [surf.face[s] for s in chain]
    sheets = [(surf.region[f], f - surf.region.index(surf.region[f]) + 1) for f in faces]
    assert sorted(sheets) == sorted([(7, 1), (7, 2), (3, 1), (4, 1), (6, 1)])


# -- stage S0 ----------------------------------------------------------------


def test_glue_single_bigon(torus3):
    a = Domain.parse(torus3, "r1:1")
    s0 = glue_copies(torus3, a)
    assert s0.stage == "S0"
    assert s0.chi == 1
    assert s0.pushforward() == a
    assert len(s0.surface.region) == 1


def test_glue_sigma_closes_up(torus2):
    s0 = glue_copies(torus2, sigma_class(torus2))
    assert s0.chi == 0  # the full torus, no boundary
    assert -1 not in s0.surface.partner


def test_glue_rejects_negative(torus3):
    with pytest.raises(PreconditionError):
        glue_copies(torus3, Domain.parse(torus3, "r0:-1"))


def test_glue_rejects_a_domain_of_the_wrong_length(corpus):
    for d in corpus.values():
        ones = (1,) * len(d.regions)
        for coeffs in (ones[:-1], ones + (1,)):
            with pytest.raises(PreconditionError, match="does not match the diagram"):
                glue_copies(d, Domain(coeffs))


def test_glue_refuses_more_sheets_than_the_face_limit(genus3, monkeypatch):
    monkeypatch.setattr(builder, "MAX_FACES", 20)
    two_sigma = Domain(tuple(2 * c for c in sigma_class(genus3).coeffs))
    assert len(glue_copies(genus3, two_sigma).surface.region) == 20
    one_more = Domain((3,) + two_sigma.coeffs[1:])
    with pytest.raises(PreconditionError, match="21 sheets exceed the 20-face limit"):
        glue_copies(genus3, one_more)


def reference_s0(d, domains):
    """Stage S0 keyed by (dart, level), each arc read through ``rev`` and ``face_of``.

    The copies of each domain in turn are added to one complex.  Returns
    sid -> [region, face start sid, dart, tail, head, prev sid, next sid,
    partner sid], with sids in allocation order: domain, then region, then
    level, then dart.
    """
    records = {}
    for a in domains:
        side_of = {}
        for r in d.regions:
            heads = r.darts[1:] + r.darts[:1]
            for level in range(1, a[r.index] + 1):
                first = len(records)
                for dart, head in zip(r.darts, heads):
                    sid = side_of[(dart, level)] = len(records)
                    records[sid] = [r.index, first, dart, ("v", dart.vertex)]
                    records[sid] += [("v", head.vertex), sid - 1, sid + 1, None]
                records[first][5], records[len(records) - 1][6] = len(records) - 1, first
        for name, edges in d.edges.items():
            for tail, _ in edges:
                e = Dart(tail, name, True)
                f = d.rev(e)
                family = d.curve_family[name]
                for m, m2 in builder._sheet_pairs(family, a[d.face_of[e]], a[d.face_of[f]]):
                    s, t = side_of[(e, m)], side_of[(f, m2)]
                    assert records[s][7] is None and records[t][7] is None
                    records[s][7], records[t][7] = t, s
    return records


def live_sides(surf):
    """The ids of the sides, in increasing order: every id is a live side."""
    return list(range(len(surf.nxt)))


def s0_records(d, domains):
    surf = builder._Surface(d.curve_family)
    for a in domains:
        start = len(surf.region)
        assert builder._add_region_copies(surf, d, a) == list(range(start, len(surf.region)))
    return {
        s: [
            surf.region[surf.face[s]],
            surf.first[surf.face[s]],
            surf.dart[s],
            surf.tail(s),
            surf.head[s],
            surf.prv[s],
            surf.nxt[s],
            None if surf.partner[s] == -1 else surf.partner[s],
        ]
        for s in live_sides(surf)
    }


def s0_cases(d, seed):
    """Lists of domains whose copies are added to one complex in turn."""
    rng = random.Random(seed)
    sigma = sigma_class(d)
    randoms = [Domain(tuple(rng.randint(0, 4) for _ in d.regions)) for _ in range(6)]
    yield [zero_domain(d)]
    yield [sigma]
    # a full-surface copy added onto a built complex, as stage S4 adds it
    yield [randoms[0], sigma]
    for a in randoms:
        yield [a]


def self_adjacent_seams(d):
    return [k for k, (_, r, _, r2, _) in enumerate(builder._s0_template(d)[1]) if r == r2]


def test_s0_template_matches_the_dart_keyed_construction(corpus):
    for k, d in enumerate(corpus.values()):
        for domains in s0_cases(d, 8100 + k):
            assert s0_records(d, domains) == reference_s0(d, domains)
    # the case of two arc sides of one region is exercised
    self_adjacent = [
        name
        for name, d in corpus.items()
        if any(d.face_of[e] == d.face_of[d.rev(e)] for e in d.darts())
    ]
    assert len(self_adjacent) == 5


def test_s0_oracle_catches_a_conflated_self_adjacent_seam(corpus):
    rng = random.Random(8112)
    for name in sorted(corpus):
        d = load_bundled(name)  # a fresh instance, so its template is this test's own
        seams = self_adjacent_seams(d)
        if not seams:
            continue
        rings, template_seams, slots = builder._s0_template(d)
        k = rng.choice(seams)
        family, r, i, _, i2 = template_seams[k]
        a = Domain.parse(d, f"r{r}:{rng.randint(1, 4)}")
        mutants = {}
        swapped, conflated = (family, r, i2, r, i), (family, r, i, r, i)
        for label, seam in (("swapped", swapped), ("conflated", conflated)):
            seams_now = template_seams[:k] + (seam,) + template_seams[k + 1 :]
            d._s0_template = (rings, seams_now, slots)
            mutants[label] = s0_records(d, [a])
        # gluing is symmetric and both ends carry the same sheet count, so
        # swapping the two ends glues the same pairs; one end read for both
        # glues a side to itself and leaves its arc's other side free
        assert mutants["swapped"] == reference_s0(d, [a])
        assert mutants["conflated"] != reference_s0(d, [a])


def test_s0_template_is_built_once_per_diagram(monkeypatch):
    d = load_bundled("genus2_s1s2.hd")  # a fresh instance, with no template yet
    assert "_s0_template" not in d.__dict__
    reversed_darts = []
    real_rev = d.rev
    monkeypatch.setattr(d, "rev", lambda dart: reversed_darts.append(dart) or real_rev(dart))
    glue_copies(d, sigma_class(d))
    template = d._s0_template
    assert len(reversed_darts) == len(template[1]) == 2 * len(d.vertices)
    for a in (sigma_class(d), zero_domain(d), sigma_class(d) + sigma_class(d)):
        glue_copies(d, a)
    # later builds read the template: no edge reversal, no new template
    assert len(reversed_darts) == len(template[1])
    assert d._s0_template is template
    m = mirror(d)
    glue_copies(m, sigma_class(m))
    assert m._s0_template is not template
    assert [ring[0] for ring in m._s0_template[0]] == [r.darts for r in m.regions]


def test_double_bigon_chains(torus3):
    # two copies of the bigon stack into odd chains of length 5 at the
    # corners (one full turn plus the corner quadrant)
    a = Domain.parse(torus3, "r1:2")
    assert sorted(chains_at(glue_copies(torus3, a), "v0")) == [("open", 1), ("open", 1)]
    # and with the surrounding class the corner pattern deepens
    b = Domain.parse(torus3, "r0:1,r1:2,r2:1")
    assert chains_at(glue_copies(torus3, b), "v0") == [("open", 5)]


# -- stages S1..S3 -----------------------------------------------------------


def test_cut_bad_corners_noop_without_bad_points(torus3):
    a = Domain.parse(torus3, "r1:1")
    s0 = glue_copies(torus3, a)
    chi0 = s0.chi
    s1 = cut_bad_corners(s0)
    assert s1.chi == chi0
    assert not s1.surface.branch_marks


def test_cuts_on_example1(genus2):
    a, x, y = example1_data(genus2)
    s0 = glue_copies(genus2, a)
    s0 = BuiltSurface("S0", genus2, a, s0.surface, x, y)
    assert s0.chi == 0
    s1 = cut_bad_corners(s0)
    # two bad points of angle 5 pi/2, two cuts each
    assert s1.surface.branch_marks == 4
    assert s1.chi == 0  # boundary-anchored slits preserve chi
    assert s1.corners() == [("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1)]


def test_degenerate_disk_added(torus3):
    z = zero_domain(torus3)
    x = Generator(("v0",))
    s0 = glue_copies(torus3, z)
    s0 = BuiltSurface("S0", torus3, z, s0.surface, x, x)
    s2 = add_degenerate_corners(cut_bad_corners(s0), x, x)
    assert s2.surface.degenerate_disks == ["v0"]
    assert s2.chi == 1
    assert len(s2.corners()) == 2
    # the disk's two arcs lie on the curves through its vertex
    arcs = s2.boundary_arcs()
    degenerate = [curve for curve in arcs for arc in arcs[curve] if arc.get("degenerate")]
    assert degenerate == [torus3.vertex_alpha["v0"][0], torus3.vertex_beta["v0"][0]]


def test_no_shared_points_is_noop(genus2):
    a, x, y = example1_data(genus2)
    s1 = cut_bad_corners(glue_copies(genus2, a))
    s1 = BuiltSurface("S1", genus2, a, s1.surface, x, y)
    chi1 = s1.chi
    s2 = add_degenerate_corners(s1, x, y)
    assert s2.chi == chi1
    assert not s2.surface.degenerate_disks


def test_build_surface_bigon_is_disk(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    s3 = build_surface(torus3, Domain.parse(torus3, "r1:1"), v0, v2)
    assert s3.chi == 1
    assert s3.delta() == 0
    assert s3.corners() == [("v0", 1), ("v2", 1)]
    assert s3.component_count() == 1


def test_build_surface_zero_domain(torus3, genus2):
    for d, pts in ((torus3, ("v0",)), (genus2, ("x1", "x2"))):
        x = Generator(pts)
        s3 = build_surface(d, zero_domain(d), x, x)
        assert s3.chi == d.genus
        assert len(s3.corners()) == 2 * d.genus
        assert len(s3.surface.degenerate_disks) == d.genus
        assert s3.delta() == 0


def test_zero_domain_degenerate_arcs_lie_on_the_curves_through_x(corpus):
    # the zero domain from x to x is one degenerate disk per point of x;
    # each disk puts one degenerate arc on each curve through its point
    builds = 0
    for d in corpus.values():
        for x in enumerate_generators(d):
            s3 = build_surface(d, zero_domain(d), x, x)
            assert s3.surface.degenerate_disks == list(x.points)
            got = sorted(
                curve
                for curve, arcs in s3.boundary_arcs().items()
                for arc in arcs
                if arc == {"sides": 1, "circle": False, "degenerate": True}
            )
            curves = [table[v][0] for table in (d.vertex_alpha, d.vertex_beta) for v in x.points]
            assert got == sorted(curves)
            builds += 1
    assert builds == 47


def test_build_surface_example1_is_annulus(genus2):
    a, x, y = example1_data(genus2)
    s3 = build_surface(genus2, a, x, y)
    assert s3.chi == 0
    assert s3.delta() == 0
    assert len(s3.corners()) == 4
    assert s3.component_count() == 1
    # two boundary circles and chi zero: the annulus of the resolved
    # double point
    assert len(s3.boundary) == 2
    arcs = s3.boundary_arcs()
    assert all(len(v) == 1 and not v[0].get("circle") for v in arcs.values())


def test_build_surface_sigma_on_tori(torus1, torus2):
    for d in (torus1, torus2):
        x = enumerate_generators(d)[0]
        sig = sigma_class(d)
        s3 = build_surface(d, sig, x, x)
        assert s3.pushforward() == sig
        assert s3.chi == 1  # closed torus plus one degenerate disk
        assert len(s3.surface.degenerate_disks) == 1
        assert (s3.chi - embedded_euler_char(d, sig, x, x)) == 2


def test_build_surface_rejects_bad_inputs(torus3):
    v0, v2 = Generator(("v0",)), Generator(("v2",))
    with pytest.raises(PreconditionError):
        build_surface(torus3, Domain.parse(torus3, "r1:-1"), v0, v2)
    with pytest.raises(PreconditionError):
        build_surface(torus3, Domain.parse(torus3, "r1:1"), v2, v0)


def test_build_surface_deterministic(genus2):
    a, x, y = example1_data(genus2)
    s3a = build_surface(genus2, a, x, y)
    s3b = build_surface(genus2, a, x, y)
    assert json.dumps(s3a.to_json_dict()) == json.dumps(s3b.to_json_dict())


def test_splice_merges_circles(genus2s1s2):
    # the parallel alpha1/beta1 pair produces full-circle boundary
    # components; after splicing every curve carries exactly one arc
    d = genus2s1s2
    gens = enumerate_generators(d)
    x, y = gens[0], gens[1]
    for a in find_domains(d, x, y, 2, True):
        s3 = build_surface(d, a, x, y)
        for curve, arcs in s3.boundary_arcs().items():
            assert len(arcs) == 1 and not arcs[0].get("circle")


def test_chi_parity_against_embedded(genus2):
    a, x, y = example1_data(genus2)
    for dom in find_domains(genus2, x, y, 2, True):
        s3 = build_surface(genus2, dom, x, y)
        assert (s3.chi - embedded_euler_char(genus2, dom, x, y)) % 2 == 0


# -- stage S4 ----------------------------------------------------------------


def test_stabilized_zero_domain(genus2):
    x = Generator(("x1", "x2"))
    s4 = stabilized_surface(genus2, zero_domain(genus2), x, x)
    assert s4.stage == "S4"
    assert s4.chi == -4  # the surface with two cut stars
    assert s4.pushforward() == sigma_class(genus2)
    assert len(s4.corners()) == 4
    assert s4.component_count() == 1
    assert not s4.surface.degenerate_disks
    rep = branched_cover_check(s4)
    assert rep["ok"]
    assert rep["corner_halves_sum"] == "2"


def test_stabilized_example1(genus2):
    a, x, y = example1_data(genus2)
    s4 = stabilized_surface(genus2, a, x, y)
    assert s4.pushforward() == a + sigma_class(genus2)
    assert s4.component_count() == 1
    assert len(s4.corners()) == 4
    rep = branched_cover_check(s4)
    assert rep["ok"]
    budget = int(rep["branch_budget"])
    assert budget >= 0 and budget == genus2.genus - s4.chi


def test_stabilized_full_surface_class(genus2):
    # the closed layer of the surface class is opened and chained in
    x = Generator(("x1", "x2"))
    s4 = stabilized_surface(genus2, sigma_class(genus2), x, x)
    assert s4.component_count() == 1
    assert s4.pushforward() == 2 * sigma_class(genus2)
    assert branched_cover_check(s4)["ok"]


def test_stabilized_rejects_torus(torus1):
    x = enumerate_generators(torus1)[0]
    with pytest.raises(PreconditionError, match="needs genus at least 2; this diagram has genus 1"):
        stabilized_surface(torus1, sigma_class(torus1), x, x)


def test_stabilized_genus3(genus3):
    x = enumerate_generators(genus3)[0]
    s4 = stabilized_surface(genus3, zero_domain(genus3), x, x)
    assert s4.component_count() == 1
    assert len(s4.corners()) == 6
    rep = branched_cover_check(s4)
    assert rep["ok"]
    assert rep["corner_halves_sum"] == "3"


def test_branched_cover_check_needs_s4(genus2):
    a, x, y = example1_data(genus2)
    s3 = build_surface(genus2, a, x, y)
    with pytest.raises(PreconditionError):
        branched_cover_check(s3)


def test_stages_without_the_generator_pair_raise(torus3):
    s0 = glue_copies(torus3, Domain.parse(torus3, "r1:1"))
    with pytest.raises(PreconditionError, match="delta needs the generator pair"):
        s0.delta()
    with pytest.raises(PreconditionError, match="splice needs the generator pair"):
        splice_boundary_circles(s0)


@pytest.mark.parametrize("coeffs", [(1, 1, 1), (1, 1, 1, 1, 1), (1, 0, -1, 0)])
def test_local_vertex_chains_needs_four_nonnegative_coefficients(coeffs):
    with pytest.raises(PreconditionError, match="need four nonnegative sector coefficients"):
        local_vertex_chains(coeffs)


def test_surface_report_json_fields(genus2):
    a, x, y = example1_data(genus2)
    payload = build_surface(genus2, a, x, y).to_json_dict()
    assert set(payload) == {
        "stage",
        "chi",
        "corners",
        "boundary_arcs",
        "degenerate_disks",
        "branch_marks",
        "pushforward",
        "delta",
        "branch_budget",
    }


# -- the half-edge complex and the stage contract -----------------------------

# sha256 of the stage-S3 and stage-S4 records of every positive domain with
# coefficients at most 2, in generator and domain order, as computed before
# the complex moved to pointer neighbours.
GOLDEN = {
    "genus2": (197, "9a343247e614a320cbf6f35c4aa78727b0ed0fc609235d03ac7bf28e89094c3a"),
    "genus2s1s2": (18, "a6f14f926c4e874db9e40c880870def20d47879f28bb3f5eb7ef352c97845514"),
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_surface_records_match_golden(fixture, request):
    d = request.getfixturevalue(fixture)
    gens = enumerate_generators(d)
    records = [
        [
            [x.format(), y.format(), a.format()],
            build_surface(d, a, x, y).to_json_dict(),
            stabilized_surface(d, a, x, y).to_json_dict(),
        ]
        for x in gens
        for y in gens
        for a in find_domains(d, x, y, 2, True)
    ]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == GOLDEN[fixture]


def stage_cases(d, limit=3):
    """(x, y, a) of the first few positive domains of every generator pair."""
    gens = enumerate_generators(d)
    return [(x, y, a) for x in gens for y in gens for a in find_domains(d, x, y, 2, True)[:limit]]


def stages(d, x, y, a):
    """Stages S0-S4 of one case, each yielded before the next is made from its complex."""
    s0 = BuiltSurface("S0", d, a, glue_copies(d, a).surface, x, y)
    yield s0
    s1 = cut_bad_corners(s0)
    yield s1
    s2 = add_degenerate_corners(s1, x, y)
    yield s2
    yield splice_boundary_circles(s2)
    if d.genus > 1 and max(a.coeffs) <= 1:
        yield stabilized_surface(d, a, x, y)


def stage_surfaces(d, limit=3):
    """Stages S0-S4 of the first few positive domains of every generator pair."""
    for x, y, a in stage_cases(d, limit):
        yield from stages(d, x, y, a)


def face_ring(surf, f):
    """The sides of face f, walked by nxt from the side at its first slot."""
    start = surf.first[f]
    ring = [start]
    while surf.nxt[ring[-1]] != start:
        ring.append(surf.nxt[ring[-1]])
    return ring


def test_corner_orbits_partition_and_open_classes_agree(corpus):
    for d in corpus.values():
        for built in stage_surfaces(d):
            surf = built.surface
            sides = live_sides(surf)
            for f in range(len(surf.region)):
                ring = face_ring(surf, f)
                assert all(surf.prv[surf.nxt[s]] == s and surf.face[s] == f for s in ring)
            assert sum(len(face_ring(surf, f)) for f in range(len(surf.region))) == len(sides)
            circles, closed = surf.corner_classes()
            classes = sorted([o for circle in circles for o in circle] + closed, key=min)
            assert sorted(s for orbit in classes for s in orbit) == sides
            for orbit in classes:
                assert all(surf.partner[surf.nxt[a]] == b for a, b in zip(orbit, orbit[1:]))
            for pt in {surf.head[s] for s in sides}:
                here = [o for o in classes if surf.head[o[0]] == pt]
                assert surf.open_classes_at(pt) == [o for o in here if surf.partner[o[0]] == -1]


# -- the surgery primitives on a hand-made complex ------------------------------


def two_rings_and_a_loop(d):
    """Three faces: two rings of two sides glued along sides 0 and 2, and a
    one-side ring, side 4.  Side 0 runs q -> p and side 2 runs p -> q."""
    e, f = d.rotation["x1"][:2]
    p, q, r = ("v", "p"), ("v", "q"), ("v", "r")
    surf = builder._Surface(d.curve_family)
    surf.new_rings([0, 1, 2], [((e, f), (p, q)), ((e, f), (q, p)), ((e,), (r,))])
    surf.glue(0, 2)
    return surf


def assert_rings_hold(surf):
    assert all(surf.prv[surf.nxt[s]] == s for s in range(len(surf.nxt)))
    assert all(surf.face[surf.nxt[s]] == surf.face[s] for s in range(len(surf.nxt)))


@pytest.mark.parametrize("s", [4, 0])
def test_subdivide_shortens_a_side_to_its_tail_half(genus2, s):
    # side 4 is a one-side ring, side 0 a glued side
    surf = two_rings_and_a_loop(genus2)
    tail, head, after = surf.tail(s), surf.head[s], surf.nxt[s]
    mid = ("cut", 1)
    new = len(surf.nxt)
    assert surf.subdivide(s, mid) == (s, new)
    assert (surf.tail(s), surf.head[s]) == (tail, mid)
    assert (surf.tail(new), surf.head[new]) == (mid, head)
    assert surf.nxt[s] == new and surf.nxt[new] == after
    assert (surf.face[new], surf.dart[new]) == (surf.face[s], surf.dart[s])
    assert surf.partner[s] == surf.partner[new] == -1
    assert_rings_hold(surf)


def test_slit_at_tail_glues_the_head_halves_and_returns_the_lips(genus2):
    surf = two_rings_and_a_loop(genus2)
    lips = surf.slit_at_tail(0)
    mid = surf.head[0]
    # new ids: 5 is side 0's head half, 6 the head half of its partner 2
    assert lips == (0, 6)
    assert (surf.tail(0), mid) == (("v", "q"), ("cut", 5))
    assert (surf.tail(6), surf.head[6]) == (mid, ("v", "q"))
    assert surf.partner[0] == surf.partner[6] == -1
    assert (surf.partner[5], surf.partner[2]) == (2, 5)
    assert (surf.tail(5), surf.head[5]) == (surf.head[2], surf.tail(2)) == (mid, ("v", "p"))
    assert surf.branch_marks == 1
    assert_rings_hold(surf)
    with pytest.raises(BuilderError, match="cannot slit a boundary side"):
        surf.slit_at_tail(0)


def subdivide_keeping_the_head(surf, s, mid):
    """A mutant of ``_Surface.subdivide``: s keeps its head half, and the new
    side before it on the ring is its tail half."""
    new, prv = len(surf.nxt), surf.prv
    before = prv[s]
    surf.nxt.append(s)
    prv.append(before)
    surf.nxt[before] = prv[s] = new
    surf.partner[s] = -1
    surf.partner.append(-1)
    surf.face.append(surf.face[s])
    surf.dart.append(surf.dart[s])
    surf.head.append(mid)
    return new, s


def test_the_stabilized_suite_catches_a_subdivide_that_keeps_the_head_half(
    monkeypatch, genus2s1s2
):
    # S4 reads a layer's side at a point by its slot, which holds only
    # while a split side keeps its tail: from a generator to itself, the
    # cut at the first point shortens the slot side over c<a2 that the cut
    # at c reads.  The other cases pick another S3 corner at c, since the
    # mutant numbers the halves the other way, and fail to chain it.
    monkeypatch.setattr(builder._Surface, "subdivide", subdivide_keeping_the_head)
    res = stabilized_surface_suite(genus2s1s2)
    assert res.cases == 8 and len(res.failures) == 8
    for f in res.failures:
        if f["x"] == f["y"]:
            assert f["error"] == "layer has no side over c<a2 at ('v', 'c')"
        else:
            assert f["error"] == "layer cut produced no corner"


def reference_orbit(surf, s):
    """The corner orbit through s, walked back to a free end and then forward.

    A closed orbit is rotated to its smallest side id.  This is the walk the
    forward-only ``_Surface.orbit`` replaced.
    """
    nxt, prv, partner = surf.nxt, surf.prv, surf.partner
    back = [s]
    while partner[back[-1]] != -1:
        b = prv[partner[back[-1]]]
        if b == s:
            closed = back[::-1]
            m = closed.index(min(closed))
            return closed[m:] + closed[:m]
        back.append(b)
    orbit = back[::-1]
    cur = partner[nxt[s]]
    while cur != -1:
        orbit.append(cur)
        cur = partner[nxt[cur]]
    return orbit


def reference_classes(surf):
    """Every orbit by the reference walk, sorted by smallest side id."""
    seen, classes = set(), []
    for s in live_sides(surf):
        if s not in seen:
            classes.append(reference_orbit(surf, s))
            seen.update(classes[-1])
    return classes


def reference_circles(surf, ref_open):
    """The reference's open orbits linked by ``nxt`` into boundary circles.

    The orbit ``o`` is followed by the one that starts at ``nxt[o[-1]]``; a
    circle starts at its smallest free side, and the circles come in the
    order of those sides.
    """
    by_start = {o[0]: o for o in ref_open}
    circles = []
    for s in sorted(by_start):
        circle = []
        while s in by_start:
            circle.append(by_start.pop(s))
            s = surf.nxt[circle[-1][-1]]
        if circle:
            circles.append(circle)
    return circles


def orbit_mismatches(built):
    """How the orbit queries of ``built``'s complex depart from the reference walk."""
    surf = built.surface
    ref = reference_classes(surf)
    ref_open = [o for o in ref if surf.partner[o[0]] == -1]
    circles, closed = surf.corner_classes()
    found = []
    if circles != reference_circles(surf, ref_open):
        found.append("circles")
    if closed != [o for o in ref if surf.partner[o[0]] != -1]:
        found.append("closed classes")
    for pt in {surf.head[s] for s in live_sides(surf)}:
        if surf.open_classes_at(pt) != [o for o in ref_open if surf.head[o[0]] == pt]:
            found.append(f"open classes at {pt}")
    corners = [o for o in ref_open if len(o) % 2 and surf.head[o[0]][0] == "v"]
    fresh = BuiltSurface(built.stage, built.diagram, built.domain, surf, built.x, built.y)
    # stage S4 reads the faces with a free side off the open orbits' starts
    free = {s for s in live_sides(surf) if surf.partner[s] == -1}
    if {o[0] for comp in fresh.boundary for o, _ in comp} != free:
        found.append("free sides")
    if sorted((o for comp in fresh.boundary for o, corner in comp if corner), key=min) != corners:
        found.append("corner marks")
    return found


def test_orbit_walk_matches_the_back_walk_reference(corpus):
    from test_generated import GRIND_DIAGRAMS

    stages = 0
    for d in list(corpus.values()) + GRIND_DIAGRAMS:
        for built in stage_surfaces(d):
            assert orbit_mismatches(built) == [], (d, built.stage, built.domain)
            stages += 1
    assert stages > 5000


def test_the_circle_reference_catches_circles_that_are_not_linked(monkeypatch, corpus):
    walk = builder._Surface.circles

    def unlinked(surf):
        """A seeded mutant of ``_Surface.circles``: every open orbit its own circle."""
        return [[surf.orbit(s)] for s in surf._free_sides()], walk(surf)[1]

    stages = caught = 0
    for d in corpus.values():
        for built in stage_surfaces(d, limit=1):
            with monkeypatch.context() as m:
                m.setattr(builder._Surface, "circles", unlinked)
                caught += orbit_mismatches(built) == ["circles"]
            stages += 1
    assert stages > 1000 and caught > stages // 2


def rotated_runs_arcs(built):
    """The boundary arcs of ``built`` by the reader the one-pass
    ``BuiltSurface._boundary_arcs`` replaced: each circle is rotated to
    start just after its first corner and cut into runs that each end at a
    corner, and a run over more than one curve raises."""
    surf = built.surface
    arcs = {name: [] for name in surf.curve_family}
    for comp in built.boundary:
        first = next((i + 1 for i, (_, corner) in enumerate(comp) if corner), 0)
        runs = [[]]
        for o, corner in comp[first:] + comp[:first]:
            runs[-1].append(surf.dart[o[0]].curve)
            if corner:
                runs.append([])
        for run in runs[:-1] if first else runs:
            if len(set(run)) != 1:
                raise BuilderError("boundary arc crosses curves without a corner")
            arcs[run[0]].append({"sides": len(run), "circle": not first})
    d = built.diagram
    for v in surf.degenerate_disks:
        arcs[d.vertex_alpha[v][0]].append({"sides": 1, "circle": False, "degenerate": True})
        arcs[d.vertex_beta[v][0]].append({"sides": 1, "circle": False, "degenerate": True})
    return arcs


def arc_mismatches(corpus, read, limit):
    """(stages, mismatches): the S0-S4 stages of the corpus's box-2 builds,
    the first ``limit`` domains of each generator pair (all for None), and
    those on which ``read`` gives other boundary arcs than
    ``rotated_runs_arcs``."""
    stages = mismatches = 0
    for d in corpus.values():
        for built in stage_surfaces(d, limit):
            mismatches += read(built) != rotated_runs_arcs(built)
            stages += 1
    return stages, mismatches


def test_boundary_arcs_match_the_rotated_runs_reference(corpus):
    assert arc_mismatches(corpus, BuiltSurface.boundary_arcs, None) == (2802, 0)


def test_the_arc_reference_catches_a_reader_that_skips_the_wrap_around_join(corpus):
    # a seeded mutant: the sides after a circle's last corner are dropped
    # instead of joining the run that ends at its first corner
    src = textwrap.dedent(inspect.getsource(BuiltSurface._boundary_arcs.func))
    assert src.count("first[1] + n") == 1
    scope = {}
    mutant = src.replace("@functools.cached_property", "").replace("first[1] + n", "first[1]")
    exec(mutant, vars(builder), scope)
    assert arc_mismatches(corpus, scope["_boundary_arcs"], 1) == (1655, 968)


def one_pass_classes(surf):
    """A seeded mutant of ``corner_classes``: one walk from each unseen side
    in id order, with no first step over the free sides."""
    seen, classes = set(), []
    for s in live_sides(surf):
        if s not in seen:
            classes.append(surf.orbit(s))
            seen.update(classes[-1])
    return classes


def s4_cases(corpus):
    """(d, x, y, a) of every positive domain at box 2 of the genus-2 and -3 diagrams."""
    for d in corpus.values():
        if d.genus > 1:
            gens = enumerate_generators(d)
            for x, y in itertools.product(gens, gens):
                for a in find_domains(d, x, y, 2):
                    yield d, x, y, a


def test_layer_side_by_slot_is_the_side_a_scan_finds(monkeypatch, corpus):
    by_slot = builder._layer_side
    found = []

    def checked(d, surf, layer, dart, pt):
        s = by_slot(d, surf, layer, dart, pt)
        scan = [
            t
            for f in layer
            for t in face_ring(surf, f)
            if surf.tail(t) == pt and surf.dart[t] == dart
        ]
        found.append((scan == [s], surf.head[s][0] == "cut"))
        return s

    monkeypatch.setattr(builder, "_layer_side", checked)
    for d, x, y, a in s4_cases(corpus):
        stabilized_surface(d, a, x, y)
    # every call agrees with the scan, and a few read a slot whose side an
    # earlier cut had shortened to its tail half
    assert len(found) == 4686 and all(same for same, _ in found)
    assert sum(shortened for _, shortened in found) == 6


def first_corner_reads(monkeypatch, corpus, stabilize):
    """(walk read, scan read, odd orbits) at each point v of x of every S4
    case at box 2: the corner ``stabilize`` chains onto first at v, the
    first odd open orbit at v by ``open_classes_at`` on the complex just
    before that cut, and the number of odd open orbits there."""
    cut, reads, seen = builder._cut_layer_and_chain, [], set()

    def first_cut(surf, d, layer, v, pending):
        if v not in seen:
            seen.add(v)
            odd = [o for o in surf.open_classes_at(("v", v)) if len(o) % 2]
            reads.append((pending, next(iter(odd), None), len(odd)))
        return cut(surf, d, layer, v, pending)

    monkeypatch.setattr(builder, "_cut_layer_and_chain", first_cut)
    for d, x, y, a in s4_cases(corpus):
        seen.clear()
        stabilize(d, a, x, y)
    return reads


def test_s4_reads_each_corner_off_the_s3_walk_as_a_scan_finds_it(monkeypatch, corpus):
    reads = first_corner_reads(monkeypatch, corpus, stabilized_surface)
    assert len(reads) == 1612 and all(walk == scan for walk, scan, _ in reads)
    # the smallest side id decides at the 16 points with two corners; the
    # 814 with none start their chain inside the first layer
    assert [sum(n == k for *_, n in reads) for k in range(3)] == [814, 782, 16]


def test_the_corner_read_check_catches_the_corner_with_the_largest_side(monkeypatch, corpus):
    def largest(d, a, x, y):
        # a seeded variant of stabilized_surface that reads max for min
        variant = types.FunctionType(stabilized_surface.__code__, dict(vars(builder), min=max))
        try:
            variant(d, a, x, y)
        except BuilderError:
            pass  # the wrong corner can break the S4 contract after the read

    reads = first_corner_reads(monkeypatch, corpus, largest)
    assert sum(walk != scan for walk, scan, _ in reads) == 16


def test_layer_side_raises_on_a_side_not_over_the_dart(corpus):
    d = corpus["genus2_bigons.hd"]
    surf = builder._Surface(d.curve_family)
    layer = builder._add_region_copies(surf, d, sigma_class(d))
    dart = d.rotation["x1"][0]
    assert surf.dart[builder._layer_side(d, surf, layer, dart, ("v", "x1"))] == dart
    with pytest.raises(BuilderError, match="layer has no side"):
        builder._layer_side(d, surf, layer, dart, ("v", "x2"))


def test_stabilizing_keeps_no_complex_on_the_diagram():
    # S4 glues its full-surface layer into the stage's complex, so a
    # diagram and its mirror keep only immutable caches
    d = load_bundled("genus3_chain.hd")
    for e in (d, mirror(d)):
        cases = [case for case in stage_cases(e, limit=1) if max(case[2].coeffs) <= 2][:10]
        for x, y, a in cases:
            stabilized_surface(e, a, x, y)
        assert len(cases) == 10 and "_s0_template" in vars(e)
        assert [k for k, v in vars(e).items() if isinstance(v, builder._Surface)] == []


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 6: _dart_at reads the germ of a loop side at its tail, so 12 of "
    "the 18 genus2_s1s2 S4 surfaces at box 2 keep a corner of length 3",
)
def test_every_s4_corner_is_a_right_angle(corpus):
    long_corners = [
        (d, a, corners)
        for d, x, y, a in s4_cases(corpus)
        for corners in [stabilized_surface(d, a, x, y).corners()]
        if any(length != 1 for _, length in corners)
    ]
    assert long_corners == []


def test_builds_leave_no_cyclic_garbage(corpus):
    # the complex is integer lists, so every dropped stage is freed by
    # reference counting alone and the collector finds nothing (the solve
    # is kept out of it: ``test_solves_leave_no_cyclic_garbage`` covers it)
    cases = [(d, *case) for d in corpus.values() for case in stage_cases(d)]
    gc.collect()
    gc.disable()
    try:
        built = sum(1 for case in cases for stage in stages(*case) if stage.to_json_dict())
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert built > 1000 and unreachable == 0


def test_an_orbit_walked_from_inside_an_open_chain_raises(corpus):
    rng = random.Random(1001)
    walked = mutant_raised = 0
    for d in corpus.values():
        for built in stage_surfaces(d, limit=1):
            surf = built.surface
            middles = [s for circle in surf.circles()[0] for o in circle for s in o[1:]]
            for s in rng.sample(middles, min(3, len(middles))):
                with pytest.raises(BuilderError, match="inside an open chain"):
                    surf.orbit(s)
                walked += 1
            # an open chain met first at a glued side is an error, never a
            # part of the chain returned as if it were closed
            try:
                one_pass_classes(surf)
            except BuilderError:
                mutant_raised += 1
    assert walked > 3000 and mutant_raised > 1000


def test_the_closed_orbit_walk_raises_inside_an_open_chain(monkeypatch, genus2):
    # the closed orbits are walked from the sides the circles left unmarked;
    # with only the free sides marked, a walk starts inside an open chain
    a, _, _ = example1_data(genus2)
    surf = glue_copies(genus2, a).surface
    circles = builder._Surface.circles
    monkeypatch.setattr(
        builder._Surface,
        "circles",
        lambda self: (circles(self)[0], bytearray(p == -1 for p in self.partner)),
    )
    with pytest.raises(BuilderError, match="corner orbit walked from inside an open chain"):
        surf.corner_classes()


def misglue(surf, rng, a_sides, b_sides):
    """Point a glued side a at the partner of another glued side b, so that
    ``partner`` is no longer an involution: the steps across a and across b
    (s -> partner[nxt[s]] from prv[a] and prv[b]) both lead to b's partner
    now, and none to a's old one."""
    a = rng.choice(a_sides)
    b = rng.choice([b for b in b_sides if b not in (a, surf.partner[a])])
    surf.partner[a] = surf.partner[b]


def test_a_partner_that_is_not_an_involution_raises(genus2s1s2):
    # 2 Sigma glues every side, so each orbit is closed; the orbit walked
    # from a's old partner never comes back to it, and without a bound
    # ``orbit`` would step and grow its list until memory runs out
    rng = random.Random(3201)
    for _ in range(12):
        surf = glue_copies(genus2s1s2, 2 * sigma_class(genus2s1s2)).surface
        sides = range(len(surf.nxt))
        misglue(surf, rng, sides, sides)
        with pytest.raises(BuilderError, match="corner orbit longer than the complex"):
            with time_limit(1.0, "the closed-orbit walk"):
                surf.corner_classes()


def test_a_boundary_walk_into_a_closed_orbit_raises(genus2):
    # a step from an open orbit into a closed one would go round it for
    # ever: the circle walk meets a side it has already marked.  A layer of
    # Sigma under the annulus of example 1 gives closed orbits
    a, _, _ = example1_data(genus2)
    rng = random.Random(3202)
    for _ in range(12):
        surf = glue_copies(genus2, a + sigma_class(genus2)).surface
        circles, marks = surf.circles()
        opened = [surf.nxt[s] for c in circles for o in c for s in o[:-1]]
        closed = [surf.nxt[s] for s, m in enumerate(marks) if not m]
        # the step across a leaves an open orbit, and that across b goes
        # round a closed one
        misglue(surf, rng, opened, closed)
        with pytest.raises(BuilderError, match="boundary walk met a side twice"):
            with time_limit(1.0, "the boundary walk"):
                surf.corner_classes()


def test_stage_transformers_take_over_the_complex(monkeypatch, genus2):
    a, x, y = example1_data(genus2)
    s0 = BuiltSurface("S0", genus2, a, glue_copies(genus2, a).surface, x, y)
    s1 = cut_bad_corners(s0)
    s2 = add_degenerate_corners(s1, x, y)
    s3 = splice_boundary_circles(s2)
    assert s1.surface is s0.surface and s2.surface is s0.surface
    assert s3.surface is s0.surface
    assert [s.stage for s in (s0, s1, s2, s3)] == ["S0", "S1", "S2", "S3"]
    built = []

    def recording_build(*args):
        built.append(build_surface(*args))
        return built[-1]

    # stage S4 works on the complex of the S3 it builds
    monkeypatch.setattr(builder, "build_surface", recording_build)
    assert stabilized_surface(genus2, a, x, y).surface is built[0].surface


def check_build_errors(corpus):
    """(builds, {error: count}) of ``build_surface`` over the builds of
    ``check``: every positive domain at box 3."""
    builds, errors = 0, {}
    for d in corpus.values():
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, gens):
            for a in find_domains(d, x, y, 3):
                builds += 1
                try:
                    build_surface(d, a, x, y)
                except BuilderError as exc:
                    errors[str(exc)] = errors.get(str(exc), 0) + 1
    return builds, errors


def test_the_parallel_passage_move_skips_the_circles_own_passages(monkeypatch, corpus):
    # met in reverse order, the circle's own passages come first at 5 of
    # these builds, and swapping a link with itself would slit a side
    # that the first slit has just opened
    open_classes_at = builder._Surface.open_classes_at
    monkeypatch.setattr(
        builder._Surface, "open_classes_at", lambda surf, pt: open_classes_at(surf, pt)[::-1]
    )
    assert check_build_errors(corpus) == (1068, {})


def test_splice_rounds_that_remove_no_circle_end(monkeypatch, corpus):
    # the 36 builds that splice; without the bound on the rounds they
    # would never end
    monkeypatch.setattr(builder, "_splice_circle", lambda *args: None)
    with time_limit(10.0, "the splice rounds"):
        assert check_build_errors(corpus) == (1068, {"splicing does not terminate": 36})


def test_builder_suite_catches_a_skipped_splice(monkeypatch, genus2s1s2):
    monkeypatch.setattr(builder, "splice_boundary_circles", lambda built: built)
    res = builder_consistency_suite(genus2s1s2, max_coeff=2)
    assert not res.ok
    for failure in res.failures:
        assert {"x", "y", "a"} <= set(failure)
        assert "is not one arc" in failure["error"]


def test_stabilized_suite_catches_a_wrong_pushforward(monkeypatch):
    d = load_bundled("genus2_s1s2.hd")
    add_copies = builder._add_region_copies
    asked = []  # the full-surface classes stage S4 asked for

    def with_stray_sheet(surf, d, a):
        faces = add_copies(surf, d, a)
        if asked and a is asked[-1]:  # the S4 copy: one unglued extra sheet of region 0
            add_copies(surf, d, Domain((1,) + (0,) * (len(a.coeffs) - 1)))
        return faces

    monkeypatch.setattr(builder, "sigma_class", lambda d: asked.append(sigma_class(d)) or asked[-1])
    monkeypatch.setattr(builder, "_add_region_copies", with_stray_sheet)
    res = stabilized_surface_suite(d, max_coeff=1)
    # every case fails the same way: S4 reads its corners off the S3 walk,
    # so no corner of the stray sheet is taken for an S3 corner, and the
    # sheet is left as a component of its own
    split = "stage S4 contract: 6 corners, wanted 4; pushforward differs from the domain; not connected"
    assert res.cases == 8
    assert [(f["x"], f["y"], f["a"], f["error"]) for f in res.failures] == [
        (x, y, a, split)
        for x, y, a in [
            ("a,c", "a,c", "0"),
            ("a,c", "a,c", "r0:1,r1:1,r2:1"),
            ("a,c", "b,c", "r1:1"),
            ("a,c", "b,c", "r0:1"),
            ("b,c", "a,c", "r1:1,r2:1"),
            ("b,c", "a,c", "r0:1,r2:1"),
            ("b,c", "b,c", "0"),
            ("b,c", "b,c", "r0:1,r1:1,r2:1"),
        ]
    ]


def test_stage_contract_reports_each_breach(genus2):
    a, x, y = example1_data(genus2)
    s3 = build_surface(genus2, a, x, y)
    s4 = stabilized_surface(genus2, a, x, y)
    assert stage_contract(s3) == [] and stage_contract(s4) == []
    # an S4 labelled with the class it stabilizes, not the class plus sigma
    relabelled = BuiltSurface("S4", genus2, a, s4.surface, x, y)
    relabelled.s3_chi, relabelled.closed_layers = s4.s3_chi, s4.closed_layers
    assert stage_contract(relabelled) == ["pushforward differs from the domain"]
    # one closed S3 layer too many moves the Euler law's chi by 2g
    assert (s4.s3_chi, s4.closed_layers) == (s3.chi, 0)
    s4.closed_layers = 1
    assert stage_contract(s4) == [
        f"chi {s4.chi} breaks the Euler law chi(S3) + 2 - 4g - 2gL = {s4.chi - 4}"
    ]
    s2_like = BuiltSurface("S3", genus2, a, glue_copies(genus2, a).surface, x, y)
    problems = stage_contract(s2_like)
    assert "corner with angle above a right angle" in problems
    # a stray degenerate disk at a vertex of the boundary adds its two
    # corners, an arc on each of its curves and one to chi
    surf = build_surface(genus2, a, x, y).surface
    surf.degenerate_disks.append("x1")
    assert stage_contract(BuiltSurface("S3", genus2, a, surf, x, y)) == [
        "6 corners, wanted 4",
        "boundary over a1 is not one arc",
        "boundary over b1 is not one arc",
        "chi parity differs from the embedded chi",
    ]


def stage_values(built):
    return built.chi, built.corners(), built.boundary_arcs(), built.component_count()


def test_stage_values_count_the_cells_and_outlive_the_stage(corpus):
    for d in corpus.values():
        kept = []
        for built in stage_surfaces(d):
            surf = built.surface
            sides = live_sides(surf)
            free = sum(1 for s in sides if surf.partner[s] == -1)
            edges = (len(sides) - free) // 2 + free  # glued pairs + free sides
            circles, closed = surf.corner_classes()
            vertices = sum(map(len, circles)) + len(closed)
            cells = vertices - edges + len(surf.region)
            fresh = BuiltSurface(built.stage, d, built.domain, surf, built.x, built.y)
            values = stage_values(built)
            assert values[0] == cells + len(surf.degenerate_disks)
            assert values[1:] == stage_values(fresh)[1:]
            kept.append((built, values))
        # every stage was read before the next one was made from its complex
        assert all(stage_values(built) == values for built, values in kept)


def differs_from_a_fresh_stage(built):
    """Whether ``built`` reports other values than a fresh stage over its complex.

    Chi and the boundary come first: the corners and the arcs are read off
    the boundary, so they are compared only when it agrees.
    """
    fresh = BuiltSurface(built.stage, built.diagram, built.domain, built.surface, built.x, built.y)
    views = (
        lambda b: (b.chi, [[(list(o), corner) for o, corner in comp] for comp in b.boundary]),
        lambda b: (b.corners(), b.boundary_arcs()),
    )
    return any(view(built) != view(fresh) for view in views)


def stale_s3_stages(monkeypatch, corpus, keep_first_round=False):
    """(builds, [circles spliced in each build whose S3 stage is stale]).

    The builds are those of ``check``: every positive domain at box 3.  The
    S3 stages each splice round makes are recorded; the returned stage must
    be the last one made, and it is stale when it differs from a fresh stage
    over its complex.  With ``keep_first_round`` the splice returns the
    stage of its first round instead of its last.
    """
    made = []
    real_stage = builder.BuiltSurface

    def recording(*args):
        made.append(real_stage(*args))
        return made[-1]

    monkeypatch.setattr(builder, "BuiltSurface", recording)
    builds, stale = 0, []
    for d in corpus.values():
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, gens):
            for a in find_domains(d, x, y, 3):
                s2 = add_degenerate_corners(cut_bad_corners(glue_copies(d, a)), x, y)
                made.clear()
                s3 = splice_boundary_circles(s2)
                assert s3 is made[-1] and all(m.stage == "S3" for m in made)
                if keep_first_round:
                    s3 = made[0]
                builds += 1
                if differs_from_a_fresh_stage(s3):
                    stale.append(len(made) - 1)
    return builds, stale


def test_the_s3_stage_is_the_last_round_stage_of_the_returned_complex(monkeypatch, corpus):
    assert stale_s3_stages(monkeypatch, corpus) == (1068, [])


def test_stale_stage_check_catches_the_first_round_stage(monkeypatch, corpus):
    builds, stale = stale_s3_stages(monkeypatch, corpus, keep_first_round=True)
    # caught on every build that splices, and only there: 36 builds, with
    # the 62 circles the traced ``check`` census counts
    assert builds == 1068 and len(stale) == 36 and sum(stale) == 62
    assert min(stale) >= 1


def test_a_build_walks_the_corner_orbits_once_per_splice_round(monkeypatch, corpus):
    # each S3 round walks the orbits once, and the round that finds no
    # circle returns its stage, walk made: over the builds of
    # ``check`` that is one walk per build plus one per spliced circle
    walk = builder._Surface.corner_classes
    walks = []
    monkeypatch.setattr(
        builder._Surface, "corner_classes", lambda surf: walks.append(1) or walk(surf)
    )
    builds = 0
    for d in corpus.values():
        gens = enumerate_generators(d)
        for x, y in itertools.product(gens, gens):
            for a in find_domains(d, x, y, 3):
                build_surface(d, a, x, y).to_json_dict()
                builds += 1
    assert (builds, len(walks)) == (1068, 1068 + 62)


def test_a_stage_computes_corners_arcs_and_embedded_chi_once(monkeypatch, genus2):
    # the contract, the JSON record and ``delta`` share one computation of
    # each: a recorded build takes its embedded chi once, in the contract,
    # and a recorded S4 once more, for the class plus the surface class
    a, x, y = example1_data(genus2)
    calls = []
    real = builder.embedded_euler_char
    monkeypatch.setattr(builder, "embedded_euler_char", lambda *args: calls.append(1) or real(*args))
    s3 = build_surface(genus2, a, x, y)
    record = s3.to_json_dict()
    assert s3.corners() is s3.corners() and s3.boundary_arcs() is s3.boundary_arcs()
    assert len(calls) == 1 and s3.chi_emb == real(genus2, a, x, y)
    assert record["delta"] == str((s3.chi - s3.chi_emb) / 2)
    assert record["corners"] == [{"vertex": v, "length": n} for v, n in s3.corners()]
    assert record["boundary_arcs"] == dict(sorted(s3.boundary_arcs().items()))
    del calls[:]
    s4 = stabilized_surface(genus2, a, x, y)
    s4.to_json_dict()
    # the S3 contract's, then the S4 class's for ``delta``
    assert len(calls) == 2 and s4.chi_emb == real(genus2, a + sigma_class(genus2), x, y)


def test_builder_suite_catches_a_chi_parity_breach(monkeypatch, torus3):
    # the builder's embedded chi one too high: every S3 breaks the parity
    # clause of its contract, and only that clause; so does one a half too
    # high, which is not an integer
    real = builder.embedded_euler_char
    a, x, y = Domain.parse(torus3, "r1:1"), Generator(("v0",)), Generator(("v2",))
    s3 = build_surface(torus3, a, x, y)
    for shift in (1, Fraction(1, 2)):
        monkeypatch.setattr(
            builder, "embedded_euler_char", lambda *args, shift=shift: real(*args) + shift
        )
        assert stage_contract(s3) == ["chi parity differs from the embedded chi"]
        res = builder_consistency_suite(torus3, max_coeff=1)
        assert res.cases == 10 and len(res.failures) == 10
        for failure in res.failures:
            assert failure["error"] == "stage S3 contract: chi parity differs from the embedded chi"


def test_the_degenerate_stage_rejects_a_bad_generator(genus2):
    # called directly, stage S2 raises what ``check_generator`` raises
    a, x, y = example1_data(genus2)
    for bad in (Generator(("x1",)), Generator(("x1", "nope")), Generator(("x2", "x1"))):
        with pytest.raises(DiagramError) as want:
            check_generator(genus2, bad)
        for pair in ((bad, y), (x, bad)):
            with pytest.raises(DiagramError, match=f"^{re.escape(str(want.value))}$"):
                add_degenerate_corners(cut_bad_corners(glue_copies(genus2, a)), *pair)

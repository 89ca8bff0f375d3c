import hashlib
import itertools
import json

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
from hdindex.domains import Domain, Generator, enumerate_generators, find_domains, sigma_class
from hdindex.formulas import embedded_euler_char
from hdindex.harness import builder_consistency_suite, stabilized_surface_suite


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
    chains = local_vertex_chains((1, 1, 1, 1))
    assert [(c.kind, c.length) for c in chains] == [("closed", 4)]
    chains = local_vertex_chains((2, 3, 4, 3))
    assert sorted((c.kind, c.length) for c in chains) == [
        ("closed", 4),
        ("closed", 4),
        ("open", 2),
        ("open", 2),
    ]


def test_local_chains_plain_corner():
    chains = local_vertex_chains((1, 0, 0, 0))
    assert [(c.kind, c.length) for c in chains] == [("open", 1)]


def test_local_chains_branching_corner():
    # one level below the bump: the odd chain winds once around, length 5
    chains = local_vertex_chains((2, 1, 1, 1))
    assert [(c.kind, c.length) for c in chains] == [("open", 5)]


def test_local_chains_absorbed_two_chains():
    # the displayed case list of the source construction truncates this one:
    # tracing the gluings, the odd chain at pattern (2,2,2,1) has length 7
    # and there are no smooth pairs left over
    chains = local_vertex_chains((2, 2, 2, 1))
    assert [(c.kind, c.length) for c in chains] == [("open", 7)]


# sha256 of the (kind, length) chain lists of every pattern with sector
# coefficients 0..5, in itertools.product order, as computed by the
# synthetic single-vertex model the real crossing replaced.
LOCAL_GOLDEN = (1296, "048fe97583a40338c66a6600b91c51a2e6bbfcff38ed623a2755d197e6abfa3b")


def test_local_chains_match_golden():
    records = [
        [[c.kind, c.length] for c in local_vertex_chains(p)]
        for p in itertools.product(range(6), repeat=4)
    ]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == LOCAL_GOLDEN


def test_local_model_crossing_is_generic(genus2):
    # the model reads its chains off x2 of genus2_bigons: the four sectors
    # must be distinct regions and no arc may come back to the crossing
    v = builder._MODEL_VERTEX
    assert builder._model_diagram().rotation == genus2.rotation
    assert len({q.region for q in genus2.quadrants_at(v)}) == 4
    assert all(genus2.rev(dart).vertex != v for dart in genus2.rotation[v])


def test_classify_vertex_chains_on_diagram(genus2):
    a, x, y = example1_data(genus2)
    for v, want in (("x2", [("open", 5)]), ("y2", [("open", 5)]),
                    ("x1", [("open", 1)]), ("r1", [("open", 2)])):
        chains = chains_at(glue_copies(genus2, a), v)
        assert [(c.kind, c.length) for c in chains] == want
    # quadrant sheets of the bad chain cover the five sector sheets: both
    # lens levels and the three surrounding squares at that crossing
    (chain,) = chains_at(glue_copies(genus2, a), "x2")
    assert sorted((c.region, c.level) for c in chain.cells) == sorted(
        [(7, 1), (7, 2), (3, 1), (4, 1), (6, 1)]
    )


# -- stage S0 ----------------------------------------------------------------


def test_glue_single_bigon(torus3):
    a = Domain.parse(torus3, "r1:1")
    s0 = glue_copies(torus3, a)
    assert s0.stage == "S0"
    assert s0.chi == 1
    assert s0.pushforward() == a
    assert len(s0.surface.faces) == 1


def test_glue_sigma_closes_up(torus2):
    s0 = glue_copies(torus2, sigma_class(torus2))
    assert s0.chi == 0  # the full torus, no boundary
    assert all(s.partner is not None for s in s0.surface.sides())


def test_glue_rejects_negative(torus3):
    with pytest.raises(PreconditionError):
        glue_copies(torus3, Domain.parse(torus3, "r0:-1"))


def test_double_bigon_chains(torus3):
    # two copies of the bigon stack into odd chains of length 5 at the
    # corners (one full turn plus the corner quadrant)
    a = Domain.parse(torus3, "r1:2")
    chains = chains_at(glue_copies(torus3, a), "v0")
    assert sorted((c.kind, c.length) for c in chains) == [("open", 1), ("open", 1)]
    # and with the surrounding class the corner pattern deepens
    b = Domain.parse(torus3, "r0:1,r1:2,r2:1")
    chains = chains_at(glue_copies(torus3, b), "v0")
    assert [(c.kind, c.length) for c in chains] == [("open", 5)]


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
    assert len(s1.surface.branch_marks) == 4
    assert s1.chi == 0  # boundary-anchored slits preserve chi
    assert s1.corners() == [("x1", 1), ("x2", 1), ("y1", 1), ("y2", 1)]


def test_degenerate_disk_added(torus3):
    z = Domain.zero(torus3)
    x = Generator(("v0",))
    s0 = glue_copies(torus3, z)
    s0 = BuiltSurface("S0", torus3, z, s0.surface, x, x)
    s2 = add_degenerate_corners(cut_bad_corners(s0), x, x)
    assert len(s2.surface.degenerate_disks) == 1
    assert s2.chi == 1
    assert len(s2.corners()) == 2


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
        s3 = build_surface(d, Domain.zero(d), x, x)
        assert s3.chi == d.genus
        assert len(s3.corners()) == 2 * d.genus
        assert len(s3.surface.degenerate_disks) == d.genus
        assert s3.delta() == 0


def test_build_surface_example1_is_annulus(genus2):
    a, x, y = example1_data(genus2)
    s3 = build_surface(genus2, a, x, y)
    assert s3.chi == 0
    assert s3.delta() == 0
    assert len(s3.corners()) == 4
    assert s3.component_count() == 1
    # two boundary circles and chi zero: the annulus of the resolved
    # double point
    assert len(s3.surface.boundary_components()) == 2
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
    s4 = stabilized_surface(genus2, Domain.zero(genus2), x, x)
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
    with pytest.raises(PreconditionError, match="g>1"):
        stabilized_surface(torus1, sigma_class(torus1), x, x)


def test_stabilized_genus3(genus3):
    x = enumerate_generators(genus3)[0]
    s4 = stabilized_surface(genus3, Domain.zero(genus3), x, x)
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


def stage_surfaces(d, limit=3):
    """Stages S0-S4 of the first few positive domains of every generator pair.

    Each stage is yielded before the next is made from its complex.
    """
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            for a in find_domains(d, x, y, 2, True)[:limit]:
                s0 = BuiltSurface("S0", d, a, glue_copies(d, a).surface, x, y)
                yield s0
                s1 = cut_bad_corners(s0)
                yield s1
                s2 = add_degenerate_corners(s1, x, y)
                yield s2
                yield splice_boundary_circles(s2)
                if d.genus > 1 and max(a.coeffs) <= 1:
                    yield stabilized_surface(d, a, x, y)


def test_corner_orbits_partition_and_open_classes_agree(corpus):
    for d in corpus.values():
        for built in stage_surfaces(d):
            surf = built.surface
            sides = list(surf.sides())
            for f in surf.faces:
                assert all(s.next.prev is s and s.face is f for s in f.sides())
            assert sum(1 for f in surf.faces for _ in f.sides()) == len(sides)
            classes = surf.corner_classes()
            ids = sorted(s.sid for orbit in classes for s in orbit)
            assert ids == [s.sid for s in sides]
            for orbit in classes:
                assert all(a.next.partner is b for a, b in zip(orbit, orbit[1:]))
            for pt in {s.head_pt for s in sides}:
                want = [
                    [s.sid for s in o]
                    for o in classes
                    if o[0].head_pt == pt and o[0].partner is None
                ]
                assert [[s.sid for s in o] for o in surf.open_classes_at(pt)] == want


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


def test_builder_suite_catches_a_skipped_splice(monkeypatch, genus2s1s2):
    monkeypatch.setattr(builder, "splice_boundary_circles", lambda built: built)
    res = builder_consistency_suite(genus2s1s2, max_coeff=2)
    assert not res.ok
    for failure in res.failures:
        assert {"x", "y", "a"} <= set(failure)
        assert "is not one arc" in failure["error"]


def test_stabilized_suite_catches_a_wrong_pushforward(monkeypatch, genus2s1s2):
    add_copies = builder._add_region_copies

    def with_stray_sheet(surf, d, a, tag=None):
        faces = add_copies(surf, d, a, tag)
        if tag == "sigma":  # one unglued extra sheet of region 0
            add_copies(surf, d, Domain((1,) + (0,) * (len(a.coeffs) - 1)), "stray")
        return faces

    monkeypatch.setattr(builder, "_add_region_copies", with_stray_sheet)
    res = stabilized_surface_suite(genus2s1s2, max_coeff=1)
    assert res.cases and len(res.failures) == res.cases
    for failure in res.failures:
        assert {"x", "y", "a"} <= set(failure)
        assert "pushforward differs" in failure["error"]


def test_stage_contract_reports_each_breach(genus2):
    a, x, y = example1_data(genus2)
    s3 = build_surface(genus2, a, x, y)
    s4 = stabilized_surface(genus2, a, x, y)
    assert stage_contract(s3) == [] and stage_contract(s4) == []
    # an S4 labelled with the class it stabilizes, not the class plus sigma
    assert stage_contract(BuiltSurface("S4", genus2, a, s4.surface, x, y)) == [
        "pushforward differs from the domain"
    ]
    s2_like = BuiltSurface("S3", genus2, a, glue_copies(genus2, a).surface, x, y)
    problems = stage_contract(s2_like)
    assert "corner with angle above a right angle" in problems


def stage_values(built):
    return built.chi, built.corners(), built.boundary_arcs(), built.component_count()


def test_census_counts_the_cells_and_outlives_the_stage(corpus):
    for d in corpus.values():
        kept = []
        for built in stage_surfaces(d):
            surf = built.surface
            sides = list(surf.sides())
            free = sum(1 for s in sides if s.partner is None)
            edges = (len(sides) - free) // 2 + free  # glued pairs + free sides
            cells = len(surf.corner_classes()) - edges + len(surf.faces)
            fresh = BuiltSurface(built.stage, d, built.domain, surf, built.x, built.y)
            values = stage_values(built)
            assert values[0] == cells + len(surf.degenerate_disks)
            assert values[1:] == stage_values(fresh)[1:]
            kept.append((built, values))
        # every stage was read before the next one was made from its complex
        assert all(stage_values(built) == values for built, values in kept)


def test_builder_suite_catches_a_chi_parity_breach(monkeypatch, torus3):
    # the builder's embedded chi one too high: every S3 breaks the parity
    # clause of its contract, and only that clause
    real = builder.embedded_euler_char
    a, x, y = Domain.parse(torus3, "r1:1"), Generator(("v0",)), Generator(("v2",))
    s3 = build_surface(torus3, a, x, y)
    monkeypatch.setattr(builder, "embedded_euler_char", lambda *args: real(*args) + 1)
    assert stage_contract(s3) == ["chi parity differs from the embedded chi"]
    res = builder_consistency_suite(torus3, max_coeff=1)
    assert res.cases == 10 and len(res.failures) == 10
    for failure in res.failures:
        assert failure["error"] == "stage S3 contract: chi parity differs from the embedded chi"

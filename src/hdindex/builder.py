"""Cell-complex surgery: building surfaces from positive domains.

A positive domain is realized as a surface by taking one polygon per region
copy and gluing the copies along the curve arcs: top-aligned along alpha
arcs, bottom-aligned along beta arcs (``_sheet_pairs`` is the one rule, and
``_add_region_copies`` the one routine that applies it: to the domain in
stage S0, to the fresh surface copy in S4, and to a fixed crossing in the
local chain model ``local_vertex_chains``).
The preimages of a crossing are then the chains of quadrant sheets linked by
those gluings; odd chains of length three or more are ground down to
right-angle corners by slitting along beta arc preimages, points shared by
both generators receive their corners (as symbolic degenerate disks or
boundary slits), and boundary circles lying over a single curve are spliced
into the main boundary arc.  A final stabilization stage cuts open a fresh
copy of the whole surface at every point of the outgoing generator and
chains it onto the corners.

The complex is a half-edge structure: every polygon side has ``next`` and
``prev`` pointers around its face, which is the ring of its sides, and a
``partner`` twin across a glued edge (``None`` on the free boundary).  The
corners around one point of the surface form an orbit of the step
s -> next(s).partner, and ``_Surface.orbit`` is the only walk of it; the
corner classes, the open classes at a point, the surface corners and the
boundary components are all read off that walk.

All surgery happens on edges: faces are created once and never split, so
the Euler characteristic is always an honest cell count V - E + F.

Cut points land in the interior of edge preimages (each slit is half an
edge long); the far end of a slit is a boundary branch point and never
touches the preimages of other crossings, which keeps every cut local and
the whole pipeline deterministic.

Every stage works on one complex.  ``glue_copies`` makes it; each later
stage transformer does its surgery on the complex of the stage it is
given and returns the next stage over that same complex.  A stage is
consumed by the transformer it is passed to, so read it before passing
it on.  Every cut that receives a corner side (the S3 splice and the S4
chaining) glues it to the slit's lips by one rule, ``_glue_to_lip``.

What a stage reports (chi, corners, boundary arcs, pushforward, components)
is read from its census, taken on the first read from one walk of the
corner orbits (``corner_classes``; its open orbits, linked end to end, are
the boundary circles) and kept for the life of the stage.  The census is
valid because a stage is read before it is passed on: once the next stage
has been made, the complex is no longer the stage's own.

``stage_contract`` states what stages S3 and S4 guarantee; the builder
raises ``BuilderError`` when it fails, so a returned surface always
satisfies it.  The contract, the JSON record, ``delta`` and
``branched_cover_check`` all read the one census of the stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from hdindex.diagram import ALPHA, BETA, Dart, HeegaardDiagram, load_bundled
from hdindex.domains import (
    Domain,
    Generator,
    check_generator,
    connects,
    is_positive,
    sigma_class,
)
from hdindex.formulas import branch_budget, embedded_euler_char

Point = tuple  # ('v', vertex) or ('cut', serial)


class PreconditionError(ValueError):
    """An operation was called outside its contract (bad domain, genus...)."""


class BuilderError(RuntimeError):
    """Internal invariant of the construction failed; indicates a bug."""


@dataclass(frozen=True)
class QuadrantSheet:
    """Sheet ``level`` of the quadrant at ``vertex`` in rotation ``position``."""

    vertex: str
    region: int
    position: int
    level: int


@dataclass(frozen=True)
class PreimageChain:
    """The quadrant sheets forming one preimage of a crossing."""

    vertex: str
    cells: tuple[QuadrantSheet, ...]
    kind: str  # "closed" | "open"

    @property
    def length(self) -> int:
        return len(self.cells)


class _Side:
    """One oriented edge of a face polygon (a half-edge).

    Runs from ``tail_pt`` to ``head_pt`` over the diagram dart ``dart``;
    ``next``/``prev`` go counterclockwise around the face and ``partner`` is
    the twin across the glued edge (``None`` means the side is free
    boundary).
    """

    __slots__ = ("sid", "face", "dart", "tail_pt", "head_pt", "partner", "next", "prev")

    def __init__(self, sid: int, face: "_Face", dart, tail_pt: Point, head_pt: Point):
        self.sid = sid
        self.face = face
        self.dart = dart
        self.tail_pt = tail_pt
        self.head_pt = head_pt
        self.partner: Optional["_Side"] = None
        self.next: "_Side" = self
        self.prev: "_Side" = self

    def __repr__(self) -> str:
        return f"<side {self.sid} {self.dart} {self.tail_pt}->{self.head_pt}>"


class _Face:
    """A polygon: the ring of sides reached from ``start`` by ``next``."""

    __slots__ = ("fid", "region", "layer", "start")

    def __init__(self, fid: int, region: int, layer):
        self.fid = fid
        self.region = region
        self.layer = layer  # sheet level (int) or ('sigma', copy)
        self.start: Optional[_Side] = None

    def sides(self) -> Iterator[_Side]:
        s = self.start
        while s is not None:
            yield s
            s = s.next
            if s is self.start:
                return


@dataclass
class _DegenerateDisk:
    vertex: str
    alpha_curve: str
    beta_curve: str


def _min_sid(orbit: list[_Side]) -> int:
    return min(s.sid for s in orbit)


def _is_corner(orbit: list[_Side]) -> bool:
    """Whether an open orbit is a surface corner: odd, at a diagram vertex."""
    return len(orbit) % 2 == 1 and orbit[0].head_pt[0] == "v"


class _Surface:
    """Mutable half-edge complex with glued sides; all surgery lives here.

    The live sides are kept by id in allocation order, so iterating them
    visits the sides in increasing id order.
    """

    def __init__(self, curve_family: dict[str, str]) -> None:
        self.faces: list[_Face] = []
        self._sides: dict[int, _Side] = {}
        self._next_sid = 0
        self._next_cut = 0
        self.curve_family = curve_family
        self.degenerate_disks: list[_DegenerateDisk] = []
        self.branch_marks: list[tuple] = []  # (cut point, dart) of slit far ends

    def family(self, dart) -> str:
        return self.curve_family[dart.curve]

    # -- construction ----------------------------------------------------

    def new_face(self, region: int, layer) -> _Face:
        f = _Face(len(self.faces), region, layer)
        self.faces.append(f)
        return f

    def _new_side(self, face: _Face, dart, tail_pt: Point, head_pt: Point) -> _Side:
        s = _Side(self._next_sid, face, dart, tail_pt, head_pt)
        self._sides[s.sid] = s
        self._next_sid += 1
        return s

    def add_side(self, face: _Face, dart, tail_pt: Point, head_pt: Point) -> _Side:
        """Append a side to the face's ring, just before its start."""
        s = self._new_side(face, dart, tail_pt, head_pt)
        first = face.start
        if first is None:
            face.start = s
        else:
            s.prev, s.next = first.prev, first
            first.prev.next = first.prev = s
        return s

    def glue(self, a: _Side, b: _Side) -> None:
        if a.partner is not None or b.partner is not None:
            raise BuilderError("side already glued")
        a.partner = b
        b.partner = a

    def fresh_cut_point(self) -> Point:
        self._next_cut += 1
        return ("cut", self._next_cut)

    # -- elementary queries ------------------------------------------------

    def sides(self) -> Iterator[_Side]:
        """Every live side, in increasing id order."""
        return iter(self._sides.values())

    # -- corner orbits (vertex preimages) ------------------------------------

    def orbit(self, s: _Side) -> list[_Side]:
        """The corner orbit through corner(s), the corner between s and next(s).

        Each corner is named by its incoming side; the step to the next
        corner around the point crosses next(s) to its partner.  An open
        orbit is returned end to end from its boundary end (a side without
        partner), a closed one from its side with the smallest id.
        """
        back = [s]
        while back[-1].partner is not None:
            b = back[-1].partner.prev
            if b is s:
                closed = back[::-1]
                m = min(range(len(closed)), key=lambda i: closed[i].sid)
                return closed[m:] + closed[:m]
            back.append(b)
        orbit = back[::-1]
        cur = s.next.partner
        while cur is not None:
            orbit.append(cur)
            cur = cur.next.partner
        return orbit

    def corner_classes(self) -> list[list[_Side]]:
        """Every corner orbit, sorted by smallest side id.

        Sides are visited in id order, so each orbit is met first at its
        smallest side and the list comes out sorted.
        """
        seen: set[int] = set()
        classes: list[list[_Side]] = []
        for s in self.sides():
            if s.sid not in seen:
                orbit = self.orbit(s)
                seen.update(c.sid for c in orbit)
                classes.append(orbit)
        return classes

    def open_classes_at(self, pt: Point) -> list[list[_Side]]:
        """The open orbits at ``pt``, sorted by smallest side id."""
        found = [self.orbit(s) for s in self.sides() if s.partner is None and s.head_pt == pt]
        return sorted(found, key=_min_sid)

    def corner_orbits(self) -> list[list[_Side]]:
        """The surface corners: odd open orbits at diagram vertices, by smallest side id."""
        starts = (s for s in self.sides() if s.partner is None and s.head_pt[0] == "v")
        return sorted(filter(_is_corner, map(self.orbit, starts)), key=_min_sid)

    def class_slots(self, orbit: list[_Side]) -> tuple[_Side, list[_Side], _Side]:
        """(start free side, link sides, end free side) of an open class.

        The link between consecutive corners i, i+1 is the glued side
        next(orbit[i]); its tail sits at the class's vertex point.
        """
        return orbit[0], [s.next for s in orbit[:-1]], orbit[-1].next

    # -- surgery primitives -------------------------------------------------

    def _replace(self, s: _Side, first: _Side, second: _Side) -> None:
        """Put the path first -> second in place of s in its face ring."""
        prev, nxt = (second, first) if s.next is s else (s.prev, s.next)
        prev.next, first.prev = first, prev
        first.next, second.prev = second, first
        second.next, nxt.prev = nxt, second
        if s.face.start is s:
            s.face.start = first
        del self._sides[s.sid]

    def subdivide(self, s: _Side, mid: Point) -> tuple[_Side, _Side]:
        """Split s (and its partner, if any) at ``mid``; returns (tail, head) halves."""
        first = self._new_side(s.face, s.dart, s.tail_pt, mid)
        second = self._new_side(s.face, s.dart, mid, s.head_pt)
        self._replace(s, first, second)
        p = s.partner
        if p is not None:
            pfirst = self._new_side(p.face, p.dart, p.tail_pt, mid)
            psecond = self._new_side(p.face, p.dart, mid, p.head_pt)
            self._replace(p, pfirst, psecond)
            # s runs tail->head, p head->tail over the same segment
            first.partner, psecond.partner = psecond, first
            second.partner, pfirst.partner = pfirst, second
        return first, second

    def slit_at_tail(self, s: _Side, mid: Point | None = None) -> tuple[_Side, _Side]:
        """Open the tail half of the glued side s; returns its two lips.

        The lips run over the opened half: the first from s's tail to the
        cut point on s's face, the second back from the cut point on the
        partner's face.  The far end of the slit is a boundary branch point
        recorded in ``branch_marks``.  Two parallel slits that will be
        cross-glued may share their cut point by passing ``mid`` explicitly.
        """
        if s.partner is None:
            raise BuilderError("cannot slit a boundary side")
        if mid is None:
            mid = self.fresh_cut_point()
        first, _second = self.subdivide(s, mid)
        mate = first.partner
        first.partner = mate.partner = None
        self.branch_marks.append((mid, s.dart))
        return first, mate

    def glue_boundary(self, a: _Side, b: _Side) -> None:
        """Glue two boundary sides running over the same segment oppositely."""
        if (a.tail_pt, a.head_pt) != (b.head_pt, b.tail_pt):
            raise BuilderError("glue_boundary segment mismatch")
        self.glue(a, b)

    # -- boundary structure -------------------------------------------------

    def boundary_components(
        self, open_orbits: list[list[_Side]] | None = None
    ) -> list[list[tuple[list[_Side], bool]]]:
        """The boundary circles, each as the open orbits met along it.

        Each orbit comes with its corner mark.  The open orbit ``o`` starts
        at the free side ``o[0]``, and the circle goes on with the orbit that
        starts at the free side ``o[-1].next``.  A circle starts at its
        smallest free side, and the circles come in the order of those
        sides.  ``open_orbits`` are every open orbit of the complex, walked
        here when not given.
        """
        if open_orbits is None:
            open_orbits = [self.orbit(s) for s in self.sides() if s.partner is None]
        by_start = {o[0].sid: o for o in open_orbits}
        comps = []
        for sid in sorted(by_start):
            o = by_start.pop(sid, None)
            comp = []
            while o is not None:
                comp.append((o, _is_corner(o)))
                o = by_start.pop(o[-1].next.sid, None)
            if comp:
                comps.append(comp)
        return comps

    def face_components(self) -> list[list[_Face]]:
        parent = {f.fid: f.fid for f in self.faces}

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for s in self.sides():
            if s.partner is not None:
                a, b = find(s.face.fid), find(s.partner.face.fid)
                if a != b:
                    parent[a] = b
        groups: dict[int, list[_Face]] = {}
        for f in self.faces:
            groups.setdefault(find(f.fid), []).append(f)
        return [groups[k] for k in sorted(groups)]


# ---------------------------------------------------------------------------
# The public report object


class _Census:
    """What a finished stage reports, taken from one walk of its complex.

    The walk is ``corner_classes``.  Its orbits are the vertices; its open
    orbits each start at one free side and, linked end to end, make up the
    ``boundary`` circles with their corner marks.  So E = (sides + free
    sides) / 2, and chi = V - E + F plus the degenerate disks.  Faces,
    disks and branch marks are counted alongside.  The face components
    are counted on first use only (stage S4 and the tests ask for them),
    so they too must be read before the stage is passed on.
    """

    def __init__(self, surf: _Surface):
        classes = surf.corner_classes()
        open_orbits = [o for o in classes if o[0].partner is None]
        edges = (sum(map(len, classes)) + len(open_orbits)) // 2
        self.surface = surf
        self.boundary = surf.boundary_components(open_orbits)
        self.regions = [f.region for f in surf.faces]
        self.disks = list(surf.degenerate_disks)
        self.branch_marks = len(surf.branch_marks)
        self.chi = len(classes) - edges + len(self.regions) + len(self.disks)

    @functools.cached_property
    def components(self) -> int:
        return len(self.surface.face_components()) + len(self.disks)


class BuiltSurface:
    """A stage of the construction, with its census.

    A stage transformer consumes the stage it is given: it does its surgery
    on that stage's complex and returns the next stage over it.  Everything
    a stage reports is read from its census (``_Census``), taken on first
    read and kept for the life of the stage, so read a stage before passing
    it on: a census first taken after the next stage is made would count
    the next stage's complex.
    """

    def __init__(
        self,
        stage: str,
        diagram: HeegaardDiagram,
        domain: Domain,
        surface: _Surface,
        x: Generator | None = None,
        y: Generator | None = None,
    ):
        self.stage = stage
        self.diagram = diagram
        self.domain = domain
        self.surface = surface
        self.x = x
        self.y = y

    # -- census -------------------------------------------------------------

    @functools.cached_property
    def census(self) -> _Census:
        return _Census(self.surface)

    @property
    def chi(self) -> int:
        return self.census.chi

    def pushforward(self) -> Domain:
        counts = [0] * len(self.diagram.regions)
        for region in self.census.regions:
            counts[region] += 1
        return Domain(tuple(counts))

    def corners(self) -> list[tuple[str, int]]:
        """(vertex, chain length) of the surface corners, plus degenerate disks.

        A corner is an open vertex class of odd length; after the cutting
        stage every odd class has length one.  Each symbolic degenerate disk
        contributes two corners at its vertex.
        """
        c = self.census
        out = [(o[0].head_pt[1], len(o)) for comp in c.boundary for o, corner in comp if corner]
        return sorted(out + [(disk.vertex, 1) for disk in c.disks] * 2)

    def boundary_arcs(self) -> dict[str, list[dict]]:
        """Maximal boundary arcs per curve, split at the surface corners."""
        arcs: dict[str, list[dict]] = {name: [] for name in self.diagram.curve_vertices}
        for comp in self.census.boundary:
            # the curves of the free sides in runs that each end at a
            # corner, from just after the first one; a cornerless circle is
            # one run
            first = next((i + 1 for i, (_, corner) in enumerate(comp) if corner), 0)
            runs: list[list[str]] = [[]]
            for o, corner in comp[first:] + comp[:first]:
                runs[-1].append(o[0].dart.curve)
                if corner:
                    runs.append([])
            for run in runs[:-1] if first else runs:
                if len(set(run)) != 1:
                    raise BuilderError("boundary arc crosses curves without a corner")
                arcs[run[0]].append({"sides": len(run), "circle": not first})
        for disk in self.census.disks:
            arcs[disk.alpha_curve].append({"sides": 1, "circle": False, "degenerate": True})
            arcs[disk.beta_curve].append({"sides": 1, "circle": False, "degenerate": True})
        return arcs

    def component_count(self) -> int:
        return self.census.components

    def delta(self) -> Fraction:
        """Implied double-point excess (chi - chi_emb)/2 of the class."""
        if self.x is None or self.y is None:
            raise PreconditionError("delta needs the generator pair")
        chi_emb = embedded_euler_char(self.diagram, self.domain, self.x, self.y)
        return Fraction(self.chi - chi_emb, 2)

    def to_json_dict(self) -> dict:
        d: dict = {
            "stage": self.stage,
            "chi": self.chi,
            "corners": [
                {"vertex": v, "length": length} for v, length in self.corners()
            ],
            "boundary_arcs": {
                curve: arcs for curve, arcs in sorted(self.boundary_arcs().items())
            },
            "degenerate_disks": len(self.census.disks),
            "branch_marks": self.census.branch_marks,
            "pushforward": self.pushforward().format(),
        }
        if self.x is not None and self.y is not None:
            delta = self.delta()
            d["delta"] = str(delta)
            d["branch_budget"] = str(branch_budget(self.diagram.genus, d["chi"]))
        return d


# ---------------------------------------------------------------------------
# Stage S0: gluing the region copies


def _sheet_pairs(family: str, p: int, q: int) -> list[tuple[int, int]]:
    """Sheets (m, m') glued across an arc with p sheets on one side, q on the other.

    Top-aligned on alpha arcs (the offset is the coefficient difference),
    bottom-aligned on beta arcs.
    """
    if family == BETA:
        return [(m, m) for m in range(1, min(p, q) + 1)]
    off = q - p
    return [(m, m + off) for m in range(1, p + 1) if 1 <= m + off <= q]


def _add_region_copies(
    surf: _Surface, d: HeegaardDiagram, a: Domain, tag: str | None = None
) -> list[_Face]:
    """One polygon per sheet of ``a``, glued along the curve arcs.

    Sheet m of a region gets layer m, or (tag, m) when a tag is given.  A
    region adjacent to itself across an arc follows the same rule with its
    two arc sides kept distinct.
    """
    faces: list[_Face] = []
    side_of: dict[tuple, _Side] = {}
    for r in d.regions:
        # face tracing puts the next dart of a region, rot^-1(rev d), at
        # the head of d
        heads = r.darts[1:] + r.darts[:1]
        for level in range(1, a[r.index] + 1):
            f = surf.new_face(r.index, level if tag is None else (tag, level))
            faces.append(f)
            for dart, head in zip(r.darts, heads):
                side_of[(dart, level)] = surf.add_side(
                    f, dart, ("v", dart.vertex), ("v", head.vertex)
                )
    for name, edges in d.edges.items():
        for tail, _ in edges:
            e = Dart(tail, name, True)
            f = d.rev(e)
            pairs = _sheet_pairs(d.curve_family[name], a[d.face_of[e]], a[d.face_of[f]])
            for m, m2 in pairs:
                surf.glue(side_of[(e, m)], side_of[(f, m2)])
    return faces


def glue_copies(d: HeegaardDiagram, a: Domain) -> BuiltSurface:
    """Stage S0: one polygon per region copy, glued along the curve arcs.

    Sheets are matched top-aligned along alpha arcs and bottom-aligned
    along beta arcs (``_sheet_pairs``).
    """
    if not is_positive(a):
        raise PreconditionError("glue_copies needs a positive domain")
    if len(a.coeffs) != len(d.regions):
        raise PreconditionError("domain does not match the diagram")
    surf = _Surface(d.curve_family)
    _add_region_copies(surf, d, a)
    return BuiltSurface("S0", d, a, surf)


def chains_at(built: BuiltSurface, v: str) -> list[PreimageChain]:
    """Extract the quadrant-sheet chains at a crossing from any stage."""
    rot = built.diagram.rotation[v]
    out: list[PreimageChain] = []
    for orbit in built.surface.corner_classes():
        if orbit[0].head_pt != ("v", v):
            continue
        cells = []
        for s in orbit:
            # the corner between s and next(s) occupies the sector between
            # dart(next(s)) and its rotation successor
            dart = s.next.dart
            if dart not in rot:
                raise BuilderError(f"corner at {v} with foreign dart {dart}")
            level = s.face.layer if isinstance(s.face.layer, int) else 0
            cells.append(QuadrantSheet(v, s.face.region, rot.index(dart), level))
        kind = "open" if orbit[0].partner is None else "closed"
        out.append(PreimageChain(v, tuple(cells), kind))
    return out


# The crossing of the local chain model: its four quadrants lie in four
# distinct regions and none of its arcs returns to it, so the sheets there
# are glued exactly as at any crossing with the same quadrant pattern.
_MODEL_DIAGRAM, _MODEL_VERTEX = "genus2_bigons.hd", "x2"


@functools.cache
def _model_diagram() -> HeegaardDiagram:
    return load_bundled(_MODEL_DIAGRAM)


def local_vertex_chains(coeffs: tuple[int, int, int, int]) -> list[PreimageChain]:
    """Chains of a crossing whose four sectors have these coefficients.

    Sector i sits counterclockwise between rotation darts i and i+1, alpha
    darts at 0 and 2.  The coefficients are put on the quadrant regions of
    a fixed crossing and the sheets glued by the stage-S0 routine, so this
    is the local model of any crossing with the given quadrant pattern.
    """
    if len(coeffs) != 4 or any(c < 0 for c in coeffs):
        raise PreconditionError("need four nonnegative sector coefficients")
    d = _model_diagram()
    counts = [0] * len(d.regions)
    for quadrant, c in zip(d.quadrants_at(_MODEL_VERTEX), coeffs):
        counts[quadrant.region] = c
    a = Domain(tuple(counts))
    surf = _Surface(d.curve_family)
    _add_region_copies(surf, d, a)
    return chains_at(BuiltSurface("S0", d, a, surf), _MODEL_VERTEX)


# ---------------------------------------------------------------------------
# Stage S1: grinding bad corners down to right angles


def cut_bad_corners(built: BuiltSurface) -> BuiltSurface:
    """Stage S1: every odd vertex class of length 2m+1 >= 3 receives m cuts.

    The chain is oriented from its alpha-family free end and every second
    link (a beta-family side) is slit for half its length, repartitioning
    the class into one length-one corner and m smooth length-two pieces.
    The cuts are made in ``built``'s complex.
    """
    surf = built.surface
    _grind_odd_chains(surf)
    return BuiltSurface("S1", built.diagram, built.domain, surf, built.x, built.y)


def _grind_odd_chains(surf: _Surface) -> None:
    guard = 0
    while True:
        target = next((o for o in surf.corner_orbits() if len(o) >= 3), None)
        if target is None:
            return
        start_free, links, end_free = surf.class_slots(target)
        fam_start = surf.family(start_free.dart)
        if fam_start == surf.family(end_free.dart):
            raise BuilderError("odd chain with equal end families")
        if fam_start != ALPHA:
            links = list(reversed(links))
        for i in range(0, len(links), 2):
            if surf.family(links[i].dart) == ALPHA:
                raise BuilderError("cut scheduled along an alpha link")
            surf.slit_at_tail(links[i])
        guard += 1
        if guard > 4 * surf._next_sid:
            raise BuilderError("bad-corner grinding does not terminate")


# ---------------------------------------------------------------------------
# Stage S2: corners for shared generator points


def add_degenerate_corners(
    built: BuiltSurface, x: Generator, y: Generator
) -> BuiltSurface:
    """Stage S2: each point of both generators gets its two corners.

    A shared point not covered by the boundary contributes a symbolic
    degenerate disk; a covered one gets a boundary slit, which introduces
    two corners and a boundary branch point.  The surgery is made in
    ``built``'s complex.
    """
    d = built.diagram
    check_generator(d, x)
    check_generator(d, y)
    surf = built.surface
    shared = [v for v in x.points if v in set(y.points)]
    for v in shared:
        open_here = surf.open_classes_at(("v", v))
        if not open_here:
            surf.degenerate_disks.append(
                _DegenerateDisk(v, d.vertex_alpha[v][0], d.vertex_beta[v][0])
            )
            continue
        orbit = open_here[0]
        if len(orbit) % 2 == 1:
            raise BuilderError("shared generator point already has a corner")
        _, links, _ = surf.class_slots(orbit)
        surf.slit_at_tail(links[0])
        _grind_odd_chains(surf)
    return BuiltSurface("S2", d, built.domain, surf, x, y)


# ---------------------------------------------------------------------------
# Stage S3: splicing boundary circles into the arcs


def splice_boundary_circles(built: BuiltSurface) -> BuiltSurface:
    """Stage S3: merge every boundary circle lying over one curve into the
    boundary arc of that curve.

    For a circle over an alpha curve, a slit is made along a beta arc
    preimage at the circle's passage over the outgoing generator's point on
    that curve, and one lip of the slit is glued to the matching side of
    the corner there; beta circles are treated symmetrically.  Each splice
    strictly decreases the number of circles.  The splices are made in
    ``built``'s complex.
    """
    if built.x is None:
        raise PreconditionError("splice needs the generator pair")
    d = built.diagram
    surf = built.surface
    x = built.x
    guard = 0
    while True:
        circle = _first_circle(surf)
        if circle is None:
            break
        curve = circle[0].dart.curve
        fam = d.curve_family[curve]
        v = _generator_point_on_curve(d, x, curve)
        _splice_circle(surf, d, circle, v, fam)
        _grind_odd_chains(surf)
        guard += 1
        if guard > 4 * surf._next_sid:
            raise BuilderError("splicing does not terminate")
    return BuiltSurface("S3", d, built.domain, surf, built.x, built.y)


def _first_circle(surf: _Surface) -> list[_Side] | None:
    """The free sides of the first boundary circle lying over a single curve."""
    for comp in surf.boundary_components():
        # a component over one curve is one without corners: the two free
        # sides of an orbit at a vertex lie over curves of different
        # families exactly when the orbit is odd, and at a cut point both
        # lie over the slit's dart
        if not any(corner for _, corner in comp):
            return [o[0] for o, _ in comp]
    return None


def _generator_point_on_curve(d: HeegaardDiagram, x: Generator, curve: str) -> str:
    fam = d.curve_family[curve]
    for v in x.points:
        table = d.vertex_alpha if fam == ALPHA else d.vertex_beta
        if table[v][0] == curve:
            return v
    raise BuilderError(f"generator misses curve {curve}")


def _dart_at(d: HeegaardDiagram, side: _Side, pt: Point):
    """The diagram dart of ``side`` as seen from the vertex point ``pt``."""
    if side.tail_pt == pt:
        return side.dart
    if side.head_pt == pt:
        return d.rev(side.dart)
    raise BuilderError("side does not touch the vertex point")


def _splice_circle(
    surf: _Surface, d: HeegaardDiagram, circle: list[_Side], v: str, fam: str
) -> None:
    """Merge the circle into the rest of the boundary at its passage over v.

    Two local moves, tried in this order over the circle's passages and
    their other-family links:

    * corner mate: a corner at v has a free side over the link's dart; slit
      the link for half its length and glue the matching lip to the corner
      side (the corner migrates to the freshly cut sheet).
    * parallel passage: another boundary passage at v has a link over the
      same dart; slit both links at a shared cut point and cross-glue the
      four lips, swapping the sheets between the two passages.

    Both moves drop the Euler characteristic by one and leave every corner
    count unchanged.
    """
    pt = ("v", v)
    other_family = BETA if fam == ALPHA else ALPHA
    circle_ids = {s.sid for s in circle}
    open_here = surf.open_classes_at(pt)
    links = [
        link
        for orbit in open_here
        if len(orbit) % 2 == 0 and orbit[0].sid in circle_ids
        for link in surf.class_slots(orbit)[1]
        if surf.family(link.dart) == other_family
    ]
    # corner-mate move
    for link in links:
        for corner in open_here:
            if len(corner) % 2 == 0:
                continue
            k_in, _, k_out = surf.class_slots(corner)
            for k_side in (k_in, k_out):
                if _dart_at(d, k_side, pt) == link.dart:
                    _glue_to_lip(surf, k_side, surf.slit_at_tail(link), pt)
                    return
    # parallel-passage move
    for link in links:
        for other in open_here:
            if len(other) % 2 == 1 or other[0].sid in circle_ids:
                continue
            for olink in surf.class_slots(other)[1]:
                if olink.dart == link.dart:
                    _execute_swap(surf, link, olink)
                    return
    raise BuilderError(f"no matching corner side to splice at {v}")


def _glue_to_lip(
    surf: _Surface, k_side: _Side, lips: tuple[_Side, _Side], pt: Point
) -> None:
    """Glue the corner side ``k_side`` to the matching lip of a slit at ``pt``.

    ``lips`` are the two lips of a slit made at the tail of a link over the
    same dart as ``k_side``; ``k_side`` is a boundary side of a corner at
    ``pt``, pointing into or out of it.  It is subdivided at the slit's cut
    point and the half at ``pt`` is glued to the lip running the other way.
    """
    tail_lip, head_lip = lips
    mid = tail_lip.head_pt
    if k_side.head_pt == pt:
        _, second = surf.subdivide(k_side, mid)
        surf.glue_boundary(second, tail_lip)
    elif k_side.tail_pt == pt:
        first, _ = surf.subdivide(k_side, mid)
        surf.glue_boundary(first, head_lip)
    else:
        raise BuilderError("corner side does not touch the vertex")


def _execute_swap(surf: _Surface, link: _Side, olink: _Side) -> None:
    """Slit two parallel links at a shared cut point and cross-glue the lips."""
    tail_lip, head_lip = surf.slit_at_tail(link)
    otail_lip, ohead_lip = surf.slit_at_tail(olink, tail_lip.head_pt)
    surf.glue_boundary(tail_lip, ohead_lip)
    surf.glue_boundary(otail_lip, head_lip)


# ---------------------------------------------------------------------------
# The stage contract


def stage_contract(built: BuiltSurface) -> list[str]:
    """The ways ``built`` breaks its stage contract; empty when it holds.

    Stage S4: connected, 2g corners, pushforward equal to its domain (the
    class plus the full surface class).  Any other stage is held to the
    stage-S3 contract: 2g corners, all right angles; one boundary arc per
    curve; pushforward equal to the domain; chi congruent mod 2 to the
    embedded Euler characteristic of the class.
    """
    d = built.diagram
    corners = built.corners()
    problems = []
    if len(corners) != 2 * d.genus:
        problems.append(f"{len(corners)} corners, wanted {2 * d.genus}")
    if built.pushforward() != built.domain:
        problems.append("pushforward differs from the domain")
    if built.stage == "S4":
        if built.component_count() != 1:
            problems.append("not connected")
        return problems
    if any(length != 1 for _, length in corners):
        problems.append("corner with angle above a right angle")
    for curve, arcs in built.boundary_arcs().items():
        if len(arcs) != 1 or arcs[0].get("circle"):
            problems.append(f"boundary over {curve} is not one arc")
    if (built.chi - embedded_euler_char(d, built.domain, built.x, built.y)) % 2:
        problems.append("chi parity differs from the embedded chi")
    return problems


def _enforce_contract(built: BuiltSurface) -> BuiltSurface:
    problems = stage_contract(built)
    if problems:
        raise BuilderError(f"stage {built.stage} contract: " + "; ".join(problems))
    return built


# ---------------------------------------------------------------------------
# The full pipeline


def build_surface(
    d: HeegaardDiagram, a: Domain, x: Generator, y: Generator
) -> BuiltSurface:
    """Glue, cut, add degenerate corners, splice; enforce the stage-S3 contract."""
    if not is_positive(a):
        raise PreconditionError("build_surface needs a positive domain")
    if not connects(d, a, x, y):
        raise PreconditionError("domain does not connect the generators")
    s1 = cut_bad_corners(glue_copies(d, a))
    s2 = add_degenerate_corners(s1, x, y)
    return _enforce_contract(splice_boundary_circles(s2))


# ---------------------------------------------------------------------------
# Stage S4: stabilization


def stabilized_surface(
    d: HeegaardDiagram, a: Domain, x: Generator, y: Generator
) -> BuiltSurface:
    """Represent the class plus the full surface, with boundary, connectedly.

    Degenerate disks are dropped; a fresh copy of the whole surface is cut
    open at every point of x (two slits along the alpha curve, one along the
    beta curve) and chained onto the corners there.  Closed components of
    the stage-3 surface (full-surface layers of the domain) are opened at
    the same points and joined into the same chain, so the result is
    connected with pushforward A plus the surface class.  The stage-S4
    contract is enforced.
    """
    if d.genus <= 1:
        raise PreconditionError("should have assumed that g>1")
    surf = build_surface(d, a, x, y).surface
    surf.degenerate_disks = []

    closed_layers = [
        comp
        for comp in surf.face_components()
        if all(s.partner is not None for f in comp for s in f.sides())
    ]
    for comp in closed_layers:
        if sorted(f.region for f in comp) != list(range(len(d.regions))):
            raise BuilderError("closed component is not a single surface layer")

    sigma = sigma_class(d)
    layers = closed_layers + [_add_region_copies(surf, d, sigma, "sigma")]
    # corners of the closed layers and the fresh copy do not exist yet; a
    # point of x with no stage-3 corner (a dropped degenerate disk) starts
    # its chain inside the first layer
    layer_fids = {f.fid for layer in layers for f in layer}
    for v in x.points:
        pending = _corner_at(surf, ("v", v), layer_fids, inside=False)
        for layer in layers:
            pending = _cut_layer_and_chain(surf, d, layer, v, pending)
    return _enforce_contract(BuiltSurface("S4", d, a + sigma, surf, x, y))


def _corner_at(surf: _Surface, pt: Point, fids: set[int], inside: bool) -> list[_Side] | None:
    """The corner at ``pt`` whose orbit starts on a face inside (or outside) ``fids``."""
    orbits = surf.open_classes_at(pt)
    return next((o for o in orbits if len(o) % 2 and (o[0].face.fid in fids) == inside), None)


def _layer_side(layer: list[_Face], dart, pt: Point) -> _Side:
    """The layer's side over ``dart`` whose tail sits at ``pt``."""
    for f in layer:
        for s in f.sides():
            if s.dart == dart and s.tail_pt == pt:
                return s
    raise BuilderError(f"layer has no side over {dart} at {pt}")


def _cut_layer_and_chain(
    surf: _Surface,
    d: HeegaardDiagram,
    layer: list[_Face],
    v: str,
    pending: list[_Side] | None,
) -> list[_Side]:
    """Cut one layer open at v and glue the pending corner into the cut.

    An opening cut (no corner to receive, the replacement for a dropped
    degenerate disk) slits along both alpha half-darts and one beta
    half-dart, leaving two corners.  A receiving cut slits exactly along
    the two free darts of the received corner; the corner then closes the
    three remaining sectors into a smooth interior point.  Either way the
    layer is left with a fresh corner for the next layer up the chain.
    """
    pt = ("v", v)
    if pending is not None:
        k_in, _, k_out = surf.class_slots(pending)
        cuts = sorted(
            {_dart_at(d, k_in, pt), _dart_at(d, k_out, pt)},
            key=lambda dart: (dart.curve, dart.forward),
        )
        if len(cuts) != 2:
            raise BuilderError("pending corner with degenerate free darts")
    else:
        alpha, beta = d.vertex_alpha[v][0], d.vertex_beta[v][0]
        cuts = [Dart(v, alpha, True), Dart(v, alpha, False), Dart(v, beta, True)]
    lips: dict[Dart, tuple[_Side, _Side]] = {}
    for dart in cuts:
        side = _layer_side(layer, dart, pt)
        if side.partner is None:
            raise BuilderError("layer cut along an already open side")
        lips[dart] = surf.slit_at_tail(side)
    if pending is not None:
        # glue the pending corner's two sides into the matching lips
        for k_side in (k_in, k_out):
            _glue_to_lip(surf, k_side, lips[_dart_at(d, k_side, pt)], pt)
    corner = _corner_at(surf, pt, {f.fid for f in layer}, inside=True)
    if corner is None:
        raise BuilderError("layer cut produced no corner")
    return corner


# ---------------------------------------------------------------------------
# Stage S4 verification


def branched_cover_check(s4: BuiltSurface) -> dict:
    """Bookkeeping for the g-fold cover of the disk carried by stage S4.

    Verifies that the boundary corner counts are even with halves summing to
    the genus, and that the branch budget g - chi is a nonnegative integer.
    Violations are reported as data, not raised.
    """
    if s4.stage != "S4":
        raise PreconditionError("branched_cover_check needs a stage S4 surface")
    g = s4.diagram.genus
    per_component = [sum(corner for _, corner in comp) for comp in s4.census.boundary]
    halves = sum(Fraction(n, 2) for n in per_component)
    budget = branch_budget(g, s4.chi)
    report = {
        "corner_halves": [str(Fraction(n, 2)) for n in per_component],
        "corner_halves_sum": str(halves),
        "corner_halves_sum_is_genus": halves == g,
        "all_components_even": all(n % 2 == 0 for n in per_component),
        "branch_budget": str(budget),
        "branch_budget_ok": budget >= 0 and budget.denominator == 1,
        "connected": s4.component_count() == 1,
    }
    flags = ("corner_halves_sum_is_genus", "all_components_even", "branch_budget_ok", "connected")
    report["ok"] = all(report[flag] for flag in flags)
    return report

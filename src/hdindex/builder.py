"""Cell-complex surgery: building surfaces from positive domains.

A positive domain is realized as a surface by taking one polygon per region
copy and gluing the copies along the curve arcs: top-aligned along alpha
arcs, bottom-aligned along beta arcs (``_sheet_pairs`` is the one rule, and
``_add_region_copies`` the one routine that applies it: to the domain in
stage S0, to the fresh full-surface layer of stage S4, and to a fixed
crossing in the local chain model ``local_vertex_chains``).
It reads the diagram through a template built once per diagram and kept
on it (``_s0_template``): each region's ring of sides as columns (darts
and head points), and each arc, named by its forward dart, as a seam
joining two (region, ring position) slots.  All the sheets of a domain are
allocated in one extension of the complex's lists (``_Surface.new_rings``),
and every seam glues its sheet pairs side by slot, so no dart is hashed or
compared while gluing.
The preimages of a crossing are then its corner orbits, the chains of
sheet corners linked by those gluings; odd chains of length three or more
are ground down to right-angle corners by slitting along beta arc
preimages, in one pass (a slit cuts only its own chain and leaves every
other orbit's length as it was), points shared by both generators
receive their corners (as symbolic degenerate disks or boundary slits),
and boundary circles lying over a single curve are spliced into the main
boundary arc.  Only stage S1 grinds: the later stages keep every corner a
right angle by construction, and the stage-S3 contract checks it.  A
final stabilization stage cuts open a fresh copy of the whole surface at
every point of the outgoing generator and chains it onto the corners.
That copy is glued into the stage's complex as S0 glues a domain, so no
complex outlives its build.  A diagram keeps two caches: the immutable
``_s0_template``, and the solver's ``_lattice``, whose ``generators`` gains
one record per generator validated on it, at most the generator count.

The complex is an array half-edge structure, as in mesh libraries: sides
and faces are integer ids into parallel lists of ``_Surface``, with no
object per side.  Every polygon side has ``nxt`` and ``prv`` ids around
its face, which is the ring of its sides, a head point (its tail point is
the head of ``prv``), and a ``partner`` twin across a glued edge (-1 on the
free boundary), the one record of whether a side is free.  Side ids are
handed out in order and every id stays a live side: ``_Surface.subdivide``
shortens a side to its tail half and gives its head half a new id.  The
ids fix the order of every record: a boundary circle starts at its
smallest free side, and closed orbits come by smallest id.
The corners around one point of the surface form an orbit of the step
s -> partner[nxt[s]], and every walk of it goes forward only, from the
orbit's start: the free side that begins an open orbit, or the side a
closed one is first met at.  ``_Surface.orbit`` walks one orbit: each
closed orbit of the whole-surface walk (``_Surface.corner_classes``) and
each point query.  Only the open orbits are stepped inline, along the
boundary circles (``_Surface.circles``), which marks each side as it
meets it: the orbit that starts at the free side o[0] and ends at o[-1]
is followed on its circle by the one that starts at the free side
nxt[o[-1]].  That is the one walk every stage makes, so it keeps its own
step loop: routing it through ``orbit`` too, a call per open orbit, made
``stabilized_surface`` about 7% slower, and walking the open orbits flat
from the free sides and then linking them into circles by a dict made
``circles`` about 33% slower.  Both step loops are bounded: a walk that
meets more sides than the complex has, or a side it has already met,
raises ``BuilderError``, so a ``partner`` that is not an involution cannot
make it loop.  The corner classes, the surface corners and the boundary
circles are all read off that walk.

All surgery happens on edges: faces are created once and never split, so
the Euler characteristic is always an honest cell count V - E + F.

Cut points land in the interior of edge preimages (each slit is half an
edge long); the far end of a slit is a boundary branch point and never
touches the preimages of other crossings, which keeps every cut local and
the whole pipeline deterministic.

Every stage works on one complex.  ``glue_copies`` makes it; each later
stage transformer does its surgery on the complex of the stage it is
given and returns the next stage over that same complex, so a stage is
consumed by the transformer it is passed to.  Every cut that receives a
corner side (the S3 splice and the S4 chaining) glues it to the slit's
lips by one rule, ``_glue_to_lip``.

A stage (``BuiltSurface``) reads what it reports off the complex: its
boundary and chi from one walk of the corner orbits (``corner_classes``:
the boundary circles, then the closed orbits), its corners and boundary
arcs off that boundary, and its pushforward, degenerate disks and branch
marks straight from the complex.  The walk's values, the corners, the
arcs and the components are fixed when first read, and the rest is read
at each call, so a stage must be read before it is passed on: once the
next stage has been made, the complex is no longer the stage's own.
Stage S3 makes one stage per splice round, finds the circle to splice in
its boundary and returns the stage of the round that finds none, so that
walk is made once; it reads the open classes at the splice point with
``open_classes_at``, as stage S2 does.  Stage S1 walks the circles
only, and stage S4 reads the faces with a free side and the S3 corner at
each point of x off the S3 walk, and each fresh corner off the lips of
the cut that made it.

``stage_contract`` states what stages S3 and S4 guarantee; the builder
raises ``BuilderError`` when it fails, so a returned surface always
satisfies it.  The contract, the JSON record, ``delta`` and
``branched_cover_check`` all read the one stage: its corners and
boundary arcs are computed once and shared, and the stage keeps its
embedded chi, so ``delta`` reuses the contract's.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import mul

from hdindex.diagram import ALPHA, BETA, Dart, HeegaardDiagram, components, load_bundled
from hdindex.domains import (
    Domain,
    Generator,
    PreconditionError,
    _records,
    connects,
    is_positive,
    sigma_class,
)
from hdindex.formulas import branch_budget, embedded_euler_char

Point = tuple  # ('v', vertex) or ('cut', id of the side that starts there)
MAX_FACES = 1 << 16  # the most sheets one ``_add_region_copies`` call allocates


class BuilderError(RuntimeError):
    """Internal invariant of the construction failed; indicates a bug."""


class _Surface:
    """Mutable half-edge complex with glued sides; all surgery lives here.

    Sides and faces are integer ids into parallel lists.  Side s runs from
    ``tail(s)`` to ``head[s]`` over the diagram dart ``dart[s]`` on face
    ``face[s]``; ``nxt``/``prv`` go counterclockwise around the face and
    ``partner[s]`` is the twin across the glued edge (-1 on the free
    boundary).  No tail is stored: rings are allocated and subdivided so
    that a side starts where ``prv[s]`` ends.  Face f lies over region
    ``region[f]``, and its ring was allocated whole from the side id
    ``first[f]``.  Ids are handed out in order and every id stays a live
    side: ``subdivide`` shortens a side to its tail half, so a side keeps
    its id, its face and its tail for good, and side ``first[f]`` stays on
    face f's ring.  The far ends of the slits, the boundary branch points,
    are counted in ``branch_marks``.
    """

    def __init__(self, curve_family: dict[str, str]) -> None:
        self.nxt: list[int] = []
        self.prv: list[int] = []
        self.partner: list[int] = []
        self.face: list[int] = []
        self.dart: list[Dart] = []
        self.head: list[Point] = []
        self.region: list[int] = []
        self.first: list[int] = []
        self.curve_family = curve_family
        self.degenerate_disks: list[str] = []  # the vertex of each symbolic disk
        self.branch_marks = 0

    def family(self, s: int) -> str:
        return self.curve_family[self.dart[s].curve]

    def tail(self, s: int) -> Point:
        return self.head[self.prv[s]]

    # -- construction ----------------------------------------------------

    def new_rings(self, regions: list[int], rings: list[tuple]) -> None:
        """One new face per (region, ring), bounded by the ring's sides.

        A ring is two columns: the darts its sides run over and their head
        points.  The rings take consecutive ids, one after the other: a
        ring of n sides at first id f has nxt f+1 ... f+n-1, f and prv
        f+n-1, f ... f+n-2, so each side's tail is the head of its prv.
        """
        darts, heads = zip(*rings) if rings else ((), ())
        sizes = list(map(len, darts))
        firsts = list(accumulate(sizes, initial=len(self.nxt)))
        f, end = firsts[0], firsts.pop()
        nxt, prv = self.nxt, self.prv
        nxt += range(f + 1, end + 1)
        prv += range(f - 1, end - 1)
        for first, n in zip(firsts, sizes):
            nxt[first + n - 1], prv[first] = first, first + n - 1
        faces = range(len(self.region), len(self.region) + len(rings))
        self.face += chain.from_iterable(map(repeat, faces, sizes))
        self.partner += [-1] * (end - f)
        self.dart += chain.from_iterable(darts)
        self.head += chain.from_iterable(heads)
        self.region += regions
        self.first += firsts

    def glue(self, a: int, b: int) -> None:
        partner = self.partner
        if partner[a] != -1 or partner[b] != -1:
            raise BuilderError("side already glued")
        partner[a], partner[b] = b, a

    # -- elementary queries ------------------------------------------------

    def is_corner(self, orbit: list[int]) -> bool:
        """Whether an open orbit is a surface corner: odd, at a diagram vertex."""
        return len(orbit) % 2 == 1 and self.head[orbit[0]][0] == "v"

    # -- corner orbits (vertex preimages) ------------------------------------

    def orbit(self, s: int) -> list[int]:
        """The corner orbit through corner(s), the corner between s and nxt(s).

        Each corner is named by its incoming side; the step to the next
        corner around the point crosses nxt(s) to its partner.  The walk
        goes forward from s only, so s must be the orbit's start: the free
        side that begins an open orbit (a side without partner is never
        reached by the step), or any side of a closed one, which is then
        returned from s.  A walk from a glued side that ends at a free end
        started inside an open orbit and raises ``BuilderError``.  So does
        a walk that grows longer than the complex has sides, which only a
        ``partner`` that is not an involution allows.  The module text says
        which walks use it, and why ``circles`` steps inline instead.
        """
        nxt, partner = self.nxt, self.partner
        orbit, cur = [s], partner[nxt[s]]
        while cur != -1 and cur != s:
            orbit.append(cur)
            if len(orbit) > len(nxt):
                raise BuilderError("corner orbit longer than the complex")
            cur = partner[nxt[cur]]
        if cur == -1 and partner[s] != -1:
            raise BuilderError("corner orbit walked from inside an open chain")
        return orbit

    def _free_sides(self) -> list[int]:
        """Every free side, in increasing id order."""
        return [s for s, p in enumerate(self.partner) if p == -1]

    def circles(self) -> tuple[list[list[list[int]]], bytearray]:
        """(circles, marks): the boundary circles, each as its open orbits in turn.

        Each free side starts one open orbit ``o``, and the circle goes on
        with the orbit that starts at the free side ``nxt[o[-1]]``.  The
        free sides are taken in id order, and a circle is walked from each
        one not yet met, so a circle starts at its smallest free side and
        the circles come in the order of those sides.  Each orbit is walked
        as ``orbit`` walks it, but inline, and each side is marked in the
        same step: ``marks`` has a 1 on every side met, so it is 0 exactly
        on the sides of the closed orbits.  The module text says why the
        steps are inline.  A step that meets a side already marked, which
        only a ``partner`` that is not an involution allows, raises
        ``BuilderError``.
        """
        nxt, partner = self.nxt, self.partner
        marks = bytearray(len(nxt))
        circles = []
        for s in self._free_sides():
            circle = []
            while not marks[s]:
                o = []
                while s != -1:
                    if marks[s]:
                        raise BuilderError("boundary walk met a side twice")
                    o.append(s)
                    marks[s] = 1
                    s = partner[nxt[s]]
                circle.append(o)
                s = nxt[o[-1]]
            if circle:
                circles.append(circle)
        return circles, marks

    def corner_classes(self) -> tuple[list[list[list[int]]], list[list[int]]]:
        """(circles, closed): every corner orbit, each walked once from its start.

        The open orbits are walked along the boundary circles (``circles``).
        The closed ones are then walked by ``orbit`` from each side not yet
        met, in id order, so each is met first at its smallest side and
        they come out sorted by it, each starting at that side.  A walk that
        ends at a free end started inside an open chain that ``circles``
        missed, and ``orbit`` raises ``BuilderError``.  The module text says
        why the two parts walk differently.
        """
        circles, marks = self.circles()
        closed: list[list[int]] = []
        s = marks.find(0)
        while s != -1:
            closed.append(o := self.orbit(s))
            for t in o:
                marks[t] = 1
            s = marks.find(0, s)
        return circles, closed

    def open_classes_at(self, pt: Point) -> list[list[int]]:
        """The open orbits at ``pt``, sorted by smallest side id."""
        head = self.head
        return sorted((self.orbit(s) for s in self._free_sides() if head[s] == pt), key=min)

    def class_slots(self, orbit: list[int]) -> tuple[int, list[int], int]:
        """(start free side, link sides, end free side) of an open class.

        The link between consecutive corners i, i+1 is the glued side
        nxt(orbit[i]); its tail sits at the class's vertex point.
        """
        nxt = self.nxt
        return orbit[0], [nxt[s] for s in orbit[:-1]], nxt[orbit[-1]]

    # -- surgery primitives -------------------------------------------------

    def subdivide(self, s: int, mid: Point) -> tuple[int, int]:
        """Split s at ``mid``; returns (s, new), its tail and head halves.

        s shortens to its tail half, and the head half takes a new id after
        it on the ring.  Both halves are left free: a caller that splits a
        glued side splits its partner too and glues the halves again.
        """
        new, nxt = len(self.nxt), self.nxt
        after = nxt[s]
        nxt.append(after)
        self.prv.append(s)
        nxt[s] = self.prv[after] = new
        self.partner[s] = -1
        self.partner.append(-1)
        self.face.append(self.face[s])
        self.dart.append(self.dart[s])
        self.head.append(self.head[s])
        self.head[s] = mid
        return s, new

    def slit_at_tail(self, s: int, mid: Point | None = None) -> tuple[int, int]:
        """Open the tail half of the glued side s; returns its two lips.

        s and its partner are both split at a cut point, and the halves
        over s's head half are glued again.  The lips run over the opened
        half: the first, s shortened to its tail half, from s's tail to the
        cut point on s's face, the second back from the cut point on the
        partner's face.  The far end of the slit is a boundary branch point
        counted in ``branch_marks``.  The cut point is named by the id its
        head half takes, the side that starts there.  Two parallel slits
        that will be cross-glued may share their cut point by passing
        ``mid`` explicitly.
        """
        p = self.partner[s]
        if p == -1:
            raise BuilderError("cannot slit a boundary side")
        if mid is None:
            mid = ("cut", len(self.nxt))
        tail_half, head_half = self.subdivide(s, mid)
        # s runs tail->head, its partner p head->tail over the same segment
        partner_tail, partner_head = self.subdivide(p, mid)
        self.glue(head_half, partner_tail)
        self.branch_marks += 1
        return tail_half, partner_head

    def glue_boundary(self, a: int, b: int) -> None:
        """Glue two boundary sides running over the same segment oppositely."""
        if (self.tail(a), self.head[a]) != (self.head[b], self.tail(b)):
            raise BuilderError("glue_boundary segment mismatch")
        self.glue(a, b)

    # -- components -----------------------------------------------------------

    def face_components(self) -> list[list[int]]:
        """The faces connected across glued sides, by smallest face id."""
        face, partner = self.face, self.partner
        glued = ((face[s], face[p]) for s, p in enumerate(partner) if p > s)
        return components(len(self.region), glued)


# ---------------------------------------------------------------------------
# The public report object


class BuiltSurface:
    """A stage of the construction and what it reports, read off its complex.

    The boundary and chi come from one walk of the corner orbits
    (``boundary``), and the corners and the boundary arcs are read off the
    boundary.  These and the face components are kept on the stage from
    their first read, so the contract, the JSON record and any other reader
    share them; the pushforward, the degenerate disks and the branch marks
    are read from the complex at each call.  So read a stage before
    passing it on.
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

    # -- what the stage reports --------------------------------------------

    @functools.cached_property
    def boundary(self) -> list[list[tuple[list[int], bool]]]:
        """The boundary circles, each as its open orbits with their corner marks.

        The walk is ``corner_classes``: it follows each boundary circle,
        orbit by orbit, and then walks the closed orbits.  It sets ``chi``
        too: the open and the closed orbits are the vertices, each open
        orbit starts at one free side, so E = (sides + free sides) / 2, and
        chi = V - E + F plus the degenerate disks.
        """
        surf = self.surface
        circles, closed = surf.corner_classes()
        opens = sum(map(len, circles))
        edges = (len(surf.nxt) + opens) // 2
        self.chi = opens + len(closed) - edges + len(surf.region) + len(surf.degenerate_disks)
        return [[(o, surf.is_corner(o)) for o in circle] for circle in circles]

    @functools.cached_property
    def chi(self) -> int:
        """The Euler characteristic, set by the walk of ``boundary``."""
        self.boundary
        return self.chi

    def pushforward(self) -> Domain:
        counts = [0] * len(self.diagram.regions)
        for region in self.surface.region:
            counts[region] += 1
        return Domain(tuple(counts))

    def corners(self) -> list[tuple[str, int]]:
        """The stage's surface corners (``_corners``); do not change them."""
        return self._corners

    @functools.cached_property
    def _corners(self) -> list[tuple[str, int]]:
        """(vertex, chain length) of the surface corners, plus degenerate disks.

        A corner is an open vertex class of odd length; after the cutting
        stage every odd class has length one.  Each symbolic degenerate disk
        contributes two corners at its vertex.
        """
        head, disks = self.surface.head, self.surface.degenerate_disks
        out = [(head[o[0]][1], len(o)) for comp in self.boundary for o, corner in comp if corner]
        return sorted(out + [(v, 1) for v in disks] * 2)

    def boundary_arcs(self) -> dict[str, list[dict]]:
        """The stage's boundary arcs (``_boundary_arcs``); do not change them."""
        return self._boundary_arcs

    @functools.cached_property
    def _boundary_arcs(self) -> dict[str, list[dict]]:
        """Maximal boundary arcs per curve, split at the surface corners."""
        arcs: dict[str, list[dict]] = {name: [] for name in self.surface.curve_family}
        dart = self.surface.dart
        for comp in self.boundary:
            # one pass: a run of free sides ends at each corner, and the
            # run that ends at the first corner is held back for the sides
            # after the last one, which continue it round the circle; a
            # cornerless circle is one run
            first, curve, n = None, None, 0
            for o, corner in comp:
                if (c := dart[o[0]].curve) != curve and n:
                    raise BuilderError("boundary arc crosses curves without a corner")
                curve, n = c, n + 1
                if corner:
                    if first is None:
                        first = curve, n
                    else:
                        arcs[curve].append({"sides": n, "circle": False})
                    n = 0
            if first is None:
                arcs[curve].append({"sides": n, "circle": True})
            elif n and curve != first[0]:
                raise BuilderError("boundary arc crosses curves without a corner")
            else:
                arcs[first[0]].append({"sides": first[1] + n, "circle": False})
        d = self.diagram
        for v in self.surface.degenerate_disks:
            arcs[d.vertex_alpha[v]].append({"sides": 1, "circle": False, "degenerate": True})
            arcs[d.vertex_beta[v]].append({"sides": 1, "circle": False, "degenerate": True})
        return arcs

    @functools.cached_property
    def component_count(self) -> int:
        return len(self.surface.face_components()) + len(self.surface.degenerate_disks)

    @functools.cached_property
    def chi_emb(self) -> Fraction:
        """The embedded chi g - n_x - n_y + e of the class; the S3 contract sets it."""
        return embedded_euler_char(self.diagram, self.domain, self.x, self.y)

    def delta(self) -> Fraction:
        """Implied double-point excess (chi - chi_emb)/2 of the class."""
        if self.x is None or self.y is None:
            raise PreconditionError("delta needs the generator pair")
        return Fraction(self.chi - self.chi_emb, 2)

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
            "degenerate_disks": len(self.surface.degenerate_disks),
            "branch_marks": self.surface.branch_marks,
            "pushforward": self.pushforward().format(),
        }
        if self.x is not None and self.y is not None:
            delta = self.delta()
            d["delta"] = str(delta)
            d["branch_budget"] = str(branch_budget(self.diagram.genus, d["chi"]))
        return d


# ---------------------------------------------------------------------------
# Stage S0: gluing the region copies


@functools.lru_cache(maxsize=4096)
def _sheet_pairs(family: str, p: int, q: int) -> tuple[tuple[int, int], ...]:
    """Sheets (m, m') glued across an arc with p sheets on one side, q on the other.

    Top-aligned on alpha arcs (the offset is the coefficient difference),
    bottom-aligned on beta arcs.  Kept per (family, p, q), since every
    build asks for the same few.
    """
    if family == BETA:
        return tuple((m, m) for m in range(1, min(p, q) + 1))
    off = q - p
    return tuple((m, m + off) for m in range(1, p + 1) if 1 <= m + off <= q)


def _s0_template(d: HeegaardDiagram) -> tuple[tuple, tuple, dict]:
    """(rings, seams, slots): what S0 and S4 read of ``d``, in (region, position) slots.

    ``rings`` holds each region's sides as two columns (darts, head points)
    in face-tracing order; ``seams`` holds one seam per forward dart, in
    ``darts()`` order, as (family, region, position, region', position'):
    the slots of the forward dart, which names its curve arc, and of the
    reversed dart across it; ``slots`` maps each dart to its slot.  Built
    on first use and kept on ``d``: diagrams are immutable, so the template
    never goes stale, and a mirror or a re-parsed diagram is a new instance
    that builds its own.
    """
    t = d.__dict__.get("_s0_template")
    if t is None:
        # face tracing puts the next dart of a region, rot^-1(rev d), at
        # the head of d
        pts = [tuple(("v", dart.vertex) for dart in r.darts) for r in d.regions]
        rings = tuple((r.darts, p[1:] + p[:1]) for r, p in zip(d.regions, pts))
        slot = {dart: (d.face_of[dart], i) for r in d.regions for i, dart in enumerate(r.darts)}
        arcs = [e for e in d.darts() if e.forward]
        seams = tuple((d.curve_family[e.curve], *slot[e], *slot[d.rev(e)]) for e in arcs)
        t = d._s0_template = (rings, seams, slot)  # type: ignore[attr-defined]
    return t


def _add_region_copies(surf: _Surface, d: HeegaardDiagram, a: Domain) -> list[int]:
    """One polygon per sheet of ``a``, glued along the curve arcs; their face ids.

    A region's sheets are consecutive faces, sheet 1 first.  They are
    instantiated from the diagram's template (``_s0_template``), region by region, so side ids
    run by region, then sheet, then ring position; each seam then glues the
    sheets ``_sheet_pairs`` gives, side by slot (the side at position i of
    sheet m of a region whose sheets start at id b and have n sides is
    b + (m - 1) n + i).  A region adjacent to itself across an arc follows
    the same rule, its two arc sides being two slots of one ring.  More
    than ``MAX_FACES`` sheets are refused before any is allocated.
    """
    faces, coeffs = len(surf.region), a.coeffs
    if (sheets := sum(coeffs)) > MAX_FACES:
        raise PreconditionError(f"{sheets} sheets exceed the {MAX_FACES}-face limit")
    rings, seams, _ = _s0_template(d)
    sizes = [len(ring[0]) for ring in rings]
    starts = list(accumulate(map(mul, coeffs, sizes), initial=len(surf.nxt)))
    regions = [r for r, n in enumerate(coeffs) for _ in range(n)]
    surf.new_rings(regions, [rings[r] for r in regions])
    glue = surf.glue
    for family, r, i, r2, i2 in seams:
        n, n2 = sizes[r], sizes[r2]
        b, b2 = starts[r] - n + i, starts[r2] - n2 + i2  # sheet 0's slots
        for m, m2 in _sheet_pairs(family, coeffs[r], coeffs[r2]):
            glue(b + m * n, b2 + m2 * n2)
    return list(range(faces, len(surf.region)))


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


def chains_at(built: BuiltSurface, v: str) -> list[tuple[str, int]]:
    """(kind, length) of each corner orbit at a crossing, at any stage.

    The orbits are those of one ``corner_classes`` walk that lie at
    ``("v", v)``, by smallest side id; an orbit is ``"open"`` when it
    starts at a free side, ``"closed"`` otherwise.
    """
    surf = built.surface
    circles, closed = surf.corner_classes()
    pt, head, partner = ("v", v), surf.head, surf.partner
    orbits = sorted((o for o in chain(*circles, closed) if head[o[0]] == pt), key=min)
    return [("open" if partner[o[0]] == -1 else "closed", len(o)) for o in orbits]


# The crossing of the local chain model: its four quadrants lie in four
# distinct regions and none of its arcs returns to it, so the sheets there
# are glued exactly as at any crossing with the same quadrant pattern.
# The tests hold real builds to this: at every crossing of the S0 build of
# every distinct positive domain of the corpus at box 3 (5,568 crossings,
# some with quadrants that share a region), ``chains_at`` has the same
# (kind, length) multiset as the model of the crossing's quadrant pattern.
_MODEL_DIAGRAM, _MODEL_VERTEX = "genus2_bigons.hd", "x2"


@functools.cache
def _model_diagram() -> HeegaardDiagram:
    return load_bundled(_MODEL_DIAGRAM)


def local_vertex_chains(coeffs: tuple[int, int, int, int]) -> list[tuple[str, int]]:
    """(kind, length) of the chains of a crossing whose sectors have these coefficients.

    Sector i sits counterclockwise between rotation darts i and i+1, alpha
    darts at 0 and 2.  The coefficients are put on the quadrant regions of
    a fixed crossing and the sheets glued by the stage-S0 routine, so this
    is the local model of any crossing with the given quadrant pattern.
    """
    if len(coeffs) != 4 or any(c < 0 for c in coeffs):
        raise PreconditionError("need four nonnegative sector coefficients")
    d = _model_diagram()
    counts = [0] * len(d.regions)
    for region, c in zip(d.quadrants_at(_MODEL_VERTEX), coeffs):
        counts[region] = c
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
    """Slit every corner chain of length 2m+1 >= 3 down to one right angle.

    The chains are the odd open orbits at diagram vertices, read off the
    boundary circles (``_Surface.circles``, which walks no closed orbit)
    and taken by smallest side id.  One pass over the chains found at the
    start is enough.  A slit cuts only its own chain, into one right angle
    and smooth length-2 pieces; at the far end of the slit edge a glued
    half takes the place of a glued side, so every other orbit keeps its
    length.  No free side is subdivided, so each chain is walked again
    from its free start side.
    """
    circles, _ = surf.circles()
    chains = (o for circle in circles for o in circle if len(o) >= 3 and surf.is_corner(o))
    for start in [o[0] for o in sorted(chains, key=min)]:
        start_free, links, end_free = surf.class_slots(surf.orbit(start))
        fam_start = surf.family(start_free)
        if fam_start == surf.family(end_free):
            raise BuilderError("odd chain with equal end families")
        if fam_start != ALPHA:
            links = list(reversed(links))
        for i in range(0, len(links), 2):
            if surf.family(links[i]) == ALPHA:
                raise BuilderError("cut scheduled along an alpha link")
            surf.slit_at_tail(links[i])


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

    No grind follows the slit: at a point of both generators the sector
    pattern is that of an interior point, so its open chains have length
    two, and one slit leaves two right angles.  An input that broke this
    would fail the right-angle clause of the stage-S3 contract.
    """
    d = built.diagram
    _records(d, x, y)  # raises unless both are generators of d
    surf = built.surface
    shared = [v for v in x.points if v in y.points]
    for v in shared:
        open_here = surf.open_classes_at(("v", v))
        if not open_here:
            surf.degenerate_disks.append(v)
            continue
        orbit = open_here[0]
        if len(orbit) % 2 == 1:
            raise BuilderError("shared generator point already has a corner")
        _, links, _ = surf.class_slots(orbit)
        surf.slit_at_tail(links[0])
    return BuiltSurface("S2", d, built.domain, surf, x, y)


# ---------------------------------------------------------------------------
# Stage S3: splicing boundary circles into the arcs


def splice_boundary_circles(built: BuiltSurface) -> BuiltSurface:
    """Stage S3: merge every boundary circle lying over one curve into the
    boundary arc of that curve.

    For a circle over an alpha curve, a slit is made along a beta arc
    preimage at the circle's passage over the outgoing generator's point on
    that curve, and one lip of the slit is glued to the matching side of
    the corner there; beta circles are treated symmetrically.  The splices
    are made in ``built``'s complex.  Each round makes the S3 stage of the
    complex and looks for the circle in its ``boundary``; the round that
    finds none returns its stage, since no surgery follows it, so that walk
    is made once.  Each splice removes one circle, and the complex starts
    with no more circles than sides (each circle has free sides of its
    own), so one round more than it has sides is enough; running out of
    rounds raises ``BuilderError``.

    No grind follows a splice: both splice moves take corners of length
    one and passages of length two to corners of length one and passages
    of length two.  An input that broke this would fail the right-angle
    clause of the stage-S3 contract.
    """
    if built.x is None:
        raise PreconditionError("splice needs the generator pair")
    d = built.diagram
    surf = built.surface
    for _ in range(len(surf.nxt) + 1):
        s3 = BuiltSurface("S3", d, built.domain, surf, built.x, built.y)
        # a component over one curve is one without corners: the two free
        # sides of an orbit at a vertex lie over curves of different
        # families exactly when the orbit is odd, and at a cut point both
        # lie over the slit's dart
        circle = next((c for c in s3.boundary if not any(k for _, k in c)), None)
        if circle is None:
            return s3
        sides = [o[0] for o, _ in circle]
        curve = surf.dart[sides[0]].curve
        fam = d.curve_family[curve]
        table = d.vertex_alpha if fam == ALPHA else d.vertex_beta
        v = next((v for v in built.x.points if table[v] == curve), None)
        if v is None:
            raise BuilderError(f"generator misses curve {curve}")
        _splice_circle(surf, d, sides, v, fam)
    raise BuilderError("splicing does not terminate")


def _dart_at(d: HeegaardDiagram, surf: _Surface, s: int, pt: Point) -> Dart:
    """The diagram dart of side s as seen from the vertex point ``pt``."""
    if surf.tail(s) == pt:
        return surf.dart[s]
    if surf.head[s] == pt:
        return d.rev(surf.dart[s])
    raise BuilderError("side does not touch the vertex point")


def _splice_circle(surf: _Surface, d: HeegaardDiagram, circle: list[int], v: str, fam: str) -> None:
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
    open_here = surf.open_classes_at(pt)
    other_family = BETA if fam == ALPHA else ALPHA
    circle_ids = set(circle)
    links = [
        link
        for orbit in open_here
        if len(orbit) % 2 == 0 and orbit[0] in circle_ids
        for link in surf.class_slots(orbit)[1]
        if surf.family(link) == other_family
    ]
    # corner-mate move
    for link in links:
        for corner in open_here:
            if len(corner) % 2 == 0:
                continue
            k_in, _, k_out = surf.class_slots(corner)
            for k_side in (k_in, k_out):
                if _dart_at(d, surf, k_side, pt) == surf.dart[link]:
                    _glue_to_lip(surf, k_side, surf.slit_at_tail(link), pt)
                    return
    # parallel-passage move
    for link in links:
        for other in open_here:
            if len(other) % 2 == 1 or other[0] in circle_ids:
                continue
            for olink in surf.class_slots(other)[1]:
                if surf.dart[olink] == surf.dart[link]:
                    tail_lip, head_lip = surf.slit_at_tail(link)
                    otail_lip, ohead_lip = surf.slit_at_tail(olink, surf.head[tail_lip])
                    surf.glue_boundary(tail_lip, ohead_lip)
                    surf.glue_boundary(otail_lip, head_lip)
                    return
    raise BuilderError(f"no matching corner side to splice at {v}")


def _glue_to_lip(
    surf: _Surface, k_side: int, lips: tuple[int, int], pt: Point
) -> None:
    """Glue the corner side ``k_side`` to the matching lip of a slit at ``pt``.

    ``lips`` are the two lips of a slit made at the tail of a link over the
    same dart as ``k_side``; ``k_side`` is a boundary side of a corner at
    ``pt``, pointing into or out of it.  It is subdivided at the slit's cut
    point and the half at ``pt`` is glued to the lip running the other way.
    """
    tail_lip, head_lip = lips
    mid = surf.head[tail_lip]
    if surf.head[k_side] == pt:
        _, second = surf.subdivide(k_side, mid)
        surf.glue_boundary(second, tail_lip)
    elif surf.tail(k_side) == pt:
        first, _ = surf.subdivide(k_side, mid)
        surf.glue_boundary(first, head_lip)
    else:
        raise BuilderError("corner side does not touch the vertex")


# ---------------------------------------------------------------------------
# The stage contract


def stage_contract(built: BuiltSurface) -> list[str]:
    """The ways ``built`` breaks its stage contract; empty when it holds.

    Stage S4: connected, 2g corners, pushforward equal to its domain (the
    class plus the full surface class), and the Euler law
    chi(S4) = chi(S3) + 2 - 4g - 2gL, where L counts the closed layers of
    the S3 surface (``s3_chi`` and ``closed_layers``, which
    ``stabilized_surface`` records): the fresh surface copy adds 2 - 2g,
    and cutting it and each closed layer open at the g points of x costs 2
    per point.  These clauses imply every flag of the branched-cover
    bookkeeping that ``hdindex stabilize`` reports.  Any other stage is
    held to the stage-S3 contract: 2g corners, all right angles; one
    boundary arc per curve; pushforward equal to the domain; chi congruent
    mod 2 to the embedded Euler characteristic of the class.
    """
    d = built.diagram
    corners = built.corners()
    problems = []
    if len(corners) != 2 * d.genus:
        problems.append(f"{len(corners)} corners, wanted {2 * d.genus}")
    if built.pushforward() != built.domain:
        problems.append("pushforward differs from the domain")
    if built.stage == "S4":
        if built.component_count != 1:
            problems.append("not connected")
        g = d.genus
        want = built.s3_chi + 2 - 4 * g - 2 * g * built.closed_layers
        if built.chi != want:
            problems.append(f"chi {built.chi} breaks the Euler law chi(S3) + 2 - 4g - 2gL = {want}")
        return problems
    if any(length != 1 for _, length in corners):
        problems.append("corner with angle above a right angle")
    for curve, arcs in built.boundary_arcs().items():
        if len(arcs) != 1 or arcs[0].get("circle"):
            problems.append(f"boundary over {curve} is not one arc")
    # taken afresh, since this is the check, and kept for ``delta``
    built.chi_emb = chi_emb = embedded_euler_char(d, built.domain, built.x, built.y)
    if chi_emb.denominator != 1 or (built.chi - chi_emb.numerator) % 2:
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

    Degenerate disks are dropped; a fresh copy of the whole surface, glued
    into the S3 complex by the stage-S0 routine (``_add_region_copies``),
    is cut open at every point of x (two slits along the alpha curve, one
    along the beta curve) and chained onto the corners there.  Closed
    components of the stage-3 surface (full-surface layers of the domain)
    are opened at the same points and joined into the same chain, so the
    result is connected with pushforward A plus the surface class.  The closed
    components are those without a free side, and the faces with one are
    read off the S3 stage's ``boundary``, since every free side starts one
    of its open orbits.  The corner each point v of x chains onto is read
    off that walk too: the S3 corner orbit at v with the smallest side id.
    The walk is still sound there after the cuts at the earlier points v'
    of x, which touch only sides over the curves through v'; no such curve
    meets v, since x has one point on each curve.  The stage-S4 contract
    is enforced, with the chi of the stage-3 surface and its number of
    closed layers recorded on the result for its Euler law.
    """
    if d.genus <= 1:
        raise PreconditionError(
            f"stabilization needs genus at least 2; this diagram has genus {d.genus}"
        )
    s3 = build_surface(d, a, x, y)
    surf = s3.surface
    surf.degenerate_disks = []

    # a layer is a face per region, in region order
    free_faces = {surf.face[o[0]] for circle in s3.boundary for o, _ in circle}
    closed_layers = [
        sorted(comp, key=surf.region.__getitem__)
        for comp in surf.face_components()
        if free_faces.isdisjoint(comp)
    ]
    for layer in closed_layers:
        if [surf.region[f] for f in layer] != list(range(len(d.regions))):
            raise BuilderError("closed component is not a single surface layer")

    sigma = sigma_class(d)
    layers = closed_layers + [_add_region_copies(surf, d, sigma)]
    # a point of x with no S3 corner (a dropped degenerate disk) starts its
    # chain inside the first layer
    s3_corners = [o for circle in s3.boundary for o, corner in circle if corner]
    for v in x.points:
        pending = min((o for o in s3_corners if surf.head[o[0]] == ("v", v)), key=min, default=None)
        for layer in layers:
            pending = _cut_layer_and_chain(surf, d, layer, v, pending)
    s4 = BuiltSurface("S4", d, a + sigma, surf, x, y)
    s4.s3_chi, s4.closed_layers = s3.chi, len(closed_layers)
    return _enforce_contract(s4)


def _layer_side(d: HeegaardDiagram, surf: _Surface, layer: list[int], dart: Dart, pt: Point) -> int:
    """The layer's side over ``dart`` whose tail sits at ``pt``.

    It is read by slot (``_s0_template``): the first id of the layer's
    sheet of the dart's region plus the dart's position in the region's
    ring.  A cut there only shortens that side to its tail half, which
    keeps the id.
    """
    r, i = _s0_template(d)[2][dart]
    s = surf.first[layer[r]] + i
    if surf.tail(s) != pt or surf.dart[s] != dart:
        raise BuilderError(f"layer has no side over {dart} at {pt}")
    return s


def _cut_layer_and_chain(
    surf: _Surface,
    d: HeegaardDiagram,
    layer: list[int],
    v: str,
    pending: list[int] | None,
) -> list[int]:
    """Cut one layer open at v and glue the pending corner into the cut.

    An opening cut (no corner to receive, the replacement for a dropped
    degenerate disk) slits along both alpha half-darts and one beta
    half-dart, leaving two corners.  A receiving cut slits exactly along
    the two free darts of the received corner; the corner then closes the
    three remaining sectors into a smooth interior point.  Either way the
    layer is left with a fresh corner for the next layer up the chain.

    Before the cut the layer has no free side at v: it is cut at each
    point of x once, and it has free sides only at the points it was cut
    at and at cut points.  So after the cut its free sides at v are the
    lips that run back to v and received no corner side, and the fresh
    corner is the first odd orbit among theirs, by smallest side id.
    """
    pt = ("v", v)
    if pending is not None:
        k_in, _, k_out = surf.class_slots(pending)
        # both darts leave v, so tuple order is (curve, forward)
        cuts = sorted({_dart_at(d, surf, k_in, pt), _dart_at(d, surf, k_out, pt)})
        if len(cuts) != 2:
            raise BuilderError("pending corner with degenerate free darts")
    else:
        alpha, beta = d.vertex_alpha[v], d.vertex_beta[v]
        cuts = [Dart(v, alpha, True), Dart(v, alpha, False), Dart(v, beta, True)]
    lips: dict[Dart, tuple[int, int]] = {}
    for dart in cuts:
        lips[dart] = surf.slit_at_tail(_layer_side(d, surf, layer, dart, pt))
    if pending is not None:
        # glue the pending corner's two sides into the matching lips
        for k_side in (k_in, k_out):
            _glue_to_lip(surf, k_side, lips[_dart_at(d, surf, k_side, pt)], pt)
    free_lips = [lip for _, lip in lips.values() if surf.partner[lip] == -1]
    corners = [o for o in map(surf.orbit, free_lips) if len(o) % 2]
    if not corners:
        raise BuilderError("layer cut produced no corner")
    return min(corners, key=min)


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
    per_component = [sum(corner for _, corner in comp) for comp in s4.boundary]
    total = sum(per_component)
    budget = branch_budget(g, s4.chi)
    report = {
        "corner_halves": [str(Fraction(n, 2)) for n in per_component],
        "corner_halves_sum": str(Fraction(total, 2)),
        "corner_halves_sum_is_genus": total == 2 * g,
        "all_components_even": all(n % 2 == 0 for n in per_component),
        "branch_budget": str(budget),
        "branch_budget_ok": budget >= 0 and budget.denominator == 1,
        "connected": s4.component_count == 1,
    }
    flags = ("corner_halves_sum_is_genus", "all_components_even", "branch_budget_ok", "connected")
    report["ok"] = all(report[flag] for flag in flags)
    return report

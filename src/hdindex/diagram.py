"""Combinatorial Heegaard diagrams: parsing, face tracing, validation.

A diagram is stored as two families of closed curves (alpha and beta) on an
oriented closed surface, given by the cyclic sequences of their transverse
crossings, plus a local crossing sign at every crossing.  That is the one
description of the curves: an edge (an arc of a curve between consecutive
crossings) is named by its forward dart at its tail, and edge reversal
pairs that dart with the backward one at its head.  Everything else --
the rotation system, the regions (faces), the genus -- is derived by the
:class:`HeegaardDiagram` constructor, which traces the faces and fills
``face_of`` in the same walk; all derived quantities are exact integers or
rationals.

Orientation conventions (fixed once, globally):

* sign ``+`` at a vertex means the counterclockwise dart order is
  (alpha-forward, beta-forward, alpha-backward, beta-backward);
  sign ``-`` swaps the two beta darts.
* faces are orbits of (rotation^-1 . edge-reversal), so region boundaries
  run counterclockwise and each dart has the region containing it on its
  left.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

ALPHA = "alpha"
BETA = "beta"

_SIGN_TOKENS = {"+": 1, "-": -1}


class DiagramError(ValueError):
    """Unparseable or structurally broken diagram input.

    An error raised while parsing a text file starts its message with the
    1-based number of the offending line (``line N: ...``).
    """


class Dart(NamedTuple):
    """One of the four edge-germs at a crossing.

    ``forward`` means the dart leaves ``vertex`` in the direction the curve
    is listed; the edge-reversal involution pairs it with the backward dart
    at the next vertex along the curve.
    """

    vertex: str
    curve: str
    forward: bool

    def __repr__(self) -> str:  # compact, used in error messages and tests
        arrow = ">" if self.forward else "<"
        return f"{self.vertex}{arrow}{self.curve}"


class Region(NamedTuple):
    """A face of the traced surface: a disk with ``corner_count`` corners."""

    index: int
    darts: tuple[Dart, ...]

    @property
    def corner_count(self) -> int:
        return len(self.darts)

    @property
    def name(self) -> str:
        return f"r{self.index}"


class Violation(NamedTuple):
    code: str
    message: str


class HeegaardDiagram:
    """A validated-on-construction combinatorial map with curve labels.

    Immutable by convention: all attributes are set during construction and
    never mutated afterwards, so instances are safe to share freely.

    ``vertex_alpha`` and ``vertex_beta`` map each vertex to the name of
    its curve in that family; an edge is named by its forward dart, whose
    left and right regions are ``face_of`` of it and of its ``rev``.
    Construction derives the rotation system, traces the faces (filling
    ``face_of``, each dart's region id, in the same walk), and computes the
    genus.  Structural defects (a vertex missing a sign, a vertex not on
    exactly one curve of each family, ...) raise :class:`DiagramError`;
    semantic defects (genus mismatch, disconnected complement, ...) are
    reported by :func:`validate_diagram` instead.
    """

    def __init__(
        self,
        alpha: Sequence[tuple[str, Sequence[str]]],
        beta: Sequence[tuple[str, Sequence[str]]],
        signs: dict[str, int],
    ):
        if not alpha:
            raise DiagramError("no alpha curves")
        if not beta:
            raise DiagramError("no beta curves")
        self.alpha: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
            (name, tuple(vs)) for name, vs in alpha
        )
        self.beta: tuple[tuple[str, tuple[str, ...]], ...] = tuple(
            (name, tuple(vs)) for name, vs in beta
        )
        self.signs: dict[str, int] = dict(signs)

        # Vertex -> curve name per family, and curve -> family.  The
        # canonical vertex order is the order of first appearance in the
        # alpha family.
        self.vertex_alpha: dict[str, str] = {}
        self.vertex_beta: dict[str, str] = {}
        self.curve_family: dict[str, str] = {}
        for family, curves, table in (
            (ALPHA, self.alpha, self.vertex_alpha),
            (BETA, self.beta, self.vertex_beta),
        ):
            for name, vs in curves:
                if name in self.curve_family:
                    raise DiagramError(f"duplicate curve name {name!r}")
                if not vs:
                    raise DiagramError(f"{family} curve {name!r} has no vertices")
                self.curve_family[name] = family
                for v in vs:
                    if v in table:
                        raise DiagramError(f"vertex {v!r} listed twice in the {family} family")
                    table[v] = name
        for v in self.vertex_alpha:
            if v not in self.vertex_beta:
                raise DiagramError(f"vertex {v!r} is not on any beta curve")
        for v in self.vertex_beta:
            if v not in self.vertex_alpha:
                raise DiagramError(f"vertex {v!r} is not on any alpha curve")
        self.vertices: tuple[str, ...] = tuple(self.vertex_alpha)

        for v in self.vertices:
            if v not in self.signs:
                raise DiagramError(f"missing sign for vertex {v!r}")
        for v in self.signs:
            if v not in self.vertex_alpha:
                raise DiagramError(f"sign given for unknown vertex {v!r}")
        if any(s not in (1, -1) for s in self.signs.values()):
            raise DiagramError("signs must be +1 or -1")

        # Rotation system: counterclockwise dart order at every vertex, and
        # each dart's predecessor in that order (rotation^-1).
        self.rotation: dict[str, tuple[Dart, Dart, Dart, Dart]] = {}
        rot_prev: dict[Dart, Dart] = {}
        for v in self.vertices:
            ac, bc = self.vertex_alpha[v], self.vertex_beta[v]
            af = Dart(v, ac, True)
            ab = Dart(v, ac, False)
            bf = Dart(v, bc, True)
            bb = Dart(v, bc, False)
            rot = (af, bf, ab, bb) if self.signs[v] == 1 else (af, bb, ab, bf)
            self.rotation[v] = rot
            for i, d in enumerate(rot):
                rot_prev[d] = rot[i - 1]

        # Edge reversal: each edge of a curve runs from a listed vertex to
        # the next, and pairs the forward dart at its tail with the
        # backward dart at its head.
        self._rev: dict[Dart, Dart] = {}
        for name, vs in self.alpha + self.beta:
            for tail, head in zip(vs, vs[1:] + vs[:1]):
                fwd, back = Dart(tail, name, True), Dart(head, name, False)
                self._rev[fwd] = back
                self._rev[back] = fwd

        # Faces are the orbits of the face step (rotation^-1 . edge-reversal);
        # every dart lies in exactly one.  Region ids are assigned in order
        # of first discovery when darts are iterated canonically (darts()),
        # which makes them stable across runs and across re-serialization.
        # face_of is filled as the walk meets each dart and serves as the
        # visited set; each region lists its orbit from its first dart.
        face_of: dict[Dart, int] = {}
        regions: list[Region] = []
        for d in self.darts():
            orbit = []
            while d not in face_of:
                face_of[d] = len(regions)
                orbit.append(d)
                d = rot_prev[self._rev[d]]
            if orbit:
                regions.append(Region(len(regions), tuple(orbit)))
        self.face_of: dict[Dart, int] = face_of
        self.regions: tuple[Region, ...] = tuple(regions)

        v_count = len(self.vertices)
        e_count = 2 * v_count
        f_count = len(self.regions)
        chi = v_count - e_count + f_count
        assert chi % 2 == 0, "a rotation system always traces a closed oriented surface"
        self.genus: int = (2 - chi) // 2

    # -- basic combinatorial maps ----------------------------------------

    def rev(self, d: Dart) -> Dart:
        """Edge reversal: the matching dart at the other end of d's edge."""
        return self._rev[d]

    def darts(self) -> Iterator[Dart]:
        """All darts in canonical order (family, curve, position, sense)."""
        for name, vs in self.alpha + self.beta:
            for v in vs:
                yield Dart(v, name, True)
                yield Dart(v, name, False)

    def quadrants_at(self, v: str) -> tuple[int, ...]:
        """The region ids of the four sectors at v, in rotation order.

        Sector ``i`` lies counterclockwise between rotation dart ``i`` and
        dart ``i+1``; it belongs to the region whose boundary walk contains
        dart ``i`` (and with it ``rev(dart i+1)``).
        """
        if v not in self.vertex_alpha:
            raise DiagramError(f"unknown vertex {v!r}")
        return tuple(self.face_of[dart] for dart in self.rotation[v])

    def region_census(self) -> tuple[int, ...]:
        return tuple(sorted(r.corner_count for r in self.regions))

    def __repr__(self) -> str:
        return (
            f"HeegaardDiagram(genus={self.genus}, vertices={len(self.vertices)}, "
            f"regions={self.region_census()})"
        )


def validate_diagram(d: HeegaardDiagram) -> list[Violation]:
    """Check the semantic invariants; returns an ordered, deterministic report.

    An empty report means the diagram is a genuine Heegaard diagram for our
    purposes: curve counts match the traced genus, the traced surface is
    connected, and the complement of each curve family is connected.
    """
    out: list[Violation] = []
    if len(d.alpha) != len(d.beta):
        out.append(
            Violation(
                "curve-count",
                f"curve count mismatch: {len(d.alpha)} alpha vs {len(d.beta)} beta",
            )
        )
    if d.genus != len(d.alpha):
        out.append(
            Violation(
                "genus-mismatch",
                f"traced genus {d.genus} != curve count {len(d.alpha)}",
            )
        )
    # a closed surface traced from a rotation system is connected exactly
    # when its regions are connected across edges
    n = len(d.regions)
    f = d.face_of
    sides = [(d.curve_family[e.curve], f[e], f[d.rev(e)]) for e in d.darts() if e.forward]
    if len(components(n, [(a, b) for _, a, b in sides])) > 1:
        out.append(Violation("disconnected", "traced surface is disconnected"))
    for family, code in ((ALPHA, "alpha-complement"), (BETA, "beta-complement")):
        # the surface cut along the family: regions glued across the other one
        if len(components(n, [(a, b) for f, a, b in sides if f != family])) > 1:
            out.append(
                Violation(code, f"complement of the {family} curves is disconnected")
            )
    return out


def components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """The classes of 0..n-1 joined by ``pairs``, by first member (union-find).

    Each class lists its members in increasing order.  Every walk to a root
    halves its path, the final pass's too: a final pass that only read the
    parents would walk a long chain once per member, quadratic on a path.
    """
    parent = list(range(n))
    for a, b in pairs:
        while (p := parent[a]) != a:
            parent[a] = a = parent[p]
        while (p := parent[b]) != b:
            parent[b] = b = parent[p]
        if a != b:
            parent[a] = b
    classes: dict[int, list[int]] = {}
    for i in range(n):
        r = i
        while (p := parent[r]) != r:
            parent[r] = r = parent[p]
        classes.setdefault(r, []).append(i)
    return list(classes.values())


# ---------------------------------------------------------------------------
# Text format


def parse_diagram(text: str) -> HeegaardDiagram:
    """Parse the line-oriented diagram format.

    Lines: ``# comment``, ``alpha <name>: v1 v2 ... vk`` (cyclic),
    ``beta <name>: ...``, ``sign <vertex>: +|-``.  Every vertex needs exactly
    one sign line.  Raises :class:`DiagramError` with a line number on the
    first defect.
    """
    alpha: list[tuple[str, list[str]]] = []
    beta: list[tuple[str, list[str]]] = []
    signs: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, colon, rest = line.partition(":")
        head_tokens = head.split()
        if len(head_tokens) != 2 or not colon:
            if head_tokens and head_tokens[0] in (ALPHA, BETA, "sign"):
                raise DiagramError(f"line {lineno}: expected '{head_tokens[0]} <name>: ...'")
            raise DiagramError(f"line {lineno}: unknown token {line.split()[0]!r}")
        kind, name = head_tokens
        body = rest.split()
        if kind in (ALPHA, BETA):
            if not body:
                raise DiagramError(f"line {lineno}: curve {name!r} has no vertices")
            (alpha if kind == ALPHA else beta).append((name, body))
        elif kind == "sign":
            if name in signs:
                raise DiagramError(f"line {lineno}: duplicate sign for vertex {name!r}")
            if len(body) != 1 or body[0] not in _SIGN_TOKENS:
                raise DiagramError(f"line {lineno}: sign for {name!r} must be + or -")
            signs[name] = _SIGN_TOKENS[body[0]]
        else:
            raise DiagramError(f"line {lineno}: unknown token {kind!r}")
    return HeegaardDiagram(alpha, beta, signs)


def load_bundled(name: str) -> HeegaardDiagram:
    """Parse one of the diagrams shipped with the package."""
    # imported here, not at the top: only ``check`` and the local crossing
    # model read bundled data, so the other verbs start without it
    from importlib import resources

    text = resources.files("hdindex.data").joinpath(name).read_text()
    return parse_diagram(text)

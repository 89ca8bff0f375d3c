"""Generators, domains and their boundary algebra.

A domain is an integer vector indexed by the regions of a diagram (a
relative 2-chain).  Its boundary along the alpha and beta curves, and the
vertex boundary of that 1-chain, decide whether the domain connects one
generator to another: the alpha vertex boundary is M . A for the diagram's
integer boundary matrix M (see the sign convention for the beta one).

M is factored once per diagram, exactly and in integers: the row-echelon
form of [M^T | I] is [H | U], so U . M^T = H with U unimodular, and the
rows of U beside the vanishing rows of H are a basis of the periodic
lattice ker M, in echelon form with positive pivots.  No entry above a
pivot is reduced: every echelon basis spans the same lattice, and the
class keys and the domain walks below need only the echelon shape and
the positive pivots.  The factorization is cached on the diagram
instance.  Each generator x is reduced once per diagram, by forward
substitution on H: its point vector leaves a canonical residue modulo
im M, its class key, and a potential a(x) with M . a(x) = x - key.  A
domain from x to y exists exactly when the two keys are equal, and then
a(y) - a(x) is an integral particular solution; the kernel basis is
walked exhaustively from it inside the coefficient box.

``connects`` tests M . A = y - x as one integer dot product.  Each column
of M is packed into one Python int with a signed 32-bit field per vertex
row, and so is each generator's point vector.  Packing is Z-linear, and
injective on vectors whose entries lie in (-2^31, 2^31).  Every row of M
has absolute sum at most 4 (two alpha edges, each giving +-1 to the
regions on its two sides), so while every coefficient of A lies strictly
between -2^28 and 2^28 each entry of M . A - (y - x) is at most
4 (2^28 - 1) + 1 < 2^31 in absolute value, and the packed sums are equal
exactly when the vectors are.  That bound is the budget ``MAX_COEFF``:
``connects`` refuses a domain with a larger coefficient, since its packed
product could collide.

The factorization is dense and costs more than the cube of the crossing
count, so ``_lattice`` refuses a diagram of more than ``MAX_CROSSINGS``
crossings before it builds the matrix; every index quantity, domain
search and surface build reads the lattice, and ends in that
``PreconditionError``.

Sign convention (fixed): with the counterclockwise surface orientation an
edge oriented along its curve's listed direction gets the coefficient
(left region) - (right region), and ``connects(A, x, y)`` demands the vertex
boundary of the alpha part be y - x and of the beta part be x - y.  The
boundary of a 2-chain is a cycle, so its alpha and beta parts have opposite
vertex boundaries and the beta condition follows from the alpha one: M
holds the alpha block only.
"""

from __future__ import annotations

from operator import add, mul
from typing import Mapping, NamedTuple

from hdindex.diagram import Dart, DiagramError, HeegaardDiagram

_PACK_BITS = 32  # the width of one vertex row's field in a packed column
MAX_COEFF = (1 << 28) - 1  # the largest coefficient magnitude ``connects`` tests
MAX_POINTS = 1 << 20  # the most box points one ``find_domains`` walk may visit
MAX_GENERATORS = 1 << 16  # the most partial matchings ``enumerate_generators`` may hold
MAX_CROSSINGS = 1 << 8  # the most crossings ``_lattice`` factors


class PreconditionError(ValueError):
    """An operation was called outside its contract (bad domain, genus...)."""


def parse_int(text: str) -> int:
    """The integer ``text`` spells, as ``str`` writes one: ASCII digits with
    an optional leading ``-`` and no leading zero.

    Python's ``int`` also reads ``+3``, ``1_0``, ``03``, blanks around the
    digits and non-ASCII digits; each of those raises ``ValueError`` here.
    """
    if str(value := int(text)) != text:
        raise ValueError(f"not a plain decimal integer: {text!r}")
    return value


class Domain(NamedTuple):
    """Integer coefficients on the regions, in canonical region order."""

    coeffs: tuple[int, ...]

    def __getitem__(self, region: int) -> int:
        return self.coeffs[region]

    def __add__(self, other: "Domain") -> "Domain":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("domains live on different diagrams")
        return Domain(tuple(map(add, self.coeffs, other.coeffs)))

    def __mul__(self, k: int) -> "Domain":
        return Domain(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def format(self) -> str:
        """Compact text form ``r<k>:<int>,...``; omitted regions are 0."""
        parts = [f"r{i}:{c}" for i, c in enumerate(self.coeffs) if c != 0]
        return ",".join(parts) if parts else "0"

    @staticmethod
    def parse(d: HeegaardDiagram, text: str) -> "Domain":
        """Parse ``r<k>:<int>`` pairs separated by commas; ``0`` is the zero domain.

        Each region is named at most once, as ``format`` writes it.
        """
        coeffs = [0] * len(d.regions)
        text = text.strip()
        if text in ("", "0"):
            return Domain(tuple(coeffs))
        seen = set()
        for part in text.split(","):
            part = part.strip()
            name, sep, value = part.partition(":")
            if not name.startswith("r") or not sep:
                raise DiagramError(f"bad domain term {part!r}")
            try:
                idx = int(name[1:])
                c = parse_int(value)
            except ValueError:
                raise DiagramError(f"bad domain term {part!r}") from None
            if name != f"r{idx}":
                raise DiagramError(f"region {name!r} should be written r{idx}")
            if not 0 <= idx < len(coeffs):
                raise DiagramError(f"unknown region {name!r}")
            if idx in seen:
                raise DiagramError(f"region {name!r} given twice")
            seen.add(idx)
            coeffs[idx] = c
        return Domain(tuple(coeffs))


class Generator(NamedTuple):
    """One intersection point per alpha curve, forming a matching with the betas."""

    points: tuple[str, ...]  # indexed by alpha-curve position

    def format(self) -> str:
        return ",".join(self.points)

    @staticmethod
    def parse(d: HeegaardDiagram, text: str) -> "Generator":
        pts = tuple(p.strip() for p in text.split(","))
        g = Generator(pts)
        check_generator(d, g)
        return g


def check_generator(d: HeegaardDiagram, g: Generator) -> None:
    """Raise DiagramError unless g is a valid generator of d."""
    if len(g.points) != len(d.alpha):
        raise DiagramError(
            f"generator needs {len(d.alpha)} points, got {len(g.points)}"
        )
    betas_used: set[str] = set()
    for i, (aname, _) in enumerate(d.alpha):
        v = g.points[i]
        if v not in d.vertex_alpha:
            raise DiagramError(f"unknown vertex {v!r} in generator")
        if d.vertex_alpha[v] != aname:
            raise DiagramError(f"vertex {v!r} is not on alpha curve {aname!r}")
        bname = d.vertex_beta[v]
        if bname in betas_used:
            raise DiagramError(
                f"generator uses beta curve {bname!r} twice (not a matching)"
            )
        betas_used.add(bname)


def connects(d: HeegaardDiagram, a: Domain, x: Generator, y: Generator) -> bool:
    """True iff ``a`` is a strip class from x to y.

    Demands that the vertex boundary of the alpha part of the boundary of
    ``a`` be y - x and that of the beta part x - y, as 0-chains.  The
    second follows from the first, so this is M . a = y - x for the
    diagram's cached alpha boundary matrix M: one dot product of the
    coefficients with M's packed columns against the difference of the two
    generators' packed points.  It is exact while every coefficient of
    ``a`` lies within +-``MAX_COEFF``, by the row-sum bound of the module
    text; a domain with a larger coefficient is refused.
    """
    lat, rx, ry = _records(d, x, y)
    _check_domain(d, a)  # before ``map``, which would stop at a short domain
    coeffs = a.coeffs
    if not (-MAX_COEFF <= min(coeffs) and max(coeffs) <= MAX_COEFF):
        m = max(map(abs, coeffs))
        raise PreconditionError(f"coefficient magnitude {m} exceeds the {MAX_COEFF} limit")
    return sum(map(mul, lat.packed, coeffs)) == ry.packed - rx.packed


def is_positive(a: Domain) -> bool:
    return all(c >= 0 for c in a.coeffs)


def sigma_class(d: HeegaardDiagram) -> Domain:
    """The class of the full surface: every coefficient 1."""
    return Domain((1,) * len(d.regions))


def enumerate_generators(d: HeegaardDiagram) -> list[Generator]:
    """All matchings, in lexicographic order over the alpha curves' vertex lists.

    The partial matchings are extended one alpha curve at a time, each by
    every vertex whose beta curve it does not use yet; each keeps the beta
    curves it uses as a bit mask.  Their number can grow as g!, so each
    level is counted, as the sum over the partial matchings of their
    admissible vertices, before it is built, and one of more than
    ``MAX_GENERATORS`` is refused without being allocated.
    """
    bit = {v: 1 << i for i, (_, vs) in enumerate(d.beta) for v in vs}
    partial: list[tuple[tuple[str, ...], int]] = [((), 0)]
    for _, vs in d.alpha:
        n = sum(not used & bit[v] for _, used in partial for v in vs)
        if n > MAX_GENERATORS:
            raise PreconditionError(f"{n} partial matchings exceed the {MAX_GENERATORS} limit")
        partial = [
            (points + (v,), used | bit[v])
            for points, used in partial
            for v in vs
            if not used & bit[v]
        ]
    return [Generator(points) for points, _ in partial]


# ---------------------------------------------------------------------------
# Integer linear algebra: one factorization of the boundary matrix per diagram.


def _boundary_matrix(d: HeegaardDiagram) -> list[list[int]]:
    """Rows: vertices in canonical order; columns: regions.

    M . A is the vertex boundary of the alpha part of the boundary of A.
    The beta block is left out: it is always the negative of this one.
    Each alpha edge is named by its forward dart; v is the head of the
    edge whose forward dart is ``rev`` of v's backward alpha dart, and the
    tail of the edge whose forward dart is v's own.
    """
    rows: list[list[int]] = []
    nreg = len(d.regions)
    for v in d.vertices:
        row = [0] * nreg
        curve = d.vertex_alpha[v]
        # the edge into v counts +1, the edge out of v -1, each as
        # (left region) - (right region)
        for e, s in ((d.rev(Dart(v, curve, False)), 1), (Dart(v, curve, True), -1)):
            row[d.face_of[e]] += s
            row[d.face_of[d.rev(e)]] -= s
        rows.append(row)
    return rows


def _row_echelon(rows: list[list[int]]) -> list[tuple[int, list[int]]]:
    """The echelon form of ``rows`` as (pivot column, row) pairs, pivots increasing."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    out: list[tuple[int, list[int]]] = []
    col = 0
    while rows and col < cols:
        nz = [r for r in rows if r[col] != 0]
        if not nz:
            col += 1
            continue
        while len(nz) > 1:
            nz.sort(key=lambda r: abs(r[col]))
            base = nz[0]
            for r in nz[1:]:
                q = r[col] // base[col]
                for i in range(cols):
                    r[i] -= q * base[i]
            nz = [r for r in nz if r[col] != 0]
        piv = nz[0]
        if piv[col] < 0:
            piv[:] = [-a for a in piv]
        out.append((col, piv))
        rows = [r for r in rows if r is not piv and any(r)]
        col += 1
    return out


class _Factorization(NamedTuple):
    """An exact integer factorization U . M^T = H of a matrix M.

    The row-echelon form of [M^T | I] is [H | U] with U unimodular.
    ``echelon`` holds the nonzero rows of H with their pivot columns,
    ``unimodular`` the rows of U (the first ``len(echelon)`` match them)
    and ``kernel`` the rest, the rows whose H part vanished: a basis of
    ker M in echelon form, positive pivots and nothing reduced above
    them, with their pivot columns in ``kernel_pivots``.  Since
    M . (sum z_i U_i) = sum z_i H_i and the rows of H span im M, forward
    substitution on H reduces a vector modulo im M (``reduce``); the
    vector lies in im M exactly when its residue is zero.
    """

    echelon: tuple[tuple[int, tuple[int, ...]], ...]
    unimodular: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]
    kernel_pivots: tuple[int, ...]

    @staticmethod
    def of(rows: list[list[int]], ncols: int) -> "_Factorization":
        nrows = len(rows)
        reduced = _row_echelon(
            [
                [row[c] for row in rows] + [int(i == c) for i in range(ncols)]
                for c in range(ncols)
            ]
        )
        echelon = tuple((c, tuple(r[:nrows])) for c, r in reduced if c < nrows)
        unimodular = tuple(tuple(r[nrows:]) for _, r in reduced)
        kernel = unimodular[len(echelon) :]
        pivots = tuple(c - nrows for c, _ in reduced[len(echelon) :])
        return _Factorization(echelon, unimodular, kernel, pivots)

    def reduce(self, target: list[int]) -> tuple[list[int], list[int]]:
        """The residue of ``target`` modulo im M, and a with M a = target - residue.

        The coefficient z_i of each H row is the floor quotient at its
        pivot, so every pivot coordinate of the residue ends in [0, h),
        h the pivot; later rows vanish at earlier pivots, so it stays
        there.  The residue is canonical: two vectors that differ by a
        nonzero sum z_i H_i differ, at the pivot of the first i with
        z_i != 0, by a nonzero multiple of its pivot, so at most one of
        them is reduced.
        """
        residue = list(target)
        a = [0] * len(self.unimodular)
        for (pc, h), u in zip(self.echelon, self.unimodular):
            z = residue[pc] // h[pc]
            if z:
                residue = [r - z * c for r, c in zip(residue, h)]
                a = [x + z * c for x, c in zip(a, u)]
        return residue, a


class _GeneratorRecord(NamedTuple):
    """What the solver and the formulas read of one valid generator x.

    ``key`` is x's point vector reduced modulo im M (its class key),
    ``potential`` the a(x) with M . a(x) = x - key, ``weights`` a count
    per region of the quadrants of x's points that lie in it (4g in all,
    read off ``HeegaardDiagram.quadrants_at`` when the record is made),
    so that 4 n_x(A) is the dot product of ``weights`` with A, and
    ``packed`` x's point vector packed as ``_Lattice.packed`` packs a
    column: bit 32 v set for each point in vertex row v.
    """

    key: tuple[int, ...]
    potential: tuple[int, ...]
    weights: tuple[int, ...]
    packed: int


class _Lattice(NamedTuple):
    """The integer data of one diagram that the solver and formulas read.

    ``packed`` is the boundary matrix, each region's column as one int,
    the sum of coefficient * 2^(32 row): a signed 32-bit field per vertex
    row, which ``connects`` dots with a domain's coefficients.
    ``vertex_index`` maps a vertex name to its row; ``factorization``
    factors the matrix; ``euler_weights`` is 4 - corners per region, so
    that 4e(A) is its dot product with A.  ``generators`` maps the
    points of each generator already validated on this diagram to its
    record: at most all of them, and never an invalid one, since
    ``check_generator`` raises first.  It is keyed by the points tuple,
    one tuple level less to hash than the generator.
    """

    packed: tuple[int, ...]
    vertex_index: Mapping[str, int]
    factorization: _Factorization
    euler_weights: tuple[int, ...]
    generators: dict[tuple[str, ...], _GeneratorRecord]


def _lattice(d: HeegaardDiagram) -> _Lattice:
    """The diagram's integer data, built on first use and kept on ``d``.

    Diagrams are immutable, so the cache never goes stale; a mirror or a
    re-parsed diagram is a new instance and builds its own.
    """
    lat = d.__dict__.get("_lattice")
    if lat is None:
        if (n := len(d.vertices)) > MAX_CROSSINGS:
            raise PreconditionError(f"{n} crossings exceed the {MAX_CROSSINGS}-crossing limit")
        rows = _boundary_matrix(d)
        lat = d._lattice = _Lattice(  # type: ignore[attr-defined]
            tuple(sum(k << _PACK_BITS * v for v, k in enumerate(col)) for col in zip(*rows)),
            {v: i for i, v in enumerate(d.vertices)},
            _Factorization.of(rows, len(d.regions)),
            tuple(4 - r.corner_count for r in d.regions),
            {},
        )
    return lat


def _records(
    d: HeegaardDiagram, x: Generator, y: Generator
) -> tuple[_Lattice, _GeneratorRecord, _GeneratorRecord]:
    """The diagram's integer data and the records of x and y.

    A generator is checked, and its record made, on its first use on d
    only: ``check_generator`` raises before an invalid one is stored.
    """
    lat = _lattice(d)
    records = lat.generators
    rx, ry = records.get(x.points), records.get(y.points)
    if rx is None or ry is None:
        for g in (x, y):
            if g.points not in records:
                check_generator(d, g)
                target = [0] * len(lat.vertex_index)
                for v in g.points:
                    target[lat.vertex_index[v]] += 1
                residue, a = lat.factorization.reduce(target)
                regions = [r for v in g.points for r in d.quadrants_at(v)]
                weights = tuple(map(regions.count, range(len(lat.euler_weights))))
                packed = sum(1 << _PACK_BITS * lat.vertex_index[v] for v in g.points)
                records[g.points] = _GeneratorRecord(tuple(residue), tuple(a), weights, packed)
        rx, ry = records[x.points], records[y.points]
    return lat, rx, ry


def periodic_domain_basis(d: HeegaardDiagram) -> list[Domain]:
    """Integer basis of the lattice of domains with vanishing vertex boundary.

    The full surface class always lies in the span.
    """
    return [Domain(v) for v in _lattice(d).factorization.kernel]


def find_domains(
    d: HeegaardDiagram,
    x: Generator,
    y: Generator,
    max_coeff: int = 4,
    positive_only: bool = True,
) -> list[Domain]:
    """All domains connecting x to y with coefficients in the given box.

    The box is 0..max_coeff when positive_only, else -max_coeff..max_coeff.
    The connecting domains form a coset of the periodic lattice.  It is
    empty unless x and y have the same class key, and then a(y) - a(x),
    read off the two generators' records, is an integral particular
    solution; the kernel basis, echelon with positive pivots, spans the
    rest.  The coset is walked exhaustively inside the box: the echelon
    basis gives each multiplier a finite pivot-driven range, an
    over-approximation that the final membership filter tightens.  Any
    integral particular solution and any echelon basis of the lattice give
    the same coset, hence the same results.  They come lexicographically
    in canonical region order, as walked: at the first multiplier in which
    two walked points differ, every later basis row is zero up to and
    including that row's pivot column, and the pivot step is positive, so
    the point with the larger multiplier is the larger one.
    Every pivot step is at least 1, so each basis vector multiplies the
    points by at most the box width, and the walk visits at most
    width ** rank points; a box for which that exceeds ``MAX_POINTS`` is
    refused before walking.
    """
    if max_coeff < 0:
        raise PreconditionError("max_coeff must be >= 0")
    lat, rx, ry = _records(d, x, y)
    lo = 0 if positive_only else -max_coeff
    hi = max_coeff
    if (bound := (hi - lo + 1) ** len(lat.factorization.kernel)) > MAX_POINTS:
        raise PreconditionError(f"{bound} box points exceed the {MAX_POINTS}-point limit")
    if rx.key != ry.key:
        return []
    x0 = [b - a for a, b in zip(rx.potential, ry.potential)]

    def level(points, vec, pc):
        # Later basis rows have later pivots, hence zeros at column pc, so
        # the pivot coordinate is final once t is chosen: bracketing it
        # inside the box is sound and complete.  Pivots are positive.
        step = vec[pc]
        for current in points:
            for t in range(-((current[pc] - lo) // step), (hi - current[pc]) // step + 1):
                yield [c + t * v for c, v in zip(current, vec)]

    points = [x0]
    fact = lat.factorization
    for vec, pc in zip(fact.kernel, fact.kernel_pivots):
        points = level(points, vec, pc)
    # the basis is independent, so the points are distinct
    doms = (Domain(tuple(p)) for p in points if lo <= min(p) and max(p) <= hi)
    return [a for a in doms if connects(d, a, x, y)]


def _check_domain(d: HeegaardDiagram, a: Domain) -> None:
    if len(a.coeffs) != len(d.regions):
        raise DiagramError(
            f"domain has {len(a.coeffs)} coefficients, diagram has "
            f"{len(d.regions)} regions"
        )

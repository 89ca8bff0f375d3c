"""Generators, domains and their boundary algebra.

A domain is an integer vector indexed by the regions of a diagram (a
relative 2-chain).  Its boundary along the alpha and beta curves, and the
vertex boundary of that 1-chain, decide whether the domain connects one
generator to another: the alpha vertex boundary is M . A for the diagram's
integer boundary matrix M (see the sign convention for the beta one).

M is factored once per diagram, exactly and in integers: the row-echelon
form of [M^T | I] is [H | U], so U . M^T = H with U unimodular, and the
rows of U beside the vanishing rows of H are a Hermite-normal-form basis
of the periodic lattice ker M.  The factorization is cached on the diagram
instance.  Enumeration of connecting domains is then an integral
particular solution by forward substitution on H, plus the kernel basis
walked exhaustively inside the coefficient box; ``connects`` is one
product with M.

Sign convention (fixed): with the counterclockwise surface orientation an
edge oriented along its curve's listed direction gets the coefficient
(left region) - (right region), and ``connects(A, x, y)`` demands the vertex
boundary of the alpha part be y - x and of the beta part be x - y.  The
boundary of a 2-chain is a cycle, so its alpha and beta parts have opposite
vertex boundaries and the beta condition follows from the alpha one: M
holds the alpha block only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from hdindex.diagram import ALPHA, BETA, DiagramError, HeegaardDiagram


@dataclass(frozen=True)
class Domain:
    """Integer coefficients on the regions, in canonical region order."""

    coeffs: tuple[int, ...]

    def __getitem__(self, region: int) -> int:
        return self.coeffs[region]

    def __add__(self, other: "Domain") -> "Domain":
        _same_length(self, other)
        return Domain(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Domain") -> "Domain":
        _same_length(self, other)
        return Domain(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, k: int) -> "Domain":
        return Domain(tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def __neg__(self) -> "Domain":
        return Domain(tuple(-a for a in self.coeffs))

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.coeffs) if c != 0)

    def format(self) -> str:
        """Compact text form ``r<k>:<int>,...``; omitted regions are 0."""
        parts = [f"r{i}:{c}" for i, c in enumerate(self.coeffs) if c != 0]
        return ",".join(parts) if parts else "0"

    @staticmethod
    def zero(d: HeegaardDiagram) -> "Domain":
        return Domain((0,) * len(d.regions))

    @staticmethod
    def parse(d: HeegaardDiagram, text: str) -> "Domain":
        """Parse ``r<k>:<int>`` pairs separated by commas; ``0`` is the zero domain."""
        coeffs = [0] * len(d.regions)
        text = text.strip()
        if text in ("", "0"):
            return Domain(tuple(coeffs))
        for part in text.split(","):
            part = part.strip()
            name, sep, value = part.partition(":")
            if not name.startswith("r") or not sep:
                raise DiagramError(f"bad domain term {part!r}")
            try:
                idx = int(name[1:])
                c = int(value)
            except ValueError:
                raise DiagramError(f"bad domain term {part!r}") from None
            if not 0 <= idx < len(coeffs):
                raise DiagramError(f"unknown region {name!r}")
            coeffs[idx] += c
        return Domain(tuple(coeffs))


@dataclass(frozen=True)
class Generator:
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


@dataclass(frozen=True)
class BoundaryChain:
    """Per-edge coefficients of the boundary of a domain, split by family.

    Keys are (curve name, edge index); edge i runs from the curve's i-th
    listed vertex to the next one.
    """

    alpha_part: Mapping[tuple[str, int], int]
    beta_part: Mapping[tuple[str, int], int]


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
        if d.vertex_alpha[v][0] != aname:
            raise DiagramError(f"vertex {v!r} is not on alpha curve {aname!r}")
        bname = d.vertex_beta[v][0]
        if bname in betas_used:
            raise DiagramError(
                f"generator uses beta curve {bname!r} twice (not a matching)"
            )
        betas_used.add(bname)


def boundary_chain(d: HeegaardDiagram, a: Domain) -> BoundaryChain:
    """The 1-chain boundary of ``a`` along both curve families."""
    _check_domain(d, a)
    alpha_part: dict[tuple[str, int], int] = {}
    beta_part: dict[tuple[str, int], int] = {}
    for name, edges in d.edges.items():
        target = alpha_part if d.curve_family[name] == ALPHA else beta_part
        for i in range(len(edges)):
            left, right = d.edge_sides(name, i)
            target[(name, i)] = a[left] - a[right]
    return BoundaryChain(alpha_part, beta_part)


def vertex_boundary(
    d: HeegaardDiagram, chain: BoundaryChain, family: str
) -> dict[str, int]:
    """Boundary of the 1-chain restricted to one family, as a 0-chain.

    At each vertex: incoming edge coefficient minus outgoing, summed along
    the single curve of that family through the vertex.
    """
    if family not in (ALPHA, BETA):
        raise ValueError(f"family must be {ALPHA!r} or {BETA!r}")
    part = chain.alpha_part if family == ALPHA else chain.beta_part
    out: dict[str, int] = {v: 0 for v in d.vertices}
    for (name, i), c in part.items():
        if c == 0:
            continue
        tail, head = d.edges[name][i]
        out[head] += c
        out[tail] -= c
    return out


def connects(d: HeegaardDiagram, a: Domain, x: Generator, y: Generator) -> bool:
    """True iff ``a`` is a strip class from x to y.

    Demands vertex_boundary(alpha part) = y - x and
    vertex_boundary(beta part) = x - y as 0-chains.  The second follows
    from the first, so this is one product with the diagram's cached
    alpha boundary matrix.
    """
    check_generator(d, x)
    check_generator(d, y)
    _check_domain(d, a)
    c = a.coeffs
    return all(
        sum(k * c[r] for r, k in row) == t
        for row, t in zip(_lattice(d).rows, _target_vector(d, x, y))
    )


def compose(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    b: Domain,
    z: Generator,
) -> Domain:
    """Sum of a in pi2(x,y) and b in pi2(y,z); the result lies in pi2(x,z)."""
    if not connects(d, a, x, y):
        raise DiagramError("first domain does not connect x to y")
    if not connects(d, b, y, z):
        raise DiagramError("second domain does not connect y to z")
    return a + b


def is_positive(a: Domain) -> bool:
    return all(c >= 0 for c in a.coeffs)


def sigma_class(d: HeegaardDiagram) -> Domain:
    """The class of the full surface: every coefficient 1."""
    return Domain((1,) * len(d.regions))


def enumerate_generators(d: HeegaardDiagram) -> list[Generator]:
    """All matchings, by backtracking over alpha curves in canonical order."""
    n = len(d.alpha)
    out: list[Generator] = []
    chosen: list[str] = []
    used_beta: set[str] = set()

    def rec(i: int) -> None:
        if i == n:
            out.append(Generator(tuple(chosen)))
            return
        _, vs = d.alpha[i]
        for v in vs:
            bname = d.vertex_beta[v][0]
            if bname in used_beta:
                continue
            chosen.append(v)
            used_beta.add(bname)
            rec(i + 1)
            chosen.pop()
            used_beta.discard(bname)

    rec(0)
    return out


# ---------------------------------------------------------------------------
# Integer linear algebra: one factorization of the boundary matrix per diagram.


def _boundary_matrix(d: HeegaardDiagram) -> list[list[int]]:
    """Rows: vertices in canonical order; columns: regions.

    M . A is the vertex boundary of the alpha part of the boundary of A.
    The beta block is left out: it is always the negative of this one.
    """
    rows: list[list[int]] = []
    nreg = len(d.regions)
    for v in d.vertices:
        row = [0] * nreg
        curve, pos = d.vertex_alpha[v]
        k = len(d.curve_vertices[curve])
        for e, s in (((pos - 1) % k, 1), (pos, -1)):
            left, right = d.edge_sides(curve, e)
            row[left] += s
            row[right] -= s
        rows.append(row)
    return rows


def _target_vector(d: HeegaardDiagram, x: Generator, y: Generator) -> list[int]:
    """M . A for A from x to y: y - x."""
    xs, ys = set(x.points), set(y.points)
    return [int(v in ys) - int(v in xs) for v in d.vertices]


def _row_echelon(rows: list[list[int]]) -> list[list[int]]:
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    cols = len(rows[0])
    out: list[list[int]] = []
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
        out.append(piv)
        rows = [r for r in rows if r is not piv and any(r)]
        col += 1
    # reduce entries above pivots so the basis is canonical
    for i in reversed(range(len(out))):
        pc = next(c for c in range(cols) if out[i][c] != 0)
        for j in range(i):
            q = out[j][pc] // out[i][pc]
            if q:
                for c in range(cols):
                    out[j][c] -= q * out[i][c]
    return out


class _Factorization(NamedTuple):
    """An exact integer factorization U . M^T = H of a matrix M.

    The row-echelon form of [M^T | I] is [H | U] with U unimodular.
    ``echelon`` holds the nonzero rows of H with their pivot columns,
    ``unimodular`` the rows of U (the first ``len(echelon)`` match them)
    and ``kernel`` the rest, the rows whose H part vanished: the Hermite
    normal form of ker M, positive pivots and reduced above them.  Since
    M . (sum z_i U_i) = sum z_i H_i, solving M a = t is forward
    substitution on H.
    """

    echelon: tuple[tuple[int, tuple[int, ...]], ...]
    unimodular: tuple[tuple[int, ...], ...]
    kernel: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(rows: list[list[int]], ncols: int) -> "_Factorization":
        nrows = len(rows)
        reduced = _row_echelon(
            [
                [row[c] for row in rows] + [int(i == c) for i in range(ncols)]
                for c in range(ncols)
            ]
        )
        echelon = tuple(
            (next(c for c, k in enumerate(r) if k), tuple(r[:nrows]))
            for r in reduced
            if any(r[:nrows])
        )
        unimodular = tuple(tuple(r[nrows:]) for r in reduced)
        return _Factorization(echelon, unimodular, unimodular[len(echelon) :])

    def solve(self, target: list[int]) -> list[int] | None:
        """One integer solution of M a = target, or None if there is none.

        The coefficients z_i of the H rows are forced pivot by pivot; a
        pivot that does not divide its residue, or a residue left over once
        every pivot is used, means no integer solution exists.
        """
        residue = list(target)
        a = [0] * len(self.unimodular)
        for (pc, h), u in zip(self.echelon, self.unimodular):
            z, rem = divmod(residue[pc], h[pc])
            if rem:
                return None
            if z:
                residue = [r - z * c for r, c in zip(residue, h)]
                a = [x + z * c for x, c in zip(a, u)]
        return None if any(residue) else a


class _Lattice(NamedTuple):
    """The integer data of one diagram that the solver and formulas read.

    ``rows`` is the boundary matrix, each row as its nonzero
    (region, coefficient) pairs; ``factorization`` factors it;
    ``euler_weights`` is 4 - corners per region and ``quadrants`` the four
    quadrant regions at each vertex, in rotation order.
    """

    rows: tuple[tuple[tuple[int, int], ...], ...]
    factorization: _Factorization
    euler_weights: tuple[int, ...]
    quadrants: Mapping[str, tuple[int, ...]]


def _lattice(d: HeegaardDiagram) -> _Lattice:
    """The diagram's integer data, built on first use and kept on ``d``.

    Diagrams are immutable, so the cache never goes stale; a mirror or a
    re-parsed diagram is a new instance and builds its own.
    """
    lat = d.__dict__.get("_lattice")
    if lat is None:
        rows = _boundary_matrix(d)
        lat = d._lattice = _Lattice(  # type: ignore[attr-defined]
            tuple(tuple((c, k) for c, k in enumerate(row) if k) for row in rows),
            _Factorization.of(rows, len(d.regions)),
            tuple(4 - r.corner_count for r in d.regions),
            {v: tuple(d.face_of[dart] for dart in d.rotation[v]) for v in d.vertices},
        )
    return lat


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
    The connecting domains form a coset of the periodic lattice: an integral
    particular solution, read off the diagram's cached integer
    factorization by forward substitution, plus the Hermite-normal-form
    kernel basis.  The coset is walked exhaustively inside the box: the
    echelonized basis gives each multiplier a finite pivot-driven range,
    an over-approximation that the final membership filter tightens.  Any
    integral particular solution gives the same coset, hence the same
    results, sorted lexicographically in canonical region order.
    """
    if max_coeff < 0:
        raise ValueError("max_coeff must be >= 0")
    check_generator(d, x)
    check_generator(d, y)
    nreg = len(d.regions)
    factorization = _lattice(d).factorization
    x0 = factorization.solve(_target_vector(d, x, y))
    if x0 is None:
        return []
    basis = factorization.kernel
    lo = 0 if positive_only else -max_coeff
    hi = max_coeff
    pivots = [next(c for c in range(nreg) if vec[c] != 0) for vec in basis]

    results: set[tuple[int, ...]] = set()

    def rec(i: int, current: list[int]) -> None:
        if i == len(basis):
            if all(lo <= c <= hi for c in current):
                results.add(tuple(current))
            return
        vec, pc = basis[i], pivots[i]
        # Rows after i have later pivots, hence zeros at column pc, so the
        # pivot coordinate is final once t is chosen: bracketing it inside
        # the box is sound and complete.  Pivots are positive.
        step = vec[pc]
        base = current[pc]
        t_min = -((base - lo) // step)
        t_max = (hi - base) // step
        for t in range(t_min, t_max + 1):
            rec(i + 1, [c + t * v for c, v in zip(current, vec)])

    rec(0, x0)
    doms = [Domain(c) for c in sorted(results)]
    return [a for a in doms if connects(d, a, x, y)]


def _check_domain(d: HeegaardDiagram, a: Domain) -> None:
    if len(a.coeffs) != len(d.regions):
        raise DiagramError(
            f"domain has {len(a.coeffs)} coefficients, diagram has "
            f"{len(d.regions)} regions"
        )


def _same_length(a: Domain, b: Domain) -> None:
    if len(a.coeffs) != len(b.coeffs):
        raise ValueError("domains live on different diagrams")

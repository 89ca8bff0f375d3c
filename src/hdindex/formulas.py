"""Exact evaluation of the index quantities of a domain.

All results are ``fractions.Fraction`` values with denominators 1, 2 or 4;
no floating point enters anywhere.  The quantities:

* ``euler_measure``      e(A)  = sum of n_i (1 - c_i/4) = (sum of n_i (4 - c_i)) / 4,
* ``point_multiplicity`` n_p(A) = (sum of the four quadrant coefficients) / 4,
* ``generator_multiplicity``   n_x(A) = sum over the tuple,
* ``maslov_index``       mu(A) = e + n_x + n_y, and ``maslov_quarters`` 4 mu(A)
  as an exact integer,
* ``embedded_euler_char`` chi  = g - n_x - n_y + e,
* ``analytic_index``     g - chi(S) + 2 e(A); taken at chi(S) = chi_emb it is
  mu by algebra alone, so ``hdindex check`` does not use it,
* ``branch_budget``      g - chi(S)  (a g-fold cover of the disk).

Regions traced from a diagram are disks with right-angle corners, so the
Euler measure needs no obtuse-corner correction term.  Both sums over 4
are taken in integers, from tables cached with the boundary factorization:
4 - c_i per region, the quadrant regions per vertex, and each validated
generator's record, which holds a weight per region, the number of its
points' quadrants there.  So 4e, 4n_x and 4n_y are each one dot product
of a weight vector with the coefficients.  The index formulas check their
inputs once, through the same validation that makes the records, and
build each result from those three integers; the quarters are shared from
one bounded cache.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from hdindex.diagram import DiagramError, HeegaardDiagram
from hdindex.domains import Domain, Generator, connects
from hdindex.domains import _check_domain, _checked_lattice, _lattice


class IndexReport(NamedTuple):
    """The index quantities of one (domain, generator pair) triple."""

    g: int
    e: Fraction
    n_x: Fraction
    n_y: Fraction
    mu: Fraction
    chi_emb: Fraction

    def as_dict(self) -> dict[str, str]:
        """Flat key/value record; rationals rendered p/q in lowest terms."""
        return {
            "g": str(self.g),
            "e": str(self.e),
            "n_x": str(self.n_x),
            "n_y": str(self.n_y),
            "mu": str(self.mu),
            "chi_emb": str(self.chi_emb),
        }

    def as_text(self) -> str:
        return "\n".join(f"{k} = {v}" for k, v in self.as_dict().items())


@lru_cache(maxsize=1024)
def _quarter(n: int) -> Fraction:
    """n / 4; the few distinct values a corpus produces are built once."""
    return Fraction(n, 4)


def euler_measure(d: HeegaardDiagram, a: Domain) -> Fraction:
    """e(A): each region contributes coefficient times (1 - corners/4)."""
    _check_domain(d, a)
    return _quarter(sum(map(mul, _lattice(d).euler_weights, a.coeffs)))


def point_multiplicity(d: HeegaardDiagram, a: Domain, v: str) -> Fraction:
    """n_p(A): the mean of A's coefficients on the four quadrants at v."""
    if v not in d.vertex_alpha:
        raise DiagramError(f"unknown vertex {v!r}")
    _check_domain(d, a)
    return _quarter(sum(map(a.coeffs.__getitem__, _lattice(d).quadrants[v])))


def generator_multiplicity(d: HeegaardDiagram, a: Domain, x: Generator) -> Fraction:
    """n_x(A): the sum of the point multiplicities over the tuple."""
    lat = _checked_lattice(d, x, x)
    _check_domain(d, a)
    return _quarter(sum(map(mul, lat.generators[x.points].weights, a.coeffs)))


def maslov_quarters(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    force: bool = False,
) -> int:
    """4 mu(A) = 4e(A) + 4n_x(A) + 4n_y(A), an exact integer.

    Rejects domains that do not connect x to y unless ``force`` is set;
    with ``force`` the same expression is evaluated off the strip classes,
    which is occasionally useful for exploration.
    """
    return sum(_index_sums(d, a, x, y, force))


def maslov_index(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    force: bool = False,
) -> Fraction:
    """mu(A) = e(A) + n_x(A) + n_y(A): ``maslov_quarters`` over 4."""
    return _quarter(maslov_quarters(d, a, x, y, force))


def embedded_euler_char(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    force: bool = False,
) -> Fraction:
    """chi forced on an embedded representative: g - n_x - n_y + e."""
    e, n_x, n_y = _index_sums(d, a, x, y, force)
    return _quarter(4 * d.genus - n_x - n_y + e)


def analytic_index(g: int, chi_s: Fraction | int, e: Fraction | int) -> Fraction:
    """Index of the linearized operator at a source of Euler characteristic chi_s."""
    return Fraction(g) - Fraction(chi_s) + 2 * Fraction(e)


def branch_budget(g: int, chi_s: Fraction | int) -> Fraction:
    """Branch points a g-fold cover of the disk with chi(S) = chi_s must have.

    Riemann-Hurwitz over the disk (chi = 1): returns g - chi_s.  The caller
    checks nonnegativity and integrality where those are required.
    """
    return Fraction(g) - Fraction(chi_s)


def index_report(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    force: bool = False,
) -> IndexReport:
    e, n_x, n_y = _index_sums(d, a, x, y, force)
    g = d.genus
    return IndexReport(
        g,
        _quarter(e),
        _quarter(n_x),
        _quarter(n_y),
        _quarter(e + n_x + n_y),
        _quarter(4 * g - n_x - n_y + e),
    )


def _index_sums(
    d: HeegaardDiagram, a: Domain, x: Generator, y: Generator, force: bool
) -> tuple[int, int, int]:
    """4e(A), 4n_x(A) and 4n_y(A), the inputs checked once.

    Without ``force`` the domain must connect x to y; ``connects`` checks
    the generators and the domain on the way.  With ``force`` they are
    checked directly.  Either way both generators then have their records.
    """
    if force:
        lat = _checked_lattice(d, x, y)
        _check_domain(d, a)
    elif connects(d, a, x, y):
        lat = _lattice(d)
    else:
        raise DiagramError(
            f"domain {a.format()} does not connect {x.format()} to {y.format()}"
            " (evaluate it anyway with force=True, or --force on the command line)"
        )
    records, coeffs = lat.generators, a.coeffs
    return (
        sum(map(mul, lat.euler_weights, coeffs)),
        sum(map(mul, records[x.points].weights, coeffs)),
        sum(map(mul, records[y.points].weights, coeffs)),
    )

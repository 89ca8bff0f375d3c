"""Exact evaluation of the index quantities of a domain.

All results are ``fractions.Fraction`` values with denominators 1, 2 or 4;
no floating point enters anywhere.  The quantities:

* ``euler_measure``      e(A)  = sum of n_i (1 - c_i/4) = (sum of n_i (4 - c_i)) / 4,
* ``maslov_index``       mu(A) = e + n_x + n_y, where n_p(A) is the sum of A's
  four quadrant coefficients at p over 4 and n_x(A) its sum over the tuple
  x, and ``maslov_quarters`` 4 mu(A) as an exact integer,
* ``embedded_euler_char`` chi  = g - n_x - n_y + e,
* ``analytic_index``     g - chi(S) + 2 e(A); taken at chi(S) = chi_emb it is
  mu by algebra alone, so ``hdindex check`` does not use it,
* ``branch_budget``      g - chi(S)  (a g-fold cover of the disk).

Regions traced from a diagram are disks with right-angle corners, so the
Euler measure needs no obtuse-corner correction term.  Both sums over 4
are taken in integers, from what is cached with the boundary
factorization: the table of 4 - c_i per region, and each validated
generator's record, which holds a weight per region, the number of its
points' quadrants there (counted once, off the diagram's
``quadrants_at``, when the record is made).  So 4e, 4n_x and 4n_y are
each one dot product of a weight vector with the coefficients; no table
of quadrant regions is kept.  The index formulas check each generator
once per diagram, through the same validation that makes its record, and
build each result from those three integers; the quarters are shared
from one bounded cache.  Each formula of a generator pair rejects a
domain that does not connect the pair; only ``index_report`` takes
``force``, which evaluates the same expressions off the strip classes.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from hdindex.diagram import DiagramError, HeegaardDiagram
from hdindex.domains import Domain, Generator, connects
from hdindex.domains import _check_domain, _lattice, _records


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
        # spelled out: a comprehension over ``_asdict()`` measured 1.7
        # microseconds slower per record and made the pi2-queries workload
        # about 15% slower
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


def maslov_quarters(d: HeegaardDiagram, a: Domain, x: Generator, y: Generator) -> int:
    """4 mu(A) = 4e(A) + 4n_x(A) + 4n_y(A), an exact integer.

    Rejects domains that do not connect x to y.  Only ``index_report``
    takes ``force``, to evaluate the same expressions off the strip classes.
    """
    return sum(_index_sums(d, a, x, y, False))


def maslov_index(d: HeegaardDiagram, a: Domain, x: Generator, y: Generator) -> Fraction:
    """mu(A) = e(A) + n_x(A) + n_y(A): ``maslov_quarters`` over 4."""
    return _quarter(maslov_quarters(d, a, x, y))


def embedded_euler_char(
    d: HeegaardDiagram, a: Domain, x: Generator, y: Generator
) -> Fraction:
    """chi forced on an embedded representative: g - n_x - n_y + e."""
    e, n_x, n_y = _index_sums(d, a, x, y, False)
    return _quarter(4 * d.genus - n_x - n_y + e)


def analytic_index(g: int, chi_s: Fraction | int, e: Fraction | int) -> Fraction:
    """Index of the linearized operator at a source of Euler characteristic chi_s."""
    return Fraction(g) - Fraction(chi_s) + 2 * Fraction(e)


def branch_budget(g: int, chi_s: Fraction | int) -> Fraction:
    """Branch points a g-fold cover of the disk with chi(S) = chi_s must have.

    Riemann-Hurwitz over the disk (chi = 1): returns g - chi_s.  The caller
    checks nonnegativity and integrality where those are required.
    """
    return Fraction(g - chi_s)


def index_report(
    d: HeegaardDiagram,
    a: Domain,
    x: Generator,
    y: Generator,
    force: bool = False,
) -> IndexReport:
    """The index quantities of A from x to y; ``force`` takes them even
    when A does not connect x to y, which is occasionally useful for
    exploration."""
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
    the generators and the domain on the way, and is called through this
    module's global so that a tracer that rebinds it sees every call.
    With ``force`` the generators are checked as their records are read,
    and then the domain.
    """
    if not (force or connects(d, a, x, y)):
        raise DiagramError(
            f"domain {a.format()} does not connect {x.format()} to {y.format()}"
            " (evaluate it anyway with index_report's force, or --force on the command line)"
        )
    lat, rx, ry = _records(d, x, y)
    _check_domain(d, a)
    coeffs = a.coeffs
    return (
        sum(map(mul, lat.euler_weights, coeffs)),
        sum(map(mul, rx.weights, coeffs)),
        sum(map(mul, ry.weights, coeffs)),
    )

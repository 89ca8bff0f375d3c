"""Brute-force oracles and property suites over the bundled diagrams.

Each suite exhaustively enumerates a bounded family of inputs and reports
every violation with enough data to replay the case through the command
line.  The clauses:

* local patterns: the chain shapes of the gluing model at one crossing;
* additivity: mu(A + B) = mu(A) + mu(B) when A connects x to y and B
  connects y to z, which needs the multiplicities at y to match; it is
  compared in whole quarters, 4 mu as an exact integer;
* stabilization: adding k surface classes shifts mu by 2k and the
  embedded chi by k(2 - 4g).  Given the index formulas both shifts are
  algebra (mu(Sigma) = chi + 2g = 2), so this suite catches little more
  than a wrong surface class; it stays in ``check``, whose case count
  ``perfbench/reference.json`` pins, until a check that can fail
  replaces it;
* the builder: the stage contracts S3 and S4 (``builder.stage_contract``
  states their clauses), which the builder enforces, and chi of disjoint
  strip classes.  The S4 contract is the whole S4 oracle.

e-additivity (e is linear in the domain) and the analytic index at the
embedded chi (which is mu) hold by algebra alone, so no suite checks them.
All suites are deterministic; a run is green iff every suite reports zero
failures.

``run_all``, the run of ``hdindex check``, calls each suite at its default
box: local patterns up to bound 3, additivity over coefficients 0..2,
stabilization for k <= 3 over 0..2, builder consistency over 0..3 and the
stabilized surface over 0..1.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

from hdindex.diagram import HeegaardDiagram, load_bundled, validate_diagram
from hdindex.domains import (
    Domain,
    Generator,
    enumerate_generators,
    find_domains,
    sigma_class,
)
from hdindex.formulas import embedded_euler_char, maslov_index, maslov_quarters
from hdindex.builder import (
    BuilderError,
    build_surface,
    local_vertex_chains,
    stabilized_surface,
)

BUNDLED_DIAGRAMS = (
    "torus_g1_1x.hd",
    "torus_g1_2x.hd",
    "torus_g1_3x.hd",
    "genus2_bigons.hd",
    "genus2_s1s2.hd",
    "genus3_chain.hd",
)


class SuiteResult:
    """One suite's case count, failure records and time, filled in as it runs."""

    __slots__ = ("suite", "cases", "failures", "elapsed")

    def __init__(self, suite: str, cases: int = 0):
        self.suite = suite
        self.cases = cases
        self.failures: list[dict] = []
        self.elapsed = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "elapsed": round(self.elapsed, 3),
            "ok": self.ok,
        }


def bundled_corpus() -> dict[str, HeegaardDiagram]:
    return {name: load_bundled(name) for name in BUNDLED_DIAGRAMS}


# ---------------------------------------------------------------------------
# Suites


def local_pattern_oracle(bound: int = 3) -> SuiteResult:
    """Chain shapes of every local quadrant pattern up to the bound.

    Interior patterns (n, n+k, n+k+l, n+l) must split into n closed chains
    of length four and k+l smooth open chains of length two; bumping any
    single sector by one must yield exactly one odd open chain, every other
    chain being a closed one of length four or an open one of length two.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    res = SuiteResult("local-pattern-oracle")
    smooth = {("closed", 4), ("open", 2)}
    for n, k, l in itertools.product(range(bound + 1), repeat=3):
        base = (n, n + k, n + k + l, n + l)
        interior = [("closed", 4)] * n + [("open", 2)] * (k + l)
        cases = [(base, "interior")]
        cases += [(base[:i] + (base[i] + 1,) + base[i + 1 :], "corner") for i in range(4)]
        for pattern, kind in cases:
            res.cases += 1
            chains = local_vertex_chains(pattern)
            if kind == "interior":
                ok = sorted(chains) == interior
            else:
                odd = [c for c in chains if c[0] == "open" and c[1] % 2]
                ok = len(odd) == 1 and {c for c in chains if c not in odd} <= smooth
            if not ok:
                res.failures.append({"pattern": pattern, "kind": kind, "chains": chains})
    return res


def _domain_table(
    d: HeegaardDiagram, max_coeff: int
) -> dict[tuple[Generator, Generator], list[Domain]]:
    gens = enumerate_generators(d)
    return {(x, y): find_domains(d, x, y, max_coeff) for x in gens for y in gens}


def _case(x: Generator, y: Generator, a: Domain) -> dict:
    """A failure record's x, y and a, spelled as ``--from``, ``--to`` and
    ``--domain`` read them."""
    return {"x": x.format(), "y": y.format(), "a": a.format()}


def _builds(res: SuiteResult, d: HeegaardDiagram, max_coeff: int, build):
    """Call ``build(d, a, x, y)`` on every bounded positive connecting domain.

    Each call is a case of ``res``, and a ``BuilderError`` is recorded
    there as a failure with its x, y and a (``_case``).  Yields ``(x, y, a,
    built)`` for each build that succeeds; a caller that records a failure
    spells its case with ``_case`` too, so no record is made for a case
    that passes.
    """
    for (x, y), domains in _domain_table(d, max_coeff).items():
        for a in domains:
            res.cases += 1
            try:
                built = build(d, a, x, y)
            except BuilderError as exc:
                res.failures.append(dict(_case(x, y, a), error=str(exc)))
                continue
            yield x, y, a, built


def additivity_suite(d: HeegaardDiagram, max_coeff: int = 2) -> SuiteResult:
    """mu is additive under composition of connecting domains.

    e is linear in the domain, so the sum alone decides nothing; mu(A + B)
    agrees with mu(A) + mu(B) only when n_x(B) + n_z(A) = n_y(A) + n_y(B),
    a property of connecting domains that the multiplicities must honour.
    Each mu is taken as 4 mu (``maslov_quarters``), so the sums compared
    are integers; a failure record writes each mu as a fraction.
    """
    res = SuiteResult("additivity")
    table = _domain_table(d, max_coeff)
    gens = enumerate_generators(d)
    for (x, y), domains in table.items():
        for a in domains:
            mu_a = maslov_quarters(d, a, x, y)
            for z in gens:
                for b in table[(y, z)]:
                    res.cases += 1
                    mu_b = maslov_quarters(d, b, y, z)
                    mu_ab = maslov_quarters(d, a + b, x, z)
                    if mu_ab != mu_a + mu_b:
                        res.failures.append(
                            {
                                "x": x.format(),
                                "y": y.format(),
                                "z": z.format(),
                                "a": a.format(),
                                "b": b.format(),
                                "mu_a": str(Fraction(mu_a, 4)),
                                "mu_b": str(Fraction(mu_b, 4)),
                                "mu_ab": str(Fraction(mu_ab, 4)),
                            }
                        )
    return res


def stabilization_suite(
    d: HeegaardDiagram, k_max: int = 3, max_coeff: int = 2
) -> SuiteResult:
    """Adding k full-surface classes shifts mu by 2k and chi by k(2 - 4g)."""
    res = SuiteResult("stabilization")
    sigma = sigma_class(d)
    shifts = [k * sigma for k in range(k_max + 1)]
    g = d.genus
    table = _domain_table(d, max_coeff)
    for (x, y), domains in table.items():
        for a in domains:
            mu0 = maslov_index(d, a, x, y)
            chi0 = embedded_euler_char(d, a, x, y)
            for k, shift in enumerate(shifts):
                res.cases += 1
                ak = a + shift
                mu_k = maslov_index(d, ak, x, y)
                chi_k = embedded_euler_char(d, ak, x, y)
                if mu_k != mu0 + 2 * k or chi_k != chi0 + k * (2 - 4 * g):
                    res.failures.append(dict(_case(x, y, a), k=k, mu=str(mu_k), chi=str(chi_k)))
    return res


def builder_consistency_suite(
    d: HeegaardDiagram, max_coeff: int = 3
) -> SuiteResult:
    """Build every bounded positive connecting domain.

    The builder enforces the stage-S3 contract (``stage_contract``) and
    raises on a breach, which is reported as a failure.  On top of it, for
    coefficient-one domains supported on pairwise disjoint bigons and
    squares, chi of the built surface must equal the embedded chi exactly.
    """
    res = SuiteResult("builder-consistency")
    for x, y, a, s3 in _builds(res, d, max_coeff, build_surface):
        chi_emb = embedded_euler_char(d, a, x, y)
        if _is_disjoint_strip_class(d, a) and s3.chi != chi_emb:
            res.failures.append(
                dict(_case(x, y, a), problems=[f"strip class chi {s3.chi} != {chi_emb}"])
            )
    return res


def stabilized_surface_suite(
    d: HeegaardDiagram, max_coeff: int = 1
) -> SuiteResult:
    """Stage S4 over the bounded positive domains (genus above one).

    The builder raises on a breach of the stage-S4 contract, whose clauses
    ``stage_contract`` states; each breach is reported as a failure, and
    nothing more is checked here.
    """
    res = SuiteResult("stabilized-surface")
    if d.genus > 1:
        for _ in _builds(res, d, max_coeff, stabilized_surface):
            pass  # the S4 contract is the whole check
    return res


def _is_disjoint_strip_class(d: HeegaardDiagram, a: Domain) -> bool:
    """Coefficient-one support on pairwise disjoint embedded bigons and squares.

    Embedded means the region's closure is a disk: its boundary visits
    distinct vertices and it is not glued to itself across any edge.
    """
    if any(c not in (0, 1) for c in a.coeffs):
        return False
    touched: set[str] = set()  # the vertices of the regions so far
    for idx in a.support():
        darts = d.regions[idx].darts
        verts, own = {dart.vertex for dart in darts}, set(darts)
        if len(darts) not in (2, 4) or len(verts) != len(darts) or not touched.isdisjoint(verts):
            return False
        if any(d.rev(dart) in own for dart in darts):
            return False
        touched |= verts
    return True


# ---------------------------------------------------------------------------
# Runner


def _timed(suite, *args) -> SuiteResult:
    t0 = time.perf_counter()
    res = suite(*args)
    res.elapsed = time.perf_counter() - t0
    return res


def run_all(diagrams: dict[str, HeegaardDiagram]) -> list[SuiteResult]:
    """Run every suite at its default box (the module text lists them);
    diagram-level suites run per valid diagram of ``diagrams``.  Each suite
    call is timed here, into its result's ``elapsed``.
    """
    results = [_timed(local_pattern_oracle)]
    for name, d in diagrams.items():
        bad = validate_diagram(d)
        res = SuiteResult(f"validity[{name}]", cases=1)
        results.append(res)
        if bad:
            res.failures.append({"violations": [v.code for v in bad]})
            continue
        for suite in (
            additivity_suite,
            stabilization_suite,
            builder_consistency_suite,
            stabilized_surface_suite,
        ):
            r = _timed(suite, d)
            r.suite = f"{r.suite}[{name}]"
            results.append(r)
    return results


def format_results(results: list[SuiteResult]) -> str:
    lines = []
    for r in results:
        status = "ok" if r.ok else f"FAIL ({len(r.failures)})"
        lines.append(f"{r.suite:45s} {r.cases:6d} cases  {r.elapsed:8.3f}s  {status}")
    total_fail = sum(len(r.failures) for r in results)
    lines.append(
        f"{'total':45s} {sum(r.cases for r in results):6d} cases  "
        f"{sum(r.elapsed for r in results):8.3f}s  "
        f"{'ok' if total_fail == 0 else f'FAIL ({total_fail})'}"
    )
    return "\n".join(lines)

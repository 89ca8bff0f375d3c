"""Command-line front end.

Verbs map one-to-one onto the library operations:

    validate      parse a diagram and report invariant violations
    info          genus, region census, full-surface class summary
    generators    enumerate the generators
    domains       enumerate connecting domains inside a coefficient box
    index         the index quantities of one (domain, x, y) triple
    build-surface run the construction and report the surface census
    stabilize     the stabilized construction plus its cover bookkeeping
    check         run every verification suite, at fixed bounds

``check`` takes no bound: each suite runs at its default box
(``harness.run_all``).

Each verb returns its record, its text and its exit code, and ``main``
prints the record (``--json``) or the text.

Exit codes: 0 success, 1 parse or validation error or an output pipe
closed by its reader, 2 precondition violation, 3 suite failure.
``--json`` switches every verb to a stable machine-readable record (fixed
key order, rationals in lowest terms).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from hdindex.diagram import DiagramError, HeegaardDiagram, parse_diagram, validate_diagram
from hdindex.domains import (
    Domain,
    Generator,
    PreconditionError,
    enumerate_generators,
    find_domains,
    parse_int,
    periodic_domain_basis,
    sigma_class,
)
from hdindex.formulas import euler_measure, index_report
from hdindex.builder import branched_cover_check, build_surface, stabilized_surface
from hdindex import harness

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PRECONDITION = 2
EXIT_SUITE = 3


MAX_DIAGRAM_BYTES = 1 << 20  # 1 MiB: a diagram file any larger is refused


def _load(path: str, require_valid: bool = True) -> HeegaardDiagram:
    try:
        with open(path, "rb") as f:
            data = f.read(MAX_DIAGRAM_BYTES + 1)
        if len(data) > MAX_DIAGRAM_BYTES:
            raise DiagramError(f"{path} is larger than the {MAX_DIAGRAM_BYTES}-byte limit")
        text = data.decode("utf-8")
    except OSError as exc:
        raise DiagramError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise DiagramError(f"{path} is not UTF-8 text: {exc.reason}") from None
    d = parse_diagram(text)
    if require_valid:
        bad = validate_diagram(d)
        if bad:
            raise DiagramError(
                "invalid diagram: " + "; ".join(v.message for v in bad)
            )
    return d


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _cmd_validate(args) -> tuple:
    d = _load(args.diagram, require_valid=False)
    report = validate_diagram(d)
    payload = {
        "valid": not report,
        "violations": [{"code": v.code, "message": v.message} for v in report],
    }
    lines = ["valid"] if not report else [f"{v.code}: {v.message}" for v in report]
    return payload, "\n".join(lines), EXIT_OK if not report else EXIT_INPUT


def _cmd_info(args) -> tuple:
    d = _load(args.diagram)
    e_sigma = euler_measure(d, sigma_class(d))
    rank = len(periodic_domain_basis(d))
    payload = {
        "genus": d.genus,
        "vertices": len(d.vertices),
        "regions": [
            {"id": r.name, "corners": r.corner_count} for r in d.regions
        ],
        "euler_measure_sigma": str(e_sigma),
        "periodic_rank": rank,
    }
    text = (
        f"genus {d.genus}, {len(d.vertices)} crossings, "
        f"{len(d.regions)} regions {d.region_census()}\n"
        f"e(full surface class) = {e_sigma}\n"
        f"periodic domain rank = {rank}"
    )
    return payload, text, EXIT_OK


def _cmd_generators(args) -> tuple:
    d = _load(args.diagram)
    gens = enumerate_generators(d)
    payload = {"count": len(gens), "generators": [g.format() for g in gens]}
    return payload, "\n".join(g.format() for g in gens), EXIT_OK


def _case(args) -> tuple:
    """The loaded diagram, the parsed --from and --to generators, and the
    --domain if the verb has one."""
    d = _load(args.diagram)
    x, y = Generator.parse(d, args.from_), Generator.parse(d, args.to)
    if not hasattr(args, "domain"):
        return d, x, y
    return d, x, y, Domain.parse(d, args.domain)


def _cmd_domains(args) -> tuple:
    d, x, y = _case(args)
    doms = find_domains(d, x, y, args.max_coeff, args.positive)
    payload = {"count": len(doms), "domains": [a.format() for a in doms]}
    return payload, "\n".join(a.format() for a in doms), EXIT_OK


def _cmd_index(args) -> tuple:
    d, x, y, a = _case(args)
    rep = index_report(d, a, x, y, force=args.force)
    return rep.as_dict(), rep.as_text(), EXIT_OK


def _cmd_build_surface(args) -> tuple:
    d, x, y, a = _case(args)
    s3 = build_surface(d, a, x, y)
    payload = s3.to_json_dict()
    text = "\n".join(
        [
            f"stage {payload['stage']}  chi = {payload['chi']}  "
            f"delta = {payload['delta']}",
            f"corners: {', '.join(c['vertex'] for c in payload['corners'])}",
            f"degenerate disks: {payload['degenerate_disks']}",
            f"boundary branch points: {payload['branch_marks']}",
            f"pushforward: {payload['pushforward']}",
        ]
    )
    return payload, text, EXIT_OK


def _cmd_stabilize(args) -> tuple:
    d, x, y, a = _case(args)
    s4 = stabilized_surface(d, a, x, y)
    check = branched_cover_check(s4)
    payload = dict(s4.to_json_dict(), cover_check=check)
    text = "\n".join(
        [
            f"stage S4  chi = {s4.chi}  connected = {check['connected']}",
            f"corners: {', '.join(c['vertex'] for c in payload['corners'])}",
            f"corner halves per boundary component: "
            f"{', '.join(check['corner_halves'])} (sum {check['corner_halves_sum']})",
            f"branch budget: {check['branch_budget']}",
            f"pushforward: {payload['pushforward']}",
            f"cover bookkeeping: {'ok' if check['ok'] else 'VIOLATED'}",
        ]
    )
    return payload, text, EXIT_OK if check["ok"] else EXIT_SUITE


def _cmd_check(args) -> tuple:
    if args.corpus:
        diagrams = {}
        for path in sorted(Path(args.corpus).glob("*.hd")):
            diagrams[path.name] = _load(str(path), require_valid=False)
        if not diagrams:
            raise DiagramError(f"no .hd diagrams in {args.corpus}")
    else:
        diagrams = harness.bundled_corpus()
    results = harness.run_all(diagrams)
    payload = {"suites": [r.as_dict() for r in results]}
    code = EXIT_OK if all(r.ok for r in results) else EXIT_SUITE
    return payload, harness.format_results(results), code


def _nonnegative(text: str) -> int:
    """An argparse type: an integer no smaller than 0, written as
    ``Domain.parse`` reads a coefficient (``parse_int``)."""
    value = parse_int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is below the minimum 0")
    return value


_nonnegative.__name__ = "int"  # argparse names it for a non-integer, as with type=int


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hdindex",
        description="Exact index quantities and surface constructions "
        "for combinatorial Heegaard diagrams.",
    )
    p.add_argument("--json", action="store_true", help="emit JSON records")
    sub = p.add_subparsers(dest="verb", required=True)

    def diagram_verb(name, fn, **kwargs):
        q = sub.add_parser(name, **kwargs)
        q.add_argument("diagram", help="diagram file (.hd)")
        q.set_defaults(fn=fn)
        return q

    # the forms Generator.format and Domain.format write
    points = "generator: comma-separated points, one per alpha curve"
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--from", dest="from_", required=True, help=f"source {points}")
    pair.add_argument("--to", dest="to", required=True, help=f"target {points}")
    triple = argparse.ArgumentParser(add_help=False, parents=[pair])
    triple.add_argument(
        "--domain", required=True, help="comma-separated r<k>:<int> terms; 0 is the zero domain"
    )

    diagram_verb("validate", _cmd_validate, help="check diagram invariants")
    diagram_verb("info", _cmd_info, help="genus, regions, class summary")
    diagram_verb("generators", _cmd_generators, help="enumerate generators")

    q = diagram_verb(
        "domains", _cmd_domains, parents=[pair], help="enumerate connecting domains"
    )
    q.add_argument("--max-coeff", type=_nonnegative, default=4, help="coefficient bound N: -N..N")
    q.add_argument("--positive", action="store_true", help="positive domains only: the box 0..N")

    q = diagram_verb("index", _cmd_index, parents=[triple], help="index quantities of a domain")
    q.add_argument(
        "--force",
        action="store_true",
        help="evaluate even if the domain does not connect the generators",
    )

    diagram_verb(
        "build-surface", _cmd_build_surface, parents=[triple], help="run the construction"
    )
    diagram_verb("stabilize", _cmd_stabilize, parents=[triple], help="stabilized construction")

    q = sub.add_parser("check", help="run the verification suites")
    q.add_argument(
        "corpus",
        nargs="?",
        help="directory of .hd files (default: the bundled corpus)",
    )
    q.set_defaults(fn=_cmd_check)

    return p


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, text, code = args.fn(args)
        _emit(args, payload, text)
        return code
    except DiagramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as exc:
        print(f"precondition: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())

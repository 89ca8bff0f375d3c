"""In-memory span tracer for the hdindex benchmark.

The tracer wraps the public entry point of each layer and rebinds the
wrapper in every ``hdindex`` module that holds the original function, so
calls made through ``from ... import`` names are caught as well as calls
through the defining module.  Each call records one span: name, start,
end and parent span.  Self times are derived from the spans after the run.

An optional observer per target sees each call's arguments and result.
Observers read census counts; they run inside their own ``trace.census``
span so their cost lands in the tracing overhead, not in a layer.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict

# (module, attribute, span name).  An attribute of the form "Class.method"
# wraps a method on the class.  These are the functions that cross a layer
# boundary; helpers called only inside one layer are timed as part of it.
TARGETS = (
    ("hdindex.diagram", "parse_diagram", "diagram.parse_diagram"),
    ("hdindex.diagram", "validate_diagram", "diagram.validate_diagram"),
    ("hdindex.domains", "enumerate_generators", "domains.enumerate_generators"),
    ("hdindex.domains", "find_domains", "domains.find_domains"),
    ("hdindex.domains", "connects", "domains.connects"),
    ("hdindex.formulas", "euler_measure", "formulas.euler_measure"),
    ("hdindex.formulas", "maslov_index", "formulas.maslov_index"),
    ("hdindex.formulas", "embedded_euler_char", "formulas.embedded_euler_char"),
    ("hdindex.formulas", "analytic_index", "formulas.analytic_index"),
    ("hdindex.formulas", "branch_budget", "formulas.branch_budget"),
    ("hdindex.formulas", "index_report", "formulas.index_report"),
    ("hdindex.builder", "glue_copies", "builder.glue_copies"),
    ("hdindex.builder", "cut_bad_corners", "builder.cut_bad_corners"),
    ("hdindex.builder", "add_degenerate_corners", "builder.add_degenerate_corners"),
    ("hdindex.builder", "splice_boundary_circles", "builder.splice_boundary_circles"),
    ("hdindex.builder", "build_surface", "builder.build_surface"),
    ("hdindex.builder", "stabilized_surface", "builder.stabilized_surface"),
    ("hdindex.builder", "branched_cover_check", "builder.branched_cover_check"),
    ("hdindex.builder", "BuiltSurface.to_json_dict", "builder.to_json_dict"),
    ("hdindex.harness", "bundled_corpus", "harness.bundled_corpus"),
    ("hdindex.harness", "run_all", "harness.run_all"),
    ("hdindex.harness", "local_pattern_oracle", "harness.local_pattern_oracle"),
    ("hdindex.harness", "additivity_suite", "harness.additivity_suite"),
    ("hdindex.harness", "stabilization_suite", "harness.stabilization_suite"),
    ("hdindex.harness", "builder_consistency_suite", "harness.builder_consistency_suite"),
    ("hdindex.harness", "stabilized_surface_suite", "harness.stabilized_surface_suite"),
    ("hdindex.cli", "main", "cli.main"),
    ("hdindex.cli", "_emit", "cli.emit"),
)

CENSUS = "trace.census"


def _hdindex_modules() -> list:
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "hdindex" or name.startswith("hdindex."))
    ]


class Tracer:
    """Records spans of the wrapped functions while installed.

    Use as a context manager: entering rebinds every target, leaving
    restores the originals.
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self._originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def clear(self) -> None:
        """Drop recorded spans (between phases); the wrappers stay installed."""
        for lst in (self.names, self.starts, self.ends, self.parents):
            del lst[:]

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = _hdindex_modules()
        for modname, attr, span in TARGETS:
            owner = sys.modules[modname]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
                attr = meth
            original = getattr(owner, attr)
            observe = self.observers.get(span)
            if observe is not None:
                observe = self._wrap(CENSUS, observe)
            wrapper = self._wrap(span, original, observe)
            self._originals[span] = original
            if cls_name:
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, key, original))
                        setattr(m, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def missed_rebindings(self) -> list[str]:
        """Module attributes that still hold an unwrapped target function."""
        originals = {id(fn): span for span, fn in self._originals.items()}
        missed = []
        for m in _hdindex_modules():
            for key, value in vars(m).items():
                if id(value) in originals:
                    missed.append(f"{m.__name__}.{key}")
        return sorted(missed)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: summed self time (seconds) and call count.

        A span's self time is its duration minus the durations of its
        direct children; wrapped calls never overlap, so the children of
        one span are disjoint intervals inside it.
        """
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, d, c in zip(self.names, dur, child):
            self_s[name] += d - c
            calls[name] += 1
        return dict(self_s), dict(calls)

    def dump(self) -> dict:
        """Spans as plain data: name table plus parallel arrays."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        return {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": [round(s - t0, 9) for s in self.starts],
            "end": [round(e - t0, 9) for e in self.ends],
            "parent": list(self.parents),
        }


def wrapper_cost(calls: int = 20_000, rounds: int = 5) -> float:
    """Seconds a wrapper adds to one call, timed on a two-argument no-op.

    Bare and wrapped calls alternate over several rounds and the fastest
    round of each is kept, so a burst of host load does not land on one
    side only.
    """

    def noop(a, b):
        return None

    wrapped = Tracer()._wrap("noop", noop)
    clock = time.perf_counter
    best = {noop: math.inf, wrapped: math.inf}
    for _ in range(rounds):
        for fn in best:
            t0 = clock()
            for _ in range(calls):
                fn(1, 2)
            best[fn] = min(best[fn], clock() - t0)
    return (best[wrapped] - best[noop]) / calls


def write_spans(path, sections: dict) -> None:
    """Write the recorded spans of each phase as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sections, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Census observers and the per-layer metrics


class Census:
    """Counts read from layer inputs and outputs while the tracer runs.

    The counts returned by :meth:`exact` define the work a workload does;
    the run pins them in ``reference.json`` and a traced run that differs
    fails.
    """

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.pairs: set = set()
        self.nonempty = 0
        self.found: set = set()
        self.builds = 0
        self.faces = 0
        self.s1_cuts = 0
        self.s3_circles = 0
        self.suite_s: dict[str, float] = defaultdict(float)

    def observers(self) -> dict:
        return {
            "domains.find_domains": self._find_domains,
            "builder.glue_copies": self._s0,
            "builder.add_degenerate_corners": self._s2,
            "builder.build_surface": self._s3,
            "harness.run_all": self._suites,
        }

    def _find_domains(self, args, result) -> None:
        d, x, y = args[:3]
        self.pairs.add((id(d), x, y))
        self.nonempty += bool(result)
        # A domain asked for again (a rebuilt table) is counted once.
        self.found.update((id(d), x, y, a) for a in result)

    def _s0(self, args, s0) -> None:
        # Stage S1 gives each odd corner class of length 2m+1 its m cuts.
        self.s1_cuts += sum((length - 1) // 2 for _, length in s0.corners())

    def _s2(self, args, s2) -> None:
        # Each cornerless boundary circle left after S2 is spliced in S3.
        self.s3_circles += sum(
            1 for arcs in s2.boundary_arcs().values() for arc in arcs if arc.get("circle")
        )

    def _s3(self, args, s3) -> None:
        self.builds += 1
        self.faces += sum(s3.pushforward().coeffs)

    def _suites(self, args, results) -> None:
        for r in results:
            self.suite_s[r.suite.partition("[")[0]] += r.elapsed

    def exact(self) -> dict[str, int]:
        """The counts that must repeat exactly from run to run."""
        return {
            "domains.found": len(self.found),
            "builder.builds": self.builds,
            "builder.faces": self.faces,
            "builder.s1_cuts": self.s1_cuts,
            "builder.s3_circles": self.s3_circles,
        }


# Span name -> per-layer self-time metric.  Every span name maps to exactly
# one metric, so the self times partition the traced pass.
SELF_METRICS = {
    "domains.find_domains": "domains.find_domains.self_s",
    "domains.connects": "domains.connects.self_s",
    "domains.enumerate_generators": "domains.generators.self_s",
    "builder.glue_copies": "builder.s0_glue.self_s",
    "builder.cut_bad_corners": "builder.s1_cut.self_s",
    "builder.add_degenerate_corners": "builder.s2_degenerate.self_s",
    "builder.splice_boundary_circles": "builder.s3_splice.self_s",
    "builder.build_surface": "builder.s3_verify.self_s",
    "builder.stabilized_surface": "builder.s4_stabilize.self_s",
    "builder.branched_cover_check": "builder.cover_check.self_s",
    "builder.to_json_dict": "builder.census.self_s",
    "cli.main": "cli.main.self_s",
    "cli.emit": "cli.emit.self_s",
    CENSUS: "trace.census_s",
}
# Layers whose spans are pooled into one metric.
LAYER_METRICS = {
    "formulas": "formulas.self_s",
    "harness": "harness.self_s",
    "diagram": "diagram.pass_parse.self_s",
}
SUITES = (
    "local-pattern-oracle",
    "additivity",
    "stabilization",
    "builder-consistency",
    "stabilized-surface",
)


def self_metric(span: str) -> str:
    return SELF_METRICS.get(span) or LAYER_METRICS[span.partition(".")[0]]


def layer_metrics(
    tracer: Tracer, census: Census, traced_wall_s: float, untraced_wall_s: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    ``untraced_wall_s`` is the median untraced pass of the same run, at the
    traced pass's host speed as the probe measured it; the tracing overhead
    is the traced pass minus it.  What drift the probe misses can still
    outweigh that difference, so the wrappers' own cost is also estimated
    from the span count and :func:`wrapper_cost`.
    """
    self_s, calls = tracer.self_times()
    out: dict[str, tuple[float, str]] = {}
    for metric in list(SELF_METRICS.values()) + list(LAYER_METRICS.values()):
        out[metric] = (0.0, "s")
    for span, t in self_s.items():
        metric = self_metric(span)
        out[metric] = (out[metric][0] + t, "s")
    fd_calls = calls.get("domains.find_domains", 0)
    out["domains.find_domains.calls"] = (fd_calls, "count")
    out["domains.pairs_nonempty_ratio"] = (
        census.nonempty / fd_calls if fd_calls else 0.0, "ratio"
    )
    out["domains.connects.calls"] = (calls.get("domains.connects", 0), "count")
    out["formulas.calls"] = (
        sum(n for span, n in calls.items() if span.startswith("formulas.")), "count"
    )
    for suite in SUITES:
        out[f"harness.{suite}.s"] = (census.suite_s.get(suite, 0.0), "s")
    out["harness.distinct_pairs"] = (len(census.pairs), "count")
    out["harness.tables_per_pair"] = (
        fd_calls / len(census.pairs) if census.pairs else 0.0, "ratio"
    )
    out["trace.wall_s"] = (traced_wall_s, "s")
    out["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    out["trace.wrapper_s"] = (len(tracer.names) * wrapper_cost(), "s")
    out["trace.unattributed_s"] = (traced_wall_s - sum(self_s.values()), "s")
    out["trace.spans"] = (len(tracer.names), "count")
    return out

"""Diagram and domain helpers that only the tests use, their time limit,
the generated diagrams, the one walk of a box's cases, and the one
spelling of loading a script and of running a child interpreter.

The package itself never mirrors or writes a diagram, nor builds the zero
domain or the 0-chain y - x of two generators, so these live beside the
tests that do.  ``time_limit`` bounds a block by ``SIGALRM``: each test
under ``conftest.TEST_SECONDS``, and a walk or a loop that a test expects
to end quickly under a shorter bound of its own.  ``class_frames`` and
the generating-set additivity check on them stay here until a suite of
``check`` calls them.  ``box_cases`` walks the cases of a box in the order
of ``check``'s suites, which the pinned digests and case counts follow,
and ``valid_diagrams`` draws the seeded diagrams that the tests run beside
the bundled corpus; no test module imports another.
"""

import importlib.util
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from hdindex.diagram import ALPHA, BETA, HeegaardDiagram, validate_diagram
from hdindex.domains import Domain, Generator, _records, enumerate_generators
from hdindex.domains import periodic_domain_basis
from hdindex.formulas import maslov_quarters
from hdindex.harness import _domain_table

SRC = Path(__file__).resolve().parent.parent / "src"
MAX_VERTICES = 7


def load_module(path: Path, name: str):
    """The file ``path`` executed as a fresh module ``name``, not put in ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run ``python [flags] -c code`` in ``src`` with only ``src`` added to the path;
    raise if it exits nonzero."""
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=SRC,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        check=True,
    )


@contextmanager
def time_limit(seconds: float, what: str):
    """Raise ``TimeoutError`` inside the block once it has run ``seconds``.

    Arms ``SIGALRM`` with a handler of its own, and on leaving restores the
    handler it replaced and re-arms what is left of any timer it displaced,
    so a shorter limit nests inside a longer one.
    """

    def too_slow(signum, frame):
        raise TimeoutError(f"{what} ran over its {seconds} s limit")

    previous = signal.signal(signal.SIGALRM, too_slow)
    start = time.monotonic()
    outer, _ = signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-3))


def mirror(d: HeegaardDiagram) -> HeegaardDiagram:
    """The diagram with the opposite surface orientation (all signs flipped)."""
    return HeegaardDiagram(d.alpha, d.beta, {v: -s for v, s in d.signs.items()})


def serialize_diagram(d: HeegaardDiagram) -> str:
    """Emit the diagram in canonical form; ``parse . serialize`` is identity."""
    lines = [
        f"{family} {name}: {' '.join(vs)}"
        for family, curves in ((ALPHA, d.alpha), (BETA, d.beta))
        for name, vs in curves
    ]
    lines += [f"sign {v}: {'+' if d.signs[v] == 1 else '-'}" for v in d.vertices]
    return "\n".join(lines) + "\n"


def zero_domain(d: HeegaardDiagram) -> Domain:
    return Domain((0,) * len(d.regions))


def y_minus_x(d: HeegaardDiagram, x: Generator, y: Generator) -> dict[str, int]:
    """The 0-chain y - x, keyed by vertex in canonical order: the vertex
    boundary that the alpha part of a domain from x to y must have."""
    out = {v: 0 for v in d.vertices}
    for v in y.points:
        out[v] += 1
    for v in x.points:
        out[v] -= 1
    return out


def torus_text(n: int) -> str:
    """A genus-one diagram with n crossings: ``alpha a1`` and ``beta b1``
    both list v0 ... v(n-1), with signs alternating from ``+``.  It is
    valid for odd n."""
    vs = " ".join(f"v{i}" for i in range(n))
    signs = "".join(f"sign v{i}: {'+-'[i % 2]}\n" for i in range(n))
    return f"alpha a1: {vs}\nbeta b1: {vs}\n{signs}"


def class_frames(d: HeegaardDiagram) -> list[tuple[Generator, dict, list[Domain]]]:
    """(base generator, potentials, periodic basis) for each class of generators.

    A class is the generators of one class key, in enumeration order; its
    base is the first of them, and ``potentials`` maps each to its potential
    a(x).  pi_2(x, y) of two generators of a class is a(y) - a(x) plus the
    span of the basis, so each frame spans every domain of its class.
    """
    classes: dict = {}
    for x in enumerate_generators(d):
        _, rx, _ = _records(d, x, x)
        classes.setdefault(rx.key, {})[x] = rx.potential
    basis = periodic_domain_basis(d)
    return [(next(iter(potentials)), potentials, basis) for potentials in classes.values()]


def generating_set_faults(diagrams) -> list[tuple]:
    """The cases where 4 mu is not additive, over each class frame.

    For base o and members y, z of a class it compares 4 mu(A + B) with
    4 mu(A) + 4 mu(B) at A = a(y) - a(o) from o to y and, from y to z,
    B = a(z) - a(y) or B a periodic basis vector (z = y).  The defect of
    4 mu is bilinear in (A, B) and, at the potentials, a sum of one
    antisymmetric form over the three generators, so these cases decide
    additivity on all of pi_2, whatever the box.
    """
    faults = []
    for d in diagrams:
        for o, potentials, basis in class_frames(d):
            for y, ay in potentials.items():
                a = Domain(tuple(q - p for p, q in zip(potentials[o], ay)))
                mu_a = maslov_quarters(d, a, o, y)
                steps = [
                    (z, Domain(tuple(q - p for p, q in zip(ay, az))))
                    for z, az in potentials.items()
                ]
                for z, b in steps + [(y, p) for p in basis]:
                    if maslov_quarters(d, a + b, o, z) != mu_a + maslov_quarters(d, b, y, z):
                        faults.append((d, o, y, z, a, b))
    return faults


def box_cases(diagrams, box):
    """(d, x, y, a) of each positive domain ``a`` from x to y in the box 0..box,
    as ``check``'s suites walk them: by generator pair, then in domain order."""
    for d in diagrams:
        for (x, y), domains in _domain_table(d, box).items():
            for a in domains:
                yield d, x, y, a


def split(rng, vertices, k):
    """``vertices`` shuffled and cut into k nonempty cyclic curves."""
    vs = list(vertices)
    rng.shuffle(vs)
    cuts = sorted(rng.sample(range(1, len(vs)), k - 1))
    return [vs[i:j] for i, j in zip([0] + cuts, cuts + [len(vs)])]


def random_diagram(rng, blocks):
    """One diagram of ``blocks`` blocks sharing no curve or vertex."""
    alpha, beta, signs = [], [], {}
    per_block = MAX_VERTICES // blocks
    for b in range(blocks):
        vs = [f"v{b}_{i}" for i in range(rng.randint(1, per_block))]
        top = min(3, len(vs))
        alpha += [(f"a{b}_{i}", c) for i, c in enumerate(split(rng, vs, rng.randint(1, top)))]
        beta += [(f"b{b}_{i}", c) for i, c in enumerate(split(rng, vs, rng.randint(1, top)))]
        signs.update((v, rng.choice((1, -1))) for v in vs)
    return HeegaardDiagram(alpha, beta, signs)


def valid_diagrams(seed, count):
    """``count`` diagrams of genus 1-3, at most ``MAX_VERTICES`` vertices,
    that pass ``validate_diagram``."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        g = rng.randint(1, 3)
        vs = [f"v{i}" for i in range(rng.randint(g, MAX_VERTICES))]
        alpha = [(f"a{i}", c) for i, c in enumerate(split(rng, vs, g))]
        beta = [(f"b{i}", c) for i, c in enumerate(split(rng, vs, g))]
        d = HeegaardDiagram(alpha, beta, {v: rng.choice((1, -1)) for v in vs})
        if not validate_diagram(d):
            found.append(d)
    return found

"""Diagram and domain helpers that only the tests use, and their time limit.

The package itself never mirrors or writes a diagram, nor builds the zero
domain or the 0-chain y - x of two generators, so these live beside the
tests that do.  ``time_limit`` bounds a block by ``SIGALRM``: each test
under ``conftest.TEST_SECONDS``, and a walk or a loop that a test expects
to end quickly under a shorter bound of its own.
"""

import signal
import time
from contextlib import contextmanager

from hdindex.diagram import ALPHA, BETA, HeegaardDiagram
from hdindex.domains import Domain, Generator


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

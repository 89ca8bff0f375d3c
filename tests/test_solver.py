"""Property test of the exact integer solver on small random systems."""

from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from hdindex.domains import _Factorization  # noqa: E402

BOX = 3


@st.composite
def systems(draw):
    """An integer matrix of at most 4 x 5 with entries -3..3 and a target,
    half the time the image of a vector in the box."""
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    m = draw(
        st.lists(
            st.lists(entry, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    if draw(st.booleans()):
        c = draw(st.lists(st.integers(-BOX, BOX), min_size=ncols, max_size=ncols))
        t = [sum(k * x for k, x in zip(row, c)) for row in m]
    else:
        t = draw(st.lists(st.integers(-6, 6), min_size=nrows, max_size=nrows))
    return m, t


def _image(m, cols, coeffs):
    return tuple(sum(row[j] * c for j, c in zip(cols, coeffs)) for row in m)


def solvable_in_box(m, t):
    """Exhaustive search of |c| <= BOX for M c = t, meeting in the middle:
    the images of the first half of the columns against t minus those of
    the rest."""
    ncols = len(m[0])
    first, rest = range(ncols // 2), range(ncols // 2, ncols)
    values = range(-BOX, BOX + 1)
    left = {_image(m, first, cs) for cs in product(values, repeat=len(first))}
    return any(
        tuple(ti - s for ti, s in zip(t, _image(m, rest, cs))) in left
        for cs in product(values, repeat=len(rest))
    )


@hypothesis.seed(1301)
@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(systems())
def test_solver_is_exact_and_complete(system):
    m, t = system
    a = _Factorization.of(m, len(m[0])).solve(t)
    if a is None:
        assert not solvable_in_box(m, t)
    else:
        assert [sum(k * x for k, x in zip(row, a)) for row in m] == t

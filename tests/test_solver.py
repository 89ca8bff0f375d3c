"""Property test of the exact integer solver on small random systems."""

from itertools import product

from hypothesis import given, seed, settings, strategies as st

from hdindex.domains import _Factorization

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


@seed(1301)
@settings(max_examples=300, deadline=None, database=None)
@given(systems())
def test_solver_is_exact_and_complete(system):
    # t lies in im M exactly when its residue is zero, and then M a = t
    m, t = system
    residue, a = _Factorization.of(m, len(m[0])).reduce(t)
    if any(residue):
        assert not solvable_in_box(m, t)
    else:
        assert [sum(k * x for k, x in zip(row, a)) for row in m] == t


@seed(1302)
@settings(max_examples=300, deadline=None, database=None)
@given(systems(), st.lists(st.integers(-BOX, BOX), min_size=5, max_size=5))
def test_reduce_leaves_the_canonical_residue(system, shift):
    # M a = t - residue, every pivot coordinate of the residue lies in
    # [0, pivot), and t moved by any M c reduces to the same residue
    m, t = system
    fact = _Factorization.of(m, len(m[0]))
    residue, a = fact.reduce(t)
    assert [ti - sum(k * x for k, x in zip(row, a)) for row, ti in zip(m, t)] == residue
    assert all(0 <= residue[pc] < h[pc] for pc, h in fact.echelon)
    moved = [ti + sum(k * c for k, c in zip(row, shift)) for row, ti in zip(m, t)]
    assert fact.reduce(moved)[0] == residue

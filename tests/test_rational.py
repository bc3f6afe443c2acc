from fractions import Fraction
from math import gcd

import numpy as np
from hypothesis import given, settings, strategies as st

from njcones.rational import (
    affine_rank,
    feasible_point,
    frac_rows,
    nullspace,
    primitive,
    rank,
    solve,
)


def test_frac_rows_preserves_values():
    rows = frac_rows([[1, 0.5, Fraction(2, 3)], [0, 1, 2]])
    assert rows[0] == [Fraction(1), Fraction(1, 2), Fraction(2, 3)]
    assert all(isinstance(x, Fraction) for row in rows for x in row)


def test_primitive_scales_and_orients():
    assert primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert primitive([Fraction(0), Fraction(-1, 2), Fraction(3, 2)]) == (0, -1, 3)
    # sign convention: first nonzero entry stays whatever sign it had
    assert primitive([-2, 4]) == (-1, 2)


def test_primitive_zero_vector_passes_through():
    assert primitive([0, 0, 0]) == (0, 0, 0)


def test_rank_matches_numpy_on_random_integer_matrices():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = rng.integers(-4, 5, size=(rng.integers(1, 6), rng.integers(1, 6)))
        assert rank(a.tolist()) == np.linalg.matrix_rank(a.astype(float))


def test_nullspace_vectors_annihilate():
    rows = [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0]]
    basis = nullspace(rows)
    assert len(basis) == 4 - rank(rows)
    for v in basis:
        for r in frac_rows(rows):
            assert sum(a * b for a, b in zip(r, v)) == 0


def test_solve_exact_and_inconsistent():
    x = solve([[2, 0], [1, 3]], [4, 5])
    assert x == [Fraction(2), Fraction(1)]
    assert solve([[1, 1], [1, 1]], [0, 1]) is None
    # underdetermined systems still yield some exact solution
    x = solve([[1, 1, 1]], [6])
    assert x is not None and sum(x) == 6


def test_affine_rank_of_simplex_and_segment():
    assert affine_rank([[0, 0], [1, 0], [0, 1]]) == 2
    assert affine_rank([[0, 0, 0], [1, 1, 1], [2, 2, 2]]) == 1
    assert affine_rank([[5, 5]]) == 0


def test_feasible_point_box():
    # G x >= g: the unit box 0 <= x, y <= 1
    G = [[1, 0], [-1, 0], [0, 1], [0, -1]]
    g = [0, -1, 0, -1]
    x = feasible_point(G, g)
    assert x is not None
    for row, b in zip(frac_rows(G), g):
        assert sum(a * v for a, v in zip(row, x)) >= b


def test_feasible_point_empty_region():
    assert feasible_point([[1], [-1]], [1, 0]) is None


def textbook_rref(rows):
    """Fraction Gauss-Jordan to reduced echelon form; returns (rows, pivot cols).

    The reference the integer kernel is checked against: unit pivots,
    exact Fraction arithmetic throughout.
    """
    a = frac_rows(rows)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


@st.composite
def rational_systems(draw):
    """(A, b) with fractional entries, some zero rows, wide and tall shapes."""
    nrows = draw(st.integers(1, 7))
    ncols = draw(st.integers(1, 7))
    entry = st.one_of(
        st.just(Fraction(0)), st.fractions(-6, 6, max_denominator=7)
    )
    rows = []
    for _ in range(nrows):
        if draw(st.integers(0, 4)) == 0:
            rows.append([Fraction(0)] * ncols)
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    rhs = draw(st.lists(entry, min_size=nrows, max_size=nrows))
    return rows, rhs


@given(rational_systems())
@settings(max_examples=200, deadline=None)
def test_integer_kernel_matches_textbook_elimination(system):
    rows, rhs = system
    ncols = len(rows[0])
    _, pivots = textbook_rref(rows)
    assert rank(rows) == len(pivots)

    basis = nullspace(rows)
    assert len(basis) == ncols - len(pivots)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert gcd(*v) == 1
        for r in rows:
            assert sum(a * x for a, x in zip(r, v)) == 0
    if basis:
        assert rank(basis) == len(basis)

    red, aug_pivots = textbook_rref([r + [b] for r, b in zip(rows, rhs)])
    x = solve(rows, rhs)
    if ncols in aug_pivots:
        assert x is None
    else:
        want = [Fraction(0)] * ncols
        for r, pc in enumerate(aug_pivots):
            want[pc] = red[r][ncols]
        assert x == want
        for r, b in zip(rows, rhs):
            assert sum(a * xi for a, xi in zip(r, x)) == b

    diffs = [[a - b for a, b in zip(r, rows[0])] for r in rows[1:]]
    assert affine_rank(rows) == len(textbook_rref(diffs)[1])

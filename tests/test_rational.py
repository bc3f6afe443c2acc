from fractions import Fraction
from itertools import combinations
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from njcones import rational
from njcones.rational import (
    affine_rank,
    extreme_rays,
    feasible_point,
    nullspace,
    primitive,
    rank,
    solve,
)


def test_primitive_scales_and_orients():
    assert primitive([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
    assert primitive([Fraction(0), Fraction(-1, 2), Fraction(3, 2)]) == (0, -1, 3)
    # sign convention: first nonzero entry stays whatever sign it had
    assert primitive([-2, 4]) == (-1, 2)


def test_primitive_zero_vector_passes_through():
    assert primitive([0, 0, 0]) == (0, 0, 0)


def _numpy_ints(dtype):
    info = np.iinfo(dtype)
    return st.integers(max(info.min, -1000), min(info.max, 1000)).map(dtype)


_small = st.integers(-1000, 1000)
_numpy_int = st.sampled_from([np.int8, np.int32, np.int64, np.uint16]).flatmap(_numpy_ints)


@given(
    st.lists(st.integers(-(10**30), 10**30), max_size=6)
    | st.lists(_numpy_int, max_size=6)
    | st.lists(_small, max_size=6).map(lambda v: np.array(v, dtype=np.int64))
    | st.lists(_small | _numpy_int | st.fractions(max_denominator=30), max_size=6)
)
@settings(max_examples=300, deadline=None)
def test_primitive_integer_fast_path_matches_the_fraction_path(vec):
    got = primitive(vec)
    assert got == primitive([Fraction(x) for x in vec])
    assert all(type(v) is int for v in got)


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
        for r in rows:
            assert sum(Fraction(a) * b for a, b in zip(r, v)) == 0


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


def slacks_of(G, x):
    return [sum(a * v for a, v in zip(row, x)) for row in G]


small_rows = st.integers(1, 6).flatmap(
    lambda m: st.lists(
        st.lists(st.integers(-3, 3), min_size=m, max_size=m), min_size=1, max_size=8
    )
)


@given(small_rows, st.data())
@settings(max_examples=200, deadline=None)
def test_feasible_point_finds_planted_interior_points(G, data):
    m = len(G[0])
    x0 = data.draw(
        st.lists(st.integers(-3, 3), min_size=m, max_size=m).filter(any)
    )
    # orient every row so that G x0 > 0; rows orthogonal to x0 get x0 added
    planted = []
    for row, s in zip(G, slacks_of(G, x0)):
        if s == 0:
            row = [a + b for a, b in zip(row, x0)]
        planted.append(row if s >= 0 else [-a for a in row])
    x = feasible_point(planted)
    assert x is not None
    assert all(isinstance(v, Fraction) for v in x)
    assert min(slacks_of(planted, x)) >= 1


@given(small_rows, st.data())
@settings(max_examples=200, deadline=None)
def test_feasible_point_certifies_planted_dependencies(G, data):
    lam = data.draw(
        st.lists(st.integers(0, 3), min_size=len(G), max_size=len(G)).filter(any)
    )
    # the last row is -sum(lam_i g_i): y = (lam, 1) is a Gordan certificate
    last = [-sum(l * row[c] for l, row in zip(lam, G)) for c in range(len(G[0]))]
    assert feasible_point(G + [last]) is None


def moved_coordinate(lp):
    lp.x[0] -= 10 * (abs(lp.x[0]) + 1)  # the slack of row [1, 0, 0] goes negative


def dropped_multiplier(lp):
    y = lp.ineqlin.marginals  # -y
    y[np.argmin(y)] *= -1


def added_multiplier(lp):
    # the support becomes all three rows, where the exact solution is (-1, 2, 0)
    y = lp.ineqlin.marginals
    y[np.argmax(y)] = y.min()


@pytest.mark.parametrize(
    "G, feasible, perturb",
    [
        ([[1, 0, 0], [0, 1, 0], [1, 1, 1], [2, -1, 1]], True, moved_coordinate),
        ([[2], [1], [-1]], False, dropped_multiplier),
        ([[2], [1], [-1]], False, added_multiplier),
    ],
    ids=["moved_coordinate", "dropped_multiplier", "added_multiplier"],
)
def test_feasible_point_rejects_a_perturbed_proposal(monkeypatch, G, feasible, perturb):
    """A wrong LP proposal raises; it never becomes an answer."""
    assert (feasible_point(G) is not None) == feasible
    real = rational.linprog

    def perturbed(*args, **kwargs):
        lp = real(*args, **kwargs)
        perturb(lp)
        return lp

    monkeypatch.setattr(rational, "linprog", perturbed)
    with pytest.raises(ArithmeticError):
        feasible_point(G)


def textbook_rref(rows):
    """Fraction Gauss-Jordan to reduced echelon form; returns (rows, pivot cols).

    The reference the integer kernel is checked against: unit pivots,
    exact Fraction arithmetic throughout.
    """
    a = [[Fraction(x) for x in row] for row in rows]
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


def brute_force_rays(rows):
    """Extreme rays by definition: feasible, and tight on rows of rank dim - 1.

    Each rank-(dim - 1) subset of rows leaves a one-dimensional null space;
    its primitive vector, with either sign, is kept when every row is
    nonnegative on it.
    """
    dim = len(rows[0])
    rays = set()
    for subset in combinations(rows, dim - 1):
        if rank(list(subset)) != dim - 1:
            continue
        (v,) = nullspace(list(subset))
        for w in (v, [-x for x in v]):
            if min(slacks_of(rows, w)) >= 0:
                rays.add(tuple(w))
    return rays


@st.composite
def pointed_cones(draw):
    """Integer rows of full column rank, with repeated and redundant rows."""
    dim = draw(st.integers(2, 4))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    rows = draw(st.lists(row, min_size=dim, max_size=7))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(0, 2)), draw(st.integers(1, 2))
        rows.insert(draw(st.integers(0, len(rows))), [s * x + t * y for x, y in zip(a, b)])
    assume(rank(rows) == dim)
    return rows


@given(pointed_cones())
@settings(max_examples=300, deadline=None)
def test_extreme_rays_match_brute_force_enumeration(rows):
    rays = extreme_rays(rows)
    assert sorted(tuple(w) for w, _ in rays) == sorted(brute_force_rays(rows))
    for w, zeros in rays:
        assert zeros == sum(1 << k for k, s in enumerate(slacks_of(rows, w)) if s == 0)


@pytest.mark.parametrize("rows", [[[1, 0, 0], [0, 1, 0]], [[1, 2], [2, 4], [-1, -2]], []])
def test_extreme_rays_reject_a_cone_that_is_not_pointed(rows):
    with pytest.raises(ValueError, match="not pointed"):
        extreme_rays(rows)

import math
from fractions import Fraction
from itertools import combinations
from math import gcd
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from njcones import projection, rational
from njcones.census import census
from njcones.rational import (
    affine_rank,
    extreme_rays,
    feasible_point,
    nullspace,
    primitive,
    products,
    rank,
    signs,
    solve,
)
from njcones.trees import path_metric
from test_trees import random_metric_tree


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


def moved_coordinate(W, mu):
    # x is a positive multiple of (v + W)_{1..m}, and v_1 = 0: the slack of
    # row [1, 0, 0] goes negative
    W[0, 0] -= 10 * (abs(W[0, 0]) + 1)


def dropped_multiplier(W, mu):
    mu[0, np.argmax(mu[0])] = 0.0


def added_multiplier(W, mu):
    # the support becomes all three rows, where the exact solution is (-1, 2, 0)
    mu[0, np.argmin(mu[0])] = mu.max()


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
    """A wrong NNLS proposal raises; it never becomes an answer."""
    assert (feasible_point(G) is not None) == feasible
    real = projection._nnls

    def perturbed(U, normals, V):
        W, mu = real(U, normals, V)
        perturb(W, mu)
        return W, mu

    monkeypatch.setattr(projection, "_nnls", perturbed)
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


def exact_signs(N, X) -> np.ndarray:
    """The Python-integer oracle of signs: primitive of each row, then an object matmul."""
    H = np.asarray(N).astype(object)
    return np.array(
        [[(s > 0) - (s < 0) for s in (H @ np.array(primitive(x), dtype=object)).tolist()]
         for x in np.asarray(X, dtype=float).tolist()],
        dtype=np.int8,
    ).reshape(len(X), len(N))


def sign_rows(n, rng) -> dict:
    """Rows of n(n-1)/2 floats for signs, by kind; every row spans at most ~300 bits."""
    m = n * (n - 1) // 2
    g = rng.standard_normal((6, m))
    sub = rng.integers(-4, 5, (6, m)) * 5e-324  # subnormals and zeros
    sub[:, ::3] = -0.0
    dyadic = []  # tree metrics of dyadic lengths: float sums are exact, so ties are
    for _ in range(6):
        top, d = random_metric_tree(n, rng)
        lengths = {(min(u, v), max(u, v)): rng.integers(1, 64) / 64 for u, v in top.edges()}
        dyadic.append(path_metric(n, top.edges(), lengths))
    return {
        **{f"scale {s:g}": g * s for s in (1e-300, 1e-200, 1e-100, 1e-9, 1, 1e9, 1e100, 1e200, 1e300)},
        "subnormal": sub,
        "integers": rng.integers(-2, 3, (6, m)).astype(float),
        "tree metrics": np.array([random_metric_tree(n, rng)[1].as_array() for _ in range(6)]),
        "dyadic tree metrics": np.array(dyadic),
        "2**+-60": g * 2.0 ** rng.choice([-60, 0, 60], (6, m)),
    }


@pytest.mark.parametrize("n, stride", [(5, 1), (6, 1), (7, 5)])
def test_signs_match_the_integer_oracle(n, stride, monkeypatch):
    # the census normals (|h|_1 <= 32) on rows the digits hold: no row is
    # taken to Python integers, and each sign is the oracle's
    N = census(n).normals[::stride]
    fallback = []
    real = rational.primitive
    monkeypatch.setattr(rational, "primitive", lambda x: fallback.append(x) or real(x))
    zeros = 0
    for kind, X in sign_rows(n, np.random.default_rng(n)).items():
        got, want = signs(N, X), exact_signs(N, X)
        assert got.dtype == np.int8 and got.shape == (len(X), len(N))
        assert (got == want).all(), kind
        zeros += np.count_nonzero(want[np.abs(X).max(axis=1) > 0] == 0)
    assert not fallback
    assert zeros > 100  # planted exact zeros, on nonzero rows


def test_rows_too_wide_for_the_digits_take_the_fallback(census6, monkeypatch):
    rng = np.random.default_rng(11)
    X = rng.standard_normal((8, 15)) * np.where(rng.random((8, 15)) < 0.5, 1e-300, 1e300)
    X[:4, 0] = 1e300  # the tiny entries decide the normals with h_0 = 0
    X[:4, 1:] = 1e-300 * rng.integers(-1, 2, (4, 14))
    X[5, :] = 1.0  # one row the digits hold, beside the wide ones
    N = census6.normals[::5]
    fallback = []
    real = rational.primitive
    monkeypatch.setattr(rational, "primitive", lambda x: fallback.append(x) or real(x))
    got = signs(N, X)
    assert len(fallback) == 7
    assert (got == exact_signs(N, X)).all()


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=10, max_size=10))
@settings(max_examples=200, deadline=None)
def test_signs_of_any_finite_row_match_the_oracle(census5, x):
    assert (signs(census5.normals, [x]) == exact_signs(census5.normals, [x])).all()


def test_signs_guard_their_inputs():
    row = [[1.0, -2.0, 0.5]]
    assert signs([[1 << 19, -(1 << 19), 0]], row).tolist() == [[1]]
    with pytest.raises(ValueError, match=r"\|h\|_1"):
        signs([[1 << 19, -(1 << 19), 1]], row)
    with pytest.raises(ValueError, match="finite"):
        signs([[1, 0, 0]], [[1.0, np.inf, 0.0]])
    assert signs(np.zeros((0, 3), dtype=int), row).shape == (1, 0)
    assert signs([[1, 2, 3]], np.zeros((0, 3))).shape == (0, 1)


def exact_products(N, X) -> list:
    """(h, x) for every row x of X and h of N, exactly: per row of X, a
    power-of-two denominator and the integer numerators over it."""
    rows = np.asarray(N).tolist()
    out = []
    for x in np.asarray(X).tolist():
        fracs = [Fraction(t) for t in x]
        den = max(f.denominator for f in fracs)  # powers of two: a multiple of the others
        ints = [f.numerator * (den // f.denominator) for f in fracs]
        out.append((den, [sum(a * t for a, t in zip(h, ints)) for h in rows]))
    return out


def rounded(num: int, den: int) -> float:
    """The float nearest num / den, an infinity beyond the float range."""
    try:
        return num / den  # true division of integers rounds correctly
    except OverflowError:
        return math.inf if num > 0 else -math.inf


def faithful(value: float, num: int, den: int, nearest: float) -> bool:
    """Whether value is one of the two floats around num / den, the nearest given."""
    if value == nearest:
        return True
    # the other neighbour, with q between them (floats compare with q exactly)
    q = Fraction(num, den)
    low, high = sorted((value, nearest))
    return math.nextafter(nearest, value) == value and low <= q <= high


def kernel_span(x) -> int:
    """The bits a row spans for products: from its least possible bit to its top."""
    exps = [math.frexp(t)[1] for t in x if t]
    return max(exps) - max(min(exps) - 53, -1074) if exps else 0


@st.composite
def kernel_blocks(draw):
    """Blocks of ten-entry float rows, their entries integer mantissas at
    exponents in a window, spanning from a few bits to past the 992 the
    digits hold; some rows are plain hypothesis floats."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            low = draw(st.integers(-1130, 960))
            width = draw(st.integers(0, 9) | st.integers(0, 2100))  # spans of 53 + width
            exps = st.integers(low, min(low + width, 970))
            mantissas = st.integers(-(2**53 - 1), 2**53 - 1)
            row = [math.ldexp(draw(mantissas), draw(exps)) for _ in range(10)]
            zeros = draw(st.lists(st.integers(0, 9), max_size=9))
            rows.append([0.0 if i in zeros else t for i, t in enumerate(row)])
        else:
            rows.append(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                      min_size=10, max_size=10)))
    return np.array(rows)


def kernel_normals(census5) -> np.ndarray:
    """The five-taxa census normals, and rows of large entries up to |h|_1 = 2**20."""
    wide = np.random.default_rng(5).integers(-(1 << 17), 1 << 17, (6, 10))
    wide[0] = [1 << 19, -(1 << 19) + 2, 1, 0, 0, 0, 0, 0, 0, -1]
    assert np.abs(wide).sum(axis=1).max() <= 1 << 20
    return np.r_[census5.normals, wide]


@given(kernel_blocks(), st.data())
@settings(max_examples=300, deadline=None)
def test_products_match_the_exact_values(census5, X, data):
    # the exact sign always, a faithful value, a correctly rounded one for
    # rows spanning at most 62 bits, the same bits under every split of the
    # rows, and Python integers only for rows the digits cannot hold
    N = kernel_normals(census5)
    with mock.patch.object(rational, "primitive", wraps=rational.primitive) as fallback:
        got = products(N, X)
    wide = [kernel_span(x) > 31 * rational._DIGITS for x in X.tolist()]
    assert fallback.call_count == sum(wide)
    assert got.shape == (len(X), len(N)) and got.dtype == float
    for x, row, (den, exact), too_wide in zip(X.tolist(), got.tolist(), exact_products(N, X), wide):
        correct = too_wide or kernel_span(x) <= 62
        for value, num in zip(row, exact):
            assert (value > 0) - (value < 0) == (num > 0) - (num < 0)
            nearest = rounded(num, den)
            assert value == nearest if correct else faithful(value, num, den, nearest)
    cuts = sorted(data.draw(st.sets(st.integers(1, len(X) - 1))) if len(X) > 1 else [])
    parts = [products(N, X[a:b]) for a, b in zip([0, *cuts], [*cuts, len(X)])]
    assert np.concatenate(parts).tobytes() == got.tobytes()
    assert np.concatenate([products(N, x[None]) for x in X]).tobytes() == got.tobytes()
    assert (signs(N, X) == np.sign(got)).all()


def test_products_of_zero_rows_are_zero(census5):
    # a zero row has no least exponent; beside rows of every width it is 0
    X = np.array([[0.0] * 10, [-0.0] * 10, [1.0] * 10, [1e300] + [1e-300] * 9])
    got = products(census5.normals, X)
    assert (got[:2] == 0).all() and not np.isnan(got).any()
    want = exact_products(census5.normals, X[2:])
    assert got[2:].tolist() == [[rounded(num, den) for num in row] for den, row in want]

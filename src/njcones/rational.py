"""Exact linear algebra over the rationals.

Dense textbook routines backing the facet enumeration and the cone
redundancy certificates, where the deliverable is an exact integer count
and floating point is not good enough.  Elimination works on integers:
each input row is scaled to coprime integers once, and fraction-free
Gauss-Jordan keeps it integral from then on.  Fractions appear only in
what `solve` and `feasible_point` return.  `extreme_rays` is the one
double description: integer extreme rays of a pointed cone, with their
zero sets.  `feasible_point` lets the package's NNLS kernel
(`projection._nnls`) propose its answer and returns it only once the
answer is checked in exact arithmetic.  Cone reduction calls it once per
cone for an interior point, and again only for a normal whose NNLS
certificate does not check out; `solve` re-solves such certificates
exactly on their support.  Matrices stay small (tens of rows), so
clarity wins over asymptotics.

The package's one tie rule lives here too.  A verdict is the sign of an
integer form on the input: a float value decides it beyond the rounding
bound `gamma`, and an exact evaluation within it.  The float classifiers
(`projection.distances_to_wrong`, `census.classify_batch`) sign a batch
of such forms at once with `signs`, which splits each row into integer
digits; `nj.nj_run` and `cones.membership` take the input to integers
with `primitive`, and so stay independent of `signs` as its oracles.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

import numpy as np


def _coprime(ints: list[int]) -> list[int]:
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational or float vector to coprime integers, keeping orientation.

    Floats count at their exact binary values.  The sign is never
    flipped: for half-space normals the orientation is part of the
    meaning.  The zero vector maps to itself.
    """
    if all(isinstance(x, (int, np.integer)) for x in vec):
        return tuple(_coprime([int(x) for x in vec]))
    exact = (float, Fraction)  # as_integer_ratio gives their exact values
    fracs = [(x if isinstance(x, exact) else Fraction(x)).as_integer_ratio() for x in vec]
    den = lcm(*(int(d) for _, d in fracs))
    # int(): the numerator of Fraction(numpy int) keeps the numpy type, which can wrap
    return tuple(_coprime([int(p) * (den // int(d)) for p, d in fracs]))


_BASE = 2.0**31  # a digit of signs
_DIGITS = 32     # rows spanning more than 31 * _DIGITS bits take primitive
_NORM = 1 << 20  # the largest |h|_1 of a row of N in signs
# Terms in one matmul of signs.  Larger products run on several BLAS threads,
# and on a 2-core host such a call was measured to stall at times for ~8 ms,
# against ~0.1 ms on one thread.
_PRODUCT = 1 << 18


def signs(N, X) -> np.ndarray:
    """The exact sign of (h, x) for every row h of N and x of X, int8 (rows of X, rows of N).

    N is an integer matrix whose rows have |h|_1 <= 2**20; X holds finite
    floats, each taken at its binary value.  Each row x is 2**E y with E
    its least exponent (np.frexp) and y an integer vector (np.ldexp), and
    y is split into base-2**31 digits by floor and subtract, all exact.
    One float matmul of N with the digits is then exact in any summation
    order, as every entry is an integer below 2**51; so is carrying the
    excess of each sum but the top two over its digit into the next.  A
    float sum of two floats has the sign of their exact sum, so the sign
    is that of (top sum) 2**31 + (next sum), or positive where that is
    zero and some lower digit is not: the simplest case of exact
    expansions (Shewchuk, DCG 18, 1997).  A row spanning more than
    31 * _DIGITS bits, which the scaling would overflow, is taken to
    integers by primitive instead.
    """
    N = np.asarray(N)
    X = np.asarray(X, dtype=float)
    if N.size and np.abs(N).sum(axis=1).max() > _NORM:
        raise ValueError(f"signs takes normals with |h|_1 <= {_NORM}")
    if not np.isfinite(X).all():
        raise ValueError("signs takes finite rows")
    if not X.size or not N.size:
        return np.zeros((len(X), len(N)), dtype=np.int8)
    frac, exp = np.frexp(X)  # x = frac 2**exp, frac 2**53 an integer
    nonzero = frac != 0
    low = np.where(nonzero, exp, 1 << 12).min(axis=1) - 53
    span = np.where(nonzero, exp, -(1 << 12)).max(axis=1) - low  # |y| < 2**span
    fast = span <= 31 * _DIGITS
    out = np.zeros((len(X), len(N)), dtype=np.int8)
    if not fast.all():
        ints = N.astype(object)
        for r in np.flatnonzero(~fast).tolist():
            exact = (ints @ np.array(primitive(X[r].tolist()), dtype=object)).tolist()
            out[r] = [(s > 0) - (s < 0) for s in exact]
        if not fast.any():
            return out
    digits = max(1, -(-int(span[fast].max()) // 31))
    y = np.ldexp(X[fast], -low[fast, None])
    stack = np.empty((digits, *y.shape))  # (digit, row, entry), least digit first
    for d in range(digits - 1):
        q = np.floor(y * (1 / _BASE))
        stack[d] = y - q * _BASE
        y = q
    stack[-1] = y
    # in products of at most _PRODUCT terms, which BLAS runs on one thread
    stack, H = stack.reshape(-1, X.shape[1]), N.T.astype(float)
    P = np.empty((len(stack), len(N)))
    step = max(1, _PRODUCT // H.size)
    for lo in range(0, len(stack), step):
        np.matmul(stack[lo:lo + step], H, out=P[lo:lo + step])
    P = P.reshape(digits, -1, len(N))
    lower = False  # whether a carried digit is left nonzero
    for d in range(digits - 2):
        carry = np.floor(P[d] * (1 / _BASE))
        lower = lower | (P[d] != carry * _BASE)
        P[d + 1] += carry
    top = P[-1] * _BASE + P[-2] if digits > 1 else P[0]
    if digits > 2:
        top = 2 * top + lower  # |2 top| >= 2 unless top is 0
    out[fast] = (top > 0).view(np.int8) - (top < 0).view(np.int8)
    return out


def gamma(k: int) -> float:
    """gamma_{k+1}, above gamma_k = k u / (1 - k u) with u = 2**-53 by the roundings of a bound.

    A float dot product a.x of k terms, in any order, is within gamma_k |a|.|x| of the
    exact one away from underflow (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1).
    """
    ku = (k + 1) * 2.0**-53
    return ku / (1 - ku)


def _eliminate(rows) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan; returns (rows, pivot columns).

    Row r of the result has its pivot at column pivots[r] and zeros in the
    other pivot columns, so it is the reduced echelon row times its pivot
    entry.  Rows past the last pivot are zero.  Each step is
    row_i <- a*row_i - f*row_r followed by division by the row's gcd.
    """
    a = [list(primitive(row)) for row in rows]
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                g = gcd(p, f)
                pi, fi = p // g, f // g
                a[i] = _coprime([pi * x - fi * y for x, y in zip(a[i], a[r])])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def rank(rows) -> int:
    return len(_eliminate(rows)[1])


def nullspace(rows) -> list[list[int]]:
    """Basis of {x : A x = 0} for a rational matrix A, as primitive integer vectors."""
    if not rows:
        return []
    red, pivots = _eliminate(rows)
    ncols = len(red[0])
    scale = lcm(*(red[r][pc] for r, pc in enumerate(pivots)))
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        # the reduced echelon solution with x[fc] = 1, times scale
        v = [0] * ncols
        v[fc] = scale
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc] * (scale // red[r][pc])
        basis.append(_coprime(v))
    return basis


def solve(rows, rhs) -> Optional[list[Fraction]]:
    """One exact solution of A x = b, or None if the system is inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    ncols = len(aug[0]) - 1 if aug else 0
    red, pivots = _eliminate(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(red[r][ncols], red[r][pc])
    return x


def scaled_solve(a, b) -> list[list[int]]:
    """L a^-1 b for a nonsingular square a and a matrix b, with some integer L > 0.

    For callers that need the solutions only up to a positive scale: one
    elimination of [a | b] serves every column of b, and no Fraction is made.
    """
    k = len(a)
    red, _ = _eliminate([list(ra) + list(rb) for ra, rb in zip(a, b)])
    scale = lcm(*(red[i][i] for i in range(k)))
    return [[x * (scale // red[i][i]) for x in red[i][k:]] for i in range(k)]


def _independent(vectors) -> list[int]:
    """Indices of the greedy basis of integer vectors, in order.

    Each vector is kept if it is independent of those kept before, which
    makes the kept indices the lexicographically first basis.
    """
    kept, reduced = [], []
    for i, v in enumerate(vectors):
        for c, r in reduced:
            if v[c]:
                v = [r[c] * a - v[c] * b for a, b in zip(v, r)]
        c = next((c for c, a in enumerate(v) if a), None)
        if c is not None:
            kept.append(i)
            reduced.append((c, _coprime(v)))
    return kept


def extreme_rays(rows) -> list[tuple[list[int], int]]:
    """Extreme rays of the pointed cone {w : r . w >= 0 for each row r}.

    Each ray is primitive and comes with its zero set, a bit mask of the
    rows tight at it.  Double description: the cone of a basis B of the
    rows is simplicial, its rays the columns of B^-1.  Each further row
    keeps the rays on its nonnegative side and adds, for each pair of
    rays on opposite sides that are adjacent, their combination on the
    row's hyperplane.  Two rays are adjacent when no third ray is tight on
    every row both are tight on, and at least dim - 2 rows are (Fukuda &
    Prodon, 1996).  Raises ValueError unless the rows have full column
    rank, which is what makes the cone pointed.
    """
    basis = _independent(rows)
    dim = len(basis)
    if not rows or dim != len(rows[0]):
        raise ValueError("the rows do not have full column rank: the cone is not pointed")
    seen = sum(1 << b for b in basis)
    identity = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverse = scaled_solve([rows[b] for b in basis], identity)
    rays = [
        (_coprime([r[j] for r in inverse]), seen ^ (1 << b))
        for j, b in enumerate(basis)
    ]
    for k, row in enumerate(rows):
        bit = 1 << k
        if seen & bit:
            continue
        slack = [sum(a * w for a, w in zip(row, ray)) for ray, _ in rays]
        kept = [(w, z | bit if s == 0 else z) for (w, z), s in zip(rays, slack) if s >= 0]
        for (p, zp), sp in zip(rays, slack):
            if sp <= 0:
                continue
            for (q, zq), sq in zip(rays, slack):
                common = zp & zq
                if (
                    sq < 0
                    and common.bit_count() >= dim - 2
                    and sum(z & common == common for _, z in rays) == 2
                ):
                    w = _coprime([sp * b - sq * a for a, b in zip(p, q)])
                    kept.append((w, common | bit))
        rays = kept
        seen |= bit
    return rays


def affine_rank(points) -> int:
    """Dimension of the affine span of rational points, plus zero for a single point."""
    if len(points) <= 1:
        return 0
    return rank([[1, *p] for p in points]) - 1


def feasible_point(G) -> Optional[list[Fraction]]:
    """An exact x with every (G x)_i >= 1 for a rational matrix G, or None.

    Gordan's alternative: either some x has G x > 0, or some y >= 0 with
    sum(y) = 1 has G^T y = 0, never both.  Lawson and Hanson's least
    distance programming (Solving Least Squares Problems, 1974, ch. 23)
    proposes both with one NNLS, projection._nnls: project
    v = -e_{m+1} onto K = {z : (h_i, z) >= 0} for the rows
    h_i = [g_i, 1], scaled to unit length.  The projection r has
    (h_i, r) >= 0 and r_{m+1} = -|r|^2, so r_{m+1} < 0 proposes
    x = -r_{1..m} / r_{m+1}, which has G x >= 1; r = 0 writes e_{m+1}
    as the sum of mu_i h_i, so the multipliers mu, each divided by the
    length of its [g_i, 1], give a Gordan y.  The proposal is only a
    hint.  x is accepted if its exact slacks are all positive, and is
    then divided by the smallest.  None is returned only if y, re-solved
    exactly on the support of the multipliers, is nonnegative.  When
    neither checks out, ArithmeticError is raised rather than a guess
    returned.
    """
    if not len(G):
        return []
    from .projection import _nnls  # not at the top: projection imports this module

    E = np.array(G, dtype=float)
    k, m = E.shape
    E = np.c_[E, np.ones(k)]
    E /= np.linalg.norm(E, axis=1, keepdims=True)
    v = np.zeros((1, m + 1))
    v[0, m] = -1.0
    W, mu = _nnls(E, np.arange(k)[None], v)
    r = (v + W)[0]
    if r[m] < 0:
        x = primitive(r[:m].tolist())  # r_{1..m} is a positive multiple of x
        least = min(sum(a * b for a, b in zip(row, x)) for row in G)
        if least > 0:
            return [Fraction(a, least) for a in x]
    # the passive rows are independent, so they pin y uniquely
    support = np.flatnonzero(mu[0] > 0).tolist()
    rows = [[G[i][c] for i in support] for c in range(m)] + [[1] * len(support)]
    y = solve(rows, [0] * m + [1])
    if y is not None and min(y) >= 0:
        return None
    raise ArithmeticError("no proposal of the NNLS checks out exactly")

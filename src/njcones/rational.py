"""Exact linear algebra over the rationals.

Dense textbook routines backing the facet enumeration and the cone
redundancy tests, where the deliverable is an exact integer count and
floating point is not good enough.  Elimination works on integers: each
input row is scaled to coprime integers once, and fraction-free
Gauss-Jordan keeps it integral from then on.  Fractions appear only in
what `solve` and `feasible_point` return.  `feasible_point` lets a float
LP (HiGHS) propose its answer and returns it only once the answer is
checked in exact arithmetic.  Matrices stay small (tens of rows), so
clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

import numpy as np
from scipy.optimize import linprog


def _coprime(ints: list[int]) -> list[int]:
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping orientation.

    The sign is never flipped: for half-space normals the orientation is
    part of the meaning.  The zero vector maps to itself.
    """
    if all(isinstance(x, (int, np.integer)) for x in vec):
        return tuple(_coprime([int(x) for x in vec]))
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    # int(): the numerator of Fraction(numpy int) keeps the numpy type, which can wrap
    return tuple(_coprime([int(f.numerator) * (den // f.denominator) for f in fracs]))


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


def affine_rank(points) -> int:
    """Dimension of the affine span of rational points, plus zero for a single point."""
    if len(points) <= 1:
        return 0
    return rank([[1, *p] for p in points]) - 1


def feasible_point(G) -> Optional[list[Fraction]]:
    """An exact x with every (G x)_i >= 1 for a rational matrix G, or None.

    Gordan's alternative: either some x has G x > 0, or some y >= 0 with
    sum(y) = 1 has G^T y = 0, never both.  One HiGHS LP, max t subject to
    G x >= t and t <= 1, proposes both: x when t reaches 1, and its
    multipliers y when t stays 0.  The proposal is only a hint.  x is
    accepted if its exact slacks are all positive, and is then divided by
    the smallest.  None is returned only if y, re-solved exactly on its
    support, is nonnegative.  When neither checks out, ArithmeticError is
    raised rather than a guess returned.
    """
    if not len(G):
        return []
    A = np.array(G, dtype=float)
    k, m = A.shape
    lp = linprog(
        np.r_[np.zeros(m), -1.0],
        A_ub=np.c_[-A, np.ones(k)],
        b_ub=np.zeros(k),
        bounds=[(None, None)] * m + [(None, 1)],
        method="highs",
    )
    if lp.status == 0:
        x = primitive(lp.x[:m].tolist())
        least = min(sum(a * v for a, v in zip(row, x)) for row in G)
        if least > 0:
            return [Fraction(v, least) for v in x]
        # the marginals of G x >= t are -y; a vertex's support pins y uniquely
        support = [i for i, mu in enumerate(lp.ineqlin.marginals) if mu < -1e-9]
        rows = [[G[i][c] for i in support] for c in range(m)] + [[1] * len(support)]
        y = solve(rows, [0] * m + [1])
        if y is not None and min(y) >= 0:
            return None
    raise ArithmeticError("no proposal of the LP checks out exactly")

"""Exact linear algebra over the rationals.

Dense textbook routines backing the facet enumeration and the cone
redundancy tests, where the deliverable is an exact integer count and
floating point is not good enough.  Elimination works on integers: each
input row is scaled to coprime integers once, and fraction-free
Gauss-Jordan keeps it integral from then on.  Fractions appear only in
what `solve` and `feasible_point` return.  Matrices stay small (tens of
rows), so clarity wins over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional


def frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def _coprime(ints: list[int]) -> list[int]:
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else ints


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping orientation.

    The sign is never flipped: for half-space normals the orientation is
    part of the meaning.  The zero vector maps to itself.
    """
    fracs = [Fraction(x) for x in vec]
    den = lcm(*(f.denominator for f in fracs))
    return tuple(_coprime([f.numerator * (den // f.denominator) for f in fracs]))


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


def affine_rank(points) -> int:
    """Dimension of the affine span of rational points, plus zero for a single point."""
    if len(points) <= 1:
        return 0
    return rank([[1, *p] for p in points]) - 1


def feasible_point(G, g) -> Optional[list[Fraction]]:
    """An exact x with G x >= g, or None when the system is infeasible.

    Phase-one simplex on the standard form with split free variables,
    using Bland's rule so termination is guaranteed.  Sizes here are at
    most a few dozen rows, so the dense tableau is fine.
    """
    G = frac_rows(G)
    g = [Fraction(x) for x in g]
    if not G:
        return []
    k = len(G)
    m = len(G[0])

    # G x - s = g with s >= 0 and x = u - w.  Rows with a nonpositive
    # right hand side are negated so the tableau starts with rhs >= 0.
    # After negation the slack enters with +1 and can start basic; only
    # rows with a positive right hand side get an artificial variable.
    rows = []
    rhs = []
    slack_sign = []
    for i in range(k):
        if g[i] <= 0:
            rows.append([-x for x in G[i]])
            rhs.append(-g[i])
            slack_sign.append(Fraction(1))
        else:
            rows.append(list(G[i]))
            rhs.append(g[i])
            slack_sign.append(Fraction(-1))

    art_rows = [i for i in range(k) if slack_sign[i] < 0]
    n_art = len(art_rows)
    ncols = 2 * m + k + n_art
    tab = []
    for i in range(k):
        row = [Fraction(0)] * (ncols + 1)
        for j in range(m):
            row[j] = rows[i][j]
            row[m + j] = -rows[i][j]
        row[2 * m + i] = slack_sign[i]
        row[ncols] = rhs[i]
        tab.append(row)
    basis = [0] * k
    for pos, i in enumerate(art_rows):
        tab[i][2 * m + k + pos] = Fraction(1)
        basis[i] = 2 * m + k + pos
    for i in range(k):
        if slack_sign[i] > 0:
            basis[i] = 2 * m + i

    # objective: minimize the sum of artificials
    obj = [Fraction(0)] * (ncols + 1)
    for pos in range(n_art):
        obj[2 * m + k + pos] = Fraction(1)
    for i in art_rows:
        obj = [o - t for o, t in zip(obj, tab[i])]

    while True:
        enter = None
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(k):
            if tab[i][enter] > 0:
                ratio = tab[i][ncols] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            # unbounded phase-one objective cannot happen (bounded below by 0)
            raise ArithmeticError("phase-one simplex became unbounded")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(k):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [x - f * y for x, y in zip(obj, tab[leave])]
        basis[leave] = enter

    if -obj[ncols] != 0:
        return None
    x = [Fraction(0)] * m
    for i in range(k):
        b = basis[i]
        if b < m:
            x[b] += tab[i][ncols]
        elif b < 2 * m:
            x[b - m] -= tab[i][ncols]
    return x

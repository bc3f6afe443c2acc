"""Euclidean projection onto decision cones and classification distances.

The projection of v onto K = {x : Hx >= 0} is unique and satisfies
x - v = H_A^T mu with mu >= 0 supported on the tight constraints A.
One kernel finds it, _nnls: Lawson and Hanson's nonnegative least
squares on the polar cone (Moreau's decomposition), run on a stack of
problems at once, which always terminates and needs no fallback.  Each
passive set is refit from its normal equations, in groups of one
passive-set size, so no problem's result depends on the rest of its
stack.  It has three callers: nearest_point, the one-problem case;
distances_to_wrong, below; and cone reduction, where it proposes the
redundancy certificates (cones.redundant_indices) and the feasible
points (rational.feasible_point) that exact arithmetic then checks,
from its steps and its multipliers mu.

Margins are computed a block of input vectors at a time
(distances_to_wrong): the distinct normals of all cones, made a depth
of the pick tree at a time (census.ConeCensus), screen the whole block,
giving each row its verdict (exact wherever the float slacks cannot
settle it, by rational.signs) and a lower bound on its distance to each
cone.  A cone's bound is read off the census's levels of the pick tree:
the least scaled slack of each node-pick's normals, then the least of
those along each cone's path.  Each row then visits its cones in
rounds, in each round the one of least bound it has not visited, while
that bound can still beat its best distance.  distance_to_wrong is the
one-row case.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .rational import gamma, signs
from .nj import trace_from_picks


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    distance: float
    method: str


@dataclass(frozen=True)
class ClassificationRecord:
    verdict: str                 # "correct" or "incorrect"
    boundary_distance: float
    nearest_region: str          # canonical Newick of the nearest other region


_TOL = 1e-9  # the NNLS entry threshold, relative to |v|


def _refit(U, normals, V, passive):
    """Least-squares multipliers of each problem's passive normals.

    For each problem, z_P solves the normal equations
    (H_P H_P^T) z_P = -H_P v of min |v + H_P^T z_P|, formed from its
    gathered passive rows H_P = U[normals[P]]; z is zero off P.  Returns
    z and the steps H_P^T z_P.  Problems are solved in groups of one
    passive-set size, so a problem's bits do not depend on the others
    in the stack.
    """
    counts = passive.sum(axis=1)
    z = np.zeros(passive.shape)
    w = np.empty(V.shape)
    for p in np.flatnonzero(np.bincount(counts)).tolist():
        g = counts == p
        in_g = passive & g[:, None]
        A = U[normals[in_g]].reshape(np.count_nonzero(g), p, -1)
        zp = np.linalg.solve(A @ A.transpose(0, 2, 1), -(A @ V[g][:, :, None]))
        z[in_g] = zp.ravel()
        w[g] = (zp.transpose(0, 2, 1) @ A)[:, 0]
    return z, w


def _nnls(U, normals, V) -> tuple:
    """The step P_K v - v and the multipliers mu* of every problem of a stack.

    Problem b projects V[b] onto K = {x : Hx >= 0} for the unit rows
    H = U[normals[b]], k = normals.shape[1] of them.  Moreau's
    decomposition splits v into its projections onto K and onto the
    polar cone {-H^T mu : mu >= 0}, so P_K v = v + H^T mu* with
    mu* = argmin |v + H^T mu| over mu >= 0.  Each problem runs Lawson
    and Hanson's NNLS (1974, ch. 23) on its own passive set P, all of
    them a step at a time: bring in the most violated normal if it is
    violated by more than _TOL * |v| (which keeps the passive normals
    independent), refit z_P (_refit), and when a multiplier would turn
    nonpositive, step back along the segment to the last positive fit
    and release the constraint that hit zero.  The residual drops at
    every step, so no passive set repeats and each problem ends; it
    raises if Lawson and Hanson's bound of 3k steps is reached.
    Redundant or dependent normals make mu* non-unique, never the point;
    the mu* returned is zero off the passive set, whose normals are
    independent.  Problems that end leave the stack.
    """
    out, mults = np.zeros(V.shape), np.zeros(normals.shape)
    if not normals.shape[1]:  # K is the whole space
        return out, mults
    ids = np.arange(len(V))
    limit = 3 * normals.shape[1]
    passive = np.zeros(normals.shape, dtype=bool)
    mu = np.zeros(normals.shape)
    W = np.zeros(V.shape)
    floor = -_TOL * np.sqrt((V * V).sum(axis=1))
    for step in itertools.count():
        s = U[normals]
        s *= (V + W)[:, None, :]
        s = s.sum(axis=2)
        s[passive] = np.inf
        j = s.argmin(axis=1)
        enter = s.min(axis=1) < floor
        if not enter.all():
            out[ids[~enter]], mults[ids[~enter]] = W[~enter], mu[~enter]
            ids, normals, V, W, floor, passive, mu, j = (
                a[enter] for a in (ids, normals, V, W, floor, passive, mu, j)
            )
            if not ids.size:
                return out, mults
        if limit <= step + 1:
            raise RuntimeError("nonnegative least squares did not converge")
        rows = np.arange(len(ids))
        passive[rows, j] = True
        z, w = _refit(U, normals, V, passive)
        fit = np.where(passive, z, np.inf).min(axis=1) > 0
        if fit.all():
            mu, W = z, w
            continue
        mu[fit], W[fit] = z[fit], w[fit]
        todo = rows[~fit]
        while todo.size:
            z, P, m = z[~fit], passive[todo], mu[todo]
            back = P & (z <= 0)
            ratios = np.divide(m, m - z, out=np.full(z.shape, np.inf), where=back)
            hit = ratios.argmin(axis=1)
            m += ratios[rows[:len(todo)], hit][:, None] * (z - m)
            m[rows[:len(todo)], hit] = 0.0
            P &= m > 0
            m[~P] = 0.0
            mu[todo], passive[todo] = m, P
            z, w = _refit(U, normals[todo], V[todo], P)
            fit = np.where(P, z, np.inf).min(axis=1) > 0
            mu[todo[fit]], W[todo[fit]] = z[fit], w[fit]
            todo = todo[~fit]


def nearest_point(cone, v) -> ProjectionResult:
    """The unique closest point of the cone, and its distance from v.

    The one-problem case of _nnls, the kernel distances_to_wrong runs
    on stacks of problems: Lawson and Hanson's NNLS on the polar cone,
    which always terminates and needs no fallback.

    scipy's nnls is not used: on inputs whose projection has tight
    constraints with zero multipliers it can return a non-optimal mu.
    """
    H = cone.unit_rows
    v = np.asarray(v, dtype=float)
    if H.size == 0:
        return ProjectionResult(v.copy(), 0.0, "trivial")
    if H.shape[1] != v.shape[0]:
        raise ValueError("vector length does not match the cone's ambient dimension")
    w, _ = _nnls(H, np.arange(len(H))[None], v[None])
    return ProjectionResult(v + w[0], float(np.sqrt((w * w).sum(axis=1))[0]), "nnls")


# Budget of a block in the noise experiments: distances_to_wrong screens as
# many rows as keep what the screen holds per row (the slacks on the distinct
# normals, the largest level of them gathered, and two bounds per cone) this
# small, keeps the bounds of as many rows (8 bytes per cone per row) this
# small, and projects stacks of as many problems as keep their normals this
# small; simulate.run_experiment takes as many replicates as keep one edge's
# draws plus the vertex sequences this small.  So peak memory does not grow
# with the rows.
BLOCK_BYTES = 1 << 20


def _in_some_cone(X, slack, rounding, normals, cols) -> np.ndarray:
    """Per row of X, whether some cone holds it, decided exactly.

    slack[r, c, i] is the float slack (h, x) of row r on the i-th integer
    normal h = normals[cols[c, i]] of cone c.  Each counts when it clears
    its rounding bound, rounding = gamma_m |h|_1 times max|x|
    (rational.gamma).  The rows no cone surely holds but some slack
    leaves unsure go to one rational.signs call, whose exact signs
    settle every slack inside its bound.
    """
    err = np.abs(X).max(axis=1)[:, None, None] * rounding
    holds = slack >= err
    unsure = ~holds & (slack >= -err)
    held = holds.all(axis=2).any(axis=1)
    rows = np.flatnonzero(~held & unsure.any(axis=(1, 2)))
    if rows.size:
        sure = holds[rows] | unsure[rows] & (signs(normals, X[rows])[:, cols] >= 0)
        held[rows] = sure.all(axis=2).any(axis=1)
    return held


def _lowest(T, levels) -> np.ndarray:
    """Per row of T and cone, the least entry of T on the cone's normals.

    T[r, i] is a value of row r on normal i of the stack, levels those of
    a census (census.ConeCensus).  Each level gives the least entry of
    every node-pick; a cone's is the least of those of its node-picks,
    taken level by level over the mixed radix of the cone ids.  Minima
    are exact, so the result is the per-cone minimum bit for bit.
    """
    low = np.full((len(T), 1), np.inf)
    for level in levels:
        low = np.minimum(low[:, :, None], T[:, level].min(axis=-1)).reshape(len(T), -1)
    return low


def _margins(V, U, rows_of, bounds, best, best_k) -> None:
    """Visit each row's cones in ascending bound order, a round at a time.

    bounds[r, c] is a lower bound on the distance from row r to cone c,
    whose unit normals are U[rows_of[c]].  In each round every row still
    looking takes its least bound (the first on ties, so census order),
    and projects onto that cone, as stacks of problems, if the bound is
    below its best distance so far; the bound then becomes inf.  A row
    whose least bound cannot beat its best is done.  A cone replaces the
    best only when strictly nearer.  bounds, best and best_k are updated
    in place.
    """
    # a stack's normals take half of BLOCK_BYTES, the rest of a call's arrays
    # live beside them, and so no stack outgrows the screen's slack matrix
    problems = max(1, BLOCK_BYTES // (2 * U.itemsize * U.shape[1] * rows_of.shape[1]))
    live = np.arange(len(V))
    while True:
        k = bounds[live].argmin(axis=1)
        near = bounds[live, k] < best[live]
        live, k = live[near], k[near]
        if not live.size:
            return
        bounds[live, k] = np.inf
        for lo in range(0, len(live), problems):
            rows, cones = live[lo:lo + problems], k[lo:lo + problems]
            W, _ = _nnls(U, rows_of[cones], V[rows])
            dist = np.sqrt((W * W).sum(axis=1))
            nearer = dist < best[rows]
            best[rows[nearer]] = dist[nearer]
            best_k[rows[nearer]] = cones[nearer]


def distances_to_wrong(V, true_topology, census) -> list:
    """distance_to_wrong for every row of V: one ClassificationRecord per row.

    Rows are screened in blocks against the census's stack of distinct
    integer normals (census.ConeCensus), which gives every raw slack
    (h, v) of the block.  A row is correct when some cone of the true
    topology contains it, the verdict cones.membership gives
    (_in_some_cone): the slacks on the topology's distinct normals are
    read in floats, and those inside their rounding bound are signed
    exactly, a block's unsure rows in one rational.signs call.  Each
    (row, cone) pair also gets the violation bound
    max(0, -min_h (h, v) / |h|), which never exceeds the distance from v
    to the cone; the minimum over the cone's normals is taken level by
    level of the census (_lowest).  The candidate cones of a row are
    visited in ascending bound order (census order on ties) while a
    bound is below the best distance so far (_margins).
    Each row is screened once, and the bounds of many screen blocks are
    kept as one batch whose rows are visited together, so that a round
    projects many rows at once.  A cone is of the true topology when its
    split row (census.ConeCensus.splits) holds that topology's splits; a
    TreeTopology is built only for the regions the records name.  Rows
    of the wrong width, or a true topology on other taxa, raise ValueError.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a matrix with one distance vector per row")
    if not np.isfinite(V).all():
        raise ValueError("distance vectors must be finite")
    m = census.normals.shape[1]
    if V.shape[1] != m:
        raise ValueError(f"rows have {V.shape[1]} entries, a {census.n}-taxon census takes {m}")
    if true_topology.n != census.n:
        raise ValueError(f"the true topology has {true_topology.n} taxa, the census {census.n}")
    row = sorted(sum(1 << i for i in split) for split in true_topology.splits)
    mine = (census.splits == row).all(axis=1)
    if not mine.any():
        raise ValueError("census contains no cone for the given topology")
    levels = census.levels
    rows_of = census.cols.reshape(len(mine), -1)
    H = census.normals.astype(float)
    norms = np.linalg.norm(H, axis=1)
    inv_norms = 1.0 / norms
    mine_cols = rows_of[mine]
    # the true topology's distinct normals, and each of its cones' rows of them
    used = np.zeros(len(H), dtype=bool)
    used[mine_cols] = True
    local = np.zeros(len(H), dtype=np.intp)
    local[used] = np.arange(np.count_nonzero(used))
    mine_normals, mine_local = census.normals[used], local[mine_cols]
    rounding = gamma(H.shape[1]) * np.abs(H[mine_cols]).sum(axis=2)

    def screen(X):
        """The verdict of every row of X, and its bound on every cone."""
        # a matvec per row rather than one matmul: a row's rounding, and with
        # it the order of tied bounds, must not depend on the rest of the block
        S = np.array([H @ x for x in X])
        ok = _in_some_cone(X, S[:, mine_cols], rounding, mine_normals, mine_local)
        S *= inv_norms  # now the slacks on the unit normals
        bounds = -_lowest(S, levels)
        # correct rows look for other topologies, incorrect ones for their own
        return ok, np.where(mine != ok[:, None], np.maximum(bounds, 0.0), np.inf)

    held = len(H) + max(level.size for level in levels) + 2 * len(mine)
    step = max(1, BLOCK_BYTES // (8 * held))
    batch = max(1, BLOCK_BYTES // (8 * len(mine)))
    correct = np.empty(len(V), dtype=bool)
    best = np.full(len(V), np.inf)
    best_k = np.zeros(len(V), dtype=np.intp)
    for first in range(0, len(V), batch):
        last = min(first + batch, len(V))
        bounds = np.empty((last - first, len(mine)))
        for lo in range(first, last, step):
            hi = min(lo + step, last)
            correct[lo:hi], bounds[lo - first:hi - first] = screen(V[lo:hi])
        if not first:
            # after the first screen, whose slack matrix is gone by then:
            # U[rows_of[c]] are the unit rows of cone c, bit for bit its unit_rows
            U = H / norms[:, None]
        _margins(V[first:last], U, rows_of, bounds, best[first:last], best_k[first:last])
    regions = {k: tuple(census.splits[k].tolist()) for k in set(best_k.tolist())}
    named = {split: k for k, split in regions.items()}  # one cone of each region named
    names = {split: trace_from_picks(census.n, census.picks[k].tolist()).topology().newick()
             for split, k in named.items()}
    return [
        ClassificationRecord("correct" if ok else "incorrect", d, names[regions[k]])
        for ok, d, k in zip(correct.tolist(), best.tolist(), best_k.tolist())
    ]


def distance_to_wrong(d, true_topology, census) -> ClassificationRecord:
    """Classify d against a cone census and measure the safety margin.

    Correct inputs get their distance to the nearest cone of any other
    topology; incorrect ones get their distance back to the cones of the
    true topology.  This is the one-row case of distances_to_wrong.
    """
    v = np.asarray(d.as_array() if hasattr(d, "as_array") else d, dtype=float)
    return distances_to_wrong(v[None, :], true_topology, census)[0]

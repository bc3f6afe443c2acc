"""Euclidean projection onto decision cones and classification distances.

The projection of v onto K = {x : Hx >= 0} is unique and satisfies
x - v = H_A^T mu with mu >= 0 supported on the tight constraints A.
nearest_point finds it with a single nonnegative least-squares solve on
the polar cone (Moreau's decomposition), which always terminates and
needs no fallback.

Margins are computed a block of input vectors at a time
(distances_to_wrong): the distinct normals of all cones, stacked on
each call, screen the whole block, giving each row its verdict
(exact wherever the float slacks cannot settle it) and a lower bound on
its distance to each cone, and nearest_point runs only on the cones
whose bound can still beat the best distance found.  distance_to_wrong
is the one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rational import gamma, primitive


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


_TOL = 1e-9  # nearest_point's entry threshold, relative to |v|


def nearest_point(cone, v) -> ProjectionResult:
    """The unique closest point of the cone, and its distance from v.

    Moreau's decomposition splits v into its projections onto the cone
    K = {x : Hx >= 0} and onto the polar cone K° = {-H^T mu : mu >= 0}, so
    P_K v = v + H^T mu* with mu* = argmin ||v + H^T mu|| over mu >= 0.
    That nonnegative least-squares problem is solved by Lawson and
    Hanson's method (1974, ch. 23): bring in the most violated
    constraint, refit the passive multipliers by least squares, and when
    one would turn nonpositive, step back along the segment to the last
    positive fit and release the constraint that hit zero.  The residual
    drops at every step, so no passive set repeats and the loop ends; it
    raises if Lawson and Hanson's bound of 3 * (constraint count) steps
    is reached.  A constraint enters only when violated by more than
    _TOL * ||v||, which keeps the passive normals independent.
    Redundant or dependent normals make mu* non-unique, never the point.

    scipy's nnls is not used: on inputs whose projection has tight
    constraints with zero multipliers it can return a non-optimal mu.
    """
    H = cone.unit_rows
    v = np.asarray(v, dtype=float)
    if H.size == 0:
        return ProjectionResult(v.copy(), 0.0, "trivial")
    if H.shape[1] != v.shape[0]:
        raise ValueError("vector length does not match the cone's ambient dimension")
    k = H.shape[0]
    scale = _TOL * float(np.linalg.norm(v))
    mu = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    x = v.copy()
    for _ in range(3 * k):
        s = np.where(passive, np.inf, H @ x)
        j = int(np.argmin(s))
        if s[j] >= -scale:
            break
        passive[j] = True
        while True:
            z = np.zeros(k)
            z[passive] = -np.linalg.lstsq(H[passive].T, v, rcond=None)[0]
            if z[passive].min() > 0:
                break
            back = np.flatnonzero(passive & (z <= 0))
            ratios = mu[back] / (mu[back] - z[back])
            hit = int(np.argmin(ratios))
            mu += ratios[hit] * (z - mu)
            mu[back[hit]] = 0.0
            passive &= mu > 0
            mu[~passive] = 0.0
        mu = z
        x = v + H.T @ mu
    else:
        raise RuntimeError("nonnegative least squares did not converge")
    return ProjectionResult(x, float(np.linalg.norm(x - v)), "nnls")


# Budget of a block in the noise experiments: distances_to_wrong takes as many
# rows as keep the (rows x cone normals) slack matrix this small, and
# simulate.run_experiment as many replicates as keep one edge's draws plus the
# vertex sequences this small, so peak memory does not grow with the rows.
BLOCK_BYTES = 1 << 20


class _NormalIndex(NamedTuple):
    H: np.ndarray          # the distinct normals of all cones, as floats
    inv_norms: np.ndarray  # 1 / |h| per row of H
    cols: np.ndarray       # row of H of every normal of every cone, cone by cone
    sizes: np.ndarray      # normals per cone


def _normal_index(cones) -> _NormalIndex:
    """The stacked normals of a cone sequence.

    A census of 6 taxa has 11,250 normals but 1,200 distinct ones, so
    every slack of a row is one product with the distinct normals.
    """
    distinct: dict = {}
    cols = [distinct.setdefault(h, len(distinct)) for c in cones for h in c.normals]
    H = np.array(list(distinct), dtype=float)
    return _NormalIndex(
        H,
        1.0 / np.linalg.norm(H, axis=1),
        np.array(cols),
        np.array([len(c.normals) for c in cones]),
    )


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes[:-1])))


def _in_some_cone(X, slack, rounding, normals, sizes) -> np.ndarray:
    """Per row of X, whether some cone holds it, decided exactly.

    Cone c owns the next sizes[c] columns of slack, the float slacks (h, x)
    of the integer normals h in `normals`.  Each counts when it clears its
    rounding bound, rounding = gamma_m |h|_1 times max|x| (rational.gamma);
    those inside it are evaluated exactly for a row no cone surely holds.
    """
    starts = _starts(sizes)
    err = np.abs(X).max(axis=1)[:, None] * rounding
    holds = slack >= err
    unsure = ~holds & (slack >= -err)
    held = np.logical_and.reduceat(holds, starts, axis=1).any(axis=1)
    for r in np.flatnonzero(~held & unsure.any(axis=1)).tolist():
        cols = np.flatnonzero(unsure[r])
        holds[r, cols] = normals[cols] @ np.array(primitive(X[r].tolist()), dtype=object) >= 0
        held[r] = np.logical_and.reduceat(holds[r], starts).any()
    return held


def distances_to_wrong(V, true_topology, cones) -> list:
    """distance_to_wrong for every row of V: one ClassificationRecord per row.

    Rows go through in blocks.  Cones share most of their normals, so
    the distinct integer normals, stacked once per call, give
    every raw slack (h, v) of the block.  A row is correct when some
    cone of the true topology contains it, decided exactly as by
    cones.membership (_in_some_cone).  Each (row, cone) pair also gets
    the violation bound max(0, -min_h (h, v) / |h|), which never exceeds
    the distance from v to the cone.  nearest_point then visits the
    candidate cones in ascending bound order (census order on ties) while
    a bound is below the best distance so far; a cone replaces the best
    only when strictly nearer.
    """
    V = np.asarray(V, dtype=float)
    if V.ndim != 2:
        raise ValueError("expected a matrix with one distance vector per row")
    if not np.isfinite(V).all():
        raise ValueError("distance vectors must be finite")
    mine = np.array([c.topology == true_topology for c in cones])
    if not mine.any():
        raise ValueError("census contains no cone for the given topology")
    H, inv_norms, cols, sizes = _normal_index(cones)
    starts = _starts(sizes)
    mine_cols = cols[np.repeat(mine, sizes)]
    mine_H = H[mine_cols]
    mine_normals = mine_H.astype(np.int64).astype(object)  # exact: small integers as floats
    rounding = gamma(H.shape[1]) * np.abs(mine_H).sum(axis=1)
    names: dict = {}
    records = []
    step = max(1, BLOCK_BYTES // (8 * len(cols)))
    for lo in range(0, len(V), step):
        X = V[lo:lo + step]
        # a matvec per row rather than one matmul: a row's rounding, and with
        # it the order of tied bounds, must not depend on the rest of the block
        S = np.array([H @ x for x in X])
        correct = _in_some_cone(X, S[:, mine_cols], rounding, mine_normals, sizes[mine])
        bounds = -np.minimum.reduceat((S * inv_norms)[:, cols], starts, axis=1)
        # correct rows look for other topologies, incorrect ones for their own
        bounds = np.where(mine != correct[:, None], np.maximum(bounds, 0.0), np.inf)
        order = np.argsort(bounds, axis=1, kind="stable")
        for x, ok, row, sorted_bounds in zip(
            X, correct, order, np.take_along_axis(bounds, order, axis=1)
        ):
            best, best_k = np.inf, None
            for k, bound in zip(row, sorted_bounds):
                if bound >= best:
                    break
                dist = nearest_point(cones[k], x).distance
                if dist < best:
                    best, best_k = dist, k
            if best_k not in names:
                top = cones[best_k].topology
                names[best_k] = top.newick() if top is not None else ""
            records.append(
                ClassificationRecord(
                    "correct" if ok else "incorrect", float(best), names[best_k]
                )
            )
    return records


def distance_to_wrong(d, true_topology, cones) -> ClassificationRecord:
    """Classify d against a cone census and measure the safety margin.

    Correct inputs get their distance to the nearest cone of any other
    topology; incorrect ones get their distance back to the cones of the
    true topology.  This is the one-row case of distances_to_wrong.
    """
    v = np.asarray(d.as_array() if hasattr(d, "as_array") else d, dtype=float)
    return distances_to_wrong(v[None, :], true_topology, cones)[0]

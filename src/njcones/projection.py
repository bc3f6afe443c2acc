"""Euclidean projection onto decision cones and classification distances.

The projection of v onto K = {x : Hx >= 0} is unique and satisfies
x - v = H_A^T mu with mu >= 0 supported on the tight constraints A.
nearest_point finds it with a single nonnegative least-squares solve on
the polar cone (Moreau's decomposition), which always terminates and
needs no fallback.  A separate brute-force oracle, projection_oracle,
exists purely to cross-check: it projects onto the linear hull of every
face of the cone and keeps the nearest feasible candidate, with no
multipliers and no least-squares solver.

Margins are computed a block of input vectors at a time
(distances_to_wrong): the distinct normals of all cones, stacked once
per cone sequence, screen the whole block, giving each row its verdict and
a lower bound on its distance to each cone, and nearest_point runs only
on the cones whose bound can still beat the best distance found.
distance_to_wrong is the one-row case.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import orth


@dataclass(frozen=True)
class ProjectionResult:
    point: np.ndarray
    distance: float
    active_set: tuple
    method: str


@dataclass(frozen=True)
class ClassificationRecord:
    verdict: str                 # "correct" or "incorrect"
    boundary_distance: float
    nearest_region: str          # canonical Newick of the nearest other region


def nearest_point(cone, v, tol: float = 1e-9) -> ProjectionResult:
    """The unique closest point of the cone, with its tight constraint set.

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
    tol * (1 + ||v||), which keeps the passive normals independent.
    Redundant or dependent normals make mu* non-unique, never the point.

    scipy's nnls is not used: on inputs whose projection has tight
    constraints with zero multipliers it can return a non-optimal mu.

    The tight set lists the constraints whose slack at the point is
    within 10 * tol of zero, relative to 1 + ||v||.
    """
    H = cone.unit_rows
    v = np.asarray(v, dtype=float)
    if H.size == 0:
        return ProjectionResult(v.copy(), 0.0, (), "trivial")
    if H.shape[1] != v.shape[0]:
        raise ValueError("vector length does not match the cone's ambient dimension")
    k = H.shape[0]
    scale = 1.0 + float(np.linalg.norm(v))
    mu = np.zeros(k)
    passive = np.zeros(k, dtype=bool)
    x = v.copy()
    for _ in range(3 * k):
        s = np.where(passive, np.inf, H @ x)
        j = int(np.argmin(s))
        if s[j] >= -tol * scale:
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
    s = H @ x
    tight = tuple(int(i) for i in np.flatnonzero(np.abs(s) <= 10 * tol * scale))
    return ProjectionResult(x, float(np.linalg.norm(x - v)), tight, "nnls")


def _extreme_rays(Hq: np.ndarray, tol: float) -> np.ndarray:
    """Unit extreme rays of the pointed cone {w : Hq w >= 0}, one per row.

    Double description (Motzkin et al., 1953): start from the simplicial
    cone of r independent rows, whose rays are the columns of its inverse,
    and add the other rows one at a time.  Rays on the kept side stay;
    each adjacent pair across the new hyperplane contributes the point
    where their edge crosses it.  Two rays are adjacent exactly when no
    third ray is tight on every constraint the two share (the
    combinatorial test of Fukuda and Prodon, 1996).  Hq must have full
    column rank r, which makes the cone pointed.
    """
    k, r = Hq.shape
    basis: list[int] = []
    for i in range(k):
        if np.linalg.matrix_rank(Hq[basis + [i]], tol=tol) > len(basis):
            basis.append(i)
            if len(basis) == r:
                break
    rays = np.linalg.inv(Hq[basis]).T
    rays /= np.linalg.norm(rays, axis=1, keepdims=True)
    done = list(basis)
    for i in range(k):
        if i in basis:
            continue
        s = rays @ Hq[i]
        pos, neg = s > tol, s < -tol
        tight = (np.abs(rays @ Hq[done].T) <= tol).astype(float)
        p_idx, n_idx = np.flatnonzero(pos), np.flatnonzero(neg)
        shared = tight[p_idx] @ tight[n_idx].T
        pp, nn = np.nonzero(shared >= r - 2)
        common = tight[p_idx[pp]] * tight[n_idx[nn]]
        # rays tight on the whole common set: p and n themselves, and no other
        holders = (common @ tight.T) >= common.sum(axis=1, keepdims=True)
        adjacent = holders.sum(axis=1) == 2
        p, n = p_idx[pp[adjacent]], n_idx[nn[adjacent]]
        new = s[p, None] * rays[n] - s[n, None] * rays[p]
        new /= np.linalg.norm(new, axis=1, keepdims=True)
        rays = np.vstack([rays[~neg], new])
        done.append(i)
    return rays


def _face_bases(Hq: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal bases of the linear hulls of all faces of {w : Hq w >= 0}.

    A face of a pointed cone is the conic hull of the extreme rays it
    contains, and every face is the whole cone or an intersection of the
    faces cut out by single constraints.  Closing the constraint-cut ray
    sets under intersection therefore lists every face exactly once,
    from the whole cone down to the apex (the empty ray set).  Returns
    an array of shape (faces, r, r): the rows of each slice span the
    face's linear hull, padded with zero rows.
    """
    rays = _extreme_rays(Hq, tol)
    nrays, r = rays.shape
    on = np.abs(rays @ Hq.T) <= tol
    cuts = {
        int.from_bytes(np.packbits(on[:, j], bitorder="little").tobytes(), "little")
        for j in range(Hq.shape[0])
    }
    whole = (1 << nrays) - 1
    faces = {whole}
    todo = [whole]
    while todo:
        face = todo.pop()
        for cut in cuts:
            sub = face & cut
            if sub not in faces:
                faces.add(sub)
                todo.append(sub)
    nbytes = (nrays + 7) // 8
    bases = np.zeros((len(faces), r, r))
    for f, face in enumerate(faces):
        bits = np.frombuffer(face.to_bytes(nbytes, "little"), dtype=np.uint8)
        members = rays[np.unpackbits(bits, bitorder="little")[:nrays].astype(bool)]
        if not len(members):
            continue
        _, sv, vt = np.linalg.svd(members, full_matrices=False)
        dim = int((sv > tol * sv[0]).sum())
        bases[f, :dim] = vt[:dim]
    return bases


def projection_oracle(cone, V, tol: float = 1e-9, batch: int = 128):
    """Brute-force projections for a batch of vectors, for cross-checking.

    Enumerates every face of the cone.  The projection of v lies in the
    relative interior of exactly one face F, and there it equals the
    orthogonal projection of v onto F's linear hull (any direction along
    F keeps the point inside the cone, so v minus the point is orthogonal
    to F).  Every other feasible candidate is a point of the cone and so
    no closer to v.  The nearest feasible candidate over all faces is
    therefore the projection; no multipliers and no least-squares
    solver are involved.  Returns (distances, points).

    Everything runs in coordinates on the span of the constraint rows:
    projections leave the orthogonal (lineality) component untouched, so
    distances are unchanged, and the cone becomes pointed there, so its
    faces are spanned by extreme rays (see _face_bases).
    """
    H = cone.unit_rows
    V = np.asarray(V, dtype=float)
    single = V.ndim == 1
    if single:
        V = V[None, :]
    npts = V.shape[0]
    if H.size == 0:
        d = np.zeros(npts)
        return (0.0, V[0].copy()) if single else (d, V.copy())
    U = orth(H.T)                      # (m, r) orthonormal row-space basis
    Hq = H @ U                         # unit rows again (they live in span(U))
    W = V @ U
    lineal = V - W @ U.T
    scales = 1.0 + np.linalg.norm(V, axis=1)
    best_d2 = np.full(npts, np.inf)
    best_w = np.zeros_like(W)

    bases = _face_bases(Hq, tol)
    cols = np.arange(npts)
    for start in range(0, len(bases), batch):
        B = bases[start:start + batch]             # (b, r, r)
        X = (W @ B.transpose(0, 2, 1)) @ B         # (b, npts, r) candidates
        feas = (X @ Hq.T).min(axis=2) >= -tol * scales
        R = X - W
        d2 = np.where(feas, (R * R).sum(axis=2), np.inf)
        which = d2.argmin(axis=0)
        dmin = d2[which, cols]
        upd = dmin < best_d2
        if upd.any():
            best_d2[upd] = dmin[upd]
            best_w[upd] = X[which[upd], cols[upd]]
    dist = np.sqrt(np.maximum(best_d2, 0.0))
    points = best_w @ U.T + lineal
    if single:
        return float(dist[0]), points[0]
    return dist, points


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


# (weak references to the cones of the last call, their _NormalIndex); one
# tuple, swapped whole.  Weak, so that a census is not kept alive by it.
_last_index: tuple = ((), None)


def _normal_index(cones) -> _NormalIndex:
    """The stacked normals of a cone sequence, built once per sequence.

    A census of 6 taxa has 11,250 normals but 1,200 distinct ones, and
    collecting them costs ten times more than screening one row, so the
    index of the last sequence is kept while it holds the same cone
    objects; cones and their normals are immutable.
    """
    global _last_index
    refs, index = _last_index
    if len(refs) != len(cones) or any(r() is not c for r, c in zip(refs, cones)):
        distinct: dict = {}
        cols = [distinct.setdefault(h, len(distinct)) for c in cones for h in c.normals]
        H = np.array(list(distinct), dtype=float)
        index = _NormalIndex(
            H,
            1.0 / np.linalg.norm(H, axis=1),
            np.array(cols),
            np.array([len(c.normals) for c in cones]),
        )
        _last_index = (tuple(weakref.ref(c) for c in cones), index)
    return index


def _starts(sizes: np.ndarray) -> np.ndarray:
    return np.concatenate(([0], np.cumsum(sizes[:-1])))


def distances_to_wrong(V, true_topology, cones, tol: float = 1e-9) -> list:
    """distance_to_wrong for every row of V: one ClassificationRecord per row.

    Rows go through in blocks.  Cones share most of their normals, so
    the distinct integer normals, stacked once per cone sequence, give
    every raw slack (h, v) of the block.  A row is correct when some
    cone of the true topology has all its raw slacks >= -tol (the rule
    of cones.membership).  Each (row, cone) pair also gets the violation
    bound max(0, -min_h (h, v) / |h|), which never exceeds the distance
    from v to the cone.  nearest_point then visits the candidate cones
    in ascending bound order (census order on ties) while a bound is
    below the best distance so far; a cone replaces the best only when
    strictly nearer.
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
    mine_starts = _starts(sizes[mine])
    names: dict = {}
    records = []
    step = max(1, BLOCK_BYTES // (8 * len(cols)))
    for lo in range(0, len(V), step):
        X = V[lo:lo + step]
        # a matvec per row rather than one matmul: a row's rounding, and with
        # it the order of tied bounds, must not depend on the rest of the block
        S = np.array([H @ x for x in X])
        slack = np.minimum.reduceat(S[:, mine_cols], mine_starts, axis=1)
        correct = (slack >= -tol).any(axis=1)
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
                dist = nearest_point(cones[k], x, tol=tol).distance
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


def distance_to_wrong(d, true_topology, cones, tol: float = 1e-9) -> ClassificationRecord:
    """Classify d against a cone census and measure the safety margin.

    Correct inputs get their distance to the nearest cone of any other
    topology; incorrect ones get their distance back to the cones of the
    true topology.  This is the one-row case of distances_to_wrong.
    """
    v = np.asarray(d.as_array() if hasattr(d, "as_array") else d, dtype=float)
    return distances_to_wrong(v[None, :], true_topology, cones, tol=tol)[0]

"""Polyhedral cones of inputs that drive the join algorithm down one path.

Every cone lives in the original m-dimensional input space and is stored
as a list of primitive integer normals h with sense (h, d) >= 0.  The
constraints for a full trace come from replaying the algorithm's linear
maps exactly: at each step, the picked pair's score must be minimal,
which pins score differences against every competing pair.

Normals keep their semantic orientation.  Scaling to primitive integers
preserves the inequality; flipping signs would not, so deduplication is
done on the oriented vectors (duplicates always arise with equal signs
here, because coinciding score rows coincide exactly).

`irredundant` (and so `nj cones reduce`) lets the package's one NNLS
kernel, `projection._nnls`, propose its redundancy certificates and
interior points, and keeps only those that check out exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .distvec import DissimilarityVector, index_to_pair, num_pairs
from .nj import CherryTrace, join_operator, q_operator
from .projection import _TOL, _nnls
from .rational import feasible_point, primitive, solve
from .trees import TreeTopology


class DegenerateConeError(RuntimeError):
    """The cone has no interior point (not full-dimensional)."""


@dataclass(frozen=True)
class NJCone:
    """H-representation of one decision region, tagged with its trace."""

    n: int
    normals: tuple
    trace: CherryTrace | None = None
    topology: TreeTopology | None = None
    irredundant: bool = False
    label: str = ""
    removed: tuple = ()

    @property
    def m(self) -> int:
        return num_pairs(self.n)

    @cached_property
    def unit_rows(self) -> np.ndarray:
        """Read-only float normals scaled to unit length, for the projection."""
        H = np.array(self.normals, dtype=float)
        if H.size:
            H /= np.linalg.norm(H, axis=1, keepdims=True)
        H.setflags(write=False)
        return H

    def __post_init__(self):
        m = self.m
        if any(len(h) != m for h in self.normals):
            raise ValueError("normal length does not match the pair count")


def _gap_rows(scores: np.ndarray, picks) -> tuple:
    """(G, keep): G[..., i, j, :] is the normal forcing pick picks[i] over score row j.

    scores holds one node's score rows, (k, m), or a stack of nodes,
    (..., k, m).  The normals are the gaps score_j - score_p, each divided
    by the gcd of its entries, which keeps its orientation; keep is False
    on the zero rows (row p itself, and coinciding scores), which force
    nothing.  One array pass serves all the picks of all the nodes given.
    This is the one place normals are made: for a single trace by
    _pick_normals, and for the whole census, a depth of the pick tree at
    a time, by census.census.
    """
    G = scores[..., None, :, :] - scores[..., list(picks), None, :]
    g = np.gcd.reduce(G, axis=-1)[..., None]
    np.floor_divide(G, g, out=G, where=g > 1)  # most gaps are coprime already
    return G, g[..., 0] != 0


def _pick_normals(n: int, picks) -> tuple:
    """Normals forcing each pick in turn, repeats dropped, first kept in order.

    L is 2**step times the current distances, so each step's score rows
    are integers.
    """
    if n < 4:
        raise ValueError("need at least 4 taxa")
    L = np.eye(num_pairs(n), dtype=np.int64)
    rows: dict = {}
    for nk, p in zip(range(n, 3, -1), picks):
        (G,), (keep,) = _gap_rows(q_operator(nk) @ L, [p])
        rows |= dict.fromkeys(map(tuple, G[keep].tolist()))
        L = join_operator(p, nk) @ L
    return tuple(rows)


def first_step_cone(i: int, n: int) -> NJCone:
    """Inputs whose minimal first-step score is at pair i.

    The n=4 case drops the identically-zero normal against the
    complementary pair (their score rows coincide).
    """
    a, b = index_to_pair(i, n)  # raises for i outside 0..m-1; scores[i] would not
    return NJCone(n, _pick_normals(n, [i]), label=f"first-pick {b}{a}")


def cone_from_trace(trace: CherryTrace) -> NJCone:
    """Exact H-representation of all inputs that can follow this trace."""
    return NJCone(
        trace.n,
        _pick_normals(trace.n, trace.step_picks()),
        trace=trace,
        topology=trace.topology(),
        label=trace.label(),
    )


def slacks(cone: NJCone, d):
    """Inner products (h, d) per stored normal; exact for exact inputs."""
    vals = d.values if isinstance(d, DissimilarityVector) else list(d)
    if len(vals) != cone.m:
        raise ValueError("vector length does not match the pair count")
    return [sum(h[s] * vals[s] for s in range(cone.m)) for h in cone.normals]


def membership(cone: NJCone, d) -> str:
    """'interior', 'boundary', or 'outside', exactly: floats count at their binary values."""
    slack = slacks(cone, primitive(d.values if isinstance(d, DissimilarityVector) else d))
    if any(s < 0 for s in slack):
        return "outside"
    return "boundary" if 0 in slack else "interior"


def interior_point(cone: NJCone):
    """An exact rational point with every slack >= 1, or None."""
    return feasible_point(cone.normals)


# The facet certificate rounds p to integers of at most this magnitude.
_ROUND_SCALE = float(1 << 30)


def _proposals(U, rows, V) -> list:
    """NNLS's proposal for each problem of a stack, or None for all if the kernel fails.

    Problem b projects V[b] = -u onto {x : (U[j], x) >= 0 for j in
    rows[b]}, u a unit normal.  The projection q is zero (to _TOL) when
    u lies in the cone of those normals; the proposal is then
    (True, support), the normals with positive multipliers.  Otherwise
    it is (False, q), and (u, q) = -|q|^2 < 0 while every (U[j], q) is
    nonnegative to _TOL.
    """
    try:
        W, mu = _nnls(U, rows, V)
    except (ValueError, RuntimeError):
        return [None] * len(V)
    P = V + W
    small = np.sqrt((P * P).sum(axis=1)) <= _TOL
    return [
        (True, row[m > 0].tolist()) if implied else (False, p)
        for row, m, p, implied in zip(rows, mu, P, small)
    ]


def _certificate(Z, x0, s0, k: int, others: list, proposal):
    """An exact certificate for or against h_k in the cone of `others`, or None.

    Z holds the normals as Python integers, x0 is an integer interior
    point and s0 = Z x0 its slacks.  proposal is one of _proposals',
    (True, support) or (False, q), made against `others` or more
    normals.  Its certificate is returned only once it checks out in
    integer arithmetic:

    - (True, y): h_k = sum_j y_j h_j with rational y_j >= 0, re-solved
      exactly on the proposed support, which must lie in `others`, so h_k
      is implied;
    - (False, p): an integer p with (h_k, p) = 0 < (h_j, p) for every j
      in `others`, so p - t x0 cuts h_k off alone for small t > 0.  The
      proposed point q has (h_j, q) >= 0 on the others and (h_k, q) < 0,
      so x = round(c q) nearly cuts h_k off alone; with a = Z x,
      p = s0_k x - a_k x0 and Z p = s0_k a - a_k s0.
    """
    if proposal is None:
        return None
    implied, hint = proposal
    if implied:
        if not set(hint) <= set(others):
            return None
        coef = solve(Z[hint].T.tolist(), Z[k].tolist())
        if coef is None or any(v < 0 for v in coef):
            return None
        return True, dict(zip(hint, coef))
    if not np.all(np.isfinite(hint)):
        return None
    x = np.rint(hint * (_ROUND_SCALE / np.abs(hint).max())).astype(np.int64).astype(object)
    a = Z @ x
    slack = s0[k] * a - a[k] * s0
    if not all(slack[j] > 0 for j in others):
        return None
    return False, tuple(s0[k] * x - a[k] * x0)


def redundant_indices(cone: NJCone) -> list[int]:
    """Positions whose halfspace is implied by the rest, found one by one.

    Normal k is removed when h_k lies in the cone of the normals still
    kept (the later ones and the earlier ones not removed), so of two
    equal or positively proportional normals the earlier one goes.  As
    the cone is full-dimensional, that is the same as: no x has
    (h_k, x) < 0 < (h_j, x) for the other kept j (Farkas).  One
    feasible_point call finds an interior point.  Each normal is then
    decided by an exact certificate (`_certificate`) that NNLS proposes
    (Lawson and Hanson, Solving Least Squares Problems, 1974, ch. 23),
    and by one more feasible_point call on that question only when no
    proposal checks out.  One stacked _nnls call proposes every normal's
    certificate against all the other normals: a facet proposal made
    against all of them also holds against the kept ones.  An implied
    proposal holds only if its support is kept; those whose support
    holds an earlier normal with an implied proposal (so likely removed)
    are proposed again, in one more stacked call, against the normals
    whose proposals are facets.  No float decides a verdict.
    """
    normals = cone.normals
    if not normals:
        return []
    x0 = interior_point(cone)
    if x0 is None:
        raise DegenerateConeError("cone has empty interior")
    U = cone.unit_rows
    Z = np.array(normals, dtype=object)
    x0 = np.array(primitive(x0), dtype=object)
    s0 = Z @ x0
    count = len(normals)
    ids = np.arange(count)
    rest = np.tile(ids, (count, 1))[~np.eye(count, dtype=bool)].reshape(count, -1)
    first = _proposals(U, rest, -U)
    implied = [p is not None and p[0] for p in first]
    facets = ids[~np.array(implied, dtype=bool)]
    again = [k for k, p in enumerate(first) if implied[k] and any(implied[j] for j in p[1] if j < k)]
    second = {}
    if again:
        second = dict(zip(again, _proposals(U, np.tile(facets, (len(again), 1)), -U[again])))
    kept = list(range(count))
    removed = []
    for idx in range(count):
        others = [j for j in kept if j != idx]
        cert = _certificate(Z, x0, s0, idx, others, first[idx])
        if cert is None and idx in second:
            cert = _certificate(Z, x0, s0, idx, others, second[idx])
        if cert is not None:
            verdict = cert[0]
        else:
            rows = [normals[j] for j in others] + [[-v for v in normals[idx]]]
            verdict = feasible_point(rows) is None
        if verdict:
            kept.remove(idx)
            removed.append(idx)
    return removed


def irredundant(cone: NJCone) -> NJCone:
    """Facet-only copy of the cone; an exact certificate backs every removal."""
    removed = redundant_indices(cone)
    gone = set(removed)
    return replace(
        cone,
        normals=tuple(h for k, h in enumerate(cone.normals) if k not in gone),
        irredundant=True,
        removed=tuple(removed),
    )


# ---------------------------------------------------------------------------
# Cone files: '#' metadata lines, then "n m k" and k integer normal rows.


def write_cone_text(cone: NJCone) -> str:
    lines = []
    if cone.label:
        lines.append(f"# label: {cone.label}")
    if cone.trace is not None:
        lines.append(f"# trace: {cone.trace.to_json()}")
    if cone.topology is not None:
        lines.append(f"# topology: {cone.topology.newick()}")
    lines.append(f"# irredundant: {'true' if cone.irredundant else 'false'}")
    lines.append(f"{cone.n} {cone.m} {len(cone.normals)}")
    for h in cone.normals:
        lines.append(" ".join(str(v) for v in h))
    return "\n".join(lines) + "\n"


def read_cone_text(text: str) -> NJCone:
    label = ""
    trace = None
    topology = None
    irr = False
    body = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            meta = line[1:].strip()
            if meta.startswith("label:"):
                label = meta[len("label:"):].strip()
            elif meta.startswith("trace:"):
                trace = CherryTrace.from_json(meta[len("trace:"):].strip())
            elif meta.startswith("topology:"):
                topology = TreeTopology.from_newick(meta[len("topology:"):].strip())
            elif meta.startswith("irredundant:"):
                irr = meta[len("irredundant:"):].strip().lower() == "true"
            continue
        body.append(line)
    if not body:
        raise ValueError("no header line in cone file")
    n, m, k = (int(x) for x in body[0].split())
    if m != num_pairs(n):
        raise ValueError("header m does not match n")
    if len(body) != k + 1:
        raise ValueError(f"expected {k} normal rows, found {len(body) - 1}")
    normals = []
    for line in body[1:]:
        row = tuple(int(x) for x in line.split())
        if len(row) != m:
            raise ValueError("normal row has wrong length")
        normals.append(row)
    return NJCone(
        n, tuple(normals), trace=trace, topology=topology,
        irredundant=irr, label=label,
    )

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

scipy is used only by `irredundant` and `interior_point` (and so by
`nj cones reduce`), through `nnls` and `rational.linprog`; scipy.optimize
is imported on first use, so the rest of the package runs without it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .distvec import DissimilarityVector, index_to_pair, num_pairs
from .nj import CherryTrace, join_operator, q_operator
from .rational import feasible_point, primitive, solve
from .trees import TreeTopology


def nnls(A, b):
    """scipy.optimize.nnls, imported on the first call (see `rational.linprog`)."""
    from scipy.optimize import nnls

    return nnls(A, b)


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
    g = np.gcd.reduce(G, axis=-1)
    keep = g != 0
    G //= np.where(keep, g, 1)[..., None]
    return G, keep


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


# A residual this small next to its normal proposes the redundant certificate.
_RESIDUAL_TOL = 1e-9
# The facet certificate rounds -r to integers of at most this magnitude.
_ROUND_SCALE = float(1 << 30)


def _certificate(H, Z, x0, s0, k: int, others: list):
    """An exact certificate for or against h_k in the cone of `others`, or None.

    H and Z hold the normals as floats and as Python integers, x0 is an
    integer interior point and s0 = Z x0 its slacks.  scipy's NNLS of h_k
    onto the other normals proposes one certificate, and it is returned
    only once it checks out in integer arithmetic:

    - (True, y): h_k = sum_j y_j h_j with rational y_j >= 0, re-solved
      exactly on the NNLS support, so h_k is implied;
    - (False, p): an integer p with (h_k, p) = 0 < (h_j, p) for every j
      in `others`, so p - t x0 cuts h_k off alone for small t > 0.  The NNLS
      residual r has (h_j, r) <= 0 on the others and (h_k, r) = |r|^2, so
      x = round(-c r) nearly cuts h_k off alone; with a = Z x,
      p = s0_k x - a_k x0 and Z p = s0_k a - a_k s0.
    """
    h = H[k]
    if others:
        try:
            A = H[others].T
            y, _ = nnls(A, h)
            r = h - A @ y
        except (ValueError, RuntimeError):
            return None
    else:  # scipy's nnls aborts the process on a matrix with no columns
        y, r = np.zeros(0), h
    if not np.all(np.isfinite(r)):
        return None
    if np.linalg.norm(r) <= _RESIDUAL_TOL * np.linalg.norm(h):
        support = [j for j, v in zip(others, y) if v > 0]
        coef = solve(Z[support].T.tolist(), Z[k].tolist())
        if coef is None or any(v < 0 for v in coef):
            return None
        return True, dict(zip(support, coef))
    x = np.rint(-r * (_ROUND_SCALE / np.abs(r).max())).astype(np.int64).astype(object)
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
    feasible_point call finds an interior point; each normal is then
    decided by an exact certificate that NNLS proposes (`_certificate`),
    and by one more feasible_point call on that question only when the
    proposal does not check out.  No float decides a verdict.
    """
    normals = cone.normals
    if not normals:
        return []
    x0 = interior_point(cone)
    if x0 is None:
        raise DegenerateConeError("cone has empty interior")
    H = np.array(normals, dtype=float)
    Z = np.array(normals, dtype=object)
    x0 = np.array(primitive(x0), dtype=object)
    s0 = Z @ x0
    kept = list(range(len(normals)))
    removed = []
    for idx in range(len(normals)):
        others = [j for j in kept if j != idx]
        cert = _certificate(H, Z, x0, s0, idx, others)
        if cert is not None:
            implied = cert[0]
        else:
            rows = [normals[j] for j in others] + [[-v for v in normals[idx]]]
            implied = feasible_point(rows) is None
        if implied:
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

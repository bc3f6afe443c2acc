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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy.optimize import linprog

from .distvec import (
    DissimilarityVector,
    index_to_pair,
    num_pairs,
    pair_to_index,
    permute_flat,
)
from .nj import CherryTrace, join_operator, permute_trace, q_operator
from .rational import feasible_point
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
        """Read-only float normals scaled to unit length, for float tolerances."""
        H = np.array(self.normals, dtype=float)
        if H.size:
            H /= np.linalg.norm(H, axis=1, keepdims=True)
        H.setflags(write=False)
        return H

    def __post_init__(self):
        m = self.m
        if any(len(h) != m for h in self.normals):
            raise ValueError("normal length does not match the pair count")


def _pick_normals(n: int, picks) -> tuple:
    """Normals forcing each pick in turn: score_j - score_p on the input space.

    L is 2**step times the current distances, so each step's score rows
    are integers.  Each gap row is divided by the gcd of its entries,
    which keeps its orientation; zero rows (coinciding scores) and
    repeats are dropped, first occurrences kept in order.
    """
    L = np.eye(num_pairs(n), dtype=np.int64)
    gaps = []
    for nk, p in zip(range(n, 3, -1), picks):
        scores = q_operator(nk) @ L
        gaps.append(scores - scores[p])  # row p is zero and drops out
        L = join_operator(p, nk) @ L
    G = np.concatenate(gaps)
    g = np.gcd.reduce(G, axis=1)
    G = G[g != 0] // g[g != 0, None]
    return tuple(dict.fromkeys(map(tuple, G.tolist())))


def first_step_cone(i: int, n: int) -> NJCone:
    """Inputs whose minimal first-step score is at pair i.

    The n=4 case drops the identically-zero normal against the
    complementary pair (their score rows coincide).
    """
    a, b = index_to_pair(i, n)  # raises for i outside 0..m-1; scores[i] would not
    return NJCone(n, _pick_normals(n, [i]), label=f"first-pick {b}{a}")


def cone_from_trace(trace: CherryTrace, n: int | None = None) -> NJCone:
    """Exact H-representation of all inputs that can follow this trace."""
    if n is not None and n != trace.n:
        raise ValueError("taxon count does not match the trace")
    return NJCone(
        trace.n,
        _pick_normals(trace.n, trace.step_picks()),
        trace=trace,
        topology=trace.topology(),
        label=trace.label(),
    )


def slacks(cone: NJCone, d):
    """Inner products (h, d) per stored normal; exact for exact inputs."""
    if isinstance(d, DissimilarityVector):
        if d.n != cone.n:
            raise ValueError("taxon count mismatch")
        vals = d.values
    else:
        vals = list(d)
        if len(vals) != cone.m:
            raise ValueError("vector length does not match the pair count")
    return [sum(h[s] * vals[s] for s in range(cone.m)) for h in cone.normals]


def membership(cone: NJCone, d, tol: float = 1e-9) -> str:
    """'interior', 'boundary', or 'outside'; exact for rational inputs."""
    exact = isinstance(d, DissimilarityVector) and d.is_exact
    if not exact and not isinstance(d, DissimilarityVector):
        exact = all(isinstance(v, (int, Fraction)) for v in d)
    lo = 0 if exact else -tol
    hi = 0 if exact else tol
    on_boundary = False
    for s in slacks(cone, d):
        if s < lo:
            return "outside"
        if s <= hi:
            on_boundary = True
    return "boundary" if on_boundary else "interior"


def interior_point(cone: NJCone):
    """An exact rational point with every slack >= 1, or None."""
    rows = [[Fraction(v) for v in h] for h in cone.normals]
    rhs = [Fraction(1)] * len(rows)
    return feasible_point(rows, rhs)


def _violation_witnessed(cone: NJCone) -> set[int]:
    """Positions k with an exactly checked point that violates normal k only.

    A float LP (HiGHS) proposes x with (h_j, x) >= 1 for every j != k and
    (h_k, x) <= -1; the proposal counts only if its slacks, recomputed in
    exact rationals, have the right signs.  Such a point proves that
    halfspace k is implied by no subset of the others.  In a
    full-dimensional cone every irredundant normal has one.
    """
    H = np.array(cone.normals, dtype=float)
    k, m = H.shape
    witnessed = set()
    for idx in range(k):
        signs = np.ones(k)
        signs[idx] = -1.0
        lp = linprog(
            np.zeros(m),
            A_ub=-signs[:, None] * H,
            b_ub=-np.ones(k),
            bounds=(None, None),
            method="highs",
        )
        if lp.status != 0:
            continue
        exact = slacks(cone, [Fraction(t) for t in lp.x.tolist()])
        if all((s < 0) == (j == idx) for j, s in enumerate(exact)):
            witnessed.add(idx)
    return witnessed


def redundant_indices(cone: NJCone) -> list[int]:
    """Positions whose halfspace is implied by the rest, found one by one.

    Each test asks (exactly) whether the others admit a point with
    (h_k, x) <= -1; homogeneity makes -1 equivalent to any negative slack.
    Normals with an exactly checked float witness (see
    _violation_witnessed) are implied by no subset of the others, so they
    skip the exact test: it would keep them anyway.  Every removal is
    still decided by the exact LP, in the same order as without the
    witnesses.
    """
    normals = cone.normals
    if not normals:
        return []
    witnessed = _violation_witnessed(cone)
    kept = list(range(len(normals)))
    removed = []
    for idx in range(len(normals)):
        if idx in witnessed:
            continue
        rows = []
        rhs = []
        for j in kept:
            if j == idx:
                continue
            rows.append([Fraction(v) for v in normals[j]])
            rhs.append(Fraction(0))
        rows.append([Fraction(-v) for v in normals[idx]])
        rhs.append(Fraction(1))
        if feasible_point(rows, rhs) is None:
            kept.remove(idx)
            removed.append(idx)
    return removed


def irredundant(cone: NJCone) -> NJCone:
    """Facet-only copy of the cone; exact LP certifies every removal."""
    if interior_point(cone) is None:
        raise DegenerateConeError("cone has empty interior")
    removed = redundant_indices(cone)
    gone = set(removed)
    return replace(
        cone,
        normals=tuple(h for k, h in enumerate(cone.normals) if k not in gone),
        irredundant=True,
        removed=tuple(removed),
    )


def facet_witness(i: int, j: int, n: int) -> DissimilarityVector:
    """A vector on the face score_i = score_j with all other scores larger.

    Entries are 2 on pairs i and j and 4 elsewhere.  For n = 5 with i and
    j sharing a taxon, that pattern also ties the pair formed by the two
    untouched taxa; raising that single entry to 5 breaks the extra tie
    without moving the i-j equality (their score rows ignore the entry).
    """
    if n < 5:
        raise ValueError("witness construction needs at least 5 taxa")
    if i == j:
        raise ValueError("need two distinct pair indices")
    m = num_pairs(n)
    vals = [Fraction(4)] * m
    vals[i] = Fraction(2)
    vals[j] = Fraction(2)
    ti, tj = set(index_to_pair(i, n)), set(index_to_pair(j, n))
    if n == 5 and ti & tj:
        outside = sorted(set(range(n)) - ti - tj)
        k0 = pair_to_index(outside[1], outside[0], n)
        vals[k0] += 1
    return DissimilarityVector(n, tuple(vals))


def permute_cone(sigma, cone: NJCone) -> NJCone:
    """Relabel taxa in the cone: constraints, trace, and topology together."""
    normals = tuple(
        tuple(permute_flat(sigma, h, cone.n)) for h in cone.normals
    )
    trace = None
    topology = None
    label = cone.label
    if cone.trace is not None:
        trace = permute_trace(sigma, cone.trace)
        label = trace.label()
    if cone.topology is not None:
        topology = cone.topology.relabel(sigma)
    return NJCone(
        cone.n,
        normals,
        trace=trace,
        topology=topology,
        irredundant=cone.irredundant,
        label=label,
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

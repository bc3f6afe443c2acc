"""Neighbor joining as explicit linear algebra.

The selection scores of the nk current nodes are a linear map,
q_operator(nk), of their flattened distance vector; the join picks the
pair with the smallest score.  The join is the other linear map, and
this is the one place its convention is fixed:

    Joining the pair at flat index p, i.e. nodes x > y of nk, moves y
    to slot nk-2 and x to slot nk-1, packs the other nodes in order into
    slots 0..nk-3, and then replaces the last two by the merged node,
    which becomes node nk-2 of the nk-1 remaining ones, at distance
    (d(k,x) + d(k,y) - d(x,y)) / 2 from every other node k.

join_operator(p, nk) is that map on distance vectors (times 2) and
join_clusters the same step on the list of current leaf clusters, so a
pick sequence (one flat pair index per step) names a run.  At four
nodes complementary pairs score alike; the last join is recorded as the
side of the final split that holds leaf 0 (_canonical_last_join), which
makes equal cones carry equal traces.  nj_run branches on every exact
tie, so its output is the set of every (trace, topology) the input can
produce, not just one arbitrary tree.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distvec import (
    DissimilarityVector,
    all_pairs,
    index_to_pair,
    num_pairs,
    pair_to_index,
)
from .rational import primitive
from .trees import TreeTopology

_BRANCH_LIMIT = 10_000  # decision nodes nj_run visits before giving up


class BranchLimitExceeded(RuntimeError):
    """Tie branching exceeded _BRANCH_LIMIT decision nodes."""


@lru_cache(maxsize=None)
def q_operator(n: int) -> np.ndarray:
    """Read-only m x m integer map from a distance vector to its selection scores."""
    if n < 4:
        raise ValueError("need at least 4 taxa")
    pairs = all_pairs(n)
    m = len(pairs)
    mat = np.zeros((m, m), dtype=np.int64)
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i == j:
                mat[i, j] = n - 4
            elif {a, b} & {c, d}:
                mat[i, j] = -1
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=None)
def join_operator(p: int, nk: int) -> np.ndarray:
    """Twice the join of the pair at flat index p, as a read-only integer map.

    Rows index the pairs of the nk-1 nodes left after the join, columns
    the pairs of the nk current ones (see the module docstring).  Kept
    pairs carry a 2; each distance to the merged node carries 1, 1, -1.
    All entries are integers, so halving the image is exact.
    """
    x, y = index_to_pair(p, nk)
    rest = [u for u in range(nk) if u != x and u != y]
    mat = np.zeros((num_pairs(nk - 1), num_pairs(nk)), dtype=np.int64)
    for i, (a, b) in enumerate(all_pairs(nk - 2)):
        mat[i, pair_to_index(rest[a], rest[b], nk)] = 2
    for k, u in enumerate(rest):
        row = pair_to_index(nk - 2, k, nk - 1)
        mat[row, pair_to_index(u, x, nk)] = 1
        mat[row, pair_to_index(u, y, nk)] = 1
        mat[row, p] = -1
    mat.setflags(write=False)
    return mat


def q_criterion(d, n: int | None = None):
    """Selection scores (n-2)*d_ab - sum_k d_ak - sum_k d_bk.

    Accepts a DissimilarityVector or a bare flat sequence with explicit n,
    and returns a list, of exact scores for exact entries.
    """
    if isinstance(d, DissimilarityVector):
        vals, n = d.values, d.n
    else:
        if n is None:
            raise ValueError("n is required for bare sequences")
        vals = list(d)
    return list(q_operator(n) @ np.array(vals, dtype=object))


def join_clusters(clusters: list, p: int):
    """The cluster list after joining the pair at flat index p, and that join."""
    x, y = index_to_pair(p, len(clusters))
    rest = [c for i, c in enumerate(clusters) if i != x and i != y]
    return rest + [clusters[x] | clusters[y]], (clusters[y], clusters[x])


def _canonical_last_join(clusters: list, p: int) -> tuple:
    """At four nodes, the side of the split picked by p that holds leaf 0."""
    x, y = index_to_pair(p, 4)
    if 0 in clusters[x] | clusters[y]:
        return clusters[y], clusters[x]
    return tuple(c for i, c in enumerate(clusters) if i != x and i != y)


def _leaves(n: int) -> list:
    return [frozenset([i]) for i in range(n)]


@dataclass(frozen=True)
class CherryTrace:
    """The ordered record of cherry joins, in original leaf sets.

    merges holds one (cluster, cluster) pair per join; clusters are
    frozensets of original leaves, and each pair is stored with the
    cluster containing the smaller minimum first.  Traces built by
    trace_from_picks (and so by nj_run and the census) record the last
    join canonically, with _canonical_last_join.
    """

    n: int
    merges: tuple

    def __post_init__(self):
        canon = tuple(
            (a, b) if min(a) < min(b) else (b, a)
            for a, b in (tuple(map(frozenset, mg)) for mg in self.merges)
        )
        object.__setattr__(self, "merges", canon)
        if len(canon) != self.n - 3:
            raise ValueError(f"expected {self.n - 3} joins for n={self.n}")

    def topology(self) -> TreeTopology:
        return TreeTopology.from_trace(self.n, self.merges)

    def label(self) -> str:
        def fmt(cluster):
            return "".join(str(x) for x in sorted(cluster))

        return "+".join(f"{fmt(a)}-{fmt(b)}" for a, b in self.merges)

    def step_picks(self) -> list[int]:
        """The pick sequence: each join's flat pair index among the current nodes."""
        clusters = _leaves(self.n)
        picks = []
        for a, b in self.merges:
            try:
                p = pair_to_index(clusters.index(a), clusters.index(b), len(clusters))
            except ValueError:
                raise ValueError(f"join of inactive clusters {set(a)}, {set(b)}") from None
            picks.append(p)
            clusters = join_clusters(clusters, p)[0]
        return picks

    def to_json(self) -> str:
        return json.dumps(
            {"n": self.n, "merges": [[sorted(a), sorted(b)] for a, b in self.merges]}
        )

    @classmethod
    def from_json(cls, text: str) -> "CherryTrace":
        obj = json.loads(text)
        return cls(obj["n"], tuple((frozenset(a), frozenset(b)) for a, b in obj["merges"]))

    def sort_key(self):
        return tuple(
            (tuple(sorted(a)), tuple(sorted(b))) for a, b in self.merges
        )


def trace_from_picks(n: int, picks) -> CherryTrace:
    """The trace of a pick sequence, its last join recorded canonically."""
    clusters = _leaves(n)
    merges = []
    for p in picks[:-1]:
        clusters, join = join_clusters(clusters, p)
        merges.append(join)
    merges.append(_canonical_last_join(clusters, picks[-1]))
    return CherryTrace(n, tuple(merges))


def nj_run(d: DissimilarityVector):
    """All (CherryTrace, TreeTopology) pairs reachable by optimal joins.

    Branches depth-first on every tie of the minimal selection score.
    Every comparison is exact: the input, floats at their binary values,
    is taken to integers at a positive scale (rational.primitive), and
    each join doubles the integer distances.
    Results are deduplicated and sorted deterministically.
    """
    n = d.n
    vals = np.array(primitive(d.values), dtype=object)
    results = {}
    budget = [_BRANCH_LIMIT]

    def recurse(vals, nk, picks):
        budget[0] -= 1
        if budget[0] < 0:
            raise BranchLimitExceeded(f"more than {_BRANCH_LIMIT} tie branches")
        # complementary pairs score alike at four nodes: branch over the
        # three splits via their representatives {1,0}, {2,0}, {2,1}
        q = q_operator(nk) @ vals if nk > 4 else q_operator(4)[:3] @ vals
        lo = min(q)
        for p in (i for i, v in enumerate(q) if v == lo):
            if nk == 4:
                results.setdefault(trace_from_picks(n, picks + [p]), None)
            else:
                recurse(join_operator(p, nk) @ vals, nk - 1, picks + [p])

    recurse(vals, n, [])
    out = [(tr, tr.topology()) for tr in results]
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def unique_topologies(results) -> list[TreeTopology]:
    """Distinct topologies from an nj_run result, in first-seen order."""
    seen = []
    for _, top in results:
        if top not in seen:
            seen.append(top)
    return seen

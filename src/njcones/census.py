"""Complete decision-cone censuses for 5 and 6 taxa, plus solid-angle sampling.

A completed trace is named by its pick sequence (see the join
convention in nj): the flat pair index picked among nk current nodes
for nk = n, ..., 5, then the split class 0, 1 or 2 picked at four nodes
(pairs {1,0}, {2,0}, {2,1}, each scoring like its complement).  The
cone id, for any n, is that sequence read as a mixed-radix number with
digits m(n), ..., m(5), 3, most significant first; for 6 taxa it is
(10 * p6 + p5) * 3 + s.  The census lists its cones in id order.  The
Monte Carlo classifier walks the same decision cascade with composed
float maps (all entries are exact dyadics, so its scores match exact
replay up to rounding) and reports the same ids, which is what ties the
sampling to the H-representations.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import permutations, product
from math import sqrt

import numpy as np

from .cones import NJCone, cone_from_trace
from .distvec import num_pairs, permute_flat
from .nj import (
    CherryTrace,
    join_operator,
    permute_trace,
    q_operator,
    trace_from_picks,
)

_CHUNK = 1 << 17


@dataclass(frozen=True)
class AngleEstimate:
    label: str
    samples: int
    fraction: float
    stderr: float


@dataclass(frozen=True)
class ConeCensus:
    n: int
    cones: tuple                  # NJCone, position = cone id
    types: tuple                  # "I"/"II"/"III" for n=6, "" for n=5
    topology_index: dict          # TreeTopology -> tuple of cone ids

    @cached_property
    def trace_ids(self) -> dict:
        """CherryTrace -> cone id."""
        return {c.trace: i for i, c in enumerate(self.cones)}

    def cones_of_type(self, t: str) -> tuple:
        return tuple(i for i, x in enumerate(self.types) if x == t)


def pick_radices(n: int) -> list[int]:
    """Digits of the mixed-radix cone id: pair counts for nk = n..5, then 3."""
    return [num_pairs(nk) for nk in range(n, 4, -1)] + [3]


def _type_of(trace: CherryTrace) -> str:
    (a, b), (c, e), last = trace.merges
    merged = a | b
    if c == merged or e == merged:
        return "III"
    p, q = last
    if {p, q} == {merged, c | e} or (len(p) == 1 and len(q) == 1):
        return "I"
    return "II"


def census(n: int) -> ConeCensus:
    """All completed-trace cones in canonical id order, typed and indexed."""
    if n not in (5, 6):
        raise ValueError("census is implemented for 5 or 6 taxa")
    cones = []
    types = []
    index: dict = {}
    for picks in product(*map(range, pick_radices(n))):
        trace = trace_from_picks(n, picks)
        cone = cone_from_trace(trace)
        if n == 5:
            # the first cherry and the middle leaf, which is in no cherry
            (b,), (a,) = trace.merges[0]
            (mid,) = set(range(5)).difference(*cone.topology.cherries())
            t, label = "", f"C_{{{b}{a},{mid}}}"
        else:
            t = _type_of(trace)
            label = f"{t}:{trace.label()}"
        index.setdefault(cone.topology, []).append(len(cones))
        cones.append(replace(cone, label=label))
        types.append(t)
    return ConeCensus(
        n, tuple(cones), tuple(types), {k: tuple(v) for k, v in index.items()}
    )


def load_census(n: int, cache_dir=None) -> ConeCensus:
    """census(n).  An older name, kept for callers; cache_dir is ignored."""
    return census(n)


def stabilizer(cone: NJCone, n: int | None = None) -> list:
    """All taxon permutations fixing the cone's halfspace set."""
    n = cone.n if n is None else n
    base = frozenset(cone.normals)
    return [
        sigma
        for sigma in permutations(range(n))
        if frozenset(tuple(permute_flat(sigma, h, n)) for h in cone.normals) == base
    ]


def orbit_ids(cns: ConeCensus, cone_id: int) -> set:
    """Census ids of the full symmetric-group orbit of one cone."""
    trace = cns.cones[cone_id].trace
    ids = cns.trace_ids
    return {ids[permute_trace(sigma, trace)] for sigma in permutations(range(cns.n))}


# ---------------------------------------------------------------------------
# Monte Carlo solid angles


@lru_cache(maxsize=None)
def _cascade(n: int) -> dict:
    """Float score map of every decision node, keyed by its pick prefix.

    After a prefix of picks, the current distances are the input under
    the composed join maps; the node scores them with q_operator,
    restricted at four nodes to the three split classes.
    """
    maps = {}
    level = {(): np.eye(num_pairs(n), dtype=np.int64)}  # 2**len(prefix) times
    for nk in range(n, 3, -1):
        q = q_operator(nk) if nk > 4 else q_operator(4)[:3]
        nxt = {}
        for prefix, L in level.items():
            maps[prefix] = (q @ L) / 2.0 ** len(prefix)
            if nk > 4:
                for p in range(num_pairs(nk)):
                    nxt[prefix + (p,)] = join_operator(p, nk) @ L
        level = nxt
    return maps


def _argmin_gap(scores: np.ndarray, tol: float):
    """(argmin per row, mask of rows whose two smallest scores are separated)."""
    part = np.partition(scores, 1, axis=1)
    return np.argmin(scores, axis=1), (part[:, 1] - part[:, 0]) > tol


def classify_batch(n: int, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Cone id per row of X (see the module docstring); -1 where a step tied."""
    if n < 4:
        raise ValueError("need at least 4 taxa")
    maps = _cascade(n)
    X = np.asarray(X, dtype=float)
    ids = np.full(X.shape[0], -1, dtype=np.int64)

    # depth first, each node's rows gathered from its parent's only when
    # popped, so pending siblings hold indices rather than copies of rows
    todo = [((), X, slice(None), np.arange(X.shape[0]), 0)]
    while todo:
        prefix, parent_rows, take, sel, code = todo.pop()
        rows = parent_rows[take]
        A = maps[prefix]
        pick, ok = _argmin_gap(rows @ A.T, tol)
        code *= len(A)
        if len(prefix) == n - 4:
            ids[sel[ok]] = code + pick[ok]
            continue
        for p in np.flatnonzero(np.bincount(pick[ok], minlength=len(A))).tolist():
            take = np.flatnonzero(ok & (pick == p))
            todo.append((prefix + (p,), rows, take, sel[take], code + p))
    return ids


@dataclass(frozen=True)
class AngleSurvey:
    """Tallies of accepted samples per census cone, in census id order."""

    n: int
    samples: int
    seed: int
    counts: tuple
    discarded: int

    def estimates(self, cns: ConeCensus) -> list:
        out = []
        for cone, c in zip(cns.cones, self.counts):
            f = c / self.samples
            out.append(
                AngleEstimate(
                    cone.label, self.samples, f, sqrt(f * (1 - f) / self.samples)
                )
            )
        return out

    def per_type(self, cns: ConeCensus) -> list:
        """Symmetry-averaged per-cone fraction for each n=6 type class."""
        if cns.n != 6:
            raise ValueError("type classes exist only for 6 taxa")
        out = []
        for t in ("I", "II", "III"):
            members = cns.cones_of_type(t)
            total = sum(self.counts[i] for i in members) / self.samples
            err = sqrt(total * (1 - total) / self.samples)
            out.append(
                AngleEstimate(
                    f"type-{t}", self.samples, total / len(members), err / len(members)
                )
            )
        return out

    def per_topology(self, cns: ConeCensus) -> list:
        out = []
        for topology in sorted(cns.topology_index, key=lambda t: t.newick()):
            out.append(topology_angle(cns, self, topology))
        return out


def topology_angle(cns: ConeCensus, survey: AngleSurvey, topology) -> AngleEstimate:
    """Total sampled mass of one labeled topology (sum over its cones)."""
    members = cns.topology_index.get(topology)
    if members is None:
        raise ValueError("topology does not appear in the census")
    total = sum(survey.counts[i] for i in members) / survey.samples
    return AngleEstimate(
        topology.newick(),
        survey.samples,
        total,
        sqrt(total * (1 - total) / survey.samples),
    )


def solid_angles_mc(
    cns: ConeCensus,
    samples: int,
    seed: int,
    threads: int | None = None,
    tol: float = 1e-9,
    chunk: int = _CHUNK,
) -> AngleSurvey:
    """Tally spherically-symmetric draws per cone until `samples` accepted.

    Chunks are keyed by (seed, chunk index) through SeedSequence spawn
    keys on a counter-based generator and merged in chunk order, so the
    tallies do not depend on the worker count.  Tied draws are discarded
    (and counted) rather than assigned.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    m = num_pairs(cns.n)
    ncones = len(cns.cones)

    def run_chunk(ci: int) -> np.ndarray:
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
        )
        return classify_batch(cns.n, gen.standard_normal((chunk, m)), tol)

    counts = np.zeros(ncones, dtype=np.int64)
    accepted = 0
    discarded = 0
    workers = threads or os.cpu_count() or 1
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = {}
        next_submit = 0
        next_consume = 0
        while accepted < samples:
            while next_submit < next_consume + 2 * workers:
                pending[next_submit] = pool.submit(run_chunk, next_submit)
                next_submit += 1
            ids = pending.pop(next_consume).result()
            next_consume += 1
            good = np.flatnonzero(ids >= 0)
            take = min(good.size, samples - accepted)
            if take:
                used = good[:take]
                counts += np.bincount(ids[used], minlength=ncones)
                # ties count only up to the last consumed row of the chunk
                discarded += int(used[-1] + 1 - take)
                accepted += take
            elif good.size == 0:
                discarded += ids.size
        for fut in pending.values():
            fut.cancel()
    return AngleSurvey(cns.n, samples, seed, tuple(int(c) for c in counts), discarded)

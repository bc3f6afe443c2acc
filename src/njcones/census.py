"""Complete decision-cone censuses for 5 to 7 taxa, plus solid-angle sampling.

A completed trace is named by its pick sequence (see the join
convention in nj): the flat pair index picked among nk current nodes
for nk = n, ..., 5, then the split class 0, 1 or 2 picked at four nodes
(pairs {1,0}, {2,0}, {2,1}, each scoring like its complement).  The
cone id, for any n, is that sequence read as a mixed-radix number with
digits m(n), ..., m(5), 3, most significant first; for 6 taxa it is
(10 * p6 + p5) * 3 + s.  The census lists its cones in id order, and
keeps the pick tree in one form, arrays per depth in id order: the
normals of each node's picks, which every cone below the pick shares.
_cascade composes the join maps down the pick tree once, a depth at a
time, and both the census and the Monte Carlo classifier read their
node scores from it, which ties the sampling to the H-representations.
Everything else about a cone follows from its digits, in one bitmask
pass over them all (_splits_and_orbits): its joins, its split row and
its type.  Its trace, when asked for, is read off its joins.

A cone's type is its orbit under relabeling the taxa.  Types are named
I, II, ... by first cone id (the paper's I, II and III at 6 taxa); the
one orbit at 5 taxa keeps the type "".
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import permutations
from math import sqrt

import numpy as np

from .cones import NJCone, _gap_rows
from .distvec import all_pairs, num_pairs, permute_flat
from .nj import CherryTrace, _leaves, join_clusters, join_operator, q_operator
from .rational import gamma, signs

_CHUNK = 1 << 17
_TYPE_NAMES = "I II III IV V VI VII VIII IX X XI".split()  # 11 orbits at 7 taxa


@dataclass(frozen=True)
class AngleEstimate:
    label: str
    samples: int
    fraction: float
    stderr: float


@dataclass(frozen=True, eq=False)
class ConeCensus:
    """The census cones as levels of the pick tree over one stack of normals.

    normals holds the distinct primitive integer normals of all cones,
    numbered in order of first appearance level by level.  levels[d] is an
    intp array of shape (nodes, k, w): for each of the k picks of each
    node at depth d of the pick tree, nodes in id order, the rows of
    normals of the w gap normals that force it.  With C cones, cone c
    passes node-pick c // (C // (nodes * k)) of level d, the first d + 1
    digits of its mixed-radix id (see the module docstring), and its
    normals are those of its node-picks, level by level: 11, 25 and 45 at
    5, 6 and 7 taxa.  Cones that share no pick tree are one level of
    shape (1, C, s).  cols, the same normals cone by cone, is derived
    from the levels.  splits holds each cone's n - 3 splits as sorted
    int64 taxon bitmasks of the side without leaf 0; joins, its n - 3
    joins as pairs of taxon bitmasks, the last one recorded as the side
    of the final split that holds leaf 0 (nj._canonical_last_join), so
    trace(c) is cone c's trace.  topology_index, one TreeTopology per
    split row, and cones, which share those topologies, are built the
    first time they are read.
    """

    n: int
    normals: np.ndarray           # distinct integer normals, one per row
    levels: tuple                 # per depth, rows of normals of each (node, pick)
    splits: np.ndarray            # per cone, its split bitmasks, sorted
    joins: np.ndarray             # per cone and join, its two cluster bitmasks
    types: tuple                  # orbit name per cone: "" for n=5, else I, II, ...

    @property
    def cols(self) -> np.ndarray:
        """Row of normals of each normal of each cone, cone by cone."""
        per_cone = [
            np.repeat(level.reshape(-1, level.shape[2]),
                      len(self.types) // (level.shape[0] * level.shape[1]), axis=0)
            for level in self.levels
        ]
        return np.concatenate(per_cone, axis=1).ravel()

    def cones_of_type(self, t: str) -> tuple:
        return tuple(i for i, x in enumerate(self.types) if x == t)

    def trace(self, c: int) -> CherryTrace:
        """The trace of cone c, from its joins."""
        taxa = _taxon_sets(self.n)
        return CherryTrace(self.n, tuple((taxa[a], taxa[b]) for a, b in self.joins[c].tolist()))

    @cached_property
    def topology_index(self) -> dict:
        """TreeTopology -> tuple of its cone ids, in the order of their first cones."""
        ids: dict = {}
        for k, row in enumerate(map(tuple, self.splits.tolist())):
            ids.setdefault(row, []).append(k)
        return {self.trace(v[0]).topology(): tuple(v) for v in ids.values()}

    @cached_property
    def cones(self) -> tuple:
        """NJCone per cone id, with its trace, topology and label."""
        rows = [tuple(h) for h in self.normals.tolist()]
        cols = self.cols.reshape(len(self.types), -1).tolist()
        topologies = {c: top for top, ids in self.topology_index.items() for c in ids}
        out = []
        for c, (t, mine) in enumerate(zip(self.types, cols)):
            trace = self.trace(c)
            if self.n == 5:
                # the first cherry and the middle leaf, which is in no cherry
                (b,), (a,) = trace.merges[0]
                (mid,) = set(range(5)).difference(*topologies[c].cherries())
                label = f"C_{{{b}{a},{mid}}}"
            else:
                label = f"{t}:{trace.label()}"
            normals = tuple(rows[i] for i in mine)
            out.append(NJCone(self.n, normals, trace=trace, topology=topologies[c], label=label))
        return tuple(out)


@lru_cache(maxsize=None)
def _taxon_sets(n: int) -> tuple:
    """The frozenset of taxa of every taxon bitmask below 2**n, by mask."""
    return tuple(frozenset(i for i in range(n) if m >> i & 1) for m in range(1 << n))


@lru_cache(maxsize=None)
def _cascade(n: int) -> tuple:
    """Integer score rows of every decision node, per depth of the pick tree.

    Entry d is read-only, (nodes, k, m): the k score rows of each node
    at depth d, nodes in id order, so a cone's node is the first d digits
    of its id.  After d picks the current distances are the input under
    the composed join maps L, which carry a factor 2**d; a node's rows
    are q_operator(nk) @ L, at four nodes only the three split classes.
    Each depth's maps are its parents' under the stacked join_operators.
    """
    if n < 4:
        raise ValueError("need at least 4 taxa")
    L = np.eye(num_pairs(n), dtype=np.int64)[None]
    out = []
    for nk in range(n, 3, -1):
        scores = (q_operator(nk) if nk > 4 else q_operator(4)[:3]) @ L
        scores.setflags(write=False)
        out.append(scores)
        if nk > 4:
            J = np.stack([join_operator(p, nk) for p in range(num_pairs(nk))])
            L = (J @ L[:, None]).reshape(-1, num_pairs(nk - 1), L.shape[2])
    return tuple(out)


@lru_cache(maxsize=None)
def _gap_bounds(n: int) -> tuple:
    """Per depth and node, c = 2 gamma_m max_j |a_j|_1 over its score rows a_j / 2**d.

    classify_batch scores x there as a_j.x, so a float gap of two scores
    is within c max|x| of the exact one.
    """
    g = 2 * gamma(num_pairs(n))
    return tuple(g * np.abs(a).sum(axis=2).max(axis=1) / 2**d for d, a in enumerate(_cascade(n)))


def _splits_and_orbits(n: int, picks: np.ndarray) -> tuple:
    """(splits, joins, keys): per cone, from its pick digits, its split
    row, its joins and its orbit key.

    One pass over the steps keeps each cone's clusters as taxon bitmasks
    and the step that made each (0 for a leaf, j + 1 for step j).  The
    joins are each step's two clusters, the last one the side of the
    final split that holds leaf 0 (nj._canonical_last_join).  The split
    row is the clusters the joins make, each as its side without leaf 0,
    sorted.  The orbit key forgets the leaf labels: each join as the
    sorted pair of its parts' steps, the last as its unordered 2 + 2
    split of them, read as one number.
    """
    base = n - 3  # steps run 0..n-4
    clusters = np.broadcast_to(1 << np.arange(n, dtype=np.int64), (len(picks), n))
    made = np.zeros((len(picks), n), dtype=np.int64)
    masks = np.empty((len(picks), n - 3), dtype=np.int64)
    joins = np.empty((len(picks), n - 3, 2), dtype=np.int64)
    keys = 0

    def code(cols):  # the steps of two clusters as one unordered pair
        steps = np.take_along_axis(made, cols, axis=1)
        return steps.min(axis=1) * base + steps.max(axis=1)

    for j, nk in enumerate(range(n, 3, -1)):
        # per pick: its pair (x, y), and the slot each node after the join
        # comes from (nj.join_clusters; the merged node's is x, the larger)
        pairs = all_pairs(nk)
        order = np.array([[max(c) for c in join_clusters(_leaves(nk), p)[0]]
                          for p in range(len(pairs))])
        xy, slots = np.array(pairs)[picks[:, j]], order[picks[:, j]]
        joins[:, j] = np.take_along_axis(clusters, xy, axis=1)
        masks[:, j] = joins[:, j, 0] | joins[:, j, 1]
        if nk == 4:  # the last pick is a split class: x, y against the other two
            rest = np.take_along_axis(clusters, slots[:, :2], axis=1)
            joins[:, j] = np.where(masks[:, j, None] & 1, joins[:, j], rest)
            a, b = code(xy), code(slots[:, :2])
            keys = (keys * base**2 + np.minimum(a, b)) * base**2 + np.maximum(a, b)
            break
        keys = keys * base**2 + code(xy)
        clusters, made = (np.take_along_axis(a, slots, axis=1) for a in (clusters, made))
        clusters[:, -1], made[:, -1] = masks[:, j], j + 1
    # kind="stable": numpy's default int64 sort would page in ~256 KB more code
    splits = np.sort(np.where(masks & 1, (1 << n) - 1 - masks, masks), axis=1, kind="stable")
    return splits, joins, keys


def census(n: int) -> ConeCensus:
    """All completed-trace cones in canonical id order, as levels, typed.

    The normals are made a depth of the pick tree at a time: the score
    rows of that depth's nodes (_cascade) give all of its gap rows in one
    cones._gap_rows pass.  No two score rows of a census node coincide,
    so every pick keeps the same count of them.  The distinct rows are
    numbered by their int64 bytes in order of first appearance, level by
    level and each level in id order.  A cone's pick digits are its id
    in the mixed radix; they give its split row, joins and orbit key
    (_splits_and_orbits), and the types number the distinct keys by
    their first cone.  Traces, topologies and labels wait for
    ConeCensus.cones.  At 8 taxa it would hold 264,600 cones.
    """
    if not 5 <= n <= 7:
        raise ValueError("census is implemented for 5 to 7 taxa")
    row_bytes = np.dtype((np.void, 8 * num_pairs(n)))
    shapes = []  # per depth, (nodes, k, w)
    gaps = []    # every gap row as its int64 bytes, depth by depth, each in id order
    for S in _cascade(n):
        G, keep = _gap_rows(S, range(S.shape[1]))
        shapes.append((*keep.shape[:2], int(keep[0, 0].sum())))
        gaps += G[keep].view(row_bytes)[:, 0].tolist()
    ids: dict = {}  # a normal's int64 bytes -> its row of the stack
    at = np.array([ids.setdefault(g, len(ids)) for g in gaps], dtype=np.intp)
    ends = np.cumsum([np.prod(shape) for shape in shapes])
    levels = tuple(a.reshape(shape) for a, shape in zip(np.split(at, ends[:-1]), shapes))

    radices = [k for _, k, _ in shapes]
    cones = int(np.prod(radices))
    picks = np.stack(np.unravel_index(np.arange(cones), radices), axis=1)
    splits, joins, orbits = _splits_and_orbits(n, picks)
    names: dict = {}  # orbit key -> type number, in order of first cone
    types = tuple(_TYPE_NAMES[names.setdefault(k, len(names))] for k in orbits.tolist())
    types = types if n > 5 else ("",) * cones
    stack = np.frombuffer(b"".join(ids), dtype=np.int64).reshape(len(ids), num_pairs(n))
    return ConeCensus(n, stack, levels, splits, joins, types)


def load_census(n: int, cache_dir=None) -> ConeCensus:
    """census(n).  An older name, kept for callers; cache_dir is ignored."""
    return census(n)


def stabilizer(cone: NJCone) -> list:
    """All taxon permutations fixing the cone's halfspace set."""
    n = cone.n
    base = frozenset(cone.normals)
    return [
        sigma
        for sigma in permutations(range(n))
        if frozenset(tuple(permute_flat(sigma, h, n)) for h in cone.normals) == base
    ]


# ---------------------------------------------------------------------------
# Monte Carlo solid angles


def _argmin_gap(scores: np.ndarray, bound: float):
    """(argmin per column, mask of columns whose two smallest scores differ by more than bound).

    scores is (k, rows), one column per row, so each pass runs along rows
    of the batch's length: the minimum, then the first index holding it (a
    descending sweep, the smaller index written last), then the minimum
    again with that one entry set to inf, which is the second-smallest
    score.  scores is overwritten.  With bound the scores' rounding bound,
    a column in the mask has the float argmin as its unique exact argmin.
    """
    low = scores.min(axis=0)
    pick = np.full(low.shape, len(scores) - 1)
    for j in range(len(scores) - 2, -1, -1):
        pick = np.where(scores[j] == low, j, pick)
    scores[pick, np.arange(scores.shape[1])] = np.inf
    return pick, scores.min(axis=0) - low > bound


def classify_batch(n: int, X: np.ndarray) -> np.ndarray:
    """Cone id per row of X (see the module docstring); -1 where a step tied.

    A step ties when its smallest score is not unique in exact arithmetic
    on the rows' float values.  Each node scores its rows in floats as
    A @ rows.T, one column per row, so the gap reductions run along the
    batch rather than across a node's few pairs.  A row's float pick
    stands when its gap exceeds the node's rounding bound (_gap_bounds)
    times max|X|.  The node's other rows take one rational.signs call on
    its pairwise score differences a_j - a_i: pick i stands where every
    one is positive, and a row with no such i ties.  So every id is the
    exact one, whatever the other rows of the batch.
    """
    scores = _cascade(n)  # raises below 4 taxa
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != num_pairs(n):
        raise ValueError(f"X must be 2-D, one row of {num_pairs(n)} distances per input")
    ids = np.full(X.shape[0], -1, dtype=np.int64)
    xmax = max(X.max(), -X.min()) if X.size else 0.0
    if not np.isfinite(xmax):
        raise ValueError("rows to classify must be finite")

    # depth first, each node's rows gathered from its parent's only when
    # popped, so pending siblings hold indices rather than copies of rows;
    # code is the node's number at its depth, the first digits of its ids
    todo = [(0, X, slice(None), np.arange(X.shape[0]), 0)]
    while todo:
        d, parent_rows, take, sel, code = todo.pop()
        rows = parent_rows[take]
        A = scores[d][code] / 2.0**d  # exact dyadics: the true scores
        pick, ok = _argmin_gap(A @ rows.T, _gap_bounds(n)[d][code] * xmax)
        if not ok.all():
            # pick i stands where every gap a_j - a_i, j != i, is positive
            a = scores[d][code]
            unsure = np.flatnonzero(~ok)
            gaps = signs((a - a[:, None]).reshape(-1, a.shape[1]), rows[unsure])
            stands = (gaps.reshape(-1, len(a), len(a)) > 0).sum(axis=2) == len(a) - 1
            pick[unsure] = np.where(stands.any(axis=1), stands.argmax(axis=1), -1)
            ok = pick >= 0
        code *= len(A)
        if d == n - 4:
            ids[sel[ok]] = code + pick[ok]
            continue
        for p in np.flatnonzero(np.bincount(pick[ok], minlength=len(A))).tolist():
            take = np.flatnonzero(pick == p)
            todo.append((d + 1, rows, take, sel[take], code + p))
    return ids


@dataclass(frozen=True)
class AngleSurvey:
    """Tallies of accepted samples per census cone, in census id order."""

    n: int
    samples: int
    seed: int
    counts: tuple
    discarded: int

    def _mass(self, label: str, ids) -> AngleEstimate:
        """Sampled fraction of the cones with these ids, with its stderr."""
        f = sum(self.counts[i] for i in ids) / self.samples
        return AngleEstimate(label, self.samples, f, sqrt(f * (1 - f) / self.samples))

    def estimates(self, cns: ConeCensus) -> list:
        return [self._mass(cone.label, [i]) for i, cone in enumerate(cns.cones)]

    def per_type(self, cns: ConeCensus) -> list:
        """Symmetry-averaged per-cone fraction of each type (orbit), from 6 taxa on."""
        classes = tuple(dict.fromkeys(cns.types))
        if len(classes) < 2:
            raise ValueError("type classes need at least 6 taxa")
        out = []
        for t in classes:
            ids = cns.cones_of_type(t)
            est = self._mass(f"type-{t}", ids)
            out.append(
                AngleEstimate(est.label, est.samples, est.fraction / len(ids), est.stderr / len(ids))
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
    return survey._mass(topology.newick(), members)


def keyed_stream(seed: int, key: int) -> np.random.Generator:
    """The counter-based (Philox) generator keyed by (seed, key) through
    SeedSequence spawn keys: the package's one idiom for streams that a
    span of work draws from its key alone."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def solid_angles_mc(
    cns: ConeCensus, samples: int, seed: int, threads: int | None = None
) -> AngleSurvey:
    """Tally spherically-symmetric draws per cone until `samples` accepted.

    The draws are one stream of Gaussian rows: row r is row r - ci * _CHUNK
    of chunk ci, drawn from keyed_stream(seed, ci).  So a span of rows
    lo..hi of a chunk is drawn from its key alone, as the last hi - lo
    rows of a fill of hi rows, and no generator outlives its span.  Tied
    draws are discarded (and counted) rather than assigned.

    Sampling runs in rounds.  Each classifies the next samples - accepted
    rows of the stream, cut at chunk ends into spans, threads of them
    (default: all cores) at once.  Only ties leave a round short, and the
    next round starts where it ended, redrawing fewer rows than a chunk
    holds to reach its first one.  So exactly samples + discarded rows are
    classified, discarded being every tied row among them, and the
    tallies are those of reading the stream in order until `samples` are
    accepted, whatever the thread count.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    if threads is not None and threads < 1:
        raise ValueError("need at least one thread")
    m = num_pairs(cns.n)
    chunk = _CHUNK
    counts = np.zeros(len(cns.types), dtype=np.int64)
    accepted = drawn = 0

    def classify_span(span) -> np.ndarray:
        ci, lo, hi = span
        return classify_batch(cns.n, keyed_stream(seed, ci).standard_normal((hi, m))[lo:])

    with ThreadPoolExecutor(max_workers=threads or os.cpu_count() or 1) as pool:
        while accepted < samples:
            end = drawn + samples - accepted
            cuts = [drawn, *range((drawn // chunk + 1) * chunk, end, chunk), end]
            spans = [(a // chunk, a % chunk, a % chunk + b - a) for a, b in zip(cuts, cuts[1:])]
            for ids in pool.map(classify_span, spans):
                good = ids[ids >= 0]
                counts += np.bincount(good, minlength=counts.size)
                accepted += good.size
            drawn = end
    return AngleSurvey(cns.n, samples, seed, tuple(int(c) for c in counts), drawn - samples)

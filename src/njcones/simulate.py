"""Noisy-distance experiments on 5-taxon model trees.

Two fixed models share the topology ((0,1),2,(3,4)) and pendant length b:
T1 has both interior edges short (a), T2 has one short and one long (b).
Sequences evolve site-independently under JC or K2P (nucleotides coded
A=0 G=1 C=2 T=3, so a transition is XOR 1 and the transversions are
XOR 2 and XOR 3), distances come back through the closed-form pairwise
corrections, and each replicate is classified against the 5-taxon cone
census with its margin to the nearest differently-labeled cone.

The draws are addressed by key.  Replicate r of a run is replicate
j = r % PER_KEY of key k = r // PER_KEY, drawn from keyed_stream(seed, k).
A key's stream is edge-major: a segment for the root, then one per edge
in plan order, each holding PER_KEY runs of S uniforms (S is sites
rounded up to a multiple of 4), replicate j's run in segment s starting
at word (s * PER_KEY + j) * S.  A replicate uses the first `sites`
words of each run: floor(4u) is its root base (exactly uniform on 0..3,
as 4 divides 2^53), and on an edge the change its draw reaches.  So a
replicate's alignment depends on (seed, r, sites) alone, never on the
block size or the replicate count.

Replicates run a block at a time, and blocks are cut at key ends.  The
BFS edge plan and each edge's change thresholds are built once per
experiment.  A block takes one generator at the start of its key's
stream; per segment it advances the counter to the block's runs (Philox
steps 4 words at a time, and S keeps every run on a step) and draws them
in one call, and each edge turns the whole block's draws into the XOR
each applies to its parent's base in a few array passes.  Distances are
estimated a pair at a time for all replicates of the block.  The
estimates of all blocks are then classified by
projection.distances_to_wrong, which takes its own blocks of rows.
simulate_alignment and estimate_distances are the one-alignment cases,
and the package's public one-alignment API.

A block holds as many replicates as keep one segment's draws (8 bytes a
word) and the sequences of all vertices (1 byte a site each) within
projection.BLOCK_BYTES together; the other temporaries are smaller.  A
block is never less than one replicate, so above BLOCK_BYTES / 16 =
65,536 sites (5 taxa, 8 vertices) the temporaries grow with the sites:
one segment's draws and the vertex sequences of one replicate, 16 bytes
a site, which simulating any single replicate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import projection
from .census import ConeCensus, keyed_stream
from .distvec import DissimilarityVector, all_pairs, index_to_pair, num_pairs
from .projection import distances_to_wrong
from .trees import TreeTopology, path_metric

_EDGES = ((0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7))
D_MAX = 5.0  # the estimate of a pair whose correction has no defined logarithm
PER_KEY = 1024  # replicates drawn from one key's stream


@dataclass(frozen=True)
class TreeModel:
    name: str
    topology: TreeTopology
    lengths: dict  # (min(u,v), max(u,v)) -> expected substitutions per site

    def __post_init__(self):
        for edge in self.topology.edges():
            t = self.lengths.get(edge)
            if t is None:
                raise ValueError(f"missing length for edge {edge}")
            if t < 0:
                raise ValueError("edge lengths must be nonnegative")


def build_model(name: str, a: float = 0.03, b: float = 0.42) -> TreeModel:
    """The named experiment models.  T1: both interior edges a; T2: a and b."""
    if name not in ("T1", "T2"):
        raise ValueError("model name must be T1 or T2")
    lengths = {(0, 5): b, (1, 5): b, (2, 6): b, (3, 7): b, (4, 7): b}
    lengths[(5, 6)] = a
    lengths[(6, 7)] = a if name == "T1" else b
    return TreeModel(name, TreeTopology(5, _EDGES), lengths)


def tree_metric(model: TreeModel) -> DissimilarityVector:
    n = model.topology.n
    return DissimilarityVector(
        n, tuple(path_metric(n, model.topology.edges(), model.lengths))
    )


def _change_probs(t: float, submodel: str, kappa: float):
    """(transition prob, per-transversion prob) after branch length t."""
    if submodel == "jc":
        kappa = 1.0
    elif submodel != "k2p":
        raise ValueError("substitution model must be 'jc' or 'k2p'")
    beta = t / (kappa + 2.0)
    e4b = math.exp(-4.0 * beta)
    eab = math.exp(-2.0 * (kappa + 1.0) * beta)
    return 0.25 + 0.25 * e4b - 0.5 * eab, 0.25 - 0.25 * e4b


class _EdgePlan(NamedTuple):
    leaves: int
    root: int
    vertices: int
    steps: list  # (parent, child, thresholds) in BFS order from the root


def _edge_plan(model: TreeModel, submodel: str, kappa: float) -> _EdgePlan:
    """The BFS edge order and each edge's cumulative change thresholds.

    The root is the smallest interior vertex and children are visited in
    increasing order.  A draw below thresholds[0] is a transition, below
    thresholds[1] the first transversion, below thresholds[2] the
    second, and otherwise no change.
    """
    adj: dict[int, list[int]] = {}
    for u, v in model.topology.edges():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    root = min(u for u in adj if len(adj[u]) > 1)
    seen = {root}
    queue = [root]
    steps = []
    while queue:
        u = queue.pop(0)
        for w in sorted(adj[u]):
            if w in seen:
                continue
            p_ts, p_tv = _change_probs(
                model.lengths[(min(u, w), max(u, w))], submodel, kappa
            )
            steps.append((u, w, (p_ts, p_ts + p_tv, p_ts + 2 * p_tv)))
            seen.add(w)
            queue.append(w)
    return _EdgePlan(model.topology.n, root, len(adj), steps)


def _run_length(sites: int) -> int:
    """S: the words of one replicate's run, sites rounded up to a multiple of 4."""
    return -(-sites // 4) * 4


def _seek(rng: np.random.Generator, at: int, word: int) -> int:
    """Move rng on from word `at` of its stream to word `word`; return word.

    Both are multiples of 4, as Philox4x64 makes 4 words a counter step.
    """
    if word > at:
        rng.bit_generator.advance((word - at) // 4)
    return word


def _simulate_block(
    plan: _EdgePlan, rng, sites: int, count: int = 1, first: int = 0, per_key: int = 1
) -> np.ndarray:
    """(count, n, sites) int8 leaf sequences of replicates first, ...,
    first + count - 1 of a key whose stream rng starts.

    The stream holds per_key runs of S words a segment (see the module
    docstring), so the block goes a segment at a time: it seeks its
    replicates' runs, draws them in one call and applies them at once,
    holding only that segment's draws.  With the defaults the runs lie
    back to back, and rng's next words give one replicate.
    """
    if sites < 1:
        raise ValueError("need at least one site")
    S = _run_length(sites)
    seqs = np.empty((count, plan.vertices, sites), dtype=np.int8)
    draws = np.empty((count, S))
    at = 0
    for s in range(1 + len(plan.steps)):
        at = _seek(rng, at, (s * per_key + first) * S) + count * S
        rng.random(out=draws)
        if s == 0:
            draws *= 4
            seqs[:, plan.root] = draws[:, :sites]  # truncation is floor here
            continue
        u, w, thresholds = plan.steps[s - 1]
        # the thresholds a draw reaches, 0..3, plus 1 and mod 4 is the XOR it
        # applies to the parent's base: a transition (1), a transversion (2
        # or 3), or no change (0)
        used = draws[:, :sites]
        change = sum(((used >= t).view(np.int8) for t in thresholds), 1)
        np.bitwise_and(change, 3, out=change)
        np.bitwise_xor(seqs[:, u], change, out=seqs[:, w])
    return seqs[:, : plan.leaves]


def simulate_alignment(
    model: TreeModel,
    sites: int,
    rng: np.random.Generator,
    submodel: str = "jc",
    kappa: float = 2.0,
) -> np.ndarray:
    """(n, sites) int8 leaf sequences from rng's next words: a run of S
    (sites rounded up to a multiple of 4) for the root, then one per
    edge in BFS order, of which the first `sites` are used."""
    return _simulate_block(_edge_plan(model, submodel, kappa), rng, sites)[0]


def _log(x: np.ndarray) -> np.ndarray:
    # the C library's log, entry by entry: NumPy's vectorised log can differ
    # from it in the last bit, which would change the written estimates
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _estimates(alignments: np.ndarray, submodel: str):
    """Closed-form corrections for (..., n, sites) alignments.

    Returns (values, capped), both (..., pairs) in flat pair order;
    capped marks the pairs whose correction had no defined logarithm
    and got clamped at D_MAX.  Pairs are counted one at a time over all
    leading axes, so the only temporaries are (..., sites) bytes.
    """
    if submodel not in ("jc", "k2p"):
        raise ValueError("substitution model must be 'jc' or 'k2p'")
    n, sites = alignments.shape[-2:]
    pairs = all_pairs(n)
    changed = np.empty(alignments.shape[:-2] + (len(pairs),), dtype=np.int64)
    transitions = np.empty_like(changed)
    for i, (a, b) in enumerate(pairs):
        diff = alignments[..., a, :] ^ alignments[..., b, :]
        changed[..., i] = np.count_nonzero(diff, axis=-1)
        if submodel == "k2p":
            transitions[..., i] = np.count_nonzero(diff == 1, axis=-1)
    if submodel == "jc":
        p = changed / sites
        args = [1.0 - 4.0 * p / 3.0]
    else:
        p = transitions / sites
        q = (changed - transitions) / sites
        args = [1.0 - 2.0 * p - q, 1.0 - 2.0 * q]
    capped = np.logical_or.reduce([x <= 0.0 for x in args])
    logs = [_log(np.where(capped, 1.0, x)) for x in args]
    if submodel == "jc":
        values = -0.75 * logs[0]
    else:
        values = -0.5 * logs[0] - 0.25 * logs[1]
    values[capped] = D_MAX
    return values, capped


def estimate_distances(alignment: np.ndarray, submodel: str = "jc"):
    """Closed-form pairwise distance corrections.

    Returns (vector, capped) where capped lists the flat pair indices
    whose correction had no defined logarithm and got clamped at D_MAX.
    """
    values, capped = _estimates(alignment, submodel)
    return (
        DissimilarityVector(alignment.shape[0], tuple(values.tolist())),
        tuple(np.flatnonzero(capped).tolist()),
    )


@dataclass(frozen=True)
class ExperimentConfig:
    model: TreeModel
    submodel: str = "jc"
    sites: int = 500
    replicates: int = 10_000
    seed: int = 0
    kappa: float = 2.0

    def __post_init__(self):
        if self.sites < 1 or self.replicates < 1:
            raise ValueError("sites and replicates must be at least 1")
        if self.submodel not in ("jc", "k2p"):
            raise ValueError("substitution model must be 'jc' or 'k2p'")


def _by_verdict(records) -> dict:
    """verdict -> (mask over records, their boundary distances, the mean or 0.0)."""
    verdicts = np.array([r.verdict for r in records])
    dists = np.array([r.boundary_distance for r in records])
    groups = {}
    for verdict in ("correct", "incorrect"):
        mask = verdicts == verdict
        d = dists[mask]
        groups[verdict] = mask, d, float(np.mean(d)) if d.size else 0.0
    return groups


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """One run: row r of each array, and records[r], is replicate r."""

    config: ExperimentConfig
    estimates: np.ndarray  # (replicates, pairs) distance estimates
    capped: np.ndarray     # (replicates, pairs) True where clamped at D_MAX
    records: list          # distances_to_wrong's ClassificationRecord per replicate

    def summary(self) -> list:
        """Per-verdict aggregate rows shaped like the robustness tables."""
        return [
            {
                "model": self.config.model.name,
                "submodel": self.config.submodel,
                "sites": self.config.sites,
                "replicates": self.config.replicates,
                "verdict": verdict,
                "count": len(dists),
                "mean_boundary_distance": mean,
                "var_boundary_distance": (
                    float(np.var(dists, ddof=1)) if len(dists) > 1 else 0.0
                ),
                "capped_replicates": int(self.capped[mask].any(axis=1).sum()),
            }
            for verdict, (mask, dists, mean) in _by_verdict(self.records).items()
        ]

    def correct_rate(self) -> float:
        return sum(r.verdict == "correct" for r in self.records) / len(self.records)


def run_experiment(config: ExperimentConfig, cns: ConeCensus) -> ExperimentReport:
    """Simulate, estimate, and classify every replicate.

    Replicate r is drawn from the stream keyed by (seed, r // PER_KEY), at
    the words the module docstring gives it.  Three array passes:
    replicates are simulated and estimated a block at a time, blocks cut
    at key ends, then all estimates are classified together.
    """
    if cns.n != config.model.topology.n:
        raise ValueError("census does not match the model's taxon count")
    plan = _edge_plan(config.model, config.submodel, config.kappa)
    sites = config.sites
    block = max(1, projection.BLOCK_BYTES // ((8 + plan.vertices) * _run_length(sites)))
    estimates = []
    for key, lo in enumerate(range(0, config.replicates, PER_KEY)):
        reps = min(PER_KEY, config.replicates - lo)
        for first in range(0, reps, block):
            alignments = _simulate_block(
                plan, keyed_stream(config.seed, key), sites,
                min(block, reps - first), first, PER_KEY,
            )
            estimates.append(_estimates(alignments, config.submodel))
    values = np.concatenate([v for v, _ in estimates])
    capped = np.concatenate([c for _, c in estimates])
    records = distances_to_wrong(values, config.model.topology, cns)
    return ExperimentReport(config, values, capped, records)


@dataclass(frozen=True)
class GaussPoint:
    sigma: float
    replicates: int
    correct_rate: float
    mean_distance_correct: float
    mean_distance_incorrect: float


def gaussian_experiment(
    model: TreeModel,
    sigma_grid,
    replicates: int,
    seed: int,
    cns: ConeCensus,
) -> list:
    """Correct-classification rate under additive Gaussian noise per entry.

    Sigma number i draws its replicates' noise as the rows of one
    standard_normal((replicates, pairs)) call on keyed_stream(seed, i),
    and classifies them by one distances_to_wrong call.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    base = np.array(tree_metric(model).as_array(), dtype=float)
    points = []
    for si, sigma in enumerate(sigma_grid):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        noise = keyed_stream(seed, si).standard_normal((replicates, base.size))
        groups = _by_verdict(
            distances_to_wrong(base + sigma * noise, model.topology, cns)
        )
        _, good, mean_good = groups["correct"]
        mean_bad = groups["incorrect"][2]
        points.append(
            GaussPoint(float(sigma), replicates, len(good) / replicates, mean_good, mean_bad)
        )
    return points


# ---------------------------------------------------------------------------
# CSV emission (plot-ready).  The estimates in records.csv are written with
# repr, which reads back as the very float that was classified, so a
# replicate on a cone boundary (boundary_distance 0) reads back on the side
# it was classified on.  Everything else gets %.12g: 12 significant digits,
# which can differ from the value computed by ~5e-13 relatively.


def _g(x) -> str:
    return f"{float(x):.12g}"


def records_csv(report: ExperimentReport) -> str:
    n = report.config.model.topology.n
    pair_names = [
        "d{}{}".format(*sorted(index_to_pair(i, n))) for i in range(num_pairs(n))
    ]
    lines = [
        ",".join(
            ["replicate", "verdict", "boundary_distance", "capped_pairs"] + pair_names
        )
    ]
    rows = zip(report.records, report.capped.tolist(), report.estimates.tolist())
    for r, (rec, caps, values) in enumerate(rows):
        lines.append(
            ",".join(
                [
                    str(r),
                    rec.verdict,
                    _g(rec.boundary_distance),
                    ";".join(str(i) for i, c in enumerate(caps) if c),
                ]
                + [repr(v) for v in values]
            )
        )
    return "\n".join(lines) + "\n"


def summary_csv(report: ExperimentReport) -> str:
    rows = report.summary()
    cols = list(rows[0])
    lines = [",".join(cols)]
    for row in rows:
        lines.append(
            ",".join(
                _g(row[c]) if isinstance(row[c], float) else str(row[c]) for c in cols
            )
        )
    return "\n".join(lines) + "\n"


def curve_csv(points) -> str:
    lines = [
        "sigma,replicates,correct_rate,mean_distance_correct,mean_distance_incorrect"
    ]
    for p in points:
        lines.append(
            ",".join(
                [
                    _g(p.sigma),
                    str(p.replicates),
                    _g(p.correct_rate),
                    _g(p.mean_distance_correct),
                    _g(p.mean_distance_incorrect),
                ]
            )
        )
    return "\n".join(lines) + "\n"

"""Noisy-distance experiments on 5-taxon model trees.

Two fixed models share the topology ((0,1),2,(3,4)) and pendant length b:
T1 has both interior edges short (a), T2 has one short and one long (b).
Sequences evolve site-independently under JC or K2P (nucleotides coded
A=0 G=1 C=2 T=3, so a transition is XOR 1 and the transversions are
XOR 2 and XOR 3), distances come back through the closed-form pairwise
corrections, and each replicate is classified against the 5-taxon cone
census with its margin to the nearest differently-labeled cone.

Replicates run a block at a time.  The BFS edge plan and each edge's
change thresholds are built once per experiment; every replicate makes
its own Philox draws (root sequence, then one uniform per site and
edge), and each edge maps the whole block's draws through one XOR
lookup table.  Distances are estimated a pair at a time for all
replicates of the block.  The estimates of all blocks are then
classified by projection.distances_to_wrong, which takes its own blocks
of rows.  simulate_alignment and estimate_distances are the
one-alignment cases.

A block holds as many replicates as keep one edge's draws (8 bytes a
site) and the sequences of all vertices (1 byte a site each) within
projection.BLOCK_BYTES together; the other temporaries are smaller.  A
block is never less than one replicate, so above BLOCK_BYTES / 16 =
65,536 sites (5 taxa, 8 vertices) the temporaries grow with the sites:
one edge's draws and the vertex sequences of one replicate, 16 bytes a
site, which simulating any single replicate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .census import ConeCensus
from .distvec import DissimilarityVector, all_pairs, index_to_pair, num_pairs
from .projection import BLOCK_BYTES, distances_to_wrong
from .trees import TreeTopology, path_metric

_EDGES = ((0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7))


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


# Thresholds a draw reaches (0..3) -> the XOR it applies to the parent's
# base: a transition (1), a transversion (2 or 3), or no change (0).
_XOR = np.array([1, 2, 3, 0], dtype=np.int8)


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


def _simulate_block(plan: _EdgePlan, rngs, sites: int) -> np.ndarray:
    """(len(rngs), n, sites) int8 leaf sequences, one replicate per generator.

    Each generator draws its root sequence, then one uniform per site for
    every edge in plan order.  The generators are independent streams, so
    the block draws an edge at a time and holds only that edge's draws,
    which it maps through _XOR at once.
    """
    if sites < 1:
        raise ValueError("need at least one site")
    seqs = np.empty((len(rngs), plan.vertices, sites), dtype=np.int8)
    for r, rng in enumerate(rngs):
        seqs[r, plan.root] = rng.integers(0, 4, size=sites, dtype=np.int8)
    draws = np.empty((len(rngs), sites))
    for u, w, thresholds in plan.steps:
        for rng, row in zip(rngs, draws):
            rng.random(out=row)
        reached = sum((draws >= t).view(np.int8) for t in thresholds)
        np.bitwise_xor(seqs[:, u], _XOR[reached], out=seqs[:, w])
    return seqs[:, : plan.leaves]


def simulate_alignment(
    model: TreeModel,
    sites: int,
    rng: np.random.Generator,
    submodel: str = "jc",
    kappa: float = 2.0,
) -> np.ndarray:
    """(n, sites) int8 leaf sequences, root drawn uniform, edges in BFS order."""
    return _simulate_block(_edge_plan(model, submodel, kappa), [rng], sites)[0]


def _log(x: np.ndarray) -> np.ndarray:
    # the C library's log, entry by entry: NumPy's vectorised log can differ
    # from it in the last bit, which would change the written estimates
    return np.fromiter(map(math.log, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _estimates(alignments: np.ndarray, submodel: str, d_max: float):
    """Closed-form corrections for (..., n, sites) alignments.

    Returns (values, capped), both (..., pairs) in flat pair order;
    capped marks the pairs whose correction had no defined logarithm
    and got clamped at d_max.  Pairs are counted one at a time over all
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
    values[capped] = d_max
    return values, capped


def estimate_distances(
    alignment: np.ndarray, submodel: str = "jc", d_max: float = 5.0
):
    """Closed-form pairwise distance corrections.

    Returns (vector, capped) where capped lists the flat pair indices
    whose correction had no defined logarithm and got clamped at d_max.
    """
    values, capped = _estimates(alignment, submodel, d_max)
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
    d_max: float = 5.0

    def __post_init__(self):
        if self.sites < 1 or self.replicates < 1:
            raise ValueError("sites and replicates must be at least 1")
        if self.submodel not in ("jc", "k2p"):
            raise ValueError("substitution model must be 'jc' or 'k2p'")


@dataclass(frozen=True)
class ExperimentRecord:
    replicate: int
    distances: DissimilarityVector
    verdict: str
    boundary_distance: float
    nearest_region: str
    capped: tuple


@dataclass(frozen=True)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple

    def summary(self) -> list:
        """Per-verdict aggregate rows shaped like the robustness tables."""
        rows = []
        for verdict in ("correct", "incorrect"):
            dists = [r.boundary_distance for r in self.records if r.verdict == verdict]
            rows.append(
                {
                    "model": self.config.model.name,
                    "submodel": self.config.submodel,
                    "sites": self.config.sites,
                    "replicates": self.config.replicates,
                    "verdict": verdict,
                    "count": len(dists),
                    "mean_boundary_distance": float(np.mean(dists)) if dists else 0.0,
                    "var_boundary_distance": (
                        float(np.var(dists, ddof=1)) if len(dists) > 1 else 0.0
                    ),
                    "capped_replicates": sum(
                        1 for r in self.records if r.verdict == verdict and r.capped
                    ),
                }
            )
        return rows

    def correct_rate(self) -> float:
        good = sum(1 for r in self.records if r.verdict == "correct")
        return good / len(self.records)


def _replicate_rng(seed: int, key: tuple) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


def run_experiment(config: ExperimentConfig, cns: ConeCensus) -> ExperimentReport:
    """Simulate, estimate, and classify every replicate (its own RNG stream).

    Three array passes: replicates are simulated and estimated a block
    at a time, then all estimates are classified together.
    """
    if cns.n != config.model.topology.n:
        raise ValueError("census does not match the model's taxon count")
    plan = _edge_plan(config.model, config.submodel, config.kappa)
    block = max(1, BLOCK_BYTES // ((8 + plan.vertices) * config.sites))
    estimates = []
    for lo in range(0, config.replicates, block):
        reps = range(lo, min(lo + block, config.replicates))
        alignments = _simulate_block(
            plan, [_replicate_rng(config.seed, (r,)) for r in reps], config.sites
        )
        estimates.append(_estimates(alignments, config.submodel, config.d_max))
    values = np.concatenate([v for v, _ in estimates])
    capped = np.concatenate([c for _, c in estimates])
    margins = distances_to_wrong(values, config.model.topology, cns.cones)
    n = plan.leaves
    records = tuple(
        ExperimentRecord(
            r,
            DissimilarityVector(n, tuple(vals)),
            rec.verdict,
            rec.boundary_distance,
            rec.nearest_region,
            tuple(np.flatnonzero(caps).tolist()),
        )
        for r, (vals, caps, rec) in enumerate(zip(values.tolist(), capped, margins))
    )
    return ExperimentReport(config, records)


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

    Each sigma's replicates are classified by one distances_to_wrong call.
    """
    if replicates < 1:
        raise ValueError("replicates must be at least 1")
    base = np.array(tree_metric(model).as_array(), dtype=float)
    points = []
    for si, sigma in enumerate(sigma_grid):
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        noise = np.array(
            [
                _replicate_rng(seed, (si, r)).standard_normal(base.shape)
                for r in range(replicates)
            ]
        )
        verdicts = distances_to_wrong(base + sigma * noise, model.topology, cns.cones)
        good = [v.boundary_distance for v in verdicts if v.verdict == "correct"]
        bad = [v.boundary_distance for v in verdicts if v.verdict == "incorrect"]
        points.append(
            GaussPoint(
                float(sigma),
                replicates,
                len(good) / replicates,
                float(np.mean(good)) if good else 0.0,
                float(np.mean(bad)) if bad else 0.0,
            )
        )
    return points


# ---------------------------------------------------------------------------
# CSV emission (plot-ready; %.12g keeps round-trips exact at double precision)


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
    for r in report.records:
        lines.append(
            ",".join(
                [
                    str(r.replicate),
                    r.verdict,
                    _g(r.boundary_distance),
                    ";".join(str(i) for i in r.capped),
                ]
                + [_g(v) for v in r.distances.values]
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

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from njcones.cli import main
from njcones.distvec import DissimilarityVector, index_to_pair, num_pairs
from njcones.simulate import (
    ExperimentConfig,
    TreeModel,
    _EDGES,
    _edge_plan,
    _estimates,
    _replicate_rng,
    _simulate_block,
    build_model,
    curve_csv,
    estimate_distances,
    gaussian_experiment,
    records_csv,
    run_experiment,
    simulate_alignment,
    summary_csv,
    tree_metric,
)
from njcones.simulate import _change_probs


def three_mask_alignment(model, sites, rng, submodel="jc", kappa=2.0):
    """Reference simulator: adjacency per call, three XOR masks per edge."""
    if sites < 1:
        raise ValueError("need at least one site")
    adj = {}
    for u, v in model.topology.edges():
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    n = model.topology.n
    root = min(u for u in adj if len(adj[u]) > 1)
    seqs = {root: rng.integers(0, 4, size=sites, dtype=np.int8)}
    queue = [root]
    while queue:
        u = queue.pop(0)
        for w in sorted(adj[u]):
            if w in seqs:
                continue
            p_ts, p_tv = _change_probs(
                model.lengths[(min(u, w), max(u, w))], submodel, kappa
            )
            draw = rng.random(sites)
            child = seqs[u].copy()
            child[draw < p_ts] ^= 1
            child[(draw >= p_ts) & (draw < p_ts + p_tv)] ^= 2
            child[(draw >= p_ts + p_tv) & (draw < p_ts + 2 * p_tv)] ^= 3
            seqs[w] = child
            queue.append(w)
    return np.stack([seqs[i] for i in range(n)])


def pairwise_estimate(alignment, submodel="jc", d_max=5.0):
    """Reference estimator: one pair at a time in Python floats."""
    n = alignment.shape[0]
    vals = []
    capped = []
    for i in range(num_pairs(n)):
        a, b = index_to_pair(i, n)
        diff = alignment[a] ^ alignment[b]
        if submodel == "jc":
            p = float(np.mean(diff != 0))
            arg = 1.0 - 4.0 * p / 3.0
            if arg <= 0.0:
                capped.append(i)
                vals.append(d_max)
            else:
                vals.append(-0.75 * math.log(arg))
        elif submodel == "k2p":
            p = float(np.mean(diff == 1))
            q = float(np.mean(diff >= 2))
            a1 = 1.0 - 2.0 * p - q
            a2 = 1.0 - 2.0 * q
            if a1 <= 0.0 or a2 <= 0.0:
                capped.append(i)
                vals.append(d_max)
            else:
                vals.append(-0.5 * math.log(a1) - 0.25 * math.log(a2))
        else:
            raise ValueError("substitution model must be 'jc' or 'k2p'")
    return DissimilarityVector(n, tuple(vals)), tuple(capped)


def oracle_models():
    """T1, T2, one with zero-length edges and one that saturates pairs."""
    top = build_model("T1").topology
    zero = {e: 0.3 for e in _EDGES}
    zero[(5, 6)] = zero[(3, 7)] = 0.0
    return (
        build_model("T1"),
        build_model("T2"),
        TreeModel("zero", top, zero),
        TreeModel("saturated", top, {e: 2.5 for e in _EDGES}),
    )


def test_build_models():
    t1 = build_model("T1")
    t2 = build_model("T2")
    pendants = [(0, 5), (1, 5), (2, 6), (3, 7), (4, 7)]
    for e in pendants:
        assert t1.lengths[e] == 0.42 and t2.lengths[e] == 0.42
    assert t1.lengths[(5, 6)] == 0.03 and t1.lengths[(6, 7)] == 0.03
    assert t2.lengths[(5, 6)] == 0.03 and t2.lengths[(6, 7)] == 0.42
    with pytest.raises(ValueError):
        build_model("T3")


def test_model_validation():
    lengths = {e: 0.1 for e in _EDGES}
    missing = dict(lengths)
    del missing[(5, 6)]
    with pytest.raises(ValueError):
        TreeModel("custom", build_model("T1").topology, missing)
    negative = dict(lengths)
    negative[(0, 5)] = -0.1
    with pytest.raises(ValueError):
        TreeModel("custom", build_model("T1").topology, negative)


def test_tree_metric_t1():
    d = tree_metric(build_model("T1"))
    assert d.get(0, 1) == pytest.approx(0.84)
    assert d.get(0, 2) == pytest.approx(0.87)
    assert d.get(0, 3) == pytest.approx(0.90)
    assert d.get(2, 3) == pytest.approx(0.87)
    assert d.get(3, 4) == pytest.approx(0.84)


def test_change_probs_jc_closed_form():
    for t in (0.01, 0.3, 1.5):
        p_ts, p_tv = _change_probs(t, "jc", kappa=7.0)  # kappa ignored under jc
        expect = 0.25 * (1.0 - math.exp(-4.0 * t / 3.0))
        assert p_ts == pytest.approx(expect, abs=1e-15)
        assert p_tv == pytest.approx(expect, abs=1e-15)
        assert p_ts == _change_probs(t, "k2p", kappa=1.0)[0]


def test_change_probs_k2p_shape():
    p_ts, p_tv = _change_probs(0.4, "k2p", kappa=4.0)
    assert p_ts > p_tv > 0
    assert p_ts + 2 * p_tv < 0.75
    with pytest.raises(ValueError):
        _change_probs(0.1, "hky", kappa=2.0)


def test_alignment_shape_and_determinism():
    model = build_model("T1")
    a = simulate_alignment(model, 200, np.random.default_rng(42))
    b = simulate_alignment(model, 200, np.random.default_rng(42))
    assert a.shape == (5, 200) and a.dtype == np.int8
    assert set(np.unique(a)) <= {0, 1, 2, 3}
    assert np.array_equal(a, b)


def test_alignment_zero_lengths_identical_rows():
    model = TreeModel("custom", build_model("T1").topology, {e: 0.0 for e in _EDGES})
    aln = simulate_alignment(model, 64, np.random.default_rng(0))
    assert (aln == aln[0]).all()


def test_alignment_mismatch_matches_expectation():
    # one pair at distance 0.6, everything else on top of it
    lengths = {e: 0.0 for e in _EDGES}
    lengths[(0, 5)] = 0.3
    lengths[(1, 5)] = 0.3
    model = TreeModel("custom", build_model("T1").topology, lengths)
    sites = 40_000
    aln = simulate_alignment(model, sites, np.random.default_rng(17))
    p_hat = float(np.mean(aln[0] != aln[1]))
    p = 0.75 * (1.0 - math.exp(-4.0 * 0.6 / 3.0))
    assert abs(p_hat - p) < 3.5 * math.sqrt(p * (1 - p) / sites)


def test_estimate_distances_inverts_known_fractions():
    sites = 300
    k = 60
    aln = np.zeros((4, sites), dtype=np.int8)
    aln[1, :k] = 1  # transitions only on pair (1, 0)
    vec, capped = estimate_distances(aln, submodel="jc")
    assert capped == ()
    p = k / sites
    assert vec.get(0, 1) == pytest.approx(-0.75 * math.log(1 - 4 * p / 3))
    assert vec.get(2, 3) == 0.0
    vec2, _ = estimate_distances(aln, submodel="k2p")
    assert vec2.get(0, 1) == pytest.approx(-0.5 * math.log(1 - 2 * p))


def test_estimate_distances_caps_saturated_pairs():
    sites = 90
    aln = np.zeros((4, sites), dtype=np.int8)
    aln[1] = np.arange(sites) % 3 + 1  # every site differs
    vec, capped = estimate_distances(aln, submodel="jc", d_max=5.0)
    assert 0 in capped
    assert vec.get(0, 1) == 5.0


def test_experiment_config_validation():
    model = build_model("T1")
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, sites=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, replicates=0)
    with pytest.raises(ValueError):
        ExperimentConfig(model=model, submodel="hky")


def test_run_experiment_small(census5):
    cfg = ExperimentConfig(
        model=build_model("T2"), sites=120, replicates=40, seed=3
    )
    report = run_experiment(cfg, census5)
    assert len(report.records) == 40
    rows = report.summary()
    assert sum(r["count"] for r in rows) == 40
    assert {r["verdict"] for r in rows} <= {"correct", "incorrect"}
    assert report.correct_rate() == pytest.approx(
        next((r["count"] for r in rows if r["verdict"] == "correct"), 0) / 40
    )
    # replicates are independent of history: a second run is bit-identical
    again = run_experiment(cfg, census5)
    assert records_csv(again) == records_csv(report)
    assert summary_csv(again) == summary_csv(report)


def test_run_experiment_census_mismatch(census6):
    cfg = ExperimentConfig(model=build_model("T1"), sites=50, replicates=2)
    with pytest.raises(ValueError):
        run_experiment(cfg, census6)


def test_records_csv_shape(census5):
    cfg = ExperimentConfig(
        model=build_model("T1"), sites=100, replicates=5, seed=1
    )
    text = records_csv(run_experiment(cfg, census5))
    lines = text.strip().splitlines()
    assert lines[0].split(",")[:4] == [
        "replicate",
        "verdict",
        "boundary_distance",
        "capped_pairs",
    ]
    assert lines[0].split(",")[4:6] == ["d01", "d02"]
    assert len(lines) == 6


def test_gaussian_experiment_zero_noise(census5):
    points = gaussian_experiment(
        build_model("T1"), [0.0, 0.05], replicates=30, seed=2, cns=census5
    )
    assert points[0].correct_rate == 1.0
    assert points[0].mean_distance_correct > 0
    assert points[0].mean_distance_incorrect == 0.0
    assert points[1].correct_rate <= 1.0
    text = curve_csv(points)
    assert text.startswith("sigma,replicates,correct_rate")
    assert len(text.strip().splitlines()) == 3


def test_gaussian_experiment_needs_replicates(census5):
    with pytest.raises(ValueError, match="replicates"):
        gaussian_experiment(build_model("T1"), [0.1], replicates=0, seed=0, cns=census5)


def test_gaussian_experiment_rejects_negative_sigma(census5):
    with pytest.raises(ValueError):
        gaussian_experiment(
            build_model("T1"), [-0.1], replicates=2, seed=0, cns=census5
        )


@pytest.mark.parametrize("submodel,kappa", [("jc", 2.0), ("k2p", 2.0), ("k2p", 5.0)])
def test_alignment_and_estimates_match_the_references(submodel, kappa):
    saw_capped = False
    for model in oracle_models():
        for seed in range(6):
            sites = 40 if model.name == "saturated" else 300
            got = simulate_alignment(model, sites, _replicate_rng(seed, (1,)), submodel, kappa)
            want = three_mask_alignment(model, sites, _replicate_rng(seed, (1,)), submodel, kappa)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            vec, capped = estimate_distances(got, submodel)
            ref, ref_capped = pairwise_estimate(got, submodel)
            # repr tells -0.0 from 0.0 and keeps every bit
            assert list(map(repr, vec.values)) == list(map(repr, ref.values))
            assert capped == ref_capped
            saw_capped |= bool(capped)
    assert saw_capped


def test_block_passes_match_one_replicate_at_a_time():
    for model, submodel in zip(oracle_models(), ("jc", "k2p", "jc", "k2p")):
        sites = 40 if model.name == "saturated" else 120
        keys = [(r,) for r in range(9)]
        block = _simulate_block(
            _edge_plan(model, submodel, 3.0), [_replicate_rng(4, k) for k in keys], sites
        )
        for k, aln in zip(keys, block):
            want = three_mask_alignment(model, sites, _replicate_rng(4, k), submodel, 3.0)
            assert np.array_equal(aln, want)
        values, capped = _estimates(block, submodel, 5.0)
        for aln, vals, caps in zip(block, values, capped):
            ref, ref_capped = pairwise_estimate(aln, submodel)
            assert list(map(repr, vals.tolist())) == list(map(repr, ref.values))
            assert tuple(np.flatnonzero(caps).tolist()) == ref_capped


def test_estimates_match_the_reference_at_every_count():
    # one alignment per mismatch count k: transitions on (1, 0), transversions
    # on (2, 0) and (2, 1), a mixture on (3, *); ends with saturated pairs
    sites = 500
    block = np.zeros((sites + 1, 4, sites), dtype=np.int8)
    for k in range(sites + 1):
        block[k, 1, :k] = 1
        block[k, 2, :k] = 2
        block[k, 3, : k // 2] = 1
        block[k, 3, k // 2 : k] = 3
    for submodel in ("jc", "k2p"):
        values, capped = _estimates(block, submodel, 5.0)
        assert capped.any() and not capped.all()
        for aln, vals, caps in zip(block, values, capped):
            ref, ref_capped = pairwise_estimate(aln, submodel)
            assert list(map(repr, vals.tolist())) == list(map(repr, ref.values))
            assert tuple(np.flatnonzero(caps).tolist()) == ref_capped


def test_a_replicate_larger_than_a_block_holds_one_edge_of_draws(census5):
    # 200,000 sites put one replicate in each block.  Its peak is one edge's
    # draws (8 bytes a site), the eight vertex sequences (8 bytes a site) and
    # byte-sized temporaries, not every edge's draws (56 bytes a site) or a
    # (pairs x sites) difference tensor (10 bytes a site, and its masks)
    sites = 200_000
    for submodel in ("jc", "k2p"):
        config = ExperimentConfig(build_model("T2"), submodel, sites, 2, seed=3)
        tracemalloc.start()
        try:
            run_experiment(config, census5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * sites


# sha256 of the files written by earlier versions of `nj sim` / `nj sim-gauss`
PINNED_SIM = {
    ("T1", "jc"): ("cbe1acf84775246c975adc8835575fd894ad35298667a8f53266861df90507e1",
                   "0992d38b2f8130a6f0f8438538b770f6468ce97bef7e6c345f99676883e950a5"),
    ("T1", "k2p"): ("dcff579dec3b470c0dd8b0cc5207e5acd5db791dcfc704ed2535388a255c4b99",
                    "250631b01f4194b9dad37092de521ce3c99b22b37037ebd674b5bc8e6c3f43d2"),
    ("T2", "jc"): ("75faf7cc6dad4af62679459c4fbc969279c086f20fa0f49d88f4e98420cebf4d",
                   "efdc37729ab1a80c4cac0a750b189a9802a6f12d9f8ed8fdb1ccbb6b2fd56e95"),
    ("T2", "k2p"): ("977b402b045cfdb28721bd3e8d55442074948057a42307a99f7a038fa2f12b6e",
                    "9cb8182fde256c3f3b8a3685e8f17a059c425ee389fbbfb8801b8dbd7f3f5b0d"),
}
PINNED_CURVE = {
    "T1": "de58870aa4dc1bb8e718c7f891da32ce5cb934538d50f6a2282d09d60e0669e6",
    "T2": "143aafa62c8115b45e4e9f577fcaf640e118c7e5b3ef89d703a43953c6a34976",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_sim_outputs_are_pinned(tmp_path):
    for (tree, submodel), (records, summary) in PINNED_SIM.items():
        out = tmp_path / f"{tree}-{submodel}"
        argv = ["sim", "--tree", tree, "--model", submodel, "--reps", "200",
                "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert _sha256(out / "records.csv") == records
        assert _sha256(out / "summary.csv") == summary
    for tree, curve in PINNED_CURVE.items():
        out = tmp_path / f"gauss-{tree}"
        argv = ["sim-gauss", "--tree", tree, "--sigma-grid", "0:0.05:0.3", "--reps", "60",
                "--seed", "3", "--out", str(out)]
        assert main(argv) == 0
        assert _sha256(out / "curve.csv") == curve

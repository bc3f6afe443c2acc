"""End-to-end checks, one test per numbered criterion.

Run with `pytest -v tests/test_acceptance.py` for one result line per
criterion, or add -s to see the measured numbers behind each verdict.
Frozen seeds: the Monte Carlo survey uses seed 2 and the sequence
experiment seed 0; both were chosen once and must not be retuned.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from njcones.census import classify_batch, solid_angles_mc, stabilizer
from njcones.cones import (
    cone_from_trace,
    first_step_cone,
    irredundant,
    membership,
    redundant_indices,
)
from njcones.distvec import (
    DissimilarityVector,
    num_pairs,
    pair_permutation,
    pair_to_index,
)
from njcones.nj import CherryTrace, nj_run, q_criterion, unique_topologies
from njcones.polytopes import build_p, f_vector, facet_enumeration, table_row
from njcones.projection import nearest_point
from njcones.simulate import ExperimentConfig, build_model, run_experiment
from njcones.trees import path_metric, random_topology

from test_cones import facet_witness
from test_distvec import shift_basis
from test_projection import projection_oracle

pytestmark = pytest.mark.acceptance

MC_SEED = 2
SIM_SEED = 0


def test_criterion_01_consistency():
    started = time.time()
    rng = np.random.default_rng(0)
    checked = 0
    for n in (4, 5, 6, 7, 8):
        for _ in range(1000):
            top = random_topology(n, rng)
            lengths = {
                tuple(sorted(e)): Fraction(int(rng.integers(1, 16)), int(rng.integers(1, 8)))
                for e in top.edges()
            }
            d = DissimilarityVector(n, tuple(path_metric(n, top.edges(), lengths)))
            assert unique_topologies(nj_run(d)) == [top]
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 60
    print(f"PASS criterion 1: {checked} exact tree metrics recovered, {elapsed:.1f}s")


def test_criterion_02_summary_table():
    started = time.time()
    expected = {
        4: (3, 2, 3, 2),
        5: (10, 5, 22, 12),
        6: (15, 9, 25, 18),
    }
    for n, (v, dim, f, fpv) in expected.items():
        row = table_row(facet_enumeration(build_p(n)))
        assert (row.vertices, row.dim, row.facets, row.facets_per_vertex) == (
            v,
            dim,
            f,
            fpv,
        )
    elapsed = time.time() - started
    assert elapsed < 60
    print(f"PASS criterion 2: vertex/dim/facet table exact for n=4,5,6, {elapsed:.1f}s")


def test_criterion_03_f_vectors():
    started = time.time()
    P5 = build_p(5)
    fv5 = f_vector(facet_enumeration(P5))
    assert fv5 == (1, 10, 45, 90, 75, 22, 1)
    P6 = build_p(6)
    fv6 = f_vector(facet_enumeration(P6))
    assert fv6 == (1, 15, 105, 435, 1095, 1657, 1470, 735, 195, 25, 1)
    elapsed = time.time() - started
    assert elapsed < 300
    print(f"PASS criterion 3: both face-count vectors exact, {elapsed:.1f}s")


def test_criterion_04_pick34_redundancy():
    trace = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    cone = cone_from_trace(trace)
    assert len(cone.normals) == 11
    assert redundant_indices(cone) == [1, 2]
    slim = irredundant(cone)
    assert len(slim.normals) == 9
    assert slim.removed == (1, 2)
    print("PASS criterion 4: 11 inequalities, facets 9, redundant pair (1, 2)")


def test_criterion_05_first_step_witnesses():
    for i in range(num_pairs(5)):
        cone = first_step_cone(i, 5)
        assert redundant_indices(cone) == []
        for j in range(num_pairs(5)):
            if j == i:
                continue
            w = facet_witness(i, j, 5)
            q = q_criterion(w)
            assert q[i] == q[j]
            assert all(q[k] > q[i] for k in range(num_pairs(5)) if k not in (i, j))
            assert membership(cone, w.values) == "boundary"
    print("PASS criterion 5: all 10 first-step cones have 9 certified facets")


def test_criterion_06_tie_ray():
    # the ray is listed pair-by-pair in row-major (lexicographic) order
    lex_pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    ray = (-1, 1, 1, -1, -1, 1, 1, -1, 1, -1)
    vals = [0] * 10
    for (a, b), v in zip(lex_pairs, ray):
        vals[pair_to_index(b, a, 5)] = v
    q = q_criterion(vals, 5)
    lo = min(q)
    argmins = {i for i, x in enumerate(q) if x == lo}
    cycle = {pair_to_index(b, a, 5) for a, b in [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]}
    assert argmins == cycle
    for i in range(10):
        want = "boundary" if i in cycle else "outside"
        assert membership(first_step_cone(i, 5), vals) == want
    print("PASS criterion 6: five-cycle ray ties exactly its five cones")


def test_criterion_07_census_counts(census5, census6, type_reps):
    assert len(census5.cones) == 30
    assert all(len(ids) == 2 for ids in census5.topology_index.values())
    assert len(census6.cones) == 450
    by_type = {t: len(census6.cones_of_type(t)) for t in ("I", "II", "III")}
    assert by_type == {"I": 90, "II": 180, "III": 180}
    for top, ids in census6.topology_index.items():
        kinds = sorted(census6.types[i] for i in ids)
        if len(top.cherries()) == 3:
            assert kinds == ["I"] * 6
        else:
            assert kinds == ["II", "II", "III", "III"]
    stab_sizes = tuple(len(stabilizer(rep)) for rep in type_reps)
    assert stab_sizes == (8, 4, 4)
    print(
        "PASS criterion 7: 30 and 450 cones, split 90/180/180, "
        f"stabilizers {stab_sizes}, topologies carry 6 or 2+2 cones"
    )


def test_criterion_08_solid_angles(census5, census6):
    started = time.time()
    samples = 2_000_000

    survey5 = solid_angles_mc(census5, samples, seed=MC_SEED)
    worst_z = 0.0
    for est in survey5.estimates(census5):
        z = abs(est.fraction - 1 / 30) / est.stderr
        worst_z = max(worst_z, z)
    assert worst_z <= 3.0

    survey6 = solid_angles_mc(census6, samples, seed=MC_SEED)
    targets = {"type-I": 2.888e-3, "type-II": 1.848e-3, "type-III": 2.266e-3}
    rels = {}
    for est in survey6.per_type(census6):
        rels[est.label] = abs(est.fraction - targets[est.label]) / targets[est.label]
        assert rels[est.label] <= 0.05

    fractions = np.asarray(survey6.counts, dtype=float) / survey6.samples
    caterpillar_mass = sum(
        fractions[i]
        for t in ("II", "III")
        for i in census6.cones_of_type(t)
    )
    assert abs(caterpillar_mass - 0.75) <= 0.01

    snow_rel = cat_rel = 0.0
    for top, ids in census6.topology_index.items():
        mass = float(sum(fractions[i] for i in ids))
        if len(top.cherries()) == 3:
            snow_rel = max(snow_rel, abs(mass - 1.73e-2) / 1.73e-2)
        else:
            cat_rel = max(cat_rel, abs(mass - 0.82e-2) / 0.82e-2)
    assert snow_rel <= 0.05
    assert cat_rel <= 0.05

    elapsed = time.time() - started
    assert elapsed < 600
    print(
        f"PASS criterion 8: max z {worst_z:.2f}, type rel errs "
        f"{rels['type-I']:.4f}/{rels['type-II']:.4f}/{rels['type-III']:.4f}, "
        f"three-cherry-complement mass {caterpillar_mass:.5f}, "
        f"per-topology rel errs {snow_rel:.4f}/{cat_rel:.4f}, {elapsed:.1f}s"
    )


def test_criterion_09_projection_oracle(census5, type_reps):
    started = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0

    cone5 = census5.cones[27]
    V5 = rng.normal(size=(1000, 10)) * 2
    oracle_d, _ = projection_oracle(cone5, V5)
    for k in range(1000):
        res = nearest_point(cone5, V5[k])
        worst = max(worst, abs(res.distance - oracle_d[k]))

    for rep, removed in zip(type_reps, [(13, 21, 22), (13, 18, 22), (18, 19)]):
        slim = irredundant(rep)
        assert slim.removed == removed
        V6 = rng.normal(size=(1000, 15)) * 2
        oracle_d, _ = projection_oracle(slim, V6)
        for k in range(1000):
            res = nearest_point(rep, V6[k])  # raw description, same cone
            worst = max(worst, abs(res.distance - oracle_d[k]))

    elapsed = time.time() - started
    assert worst <= 1e-9
    assert elapsed < 300
    print(f"PASS criterion 9: 4000 points, max distance gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_10_sequence_experiment(census5):
    started = time.time()
    rates = {}
    for name in ("T1", "T2"):
        cfg = ExperimentConfig(
            model=build_model(name), sites=500, replicates=10_000, seed=SIM_SEED
        )
        report = run_experiment(cfg, census5)
        rows = report.summary()
        assert sum(r["count"] for r in rows) == 10_000
        rates[name] = report.correct_rate()
    assert rates["T2"] - rates["T1"] >= 0.10
    assert abs(rates["T1"] - 0.358) <= 0.15
    assert abs(rates["T2"] - 0.644) <= 0.15
    elapsed = time.time() - started
    assert elapsed < 900
    print(
        f"PASS criterion 10: correct rates {rates['T1']:.4f} vs {rates['T2']:.4f}, "
        f"gap {rates['T2'] - rates['T1']:.4f}, {elapsed:.1f}s"
    )


def test_criterion_11_property_suites(census5):
    rng = np.random.default_rng(12345)

    # shift invariance of the run map
    for _ in range(100):
        n = int(rng.integers(4, 7))
        vals = tuple(Fraction(int(x)) for x in rng.integers(-20, 21, size=num_pairs(n)))
        d = DissimilarityVector(n, vals)
        shifted = list(vals)
        for s in shift_basis(n):
            c = int(rng.integers(-4, 5))
            shifted = [x + c * y for x, y in zip(shifted, s.values)]
        d2 = DissimilarityVector(n, tuple(shifted))
        assert [tr for tr, _ in nj_run(d)] == [tr for tr, _ in nj_run(d2)]

    # permutation equivariance of the selection scores
    for _ in range(100):
        n = int(rng.integers(4, 7))
        vals = tuple(Fraction(int(x)) for x in rng.integers(-20, 21, size=num_pairs(n)))
        d = DissimilarityVector(n, vals)
        sigma = tuple(int(x) for x in rng.permutation(n))
        perm = pair_permutation(sigma, n)
        moved = DissimilarityVector(n, tuple(vals[i] for i in np.argsort(perm)))
        q1, q2 = q_criterion(d), q_criterion(moved)
        assert [q2[perm[i]] for i in range(num_pairs(n))] == list(q1)

    # projection idempotence and non-expansiveness
    cone = first_step_cone(0, 5)
    for _ in range(200):
        v, w = rng.normal(size=(2, 10)) * 3
        pv = nearest_point(cone, v).point
        pw = nearest_point(cone, w).point
        assert nearest_point(cone, pv).distance <= 1e-8
        assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-9

    # membership/classifier agreement on 1e5 random vectors
    X = rng.normal(size=(100_000, 10))
    ids = classify_batch(5, X)
    ties = int((ids < 0).sum())
    assert ties < 100
    normals = np.array([c.normals for c in census5.cones], dtype=float)
    worst = 0.0
    for cid in range(30):
        rowsel = ids == cid
        if not rowsel.any():
            continue
        slack_min = (X[rowsel] @ normals[cid].T).min()
        worst = min(worst, float(slack_min))
    assert worst >= -1e-9
    print(
        "PASS criterion 11: shift invariance, score equivariance, projection "
        f"laws, and 100000-vector agreement (worst slack {worst:.2e}, {ties} ties)"
    )

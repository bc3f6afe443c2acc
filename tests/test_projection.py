import gc
import itertools
import weakref

import numpy as np
import pytest

from njcones import projection
from njcones.census import census
from njcones.cones import (
    NJCone,
    cone_from_trace,
    first_step_cone,
    interior_point,
    irredundant,
    membership,
)
from njcones.nj import CherryTrace
from njcones.projection import (
    distance_to_wrong,
    distances_to_wrong,
    nearest_point,
    projection_oracle,
)
from njcones.trees import TreeTopology, random_metric_tree


def pick34_cone():
    trace = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    return cone_from_trace(trace)


def test_interior_point_is_fixed():
    cone = first_step_cone(0, 5)
    v = np.array([float(x) for x in interior_point(cone)])
    res = nearest_point(cone, v)
    assert res.distance == 0.0
    assert np.allclose(res.point, v)
    assert res.active_set == ()


def test_single_halfspace_closed_form(rng):
    h = np.zeros(6)
    h[0], h[3] = 3.0, -4.0
    cone = NJCone(4, (tuple(h),))
    for _ in range(20):
        v = rng.normal(size=6)
        res = nearest_point(cone, v)
        viol = min(h @ v, 0.0)
        assert res.distance == pytest.approx(abs(viol) / 5.0, abs=1e-12)
        expected = v - (viol / 25.0) * h
        assert np.allclose(res.point, expected, atol=1e-12)


def test_projection_is_idempotent_and_feasible(rng):
    cone = pick34_cone()
    for _ in range(25):
        v = rng.normal(size=10) * 3
        res = nearest_point(cone, v)
        assert membership(cone, res.point, tol=1e-7) != "outside"
        again = nearest_point(cone, res.point)
        assert again.distance <= 1e-8
        assert np.allclose(again.point, res.point, atol=1e-8)


def test_pushing_along_tight_normals_keeps_the_projection(census5, rng):
    # x - v in the normal cone at x means v projects to x, also when some
    # tight constraints get zero weight (degenerate multipliers)
    for cone in (pick34_cone(), census5.cones[27]):
        H = np.array(cone.normals, dtype=float)
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        for _ in range(400):
            x = nearest_point(cone, rng.normal(size=10) * 2).point
            tight = np.flatnonzero(np.abs(H @ x) <= 1e-9)
            w = rng.exponential(size=len(tight)) * (rng.random(len(tight)) < 0.5)
            again = nearest_point(cone, x - H[tight].T @ w)
            assert np.allclose(again.point, x, atol=1e-8)


def test_projection_is_nonexpansive(rng):
    cone = first_step_cone(4, 5)
    for _ in range(25):
        v, w = rng.normal(size=(2, 10)) * 2
        pv = nearest_point(cone, v).point
        pw = nearest_point(cone, w).point
        assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-10


def all_subsets_projection(cone, v, tol=1e-9):
    """The definition the face oracle replaces: project onto the zero set
    of every subset of normals, keep the nearest feasible candidate."""
    H = np.array(cone.normals, dtype=float)
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    best = (np.inf, None)
    for size in range(len(H) + 1):
        for subset in itertools.combinations(range(len(H)), size):
            S = H[list(subset)]
            x = v - np.linalg.pinv(S) @ (S @ v) if size else v.copy()
            if (H @ x).min() >= -tol * (1 + np.linalg.norm(v)):
                best = min(best, (float(np.linalg.norm(x - v)), x), key=lambda b: b[0])
    return best


def test_matches_exhaustive_oracle(rng):
    for cone in (first_step_cone(0, 5), irredundant(pick34_cone())):
        V = rng.normal(size=(40, 10)) * 2
        dists, points = projection_oracle(cone, V)
        for k in range(len(V)):
            res = nearest_point(cone, V[k])
            assert res.distance == pytest.approx(dists[k], abs=1e-9)
            assert np.allclose(res.point, points[k], atol=1e-7)
            literal_d, literal_x = all_subsets_projection(cone, V[k])
            assert abs(literal_d - dists[k]) <= 1e-12
            assert np.allclose(literal_x, points[k], rtol=0, atol=1e-12)


def test_distance_to_wrong_classifies_tree_metrics(census5, rng):
    for _ in range(5):
        top, d = random_metric_tree(5, rng)
        rec = distance_to_wrong(d.as_array(), top, census5.cones)
        assert rec.verdict == "correct"
        assert rec.boundary_distance > 0
        assert rec.nearest_region.endswith(";")
        assert rec.nearest_region != top.newick()


def test_distance_to_wrong_flags_wrong_topology(census5, rng):
    top, d = random_metric_tree(5, rng)
    wrong = next(
        t for t in (c.topology for c in census5.cones) if t is not None and t != top
    )
    rec = distance_to_wrong(d.as_array(), wrong, census5.cones)
    assert rec.verdict == "incorrect"
    assert rec.boundary_distance > 0
    assert rec.nearest_region == wrong.newick()


def test_distance_to_wrong_unknown_topology(census5):
    alien = TreeTopology(6, [(0, 6), (1, 6), (6, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (5, 9)])
    with pytest.raises(ValueError):
        distance_to_wrong(np.zeros(10), alien, census5.cones)


def unpruned_margins(v, top, cones, tol=1e-9):
    """Verdict by membership, then every candidate cone's projection distance.

    Returns (verdict, {cone index: distance}) with no pruning at all.
    """
    correct = any(
        membership(c, v, tol=tol) != "outside" for c in cones if c.topology == top
    )
    dists = {
        k: nearest_point(c, v, tol=tol).distance
        for k, c in enumerate(cones)
        if (c.topology == top) != correct
    }
    return ("correct" if correct else "incorrect"), dists


def noisy_tree_rows(n, rng, count, sigmas):
    """(topology, rows): noisy copies of one random tree metric."""
    top, d = random_metric_tree(n, rng)
    base = d.as_array()
    noise = rng.standard_normal((count, base.size))
    scale = np.resize(np.asarray(sigmas, dtype=float), count)[:, None]
    return top, base + scale * noise


def assert_margins_match_unpruned(V, top, cones):
    records = distances_to_wrong(V, top, cones)
    assert len(records) == len(V)
    for v, rec in zip(V, records):
        verdict, dists = unpruned_margins(v, top, cones)
        assert rec.verdict == verdict
        assert abs(rec.boundary_distance - min(dists.values())) <= 1e-12
        # the named region is a candidate at the reported distance
        named = [d for k, d in dists.items() if cones[k].topology.newick() == rec.nearest_region]
        assert named and abs(min(named) - rec.boundary_distance) <= 1e-12


def test_batched_margins_equal_unpruned_minimum(census5, census6, rng):
    for cns, trees, count in ((census5, 4, 30), (census6, 2, 12)):
        for _ in range(trees):
            top, V = noisy_tree_rows(cns.n, rng, count, (0.05, 0.2, 0.5))
            assert_margins_match_unpruned(V, top, cns.cones)


def test_exact_tree_metrics_name_a_region_at_the_margin(census6):
    # at sigma = 0 several wrong regions can be equidistant up to rounding;
    # whichever is named must lie at the reported distance.  Pendant edges
    # 0.42, interior edges 0.03.
    pos = [0.0, 0.0, 0.03, 0.06, 0.09, 0.09]  # caterpillar attachment points
    for newick, path in (
        ("((((0,1),2),3),4,5);", lambda a, b: 0.84 + abs(pos[a] - pos[b])),
        ("((0,1),(2,3),(4,5));", lambda a, b: 0.84 + 0.06 * (a // 2 != b // 2)),
    ):
        top = TreeTopology.from_newick(newick)
        d = np.array([path(a, b) for a in range(1, 6) for b in range(a)])
        assert distance_to_wrong(d, top, census6.cones).verdict == "correct"
        assert_margins_match_unpruned(np.array([d, d, d]), top, census6.cones)


def test_one_row_is_the_batched_case(census6, rng):
    # 60 six-taxa rows take several blocks; exact tree metrics, whose
    # margins tie between regions, get the same region in a block and alone
    top, V = noisy_tree_rows(6, rng, 60, (0.0, 0.0, 0.1, 0.3))
    assert distances_to_wrong(V, top, census6.cones) == [
        distance_to_wrong(v, top, census6.cones) for v in V
    ]


def test_normals_are_stacked_once_per_cone_sequence(census5, census6, rng):
    index = projection._normal_index(census6.cones)
    assert projection._normal_index(list(census6.cones)) is index
    assert len(index.H) == 1200 and index.sizes.sum() == 11250
    # other cones replace the kept index; results do not depend on it
    top, V = noisy_tree_rows(5, rng, 6, (0.1,))
    records = distances_to_wrong(V, top, census5.cones)
    assert projection._normal_index(census6.cones) is not index
    assert distances_to_wrong(V, top, census5.cones[::-1]) == records


def test_the_kept_normals_do_not_keep_a_census_alive():
    cones = census(5).cones
    assert projection._normal_index(cones) is projection._normal_index(cones)
    ref = weakref.ref(cones[0])
    del cones
    gc.collect()
    assert ref() is None

def test_batched_margins_reject_non_finite_rows(census5, rng):
    top, V = noisy_tree_rows(5, rng, 4, (0.1,))
    for bad in (np.nan, np.inf, -np.inf):
        W = V.copy()
        W[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            distances_to_wrong(W, top, census5.cones)

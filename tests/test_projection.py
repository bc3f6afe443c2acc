import itertools

import numpy as np
import pytest

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
    nearest_point,
    projection_oracle,
)
from njcones.trees import random_metric_tree


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
    from njcones.trees import TreeTopology

    alien = TreeTopology(6, [(0, 6), (1, 6), (6, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (5, 9)])
    with pytest.raises(ValueError):
        distance_to_wrong(np.zeros(10), alien, census5.cones)

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from njcones.cones import (
    NJCone,
    cone_from_trace,
    facet_witness,
    first_step_cone,
    interior_point,
    irredundant,
    membership,
    permute_cone,
    read_cone_text,
    redundant_indices,
    slacks,
    write_cone_text,
)
from njcones.distvec import (
    DissimilarityVector,
    apply_permutation,
    index_to_pair,
    num_pairs,
    pair_to_index,
    permute_flat,
)
from njcones.nj import CherryTrace, nj_run, q_operator
from njcones.rational import primitive
from njcones.trees import path_metric, random_metric_tree


def halfspace_normal(i: int, j: int, n: int) -> tuple:
    """Integer normal h with (h, d) = Q_j(d) - Q_i(d), from the textbook formula.

    Q_ab(d) = (n - 2) d_ab - sum_k d_ak - sum_k d_bk, so (h, d) >= 0
    exactly when pair i scores no worse than pair j.
    """

    def q_row(p):
        row = [0] * num_pairs(n)
        row[p] += n - 2
        for x in index_to_pair(p, n):
            for k in range(n):
                if k != x:
                    row[pair_to_index(x, k, n)] -= 1
        return row

    return tuple(v - u for u, v in zip(q_row(i), q_row(j)))


def test_halfspace_normal_is_score_gap():
    for n in (4, 5):
        mat = q_operator(n)
        for i in range(num_pairs(n)):
            for j in range(num_pairs(n)):
                if i == j:
                    continue
                h = halfspace_normal(i, j, n)
                gap = mat[j] - mat[i]  # score_j - score_i, nonneg inside cone i
                assert list(h) == [int(x) for x in gap]


def test_first_step_cone_normals_match_oracle():
    # every competing pair in order, scaled to coprime integers, with the
    # zero gap (n=4: the complementary pair) and repeated rows dropped
    for n in range(4, 8):
        m = num_pairs(n)
        for i in range(m):
            want = []
            for j in range(m):
                if j == i:
                    continue
                h = primitive(halfspace_normal(i, j, n))
                if any(h) and h not in want:
                    want.append(h)
            assert first_step_cone(i, n).normals == tuple(want)


def test_first_step_cone_rejects_bad_pair_index():
    for i in (-1, 10):
        with pytest.raises(ValueError):
            first_step_cone(i, 5)


def test_first_step_cone_shape_and_membership():
    cone = first_step_cone(9, 5)
    assert cone.n == 5 and len(cone.normals) == 9
    # cherry (3, 4) first: a tree metric with that cherry sits inside
    edges = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)]
    lengths = {e: Fraction(2) for e in [(0, 5), (1, 5), (2, 6), (3, 7), (4, 7)]}
    lengths[(5, 6)] = Fraction(1, 4)
    lengths[(6, 7)] = Fraction(3)
    d = path_metric(5, edges, lengths)
    assert membership(cone, d) == "interior"
    assert membership(first_step_cone(0, 5), d) == "outside"


def test_cone_from_trace_contains_its_metric(rng):
    for n in (5, 6):
        for _ in range(5):
            top, d = random_metric_tree(n, rng)
            results = nj_run(d)
            for trace, _t in results:
                cone = cone_from_trace(trace)
                assert membership(cone, d.values) != "outside"


def test_pick_34_then_01_redundancy():
    trace = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    cone = cone_from_trace(trace)
    assert len(cone.normals) == 11
    assert redundant_indices(cone) == [1, 2]
    slim = irredundant(cone)
    assert len(slim.normals) == 9
    assert slim.removed == (1, 2)
    assert slim.irredundant
    # same point set: agreement on a fan of random vectors
    rng = np.random.default_rng(5)
    for x in rng.normal(size=(50, 10)):
        assert (membership(cone, x) == "outside") == (
            membership(slim, x) == "outside"
        )


def test_facet_witness_touches_one_facet():
    cone = first_step_cone(9, 5)
    for j in range(9):
        w = facet_witness(9, j, 5)
        s = slacks(cone, w.values)
        assert s[j] == 0
        assert all(x > 0 for k, x in enumerate(s) if k != j)
        assert membership(cone, w.values) == "boundary"


def test_membership_tolerance():
    cone = first_step_cone(0, 5)
    w = facet_witness(0, 3, 5)
    vals = [float(x) for x in w.values]
    assert membership(cone, vals) == "boundary"
    nudged = list(vals)
    nudged[0] += 1e-12
    assert membership(cone, nudged, tol=1e-9) == "boundary"


def test_interior_point():
    for i in (0, 4):
        cone = first_step_cone(i, 5)
        p = interior_point(cone)
        assert membership(cone, p) == "interior"
        assert membership(cone, [-x for x in p]) == "outside"


def test_permute_cone_equivariance(rng):
    trace = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    cone = cone_from_trace(trace)
    sigma = (2, 0, 4, 1, 3)
    moved = permute_cone(sigma, cone)
    assert {tuple(h) for h in moved.normals} == {
        tuple(permute_flat(sigma, h, 5)) for h in cone.normals
    }
    for x in rng.normal(size=(25, 10)):
        d = DissimilarityVector(5, tuple(float(v) for v in x))
        assert membership(cone, d.values) == membership(
            moved, apply_permutation(sigma, d).values
        )


def test_permute_cone_keeps_census_traces(census5, rng):
    # the moved cone carries the census trace of the moved normals
    perms = list(permutations(range(5)))
    ids = census5.trace_ids
    for cone in census5.cones:
        for k in rng.choice(len(perms), size=18, replace=False):
            moved = permute_cone(perms[k], cone)
            assert moved.trace in ids
            assert set(census5.cones[ids[moved.trace]].normals) == set(moved.normals)


def test_cone_text_round_trip():
    cone = irredundant(first_step_cone(2, 5))
    text = write_cone_text(cone)
    again = read_cone_text(text)
    assert again.n == cone.n
    assert again.normals == cone.normals
    assert isinstance(again, NJCone)

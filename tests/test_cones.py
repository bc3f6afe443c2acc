import hashlib
import json
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from njcones import cones
from njcones.cones import (
    DegenerateConeError,
    NJCone,
    cone_from_trace,
    first_step_cone,
    interior_point,
    irredundant,
    membership,
    read_cone_text,
    redundant_indices,
    slacks,
    write_cone_text,
)
from njcones.distvec import (
    DissimilarityVector,
    index_to_pair,
    num_pairs,
    pair_to_index,
    permute_flat,
)
from njcones.nj import CherryTrace, nj_run, q_operator
from njcones.rational import feasible_point, primitive
from njcones.trees import path_metric
from test_census import permute_trace, trace_ids
from test_trees import random_metric_tree, relabel


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


def facet_witness(i: int, j: int, n: int) -> DissimilarityVector:
    """A vector on the face score_i = score_j with all other scores larger.

    Entries are 2 on pairs i and j and 4 elsewhere.  For n = 5 with i and
    j sharing a taxon, that pattern also ties the pair formed by the two
    untouched taxa; raising that single entry to 5 breaks the extra tie
    without moving the i-j equality (their score rows ignore the entry).
    """
    if n < 5:
        raise ValueError("witness construction needs at least 5 taxa")
    if i == j:
        raise ValueError("need two distinct pair indices")
    m = num_pairs(n)
    vals = [Fraction(4)] * m
    vals[i] = Fraction(2)
    vals[j] = Fraction(2)
    ti, tj = set(index_to_pair(i, n)), set(index_to_pair(j, n))
    if n == 5 and ti & tj:
        outside = sorted(set(range(n)) - ti - tj)
        k0 = pair_to_index(outside[1], outside[0], n)
        vals[k0] += 1
    return DissimilarityVector(n, tuple(vals))


def permute_cone(sigma, cone: NJCone) -> NJCone:
    """Relabel taxa in the cone: constraints, trace, and topology together."""
    normals = tuple(
        tuple(permute_flat(sigma, h, cone.n)) for h in cone.normals
    )
    trace = None
    topology = None
    label = cone.label
    if cone.trace is not None:
        trace = permute_trace(sigma, cone.trace)
        label = trace.label()
    if cone.topology is not None:
        topology = relabel(cone.topology, sigma)
    return NJCone(
        cone.n,
        normals,
        trace=trace,
        topology=topology,
        irredundant=cone.irredundant,
        label=label,
    )


def test_a_negative_multiplier_on_the_support_is_refused(monkeypatch):
    # e1 lies outside the cone of u = e1 + e2, e2 and w = e1 + 2 e2, yet
    # 0.5 u - 1.5 e2 + 0.5 w = e1, and on the positive support {u, w} the
    # only solution is 2 u - w
    e = np.eye(6, dtype=int).tolist()
    u = [a + b for a, b in zip(e[0], e[1])]
    w = [a + 2 * b for a, b in zip(e[0], e[1])]
    cone = NJCone(4, tuple(map(tuple, (e[0], u, e[1], w, *e[2:]))))
    real = cones._nnls

    def signed(U, normals, V):
        W, mu = real(U, normals, V)
        for b, row in enumerate(normals):
            if list(-V[b]) == e[0]:  # claim e1 = 0.5 u - 1.5 e2 + 0.5 w
                W[b], mu[b] = -V[b], 0.0
                mu[b, np.searchsorted(row, [1, 2, 3])] = (0.5, -1.5, 0.5)
        return W, mu

    monkeypatch.setattr(cones, "_nnls", signed)
    assert redundant_indices(cone) == lp_redundant_indices(cone) == [1, 3]


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


# irredundant(census(5).cones[i]).removed; lp_redundant_indices gives the same
CENSUS5_REMOVED = (
    (7, 8), (4, 8), (4, 7), (6, 8), (3, 8), (3, 6), (5, 8), (2, 8), (2, 5), (6, 7),
    (2, 7), (2, 6), (5, 7), (1, 7), (1, 5), (5, 6), (0, 6), (0, 5), (4, 5), (2, 5),
    (2, 4), (3, 5), (1, 5), (1, 3), (3, 4), (0, 4), (0, 3), (1, 2), (0, 2), (0, 1),
)


# sha256 of the compact JSON list of redundant_indices over census(6).cones
CENSUS6_REMOVED_SHA256 = "7e92306d52a881d8b9622c127497dc62c9cbcb4f344e1f8e0b97ab207f15ea7e"


def lp_redundant_indices(cone: NJCone) -> list[int]:
    """The oracle: one feasible_point question per normal, in index order.

    Normal k goes when no x has (h_k, x) < 0 < (h_j, x) for the other
    normals j still kept.
    """
    normals = cone.normals
    if not normals:
        return []
    if interior_point(cone) is None:
        raise DegenerateConeError("cone has empty interior")
    kept = list(range(len(normals)))
    removed = []
    for idx in range(len(normals)):
        rows = [normals[j] for j in kept if j != idx]
        rows.append([-v for v in normals[idx]])
        if feasible_point(rows) is None:
            kept.remove(idx)
            removed.append(idx)
    return removed


def test_census5_removed_lists_are_pinned(census5):
    assert tuple(irredundant(c).removed for c in census5.cones) == CENSUS5_REMOVED


def test_census6_removed_lists_are_pinned(census6):
    removed = [redundant_indices(c) for c in census6.cones]
    assert sum(map(len, removed)) == 1170
    text = json.dumps(removed, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == CENSUS6_REMOVED_SHA256


def check_certificate(normals, k, others, cert):
    """An NNLS certificate holds in exact arithmetic."""
    h = normals[k]
    implied, witness = cert
    if implied:
        assert set(witness) <= set(others)
        assert all(y >= 0 for y in witness.values())
        combo = [sum(y * normals[j][c] for j, y in witness.items()) for c in range(len(h))]
        assert combo == list(h)
    else:
        assert all(isinstance(v, int) for v in witness)
        assert sum(a * b for a, b in zip(h, witness)) == 0
        assert all(sum(a * b for a, b in zip(normals[j], witness)) > 0 for j in others)


def recorded_certificates(cone: NJCone):
    """redundant_indices(cone), and every certificate it accepted."""
    seen = []
    real = cones._certificate

    def recording(Z, x0, s0, k, others, proposal):
        cert = real(Z, x0, s0, k, others, proposal)
        if cert is not None:
            seen.append((k, list(others), cert))
        return cert

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "_certificate", recording)
        return redundant_indices(cone), seen


@st.composite
def planted_cones(draw):
    """Integer cones around a planted interior point, with repeated rows.

    Each row is oriented to have a positive slack at x0 (a row orthogonal
    to x0 gets x0 added), and some rows are inserted again, as copies or
    positive multiples, at random positions.
    """
    n = draw(st.sampled_from([4, 5]))
    m = num_pairs(n)
    vector = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    x0 = draw(vector.filter(any))
    rows = []
    for row in draw(st.lists(vector, min_size=1, max_size=12)):
        s = sum(a * b for a, b in zip(row, x0))
        if s == 0:
            row = [a + b for a, b in zip(row, x0)]
        rows.append(tuple(row if s >= 0 else [-a for a in row]))
    for _ in range(draw(st.integers(0, 3))):
        scale = draw(st.integers(1, 3))
        row = draw(st.sampled_from(rows))
        rows.insert(draw(st.integers(0, len(rows))), tuple(scale * v for v in row))
    return NJCone(n, tuple(rows))


@given(planted_cones())
@settings(max_examples=100, deadline=None)
def test_certificates_match_the_lp_oracle(cone):
    removed, seen = recorded_certificates(cone)
    assert removed == lp_redundant_indices(cone)
    for k, others, cert in seen:
        check_certificate(cone.normals, k, others, cert)
        assert cert[0] == (k in removed)


def test_census_certificates_need_no_fallback(census5, type_reps):
    for cone in (*census5.cones[::6], *type_reps):
        _, seen = recorded_certificates(cone)
        assert [k for k, _, _ in seen] == list(range(len(cone.normals)))
        for k, others, cert in seen:
            check_certificate(cone.normals, k, others, cert)


def nan_proposal(U, normals, V):
    return np.full(V.shape, np.nan), np.full(normals.shape, np.nan)


def noise_proposal(U, normals, V):
    rng = np.random.default_rng(normals.shape)
    return rng.normal(size=V.shape), rng.normal(size=normals.shape)


def failed_proposal(U, normals, V):
    raise RuntimeError("nonnegative least squares did not converge")


@pytest.mark.parametrize(
    "proposal", [nan_proposal, noise_proposal, failed_proposal],
    ids=["nan", "noise", "raises"],
)
def test_a_bad_proposal_falls_back_to_feasible_point(monkeypatch, census5, proposal):
    calls = []
    real = cones.feasible_point

    def counted(G):
        calls.append(G)
        return real(G)

    monkeypatch.setattr(cones, "_nnls", proposal)
    monkeypatch.setattr(cones, "feasible_point", counted)
    assert tuple(irredundant(c).removed for c in census5.cones) == CENSUS5_REMOVED
    if proposal is not noise_proposal:
        assert len(calls) == sum(1 + len(c.normals) for c in census5.cones)
    normals = census5.cones[27].normals
    assert redundant_indices(NJCone(5, normals)) == [1, 2]
    parallel = (*normals, normals[0], tuple(2 * v for v in normals[3]))
    assert redundant_indices(NJCone(5, parallel)) == [0, 1, 2, 3]
    for normals in DEGENERATE.values():
        with pytest.raises(DegenerateConeError, match="empty interior"):
            redundant_indices(NJCone(5, normals))


DEGENERATE = {
    "opposite": ((1, -1) + (0,) * 8, (0, 0, 1) + (0,) * 7, (-1, 1) + (0,) * 8),
    "zero-row": ((1,) + (0,) * 9, (0,) * 10),
}


@pytest.mark.parametrize("normals", DEGENERATE.values(), ids=DEGENERATE)
def test_degenerate_cones_are_refused(normals):
    cone = NJCone(5, normals)
    assert interior_point(cone) is None
    with pytest.raises(DegenerateConeError, match="empty interior"):
        redundant_indices(cone)
    with pytest.raises(DegenerateConeError, match="empty interior"):
        irredundant(cone)


def test_facet_witness_touches_one_facet():
    cone = first_step_cone(9, 5)
    for j in range(9):
        w = facet_witness(9, j, 5)
        s = slacks(cone, w.values)
        assert s[j] == 0
        assert all(x > 0 for k, x in enumerate(s) if k != j)
        assert membership(cone, w.values) == "boundary"


def test_membership_tolerance():
    # floats are judged at their binary values, at every scale: a facet
    # witness stays on the boundary, and a nudge of 1e-12 against the
    # facet's normal (entry -2 at pair 0) puts it outside
    cone = first_step_cone(0, 5)
    w = facet_witness(0, 3, 5)
    assert cone.normals[3][0] < 0
    for scale in (1e-9, 1.0, 1e9):
        vals = [float(x) * scale for x in w.values]
        assert membership(cone, vals) == "boundary"
        nudged = list(vals)
        nudged[0] += 1e-12 * scale
        assert membership(cone, nudged) == "outside"


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
            moved, permute_flat(sigma, d.values, 5)
        )


def test_permute_cone_keeps_census_traces(census5, rng):
    # the moved cone carries the census trace of the moved normals
    perms = list(permutations(range(5)))
    ids = trace_ids(census5)
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

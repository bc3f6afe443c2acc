"""Standalone property suites over the core invariants."""

import importlib
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from njcones import projection, rational
from njcones.census import classify_batch
from njcones.cones import first_step_cone, membership
from njcones.distvec import (
    DissimilarityVector,
    index_to_pair,
    num_pairs,
    pair_permutation,
    pair_to_index,
)
from njcones.nj import nj_run, q_criterion
from njcones.projection import distance_to_wrong, distances_to_wrong, nearest_point
from njcones.trees import TreeTopology, path_metric, random_topology

from test_census import permute_trace, trace_ids
from test_distvec import shift_basis

exact_vectors = st.integers(4, 6).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.integers(-30, 30),
            min_size=num_pairs(n),
            max_size=num_pairs(n),
        ),
    )
)


@given(exact_vectors, st.lists(st.integers(-5, 5), min_size=6, max_size=6))
@settings(max_examples=60, deadline=None)
def test_shift_invariance_of_runs(nv, coeffs):
    n, vals = nv
    d = DissimilarityVector(n, tuple(Fraction(v) for v in vals))
    shifted = list(d.values)
    for c, s in zip(coeffs, shift_basis(n)):
        shifted = [x + c * y for x, y in zip(shifted, s.values)]
    d2 = DissimilarityVector(n, tuple(shifted))
    assert [tr for tr, _ in nj_run(d)] == [tr for tr, _ in nj_run(d2)]


@given(exact_vectors, st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_permutation_equivariance_of_scores(nv, pyrandom):
    n, vals = nv
    sigma = list(range(n))
    pyrandom.shuffle(sigma)
    d = DissimilarityVector(n, tuple(Fraction(v) for v in vals))
    moved = DissimilarityVector(
        n, tuple(d.values[i] for i in np.argsort(pair_permutation(sigma, n)))
    )
    q1 = q_criterion(d)
    q2 = q_criterion(moved)
    perm = pair_permutation(sigma, n)
    assert [q2[perm[i]] for i in range(num_pairs(n))] == list(q1)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_permutation_equivariance_of_runs(seed):
    rng = np.random.default_rng(seed)
    n = 5
    vals = tuple(Fraction(int(x)) for x in rng.integers(-20, 21, size=10))
    d = DissimilarityVector(n, vals)
    sigma = tuple(int(x) for x in rng.permutation(n))
    moved = DissimilarityVector(
        n, tuple(vals[i] for i in np.argsort(pair_permutation(sigma, n)))
    )
    ours = {permute_trace(sigma, tr) for tr, _ in nj_run(d)}
    theirs = {tr for tr, _ in nj_run(moved)}
    assert ours == theirs


@given(
    st.lists(
        st.floats(-5, 5, allow_nan=False, width=32), min_size=10, max_size=10
    )
)
@settings(max_examples=80, deadline=None)
def test_projection_idempotent_and_feasible(vals):
    cone = first_step_cone(7, 5)
    v = np.array(vals, dtype=float)
    res = nearest_point(cone, v)
    assert (cone.unit_rows @ res.point >= -1e-6 * np.linalg.norm(v)).all()
    assert nearest_point(cone, res.point).distance <= 1e-7 * (1 + np.linalg.norm(v))


@given(
    st.lists(
        st.floats(-5, 5, allow_nan=False, width=32), min_size=20, max_size=20
    )
)
@settings(max_examples=80, deadline=None)
def test_projection_nonexpansive(vals):
    cone = first_step_cone(2, 5)
    v = np.array(vals[:10], dtype=float)
    w = np.array(vals[10:], dtype=float)
    pv = nearest_point(cone, v).point
    pw = nearest_point(cone, w).point
    assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-9


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_membership_classifier_agreement(census5, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(64, 10))
    ids = classify_batch(5, X)
    for x, cid in zip(X, ids):
        if cid < 0:
            continue
        assert membership(census5.cones[cid], x) != "outside"


@given(
    st.sampled_from([5, 6]),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9),
)
@settings(max_examples=40, deadline=None)
def test_atteson_radius_around_tree_metrics(census5, census6, n, seed, lengths):
    # Atteson (Algorithmica 25, 1999): NJ returns T whenever ||d - D_T||_inf
    # < alpha / 2, with alpha the shortest interior edge (Mihaescu, Levy and
    # Pachter 2009).  The Euclidean norm bounds the max norm, so no cone of
    # another topology comes nearer to D_T than alpha / 2.
    top = random_topology(n, np.random.default_rng(seed))
    w = {(min(u, v), max(u, v)): x for (u, v), x in zip(top.edges(), lengths)}
    alpha = min(x for (u, v), x in w.items() if u >= n)  # both ends inner nodes
    cns = census5 if n == 5 else census6
    rec = distance_to_wrong(path_metric(n, top.edges(), w), top, cns)
    assert rec.verdict == "correct"
    assert rec.boundary_distance >= alpha / 2 - 1e-9


@given(st.integers(4, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_newick_round_trip(n, seed):
    top = random_topology(n, np.random.default_rng(seed))
    assert TreeTopology.from_newick(top.newick()) == top


@given(st.integers(4, 40))
@settings(max_examples=30, deadline=None)
def test_pair_indexing_round_trip(n):
    for i in range(num_pairs(n)):
        a, b = index_to_pair(i, n)
        assert pair_to_index(a, b, n) == i


def five_cycle_ray() -> list:
    """Criterion 6's ray at 5 taxa: its first-step scores tie on the pairs of a five-cycle."""
    lex_pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    vals = [0] * 10
    for (a, b), v in zip(lex_pairs, (-1, 1, 1, -1, -1, 1, 1, -1, 1, -1)):
        vals[pair_to_index(b, a, 5)] = v
    return vals


def test_verdicts_do_not_depend_on_scale(census5, census6):
    # every verdict is the sign of an integer form on the input, and each
    # path decides it exactly where floats cannot, so the four classifiers
    # agree at every scale and the margins scale with the input.  The
    # margins take ~1 ms a Gaussian row, so they run on the first 400 rows
    ray = np.array(five_cycle_ray(), dtype=float)
    X = np.random.default_rng(16).standard_normal((2_000, 15))
    ids1 = classify_batch(6, X)
    ids5, ids6 = trace_ids(census5), trace_ids(census6)
    true_top = census6.cones[ids1[0]].topology
    margins1 = None
    for scale in (1.0, 1e-9, 1e-6, 1e6, 1e9):
        v = ray * scale
        runs = nj_run(DissimilarityVector(5, tuple(v.tolist())))
        assert len(runs) > 1
        assert classify_batch(5, v[None, :])[0] == -1
        held = {i for i, c in enumerate(census5.cones) if membership(c, v) != "outside"}
        assert held == {ids5[tr] for tr, _ in runs}
        tops = {top for _, top in runs}
        for top in {c.topology for c in census5.cones[::3]}:
            rec = distance_to_wrong(v, top, census5)
            assert rec.verdict == ("correct" if top in tops else "incorrect")
            assert rec.boundary_distance == 0.0 or top not in tops

        V = X * scale
        ids = classify_batch(6, V)
        assert (ids == ids1).all()
        for x, cid in zip(V, ids):
            ((trace, _),) = nj_run(DissimilarityVector(6, tuple(x.tolist())))
            assert ids6[trace] == cid
            assert membership(census6.cones[cid], x) == "interior"
        records = distances_to_wrong(V[:400], true_top, census6)
        want = [
            "correct" if census6.cones[i].topology == true_top else "incorrect"
            for i in ids[:400]
        ]
        assert [r.verdict for r in records] == want
        margins = np.array([r.boundary_distance for r in records]) / scale
        if margins1 is None:
            margins1 = margins
        assert (np.abs(margins - margins1) <= 1e-12 * margins1).all()


CATERPILLAR = TreeTopology.from_newick("((((0,1),2),3),4,5);")


def caterpillar_rows(rng, count, tiny=None) -> np.ndarray:
    """Tree metrics of the six-taxa caterpillar, one pendant and one interior
    length per row, each uniform on [0.1, 1).

    Equal lengths put the rows on cone boundaries.  With tiny, leaves 0
    and 1 hang on pendant edges of that length, so a row spans the bits
    from tiny to 1.
    """
    rows = []
    for pendant, interior in rng.uniform(0.1, 1.0, (count, 2)).tolist():
        lengths = {}
        for u, v in CATERPILLAR.edges():
            leaf = min(u, v)
            lengths[leaf, max(u, v)] = interior if leaf >= 6 else tiny if tiny and leaf < 2 else pendant
        rows.append(path_metric(6, CATERPILLAR.edges(), lengths))
    return np.array(rows)


def exact_paths(monkeypatch) -> dict:
    """Counts of the rows the float classifiers hand to the exact kernel,
    rational.products (classify_batch through rational.signs), and of the
    rows it takes to Python integers (rational.primitive)."""
    counts = {"kernel": 0, "primitive": 0}
    real_products, real_primitive = rational.products, rational.primitive

    def products(N, X):
        counts["kernel"] += len(X)
        return real_products(N, X)

    def primitive(x):
        counts["primitive"] += 1
        return real_primitive(x)

    monkeypatch.setattr(rational, "primitive", primitive)
    for module in (rational, projection):
        monkeypatch.setattr(module, "products", products)
    return counts


def test_exact_paths_of_the_float_classifiers_match_the_oracles(census6, monkeypatch):
    # classify_batch ids are nj_run's and distances_to_wrong verdicts are
    # membership's where rows go exact: tree metrics with equal lengths, on
    # cone boundaries, near ties, and rows too wide for the digits of
    # rational.products, which alone are taken to Python integers
    rng = np.random.default_rng(28)
    ids6 = trace_ids(census6)
    mine = [census6.cones[i] for i in census6.topology_index[CATERPILLAR]]
    near_ties = rng.integers(0, 3, (200, 15)) + 2.0**-50 * rng.integers(-1, 2, (200, 15))
    wide_ties = rng.integers(0, 3, (40, 15)) * 1e150
    wide_ties[wide_ties == 0] = 1e-150 * rng.integers(-1, 2, np.count_nonzero(wide_ties == 0))
    tree_metrics, wide_metrics = caterpillar_rows(rng, 30), caterpillar_rows(rng, 30, tiny=1e-300)
    # (rows, what is compared, whether they span too many bits for the digits)
    cases = (
        (tree_metrics, "verdicts", False),
        (tree_metrics, "ids", False),
        (near_ties, "ids", False),
        (wide_metrics, "verdicts", True),
        (wide_metrics, "ids", True),
        (wide_ties, "ids", True),
    )
    for X, run, wide in cases:
        if run == "ids":
            want = []
            for x in X:
                runs = nj_run(DissimilarityVector(6, tuple(x.tolist())))
                want.append(ids6[runs[0][0]] if len(runs) == 1 else -1)
        else:
            want = [
                "correct" if any(membership(c, x) != "outside" for c in mine) else "incorrect"
                for x in X
            ]
        counts = exact_paths(monkeypatch)
        if run == "ids":
            got = classify_batch(6, X).tolist()
        else:
            got = [r.verdict for r in distances_to_wrong(X, CATERPILLAR, census6)]
        monkeypatch.undo()
        assert got == want, (run, wide)
        assert counts["kernel"] > 0  # every case reaches the exact kernel
        # Python integers only for the rows too wide for the digits
        assert (counts["primitive"] > 0) == wide
        assert counts["primitive"] <= counts["kernel"]
        if X is near_ties or X is wide_ties:
            assert 0 < want.count(-1) < len(want)

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from njcones.distvec import DissimilarityVector
from njcones.trees import TreeError, TreeTopology, path_metric, random_topology

QUARTET = TreeTopology(4, [(0, 4), (1, 4), (4, 5), (2, 5), (3, 5)])
FIVE = TreeTopology(5, [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)])


def random_metric_tree(n: int, rng, low: float = 0.1, high: float = 1.0):
    """Random topology plus the tree metric of uniform edge lengths.

    Returns (topology, DissimilarityVector with float entries).
    """
    top = random_topology(n, rng)
    lengths = {
        (min(u, v), max(u, v)): float(rng.uniform(low, high)) for u, v in top.edges()
    }
    vals = path_metric(n, top.edges(), lengths)
    return top, DissimilarityVector(n, tuple(vals))


def neighbors(top, u: int) -> list:
    """The nodes adjacent to node u."""
    return [b if a == u else a for a, b in top.edges() if u in (a, b)]


def relabel(top, sigma):
    """The topology with leaf i renamed sigma[i]; internal ids are kept."""
    ren = lambda u: sigma[u] if u < top.n else u
    return TreeTopology(top.n, [(ren(u), ren(v)) for u, v in top.edges()])


def per_edge_splits(top):
    """Nontrivial splits found one edge at a time, by a walk behind each edge."""

    def leaves_behind(node, parent):
        acc = []
        stack = [(node, parent)]
        while stack:
            u, p = stack.pop()
            if u < top.n:
                acc.append(u)
            stack.extend((v, u) for v in neighbors(top, u) if v != p)
        return frozenset(acc)

    every = frozenset(range(top.n))
    out = set()
    for u, v in top.edges():
        side = leaves_behind(v, u)
        if 2 <= len(side) <= top.n - 2:
            out.add(side if 0 not in side else every - side)
    return frozenset(out)


random_shapes = st.integers(4, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, 2**32 - 1), st.permutations(range(n)))
)


def test_splits():
    assert QUARTET.splits == frozenset({frozenset({2, 3})})
    assert FIVE.splits == frozenset({frozenset({2, 3, 4}), frozenset({3, 4})})


@settings(max_examples=150, deadline=None)
@given(random_shapes)
def test_splits_match_per_edge_walk(shape):
    n, seed, sigma = shape
    top = random_topology(n, np.random.default_rng(seed))
    assert top.splits == per_edge_splits(top)
    assert len(top.splits) == n - 3
    moved = relabel(top, sigma)
    assert moved.splits == per_edge_splits(moved)
    parsed = TreeTopology.from_newick(moved.newick())
    assert parsed.splits == per_edge_splits(parsed) == moved.splits


def test_equality_ignores_internal_labels():
    other = TreeTopology(4, [(0, 9), (1, 9), (9, 7), (2, 7), (3, 7)])
    assert QUARTET == other
    assert hash(QUARTET) == hash(other)
    assert QUARTET != TreeTopology(4, [(0, 4), (2, 4), (4, 5), (1, 5), (3, 5)])


def test_validation_errors():
    with pytest.raises(TreeError):
        TreeTopology(4, [(0, 4), (1, 4), (2, 4), (3, 4)])  # degree-4 hub
    with pytest.raises(TreeError):
        TreeTopology(4, [(0, 4), (1, 4), (4, 5), (2, 5)])  # leaf 3 missing
    with pytest.raises(TreeError):
        TreeTopology(4, [(0, 4), (0, 4), (1, 4), (4, 5), (2, 5), (3, 5)])
    with pytest.raises(TreeError):
        TreeTopology(3, [(0, 1)])
    with pytest.raises(TreeError, match="not connected"):
        # right degrees and edge count, but a K4 of internal nodes apart
        k4 = [(8, 9), (8, 10), (8, 11), (9, 10), (9, 11), (10, 11)]
        stars = [(0, 12), (1, 12), (2, 12), (3, 13), (4, 13), (5, 13), (6, 7)]
        TreeTopology(8, k4 + stars)


def test_cherries():
    assert QUARTET.cherries() == [(0, 1), (2, 3)]
    assert FIVE.cherries() == [(0, 1), (3, 4)]


def test_newick_and_parse_round_trip():
    text = QUARTET.newick()
    assert text.endswith(";")
    assert TreeTopology.from_newick(text) == QUARTET
    named = QUARTET.newick(["a", "b", "c", "d"])
    assert named == "((a,b),(c,d));"
    assert TreeTopology.from_newick(named, ["a", "b", "c", "d"]) == QUARTET


def test_newick_round_trip_random(rng):
    for n in range(4, 9):
        for _ in range(10):
            top = random_topology(n, rng)
            assert TreeTopology.from_newick(top.newick()) == top


def test_from_newick_rejects_garbage():
    # a missing final semicolon is tolerated; everything else is not
    for bad in ["", "((a,b);", "(a,b);", "((a,b),(c,b));", "((a,b),(c,d)));"]:
        with pytest.raises(TreeError):
            TreeTopology.from_newick(bad)


def test_relabel():
    swapped = relabel(FIVE, (1, 0, 2, 4, 3))
    assert swapped == FIVE  # swap within each cherry keeps the shape
    moved = relabel(FIVE, (2, 1, 0, 3, 4))
    # splits are stored as the side away from leaf 0
    assert moved.splits == frozenset({frozenset({1, 2}), frozenset({3, 4})})


def test_from_trace():
    top = TreeTopology.from_trace(
        5, ((frozenset({0}), frozenset({1})), (frozenset({0, 1}), frozenset({2})))
    )
    assert top == FIVE


def test_path_metric_quartet():
    lengths = {
        (0, 4): 1,
        (1, 4): 2,
        (4, 5): Fraction(1, 2),
        (2, 5): 3,
        (3, 5): 4,
    }
    vals = path_metric(4, QUARTET.edges(), lengths)
    d = DissimilarityVector(4, tuple(vals))
    assert d.get(0, 1) == 3
    assert d.get(0, 2) == Fraction(9, 2)
    assert d.get(0, 3) == Fraction(11, 2)
    assert d.get(1, 2) == Fraction(11, 2)
    assert d.get(2, 3) == 7


def test_path_metric_four_point_condition(rng):
    # of the three quartet sums, the two largest are equal
    for _ in range(20):
        top, d = random_metric_tree(5, rng)
        for quad in ((0, 1, 2, 3), (0, 1, 2, 4), (1, 2, 3, 4)):
            a, b, c, e = quad
            sums = sorted(
                (
                    d.get(a, b) + d.get(c, e),
                    d.get(a, c) + d.get(b, e),
                    d.get(a, e) + d.get(b, c),
                )
            )
            assert sums[2] - sums[1] <= 1e-9 * max(1.0, sums[2])


def test_random_topology_shape(rng):
    for n in (4, 6, 9):
        top = random_topology(n, rng)
        assert top.n == n
        assert len(top.edges()) == 2 * n - 3

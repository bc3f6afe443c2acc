from fractions import Fraction

import numpy as np
import pytest

import njcones.nj as nj_module
from njcones.distvec import (
    DissimilarityVector,
    index_to_pair,
    num_pairs,
    pair_permutation,
    pair_to_index,
    permute_flat,
)
from njcones.nj import (
    BranchLimitExceeded,
    CherryTrace,
    nj_run,
    q_criterion,
    join_operator,
    q_operator,
    unique_topologies,
)
from njcones.rational import nullspace
from njcones.trees import TreeTopology, path_metric, random_topology

# distances in column-within-row pair order: (1,0), (2,0), (2,1), (3,0), (3,1), (3,2)
DEMO_D4 = (3.0, 1.8, 2.8, 2.5, 3.5, 1.3)
DEMO_Q4 = (-10.6, -9.6, -9.6, -9.6, -9.6, -10.6)


def classic_q(d: DissimilarityVector):
    """Row-sum form of the selection score, as an independent oracle."""
    n = d.n
    r = [sum(d.get(i, k) for k in range(n) if k != i) for i in range(n)]
    out = []
    for idx in range(num_pairs(n)):
        a, b = index_to_pair(idx, n)
        out.append((n - 2) * d.get(a, b) - r[a] - r[b])
    return out


def textbook_nj(d: DissimilarityVector) -> set:
    """Saitou-Nei neighbor joining with every exact tie branched, as an oracle.

    Works on an explicit matrix keyed by node (the leaf set below it), in
    Fractions (a float entry at its binary value), scores pairs with
    classic_q, and records the join at four nodes as the side of the
    final split that holds leaf 0.  Returns the traces.
    """
    leaves = [frozenset([a]) for a in range(d.n)]
    start = {
        u: {v: Fraction(d.get(min(u), min(v))) for v in leaves if v != u} for u in leaves
    }
    traces = set()

    def step(dist, merges):
        nodes = list(dist)
        rows = [[dist[u].get(v, 0) for v in nodes] for u in nodes]
        q = classic_q(DissimilarityVector.from_matrix(rows))
        lo = min(q)
        for idx, score in enumerate(q):
            if score != lo:
                continue
            a, b = index_to_pair(idx, len(nodes))
            u, v = nodes[a], nodes[b]
            if len(nodes) == 4:
                rest = tuple(w for w in nodes if w not in (u, v))
                side = (u, v) if 0 in u | v else rest
                traces.add(CherryTrace(d.n, tuple(merges + [side])))
                continue
            nxt = {
                x: {y: dxy for y, dxy in row.items() if y not in (u, v)}
                for x, row in dist.items()
                if x not in (u, v)
            }
            w = u | v
            nxt[w] = {}
            for k in list(nxt):
                if k != w:
                    nxt[w][k] = nxt[k][w] = (dist[u][k] + dist[v][k] - dist[u][v]) / 2
            step(nxt, merges + [(u, v)])

    step(start, [])
    return traces


def test_nj_run_matches_textbook_nj(rng):
    # small integers and halves tie often; Gaussian floats almost never do
    for n in (4, 5, 6):
        for k in range(40):
            vals = rng.integers(1, 4 if k % 2 else 7, size=num_pairs(n)).tolist()
            entries = vals if k % 2 else [Fraction(v, 2) for v in vals]
            d = DissimilarityVector(n, tuple(entries))
            assert {tr for tr, _ in nj_run(d)} == textbook_nj(d)
    for n in (4, 5, 6, 7):
        for _ in range(30):
            d = DissimilarityVector(n, tuple(rng.normal(size=num_pairs(n)).tolist()))
            assert {tr for tr, _ in nj_run(d)} == textbook_nj(d)


def bryant_rule(n: int) -> np.ndarray:
    """The linear, S_n-equivariant, consistent selection rule, solved from those axioms.

    Bryant (J. Classif. 22, 2005) shows that such a rule picks as the
    Q-criterion does.  Equivariance makes the score of pair p the score w
    of pair {1,0} read after a relabeling that takes p to {1,0}, and w
    invariant under the relabelings that fix {1,0}: (0 1), (2 3) and the
    cycle (2 3 ... n-1).  Consistency makes a pendant edge move no pick,
    since a long enough one would otherwise pick a non-cherry; with
    equivariance, w reads the same length for every leaf's pendant split
    metric.  Adding one functional to every score moves no pick either;
    the weight w gives to the disjoint pair {3,2} is set to 0 to fix it.
    The null space of these conditions is one line; the rule is returned
    with the orientation that scores a cherry of a tree metric lowest.
    """
    m = num_pairs(n)
    rows = []
    for cycle in ([0, 1], [2, 3], list(range(2, n))):
        sigma = list(range(n))
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
        for j, pj in enumerate(pair_permutation(sigma, n)):
            if pj != j:
                rows.append([(k == pj) - (k == j) for k in range(m)])
    pendant = [[int(i in index_to_pair(k, n)) for k in range(m)] for i in range(n)]
    rows += [[a - b for a, b in zip(pendant[i], pendant[0])] for i in range(1, n)]
    rows.append([int(k == pair_to_index(3, 2, n)) for k in range(m)])
    (w,) = nullspace(rows)
    Q = np.zeros((m, m), dtype=np.int64)
    for p in range(m):
        a, b = index_to_pair(p, n)
        tau = [b, a] + [u for u in range(n) if u not in (a, b)]  # {1,0} -> {a,b}
        Q[p, pair_permutation(tau, n)] = w
    if np.argmin(Q @ np.array(caterpillar_metric(n))) not in caterpillar_cherries(n):
        Q = -Q
    return Q


def caterpillar_metric(n: int) -> list:
    """Unit-length caterpillar ((0,1),2,...,(n-2,n-1)), inner nodes n..2n-3 in a path."""
    edges = [(0, n), (1, n), (n - 2, 2 * n - 3), (n - 1, 2 * n - 3)]
    edges += [(j, n + j - 1) for j in range(2, n - 2)]
    edges += [(n + k, n + k + 1) for k in range(n - 3)]
    return path_metric(n, edges, {(min(e), max(e)): 1 for e in edges})


def caterpillar_cherries(n: int) -> tuple:
    """Flat indices of the caterpillar's two cherries."""
    return 0, pair_to_index(n - 1, n - 2, n)


@pytest.mark.parametrize("n", range(4, 9))
def test_bryant_rule_is_the_q_operator(n):
    Q = bryant_rule(n)
    q = q_operator(n)
    scale = Q[0, 1] // q[0, 1]  # pairs {1,0} and {2,0} share a taxon
    assert scale > 0
    assert (Q == scale * q).all()


def test_q_operator_structure():
    for n in (4, 5, 6):
        mat = q_operator(n)
        m = num_pairs(n)
        assert mat.shape == (m, m)
        for i in range(m):
            a, b = index_to_pair(i, n)
            for j in range(m):
                c, e = index_to_pair(j, n)
                if i == j:
                    assert mat[i, j] == n - 4
                elif {a, b} & {c, e}:
                    assert mat[i, j] == -1
                else:
                    assert mat[i, j] == 0


def test_q_matches_row_sum_form(rng):
    for n in (4, 5, 6, 7):
        vals = rng.normal(size=num_pairs(n))
        d = DissimilarityVector(n, tuple(float(x) for x in vals))
        q = q_criterion(d)
        assert np.allclose(q, classic_q(d))


def test_q_exact_arithmetic():
    d = DissimilarityVector(4, tuple(Fraction(k, 7) for k in range(1, 7)))
    q = q_criterion(d)
    assert all(isinstance(x, Fraction) for x in q)
    assert q == classic_q(d)


def test_demo_scores_frozen():
    d = DissimilarityVector(4, DEMO_D4)
    q = q_criterion(d)
    assert np.allclose(q, DEMO_Q4, atol=1e-12)
    results = nj_run(d)
    assert len(results) == 1
    trace, top = results[0]
    assert top.newick(["a", "b", "c", "d"]) == "((a,b),(c,d));"
    assert trace.label() == "0-1"


def test_reduction_entries_and_exact_rows():
    # the reduction of the last pair, and the join of any pair, whose
    # image is the reduction of the relabeled vector
    for n in (5, 6):
        m = num_pairs(n)
        op = join_operator(m - 1, n)
        assert op.shape == (m - n + 1, m)
        assert set(np.unique(op)) <= {0, 1, -1, 2}
        assert not op.flags.writeable
        for p in range(m):
            x, y = index_to_pair(p, n)
            order = [u for u in range(n) if u not in (x, y)] + [y, x]
            tau = np.argsort(order).tolist()  # old label -> new slot
            moved = permute_flat(tau, list(range(m)), n)  # new index -> old index
            relabel = np.zeros((m, m), dtype=np.int64)
            relabel[np.arange(m), moved] = 1
            assert (join_operator(p, n) == op @ relabel).all()


def test_reduction_matches_contracted_tree():
    # 5-leaf tree with cherry (3, 4) at node 7; contract it and compare
    edges5 = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)]
    lengths5 = {
        (0, 5): 3,
        (1, 5): 2,
        (5, 6): 1,
        (2, 6): 5,
        (6, 7): 2,
        (3, 7): 4,
        (4, 7): 6,
    }
    d5 = [Fraction(x) for x in path_metric(5, edges5, lengths5)]
    reduced = [
        sum(int(c) * x for c, x in zip(row, d5)) / 2
        for row in join_operator(9, 5)
    ]
    # merged node becomes leaf 3 of the smaller problem, at the old node 7
    edges4 = [(0, 5), (1, 5), (5, 6), (2, 6), (6, 3)]
    lengths4 = {(0, 5): 3, (1, 5): 2, (5, 6): 1, (2, 6): 5, (3, 6): 2}
    assert reduced == path_metric(4, edges4, lengths4)


def test_consistency_on_exact_metrics(rng):
    for n in (4, 5, 6, 7):
        for _ in range(10):
            top = random_topology(n, rng)
            lengths = {
                tuple(sorted(e)): Fraction(int(rng.integers(1, 30)), 4)
                for e in top.edges()
            }
            d = DissimilarityVector(n, tuple(path_metric(n, top.edges(), lengths)))
            assert unique_topologies(nj_run(d)) == [top]


def test_full_tie_on_symmetric_input():
    ones5 = DissimilarityVector(5, (Fraction(1),) * 10)
    results = nj_run(ones5)
    assert len(results) == 30
    assert len(unique_topologies(results)) == 15
    ones4 = DissimilarityVector(4, (Fraction(1),) * 6)
    assert len(nj_run(ones4)) == 3


def test_tie_tolerance_on_floats():
    # float ties are exact ties of the binary values, at every scale: equal
    # distances tie all three quartet score classes, and moving one entry
    # by 1e-12 drops the score of the four pairs that touch it, which
    # leaves two classes tied
    for scale in (1e-9, 1.0, 1e9):
        ones = DissimilarityVector(4, (scale,) * 6)
        assert len(nj_run(ones)) == 3
        bumped = DissimilarityVector(4, (scale * (1.0 + 1e-12),) + (scale,) * 5)
        assert len(nj_run(bumped)) == 2


def test_branch_limit(monkeypatch):
    ones = DissimilarityVector(6, (Fraction(1),) * 15)
    monkeypatch.setattr(nj_module, "_BRANCH_LIMIT", 10)
    with pytest.raises(BranchLimitExceeded):
        nj_run(ones)


def test_results_sorted_and_deduplicated():
    ones = DissimilarityVector(5, (Fraction(1),) * 10)
    results = nj_run(ones)
    keys = [tr.sort_key() for tr, _ in results]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_trace_json_round_trip():
    results = nj_run(DissimilarityVector(5, (Fraction(1),) * 10))
    for trace, _ in results[:5]:
        again = CherryTrace.from_json(trace.to_json())
        assert again == trace
        assert again.topology() == trace.topology()


def test_trace_validation():
    with pytest.raises(ValueError):
        CherryTrace(5, ((frozenset({0}), frozenset({1})),) * 3)


def test_trace_label_format():
    tr = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    assert tr.label() == "3-4+0-1"

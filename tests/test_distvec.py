from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from njcones.distvec import (
    DissimilarityVector,
    InputFormatError,
    all_pairs,
    index_to_pair,
    num_pairs,
    pair_permutation,
    pair_to_index,
    parse_pair_csv,
    parse_phylip,
    permute_flat,
)
from njcones.rational import solve

# column-within-row enumeration of pairs, frozen for n=4
PAIRS_N4 = [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]


def test_pair_order_n4_frozen():
    assert [index_to_pair(i, 4) for i in range(6)] == PAIRS_N4
    assert all_pairs(4) == PAIRS_N4


def test_pair_index_round_trip():
    for n in range(4, 9):
        for i in range(num_pairs(n)):
            a, b = index_to_pair(i, n)
            assert a > b >= 0
            assert pair_to_index(a, b, n) == i
            assert pair_to_index(b, a, n) == i  # order of arguments is free


def test_num_pairs():
    assert [num_pairs(n) for n in (4, 5, 6)] == [6, 10, 15]


def test_vector_get_and_exactness():
    v = DissimilarityVector(4, (1, 2, 3, 4, 5, 6))
    assert v.m == 6
    assert v.get(0, 1) == v.get(1, 0) == 1
    assert v.get(3, 2) == 6
    assert v.as_array().dtype == np.float64


def test_from_pairs_and_from_matrix_agree():
    mapping = {(a, b): 10 * a + b for b in range(4) for a in range(b + 1, 4)}
    mapping = {(min(k), max(k)): val for k, val in mapping.items()}
    v = DissimilarityVector.from_pairs(4, mapping)
    rows = [[0 if i == j else v.get(i, j) for j in range(4)] for i in range(4)]
    assert DissimilarityVector.from_matrix(rows).values == v.values


def shift_vector(a: int, n: int) -> DissimilarityVector:
    """Indicator of the pairs containing taxon a (exact entries)."""
    if not 0 <= a < n:
        raise ValueError(f"taxon {a} out of range for n={n}")
    vals = tuple(
        Fraction(1) if a in pair else Fraction(0) for pair in all_pairs(n)
    )
    return DissimilarityVector(n, vals)


def shift_basis(n: int) -> list[DissimilarityVector]:
    return [shift_vector(a, n) for a in range(n)]


def test_shift_vector_pattern():
    s = shift_vector(2, 5)
    for i in range(num_pairs(5)):
        a, b = index_to_pair(i, 5)
        assert s.values[i] == (1 if 2 in (a, b) else 0)


def test_shift_basis_sums_to_two():
    # every pair touches exactly two taxa
    for n in (4, 5, 6):
        total = [0] * num_pairs(n)
        for s in shift_basis(n):
            total = [t + x for t, x in zip(total, s.values)]
        assert all(t == 2 for t in total)


def test_pair_permutation_is_consistent():
    sigma = (2, 0, 3, 1, 4)
    perm = pair_permutation(sigma, 5)
    assert sorted(perm) == list(range(10))
    d = DissimilarityVector(5, tuple(range(10)))
    moved = DissimilarityVector(5, tuple(permute_flat(sigma, d.values, 5)))
    # entry for (a, b) must land at (sigma a, sigma b)
    for i in range(10):
        a, b = index_to_pair(i, 5)
        assert moved.get(sigma[a], sigma[b]) == d.get(a, b)


# The five-taxon kernel basis.
#
# For n = 5 the vectors below span the orthogonal complement of the span of
# the shift vectors, and the relabeling action restricted to that subspace
# has a pleasant form: the cycle (0 1 2 3 4) permutes the basis cyclically.


def w_vector(a: int, b: int, c: int, d: int) -> DissimilarityVector:
    """Entries +1 at {a,b} and {c,d}, -1 at {a,c} and {b,d}, 0 elsewhere (n=5)."""
    if len({a, b, c, d}) != 4:
        raise ValueError("w_vector needs four distinct taxa")
    vals = [Fraction(0)] * 10
    vals[pair_to_index(a, b, 5)] += 1
    vals[pair_to_index(c, d, 5)] += 1
    vals[pair_to_index(a, c, 5)] -= 1
    vals[pair_to_index(b, d, 5)] -= 1
    return DissimilarityVector(5, tuple(vals))


def w_basis() -> list[DissimilarityVector]:
    tuples = [(0, 1, 3, 4), (1, 2, 4, 0), (2, 3, 0, 1), (3, 4, 1, 2), (4, 0, 2, 3)]
    return [w_vector(*t) for t in tuples]


def w_coordinates(v) -> list[Fraction]:
    """Exact coordinates of a vector in the w basis; errors if outside the span."""
    basis = w_basis()
    cols = [[Fraction(x) for x in w.values] for w in basis]
    rows = [[cols[k][i] for k in range(5)] for i in range(10)]
    sol = solve(rows, [Fraction(x) for x in v])
    if sol is None:
        raise ValueError("vector is not in the span of the w basis")
    return sol


def permutation_w_matrix(sigma) -> list[list[Fraction]]:
    """Matrix of the relabeling action on the w span, columns = images of w_k."""
    basis = w_basis()
    cols = [w_coordinates(permute_flat(sigma, w.values, 5)) for w in basis]
    return [[cols[k][i] for k in range(5)] for i in range(5)]


def test_w_vectors_orthogonal_to_shifts():
    for w in w_basis():
        for s in shift_basis(5):
            assert sum(x * y for x, y in zip(w.values, s.values)) == 0


def test_w_coordinates_round_trip():
    basis = w_basis()
    coords = [Fraction(3), Fraction(-1, 2), Fraction(0), Fraction(2), Fraction(5)]
    vec = [
        sum(c * w.values[i] for c, w in zip(coords, basis)) for i in range(10)
    ]
    assert w_coordinates(vec) == coords
    with pytest.raises(ValueError):
        w_coordinates([1] + [0] * 9)


def test_w_vector_needs_distinct_taxa():
    with pytest.raises(ValueError):
        w_vector(0, 1, 1, 3)


# the half-integer matrix of the double transposition swapping 0 with 3
# and 1 with 4, frozen from an exact computation
DOUBLE_SWAP_MATRIX = [
    [2, 1, 1, 1, 1],
    [0, 1, -1, -1, -1],
    [0, -1, -1, 1, -1],
    [0, -1, 1, -1, -1],
    [0, -1, -1, -1, 1],
]


def test_double_transposition_matrix_frozen():
    half = Fraction(1, 2)
    expected = [[half * x for x in row] for row in DOUBLE_SWAP_MATRIX]
    assert permutation_w_matrix((3, 4, 2, 0, 1)) == expected


def test_five_cycle_acts_cyclically():
    m = permutation_w_matrix((1, 2, 3, 4, 0))
    # a permutation matrix: image of each basis vector is another one
    for k in range(5):
        col = [m[i][k] for i in range(5)]
        assert sorted(col) == [0, 0, 0, 0, 1]


def test_w_action_is_a_homomorphism():
    rng = np.random.default_rng(3)
    perms = list(permutations(range(5)))

    def compose(s, t):  # (s.t)(x) = s(t(x))
        return tuple(s[t[x]] for x in range(5))

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(5)) for j in range(5)]
            for i in range(5)
        ]

    for _ in range(20):
        s = perms[rng.integers(len(perms))]
        t = perms[rng.integers(len(perms))]
        assert permutation_w_matrix(compose(s, t)) == matmul(
            permutation_w_matrix(s), permutation_w_matrix(t)
        )


def test_w_action_is_faithful():
    seen = {tuple(map(tuple, permutation_w_matrix(s))) for s in permutations(range(5))}
    assert len(seen) == 120


CSV_TEXT = """\
# demo distances
a,b,3
a,c,1.8
b,c,2.8
a,d,2.5
b,d,3.5
c,d,1.3
"""


def test_parse_pair_csv():
    vec, names = parse_pair_csv(CSV_TEXT)
    assert names == ["a", "b", "c", "d"]
    assert vec.n == 4
    assert vec.get(0, 1) == 3.0 and vec.get(2, 3) == 1.3


def test_parse_pair_csv_rejects_conflicts_and_short_input():
    with pytest.raises(InputFormatError):
        parse_pair_csv("a,b,1\nb,a,2\na,c,1\nb,c,1\na,d,1\nb,d,1\nc,d,1\n")
    with pytest.raises(InputFormatError):
        parse_pair_csv("a,b,1\na,c,1\nb,c,1\n")
    with pytest.raises(InputFormatError):
        parse_pair_csv("a,a,0.5\n" + CSV_TEXT)


def test_parse_phylip_round_trip():
    vec, names = parse_pair_csv(CSV_TEXT)
    lines = ["4"]
    for i, name in enumerate(names):
        row = [name] + [
            "0" if i == j else repr(vec.get(i, j)) for j in range(4)
        ]
        lines.append(" ".join(row))
    got, got_names = parse_phylip("\n".join(lines))
    assert got_names == names
    assert got.values == vec.values


def test_parse_phylip_rejects_asymmetry():
    bad = "4\na 0 1 2 3\nb 1 0 4 5\nc 2 4 0 6\nd 3 5 7 0\n"
    with pytest.raises(InputFormatError):
        parse_phylip(bad)


def accepted(parse, text) -> bool:
    try:
        parse(text)
    except InputFormatError:
        return False
    return True


@pytest.mark.parametrize(
    "mirror, diagonal, verdict",
    [
        (1.0, 0.0, True),             # symmetric
        (1 + 1e-14, 0.0, True),       # mirror entries agree to 14 digits
        (1 + 1e-14, 1e-14, True),     # and a diagonal 1e-14 of the largest entry
        (3.0, 0.0, False),            # mirror entries disagree
        (1 + 1e-10, 0.0, False),      # in the 11th digit
        (1.0, 1e-10, False),          # a diagonal 1e-10 of the largest entry
    ],
    ids=["symmetric", "mirror-1e-14", "diagonal-1e-14", "mirror-3", "mirror-1e-10",
         "diagonal-1e-10"],
)
def test_symmetry_checks_do_not_depend_on_scale(mirror, diagonal, verdict):
    # d(a,b) = 1 and d(b,a) = mirror, and one diagonal entry, all times scale
    base = [[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]]
    names = "abcd"
    for scale in (1e-14, 1.0, 1e14):
        rows = [[scale * v for v in row] for row in base]
        rows[1][0] = scale * mirror
        rows[3][3] = scale * 6 * diagonal
        phylip = "4\n" + "".join(
            f"{names[i]} {' '.join(map(repr, row))}\n" for i, row in enumerate(rows)
        )
        assert accepted(parse_phylip, phylip) is verdict
        if diagonal == 0.0:
            csv = "".join(
                f"{names[i]},{names[j]},{rows[i][j]!r}\n"
                for i in range(4) for j in range(4) if i != j
            )
            assert accepted(parse_pair_csv, csv) is verdict

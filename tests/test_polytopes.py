import hashlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from njcones import projection
from njcones.cones import first_step_cone, membership
from njcones.distvec import num_pairs
from njcones.nj import q_operator
from njcones.polytopes import (
    Facet,
    FacetIncidence,
    PointConfiguration,
    build_p,
    f_vector,
    facet_enumeration,
    polytope_vertices,
    table_row,
    write_incidence_text,
)
from njcones.rational import _eliminate, affine_rank, nullspace, primitive, rank, solve


def subset_facet_enumeration(P):
    """Facets fitted through every affinely independent d-subset of the points.

    The brute-force enumeration that the double description replaced, kept
    as its oracle: C(points, d) exact null spaces, one ambient Gram solve
    per facet, facets in the order the subsets first meet them.
    """
    dedup = {}
    for idx, p in enumerate(P.points):
        dedup.setdefault(p, []).append(idx)
    distinct = tuple(dedup.keys())
    original_ids = tuple(tuple(v) for v in dedup.values())
    base = distinct[0]
    rows, chart = _eliminate([[v - b for v, b in zip(p, base)] for p in distinct[1:]])
    d = len(chart)
    rows = rows[:d]
    coords = [tuple(p[c] for c in chart) for p in distinct]
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]

    found = {}
    for subset in combinations(range(len(distinct)), d):
        anchor = coords[subset[0]]
        diffs = [[x - a for x, a in zip(coords[j], anchor)] for j in subset[1:]]
        nulls = nullspace(diffs or [[0] * d])  # a segment's facets are single points
        if len(nulls) != 1:
            continue
        normal = nulls[0]
        offset = sum(a * x for a, x in zip(normal, anchor))
        slack = [sum(a * x for a, x in zip(normal, c)) - offset for c in coords]
        if min(slack) < 0 < max(slack):
            continue
        if min(slack) < 0:
            normal = [-x for x in normal]
            offset = -offset
            slack = [-s for s in slack]
        key = (*normal, offset)
        if key in found:
            continue
        rhs = [sum(r[c] * v for c, v in zip(chart, normal)) for r in rows]
        w = solve(gram, rhs)
        g = [sum(wj * r[s] for wj, r in zip(w, rows)) for s in range(len(rows[0]))]
        verts = frozenset(i for i, s in enumerate(slack) if s == 0)
        found[key] = Facet(verts, tuple(normal), offset, primitive([-x for x in g]))
    return FacetIncidence(
        P.n, d, distinct, original_ids, tuple(coords), tuple(found.values())
    )


def intersection_closure(masks) -> set[int]:
    """Every intersection of one or more of the bit masks.

    Given the vertex sets of the facets of a polytope, these are its proper
    faces; given the zero sets of the extreme rays of a pointed cone, the
    equality sets of its faces other than the apex.
    """
    faces = set(masks)
    frontier = set(masks)
    while frontier:
        frontier = {a & b for a in frontier for b in masks} - faces
        faces |= frontier
    return faces


def rank_f_vector(incidence):
    """Face counts with each face's dimension from the affine rank of its points.

    The proper faces are the intersections of facets.  The count that the
    covering levels of `f_vector` replaced, kept as its oracle.
    """
    nv = len(incidence.distinct_points)
    masks = [sum(1 << i for i in f.vertex_ids) for f in incidence.facets]
    counts = [0] * (incidence.dim + 2)
    counts[0] = 1
    counts[-1] = 1
    for mask in intersection_closure(masks) - {0}:
        pts = [incidence.hull_coords[i] for i in range(nv) if mask >> i & 1]
        counts[affine_rank(pts) + 1] += 1
    return tuple(counts)


def rank_polytope_vertices(incidence):
    """Distinct-point ids whose incident facet normals span the hull's directions.

    The rank rule that the facet-mask rule of `polytope_vertices` replaced,
    kept as its oracle.
    """
    out = []
    for i in range(len(incidence.distinct_points)):
        normals = [list(f.hull_normal) for f in incidence.facets if i in f.vertex_ids]
        if normals and rank(normals) == incidence.dim:
            out.append(i)
    return out


def euler_sum(fv):
    return sum((-1) ** k * c for k, c in enumerate(fv))


def facet_rows(incidence):
    return [
        (f.hull_normal, f.hull_offset, f.vertex_ids, f.ambient_normal)
        for f in incidence.facets
    ]


@dataclass(frozen=True, eq=False)
class NormalConeReport:
    pair_index: int
    ok: bool
    facets_through_vertex: int
    samples_checked: int
    samples_skipped: int
    witness: tuple | None = None


def normal_cone_check(P, i, samples=10_000, seed=0, tol=1e-9):
    """Agreement between the score-argmax region of point i and its cone.

    Checks, for vertex p_i: every outward facet normal through it lies in
    the first-step cone of pair i; random vectors achieve their score
    maximum at i exactly when they belong to that cone; and for n >= 5
    the point p_i itself is interior to its own cone.
    """
    incidence = facet_enumeration(P)
    n = P.n
    cone = first_step_cone(i, n)
    point = P.points[i]
    vid = next(k for k, ids in enumerate(incidence.original_ids) if i in ids)
    through = [f for f in incidence.facets if vid in f.vertex_ids]
    for f in through:
        if membership(cone, f.ambient_normal) == "outside":
            return NormalConeReport(i, False, len(through), 0, 0, f.ambient_normal)
    if n >= 5:
        if membership(cone, point) != "interior":
            return NormalConeReport(i, False, len(through), 0, 0, point)
    pts = np.array(P.points, dtype=float)
    rng = np.random.default_rng(seed)
    skipped = 0
    checked = 0
    gap = 1e-6
    for _ in range(samples):
        x = rng.standard_normal(pts.shape[1])
        scores = pts @ x
        top = scores.max()
        in_max = scores >= top - tol
        rest = scores[~in_max]
        if rest.size and top - rest.max() < gap:
            skipped += 1
            continue
        geometric = membership(cone, x) != "outside"
        if bool(in_max[i]) != geometric:
            return NormalConeReport(i, False, len(through), checked, skipped, tuple(x))
        checked += 1
    return NormalConeReport(i, True, len(through), checked, skipped)


def test_build_p_points_are_negated_score_rows():
    P = build_p(5)
    mat = q_operator(5)
    assert len(P.points) == num_pairs(5)
    for i, p in enumerate(P.points):
        assert list(p) == [int(-x) for x in mat[i]]


def test_build_p_rejects_small_n():
    with pytest.raises(ValueError):
        build_p(3)


def test_quartet_polytope_is_a_triangle():
    # complementary pairs give coincident points, leaving 3 of 6
    row = table_row(facet_enumeration(build_p(4)))
    assert (row.n, row.vertices, row.dim, row.facets, row.facets_per_vertex) == (
        4,
        3,
        2,
        3,
        2,
    )
    P = build_p(4)
    inc = facet_enumeration(P)
    assert f_vector(inc) == (1, 3, 3, 1)
    assert all(len(ids) == 2 for ids in inc.original_ids)


def test_five_taxa_table_row():
    row = table_row(facet_enumeration(build_p(5)))
    assert (row.vertices, row.dim, row.facets, row.facets_per_vertex) == (
        10,
        5,
        22,
        12,
    )


def test_five_taxa_f_vector_and_euler():
    P = build_p(5)
    inc = facet_enumeration(P)
    fv = f_vector(inc)
    assert fv == (1, 10, 45, 90, 75, 22, 1)
    assert euler_sum(fv) == 0


def test_f_vector_with_one_face_per_chunk(monkeypatch):
    # criterion 3's vectors when every chunk of the covering test is one face
    monkeypatch.setattr(projection, "BLOCK_BYTES", 1)
    assert f_vector(facet_enumeration(build_p(5))) == (1, 10, 45, 90, 75, 22, 1)
    assert f_vector(facet_enumeration(build_p(6))) == (
        1, 15, 105, 435, 1095, 1657, 1470, 735, 195, 25, 1
    )


def test_facets_have_full_rank_and_separate():
    P = build_p(5)
    inc = facet_enumeration(P)
    verts = set(polytope_vertices(inc))
    for f in inc.facets:
        assert f.vertex_ids <= verts
        on = [inc.hull_coords[v] for v in f.vertex_ids]
        assert affine_rank(on) == inc.dim - 1
        # inward inequality: tight on the facet, strict for the others
        for v in verts:
            val = sum(
                Fraction(a) * x for a, x in zip(f.hull_normal, inc.hull_coords[v])
            )
            if v in f.vertex_ids:
                assert val == f.hull_offset
            else:
                assert val > f.hull_offset


def test_ambient_normals_point_outward():
    P = build_p(5)
    inc = facet_enumeration(P)
    for f in inc.facets:
        scores = [
            sum(a * x for a, x in zip(f.ambient_normal, p))
            for p in inc.distinct_points
        ]
        top = max(scores)
        for v, s in enumerate(scores):
            assert (s == top) == (v in f.vertex_ids)


def test_normal_cone_check_small():
    P4 = build_p(4)
    r4 = normal_cone_check(P4, 0, samples=2000, seed=1)
    assert r4.ok and r4.witness is None
    P5 = build_p(5)
    r5 = normal_cone_check(P5, 3, samples=2000, seed=1)
    assert r5.ok
    assert r5.samples_checked + r5.samples_skipped == 2000


def test_incidence_text_shape():
    P = build_p(4)
    inc = facet_enumeration(P)
    lines = write_incidence_text(inc).strip().splitlines()
    assert len(lines) == len(inc.facets)
    for ln in lines:
        normal, _, ids = ln.partition("|")
        assert len(normal.split()) == num_pairs(4)
        assert ids.strip()


# sha256 of write_incidence_text(facet_enumeration(build_p(n))): the facet
# order, the outward ambient normals and the vertex ids, byte for byte
INCIDENCE_SHA256 = {
    4: "edaec2a7066881c01e52a20c13ae19b5e46226f86d36fad549701cdb3b676546",
    5: "138f2f9463339a3d66830bbc30b3ebe41a8e4d2bd799bdbc7fe3731cc8df43c6",
    6: "9342d9fed1c5f179d1cb292196fe1270ded19d2790f9e5743d078484c90b7416",
}


@pytest.mark.parametrize("n", sorted(INCIDENCE_SHA256))
def test_incidence_text_is_pinned(n):
    text = write_incidence_text(facet_enumeration(build_p(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == INCIDENCE_SHA256[n]


@pytest.mark.parametrize("n", [4, 5])
def test_double_description_matches_the_subset_oracle_on_build_p(n):
    P = build_p(n)
    inc = facet_enumeration(P)
    want = subset_facet_enumeration(P)
    assert facet_rows(inc) == facet_rows(want)
    assert f_vector(inc) == rank_f_vector(want)
    assert polytope_vertices(inc) == rank_polytope_vertices(inc)


@st.composite
def point_configurations(draw):
    """Small integer point sets, possibly repeated, possibly of lower dimension.

    Points drawn in k dimensions are embedded in R^m (m >= k) by an integer
    matrix of rank k, so the hull has dimension at most k.
    """
    k = draw(st.integers(1, 4))
    m = draw(st.integers(k, 5))
    coord = st.integers(-2, 2)
    vec = st.lists(coord, min_size=k, max_size=k)
    pool = draw(st.lists(vec, min_size=k + 1, max_size=9))
    embed = [[int(i == j) for j in range(k)] for i in range(k)]
    embed += draw(st.lists(vec, min_size=m - k, max_size=m - k))
    points = [tuple(sum(e * x for e, x in zip(row, p)) for row in embed) for p in pool]
    repeats = draw(st.lists(st.integers(0, len(points) - 1), max_size=3))
    points = draw(st.permutations(points + [points[i] for i in repeats]))
    assume(len(set(points)) > 1)
    return PointConfiguration(0, tuple(points))


def _cube(dim):
    return PointConfiguration(
        0, tuple(tuple((v >> j) & 1 for j in range(dim)) for v in range(1 << dim))
    )


@given(point_configurations())
@example(_cube(3))  # square facets
@example(PointConfiguration(0, ((0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1))))
@example(PointConfiguration(0, ((0, 0), (1, 1), (2, 2), (1, 1), (0, 0))))  # a segment
@example(PointConfiguration(0, ((0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (1, 1))))
@settings(max_examples=200, deadline=None)
def test_double_description_matches_the_subset_oracle(P):
    inc = facet_enumeration(P)
    want = subset_facet_enumeration(P)
    assert (inc.dim, inc.distinct_points, inc.hull_coords) == (
        want.dim,
        want.distinct_points,
        want.hull_coords,
    )
    # the same facets in the same order: the order the subsets first meet them
    assert facet_rows(inc) == facet_rows(want)
    fv = f_vector(inc)
    assert fv == rank_f_vector(want)
    assert euler_sum(fv) == 0
    assert fv[1] == len(polytope_vertices(inc))


@given(point_configurations())
@example(PointConfiguration(0, ((0, 0), (2, 0), (0, 2), (1, 0), (1, 1), (1, 1))))
@settings(max_examples=200, deadline=None)
def test_vertices_match_the_rank_rule(P):
    inc = facet_enumeration(P)
    assert polytope_vertices(inc) == rank_polytope_vertices(inc)

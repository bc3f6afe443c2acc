import hashlib
from fractions import Fraction

import pytest

from njcones.distvec import num_pairs
from njcones.nj import q_operator
from njcones.polytopes import (
    build_p,
    f_vector,
    facet_enumeration,
    normal_cone_check,
    polytope_vertices,
    table_row,
    write_incidence_text,
)
from njcones.rational import affine_rank


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
    assert sum((-1) ** k * c for k, c in enumerate(fv)) == 0


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

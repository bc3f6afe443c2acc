"""The vertex polytopes dual to the first-step decision fan.

For n taxa the m score functionals give m integer points (one per pair);
their convex hull is a low-dimensional polytope sitting in R^m whose
normal cones at vertices are exactly the first-step cones.  Everything
here is exact and integral.  The pivot columns of the point differences
give an integer chart of the affine hull (the hull maps one-to-one onto
those coordinates).  In that chart the facets are the extreme rays of the
cone of valid inequalities {(nu, c) : nu . x >= c at every point x},
found by the integer double description rational.extreme_rays (Fukuda &
Prodon, 1996).  Faces are the intersections of facets
(intersection_closure), and each face's dimension is read off the
vertex-facet incidences (Kaibel & Pfetsch, 2002).

Complementary pairs share a score row when n = 4, so the six points
collapse to three there; counting treats coincident points once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .distvec import num_pairs
from .nj import q_operator
from .rational import _eliminate, _independent, extreme_rays, primitive, rank, scaled_solve


@dataclass(frozen=True, eq=False)
class PointConfiguration:
    """The m candidate vertices (negated score rows), exact integers."""

    n: int
    points: tuple


@dataclass(frozen=True, eq=False)
class Facet:
    vertex_ids: frozenset          # ids into FacetIncidence.distinct_points
    hull_normal: tuple             # integers; inward: normal . x >= offset
    hull_offset: int
    ambient_normal: tuple          # integers, outward in R^m


@dataclass(frozen=True, eq=False)
class FacetIncidence:
    n: int
    dim: int
    distinct_points: tuple          # deduplicated points, ambient coordinates
    original_ids: tuple             # per distinct point, the pair indices mapping to it
    hull_coords: tuple              # per distinct point, its integer chart coordinates
    facets: tuple


def build_p(n: int) -> PointConfiguration:
    if n < 4:
        raise ValueError("need at least 4 taxa")
    if n > 6:
        warnings.warn(
            f"n={n} is untested territory: facets are quick, but f_vector may not finish",
            RuntimeWarning,
            stacklevel=2,
        )
    mat = q_operator(n)
    m = num_pairs(n)
    pts = tuple(tuple(int(-mat[i, t]) for t in range(m)) for i in range(m))
    return PointConfiguration(n, pts)


def facet_enumeration(P: PointConfiguration) -> FacetIncidence:
    """All facets of the hull of the points, exactly.

    Facets are ordered by the lexicographically first d affinely
    independent points on each (d the hull's dimension), so the order
    does not depend on how the rays were found.
    """
    dedup: dict[tuple, list[int]] = {}
    for idx, p in enumerate(P.points):
        dedup.setdefault(p, []).append(idx)
    distinct = tuple(dedup.keys())
    original_ids = tuple(tuple(v) for v in dedup.values())
    base = distinct[0]
    rows, chart = _eliminate([[v - b for v, b in zip(p, base)] for p in distinct[1:]])
    d = len(chart)
    if d == 0:
        raise ValueError("all points coincide; nothing to enumerate")
    rows = rows[:d]  # integer rows spanning the direction space of the hull
    coords = [tuple(p[c] for c in chart) for p in distinct]
    homogeneous = [[*x, -1] for x in coords]  # (x, -1) . (nu, c) = nu . x - c
    outward = _outward_map(rows, chart)

    facets = []
    for ray, zeros in extreme_rays(homogeneous):
        normal = ray[:d]
        verts = [i for i in range(len(distinct)) if zeros >> i & 1]
        first = _independent([homogeneous[i] for i in verts])
        ambient = primitive([-sum(a * v for a, v in zip(r, normal)) for r in outward])
        facet = Facet(frozenset(verts), tuple(normal), ray[d], ambient)
        facets.append((tuple(verts[i] for i in first), facet))
    facets.sort(key=lambda kf: kf[0])
    return FacetIncidence(
        P.n, d, distinct, original_ids, tuple(coords), tuple(f for _, f in facets)
    )


def _outward_map(rows, chart) -> list[list[int]]:
    """Integer matrix A such that -A nu is an outward ambient facet normal.

    The inward hull functional nu acts on the chart coordinates x[chart].
    g = R^T w with Gram(R) w = R[:, chart] nu lies in the direction space
    spanned by the rows R and reproduces nu on it, so -g points outward and
    its maximum over the hull is on the facet.  A = R^T L Gram(R)^-1 R[:, chart]
    for some L > 0 gives g up to that positive scale, for every facet at once.
    """
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    w = scaled_solve(gram, [[r[c] for c in chart] for r in rows])
    return [
        [sum(r[s] * wi[j] for r, wi in zip(rows, w)) for j in range(len(chart))]
        for s in range(len(rows[0]))
    ]


def polytope_vertices(incidence: FacetIncidence) -> list[int]:
    """Distinct-point ids that are extreme: incident facet normals span."""
    out = []
    for i in range(len(incidence.distinct_points)):
        normals = [list(f.hull_normal) for f in incidence.facets if i in f.vertex_ids]
        if normals and rank(normals) == incidence.dim:
            out.append(i)
    return out


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


def f_vector(incidence: FacetIncidence) -> tuple:
    """Face counts (f_-1, f_0, ..., f_d) from the vertex-facet incidences.

    The proper faces are the intersections of facets, as vertex masks.  A
    face's own facets are its largest intersections with the facets that do
    not contain it, so its dimension is one more than the largest of theirs;
    the empty face has dimension -1.
    """
    masks = [sum(1 << i for i in f.vertex_ids) for f in incidence.facets]
    faces = intersection_closure(masks)
    dims = {0: -1}
    for face in sorted(faces - {0}, key=int.bit_count):
        dims[face] = 1 + max(dims[face & g] for g in masks if face & g != face)
    counts = [0] * (incidence.dim + 2)
    for dim in dims.values():
        counts[dim + 1] += 1
    counts[-1] = 1  # the polytope itself
    return tuple(counts)


@dataclass(frozen=True)
class TableRow:
    n: int
    vertices: int
    dim: int
    facets: int
    facets_per_vertex: int


def table_row(incidence: FacetIncidence) -> TableRow:
    verts = polytope_vertices(incidence)
    through = {
        v: sum(1 for f in incidence.facets if v in f.vertex_ids) for v in verts
    }
    per_vertex = set(through.values())
    if len(per_vertex) != 1:
        raise ValueError(f"facets-through-vertex is not uniform: {sorted(per_vertex)}")
    return TableRow(
        incidence.n, len(verts), incidence.dim, len(incidence.facets), per_vertex.pop()
    )


def write_incidence_text(incidence: FacetIncidence) -> str:
    """One facet per line: outward ambient normal, '|', original pair ids."""
    lines = []
    for f in incidence.facets:
        ids = sorted(
            idx
            for v in f.vertex_ids
            for idx in incidence.original_ids[v]
        )
        normal = " ".join(str(x) for x in f.ambient_normal)
        lines.append(f"{normal} | {' '.join(str(x) for x in ids)}")
    return "\n".join(lines) + "\n"

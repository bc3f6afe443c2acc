"""The vertex polytopes dual to the first-step decision fan.

For n taxa the m score functionals give m integer points (one per pair);
their convex hull is a low-dimensional polytope sitting in R^m whose
normal cones at vertices are exactly the first-step cones.  Everything
here is exact and integral.  The pivot columns of the point differences
give an integer chart of the affine hull (the hull maps one-to-one onto
those coordinates).  In that chart the facets are the extreme rays of the
cone of valid inequalities {(nu, c) : nu . x >= c at every point x},
found by the integer double description rational.extreme_rays (Fukuda &
Prodon, 1996).  The faces are then read off the vertex-facet incidences
alone (Kaibel & Pfetsch, 2002): a face is its set of facets, the closure
of a face F and a point v is the set of facets through both, and the
faces one dimension up from F are the covering steps, the largest of
those closures.  f_vector climbs them one dimension per level.

Complementary pairs share a score row when n = 4, so the six points
collapse to three there; counting treats coincident points once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import projection
from .distvec import num_pairs
from .nj import q_operator
from .rational import _eliminate, _independent, extreme_rays, primitive, scaled_solve


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
    """Distinct-point ids that are extreme: the facets through one meet in it alone."""
    nv = len(incidence.distinct_points)
    meet = [(1 << nv) - 1] * nv
    for f in incidence.facets:
        mask = sum(1 << v for v in f.vertex_ids)
        for v in f.vertex_ids:
            meet[v] &= mask
    return [i for i in range(nv) if meet[i] == 1 << i]


def f_vector(incidence: FacetIncidence) -> tuple:
    """Face counts (f_-1, f_0, ..., f_d) from the vertex-facet incidences.

    The faces are built bottom-up, one dimension per level, each face as
    its set of facets: a row of 64-bit words.  For a face F and a point v
    off it, fs(F) & fs(v) is the facet set of the smallest face holding
    both; the largest of these sets are the faces that cover F (Kaibel &
    Pfetsch, 2002), and the distinct covers of a level are the next level.
    Level k holds the faces of dimension k - 1, from the empty face (every
    facet) up to the polytope itself (no facet).
    """
    nf = len(incidence.facets)
    through = np.zeros((len(incidence.distinct_points), -(-nf // 64)), np.uint64)
    for k, f in enumerate(incidence.facets):
        through[sorted(f.vertex_ids), k // 64] |= np.uint64(1 << k % 64)
    level = np.bitwise_or.reduce(through, axis=0, keepdims=True)
    counts = [1]
    while level.any():
        level = _covers(level, through)
        counts.append(len(level))
    return tuple(counts)


def _covers(faces, through):
    """The distinct faces covering the faces of one level, as facet-set rows.

    The candidates of F are c_a = fs(F) & fs(a), one per point a, and c_w
    contains c_a exactly when fs(F) & fs(a) & ~fs(w) is empty, so the
    candidates of one face compare as an (nv, nv) table.  A candidate is
    kept when a is off F (c_a is not all of fs(F)) and no candidate of a
    point off F strictly contains it.  Faces go in chunks of
    BLOCK_BYTES / 32 table entries, so the uint64 and boolean
    (nv, nv, faces) tables that a chunk holds at once stay within
    projection.BLOCK_BYTES.
    """
    nv, words = through.shape
    # apart[j, w, a]: the facets of word j through a but not through w
    apart = (through & ~through[:, None, :]).transpose(2, 0, 1)[..., None]
    step = max(1, projection.BLOCK_BYTES // (32 * nv * nv))
    found = np.empty((0, words), np.uint64)
    pending = []
    for start in range(0, len(faces), step):
        face = faces[start : start + step]
        word = np.ascontiguousarray(face.T)  # [j, face]
        fresh = (word[:, None, :] & ~through.T[:, :, None]).any(0)  # a is off F
        # outside[w, a, face]: the facets of c_a off w, none when c_w contains c_a
        outside = apart[0] & word[0]
        for j in range(1, words):
            outside |= apart[j] & word[j]
        holds = outside == 0
        larger = holds & ~holds.transpose(1, 0, 2) & fresh[:, None, :]  # c_w > c_a
        point, row = np.nonzero(fresh & ~larger.any(0))
        pending.append(face[row] & through[point])
        # merge once the raw covers outnumber the distinct ones found so far
        if sum(map(len, pending)) > len(found):
            found = _distinct(np.concatenate([found, *pending]))
            pending = []
    return _distinct(np.concatenate([found, *pending]))


def _distinct(rows):
    rows = rows[np.lexsort(rows.T)]
    return rows[np.r_[True, (rows[1:] != rows[:-1]).any(-1)]]


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

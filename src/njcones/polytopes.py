"""The vertex polytopes dual to the first-step decision fan.

For n taxa the m score functionals give m integer points (one per pair);
their convex hull is a low-dimensional polytope sitting in R^m whose
normal cones at vertices are exactly the first-step cones.  Everything
here is exact and integral: the pivot columns of the point differences
give an integer chart of the affine hull (the hull maps one-to-one onto
those coordinates), facets are fitted through affinely independent point
subsets in that chart, and faces are counted by closing the vertex-facet
incidence under intersection.

Complementary pairs share a score row when n = 4, so the six points
collapse to three there; counting treats coincident points once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .cones import first_step_cone, membership
from .distvec import num_pairs
from .nj import q_operator
from .rational import _eliminate, affine_rank, nullspace, primitive, rank, solve


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
            f"facet enumeration for n={n} is untested territory and may be slow",
            RuntimeWarning,
            stacklevel=2,
        )
    mat = q_operator(n)
    m = num_pairs(n)
    pts = tuple(tuple(int(-mat[i, t]) for t in range(m)) for i in range(m))
    return PointConfiguration(n, pts)


def facet_enumeration(P: PointConfiguration) -> FacetIncidence:
    """All supporting hyperplanes spanned by the points, exactly."""
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

    found: dict[tuple, Facet] = {}
    for subset in combinations(range(len(distinct)), d):
        anchor = coords[subset[0]]
        diffs = [[x - a for x, a in zip(coords[j], anchor)] for j in subset[1:]]
        nulls = nullspace(diffs)
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
        key = (*normal, offset)  # normal is primitive, so the key is too
        if key in found:
            continue
        verts = frozenset(i for i, s in enumerate(slack) if s == 0)
        found[key] = Facet(
            verts, tuple(normal), offset, _ambient_outward(rows, chart, normal)
        )
    facets = tuple(found.values())
    return FacetIncidence(P.n, d, distinct, original_ids, tuple(coords), facets)


def _ambient_outward(rows, chart, hull_normal):
    """Outward ambient normal whose maximum over the hull is on the facet.

    The inward hull functional nu acts on the chart coordinates x[chart].
    g = R^T w with Gram(R) w = R[:, chart] nu lies in the direction space
    spanned by the rows R and reproduces nu on it, so -g points outward.
    """
    gram = [[sum(a * b for a, b in zip(ri, rj)) for rj in rows] for ri in rows]
    rhs = [sum(r[c] * v for c, v in zip(chart, hull_normal)) for r in rows]
    w = solve(gram, rhs)
    g = [sum(wj * r[s] for wj, r in zip(w, rows)) for s in range(len(rows[0]))]
    return primitive([-x for x in g])


def polytope_vertices(incidence: FacetIncidence) -> list[int]:
    """Distinct-point ids that are extreme: incident facet normals span."""
    out = []
    for i in range(len(incidence.distinct_points)):
        normals = [list(f.hull_normal) for f in incidence.facets if i in f.vertex_ids]
        if normals and rank(normals) == incidence.dim:
            out.append(i)
    return out


def f_vector(incidence: FacetIncidence) -> tuple:
    """Face counts (f_-1, f_0, ..., f_d) by closing incidence intersections."""
    nv = len(incidence.distinct_points)
    full = (1 << nv) - 1
    facet_masks = []
    for f in incidence.facets:
        mask = 0
        for i in f.vertex_ids:
            mask |= 1 << i
        facet_masks.append(mask)
    faces = set(facet_masks)
    frontier = set(facet_masks)
    while frontier:
        fresh = set()
        for a in frontier:
            for b in facet_masks:
                c = a & b
                if c not in faces and c not in fresh:
                    fresh.add(c)
        faces |= fresh
        frontier = fresh
    faces.discard(0)
    faces.discard(full)
    counts = [0] * (incidence.dim + 2)
    counts[0] = 1  # the empty face
    counts[incidence.dim + 1] = 1  # the polytope itself
    for mask in faces:
        pts = [incidence.hull_coords[i] for i in range(nv) if mask >> i & 1]
        counts[affine_rank(pts) + 1] += 1
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


@dataclass(frozen=True, eq=False)
class NormalConeReport:
    pair_index: int
    ok: bool
    facets_through_vertex: int
    samples_checked: int
    samples_skipped: int
    witness: tuple | None = None


def normal_cone_check(
    P: PointConfiguration,
    i: int,
    incidence: FacetIncidence | None = None,
    samples: int = 10_000,
    seed: int = 0,
    tol: float = 1e-9,
) -> NormalConeReport:
    """Agreement between the score-argmax region of point i and its cone.

    Checks, for vertex p_i: every outward facet normal through it lies in
    the first-step cone of pair i; random vectors achieve their score
    maximum at i exactly when they belong to that cone; and for n >= 5
    the point p_i itself is interior to its own cone.
    """
    if incidence is None:
        incidence = facet_enumeration(P)
    n = P.n
    cone = first_step_cone(i, n)
    point = P.points[i]
    vid = next(
        k for k, ids in enumerate(incidence.original_ids) if i in ids
    )
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
        geometric = membership(cone, x, tol=tol) != "outside"
        if bool(in_max[i]) != geometric:
            return NormalConeReport(
                i, False, len(through), checked, skipped, tuple(x)
            )
        checked += 1
    return NormalConeReport(i, True, len(through), checked, skipped)


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

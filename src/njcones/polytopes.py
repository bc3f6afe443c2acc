"""The vertex polytopes dual to the first-step decision fan.

For n taxa the m score functionals give m integer points (one per pair);
their convex hull is a low-dimensional polytope sitting in R^m whose
normal cones at vertices are exactly the first-step cones.  Everything
here is exact: the affine hull gets a rational basis, facets are fitted
through affinely independent point subsets, and faces are counted by
closing the vertex-facet incidence under intersection.

Complementary pairs share a score row when n = 4, so the six points
collapse to three there; counting treats coincident points once.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .cones import first_step_cone, membership
from .distvec import num_pairs
from .nj import q_operator
from .rational import affine_rank, nullspace, primitive, rank, solve


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
    hull_coords: tuple              # per distinct point, exact coords in the hull basis
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


def _hull_basis(points):
    """Exact affine-hull basis: returns (base point, basis rows)."""
    base = [Fraction(v) for v in points[0]]
    basis = []
    echelon = []
    for p in points[1:]:
        diff = [Fraction(v) - b for v, b in zip(p, base)]
        red = diff[:]
        for row in echelon:
            lead = next(i for i, x in enumerate(row) if x != 0)
            if red[lead] != 0:
                f = red[lead] / row[lead]
                red = [r - f * x for r, x in zip(red, row)]
        if any(red):
            basis.append(diff)
            echelon.append(red)
    return base, basis


def _gram_solve(basis, vec):
    """Coordinates c with sum c_j basis_j = vec, via the Gram system."""
    d = len(basis)
    gram = [[sum(bi[s] * bj[s] for s in range(len(bi))) for bj in basis] for bi in basis]
    rhs = [sum(b[s] * vec[s] for s in range(len(b))) for b in basis]
    c = solve(gram, rhs)
    if c is None:
        raise ValueError("vector outside the affine hull")
    return c


def facet_enumeration(P: PointConfiguration) -> FacetIncidence:
    """All supporting hyperplanes spanned by the points, exactly."""
    dedup: dict[tuple, list[int]] = {}
    for idx, p in enumerate(P.points):
        dedup.setdefault(p, []).append(idx)
    distinct = tuple(dedup.keys())
    original_ids = tuple(tuple(v) for v in dedup.values())
    base, basis = _hull_basis(distinct)
    d = len(basis)
    if d == 0:
        raise ValueError("all points coincide; nothing to enumerate")
    coords = []
    for p in distinct:
        diff = [Fraction(v) - b for v, b in zip(p, base)]
        coords.append(tuple(_gram_solve(basis, diff)))

    found: dict[tuple, Facet] = {}
    for subset in combinations(range(len(distinct)), d):
        anchor = coords[subset[0]]
        diffs = [
            [coords[j][s] - anchor[s] for s in range(d)] for j in subset[1:]
        ]
        if rank(diffs) != d - 1:
            continue
        nulls = nullspace(diffs)
        if len(nulls) != 1:
            continue
        normal = nulls[0]
        offset = sum(normal[s] * anchor[s] for s in range(d))
        below = above = False
        slack = []
        for c in coords:
            s = sum(normal[t] * c[t] for t in range(d)) - offset
            slack.append(s)
            if s > 0:
                above = True
            elif s < 0:
                below = True
        if above and below:
            continue
        if below:
            normal = [-x for x in normal]
            offset = -offset
            slack = [-s for s in slack]
        packed = primitive(list(normal) + [offset])
        key = packed
        if key in found:
            continue
        norm_i, off_i = packed[:-1], packed[-1]
        verts = frozenset(i for i, s in enumerate(slack) if s == 0)
        found[key] = Facet(verts, norm_i, off_i, _ambient_outward(basis, normal))
    facets = tuple(found.values())
    return FacetIncidence(P.n, d, distinct, original_ids, tuple(coords), facets)


def _ambient_outward(basis, hull_normal):
    """Outward ambient normal whose maximum over the hull is on the facet.

    The inward hull functional nu acts on hull coordinates; g = B^T w with
    Gram(B) w = nu reproduces it on the hull, and -g points outward.
    """
    d = len(basis)
    gram = [
        [sum(bi[s] * bj[s] for s in range(len(bi))) for bj in basis]
        for bi in basis
    ]
    w = solve(gram, list(hull_normal))
    if w is None:
        raise ValueError("gram system is singular")
    m = len(basis[0])
    g = [sum(w[j] * basis[j][s] for j in range(d)) for s in range(m)]
    return primitive([-x for x in g])


def polytope_vertices(P: PointConfiguration, incidence: FacetIncidence) -> list[int]:
    """Distinct-point ids that are extreme: incident facet normals span."""
    out = []
    for i in range(len(incidence.distinct_points)):
        normals = [list(f.hull_normal) for f in incidence.facets if i in f.vertex_ids]
        if normals and rank(normals) == incidence.dim:
            out.append(i)
    return out


def f_vector(P: PointConfiguration, incidence: FacetIncidence) -> tuple:
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


def table_row(n: int) -> TableRow:
    P = build_p(n)
    inc = facet_enumeration(P)
    verts = polytope_vertices(P, inc)
    through = {
        v: sum(1 for f in inc.facets if v in f.vertex_ids) for v in verts
    }
    per_vertex = set(through.values())
    if len(per_vertex) != 1:
        raise ValueError(f"facets-through-vertex is not uniform: {sorted(per_vertex)}")
    return TableRow(n, len(verts), inc.dim, len(inc.facets), per_vertex.pop())


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
        if membership(cone, [Fraction(x) for x in f.ambient_normal]) == "outside":
            return NormalConeReport(i, False, len(through), 0, 0, f.ambient_normal)
    if n >= 5:
        if membership(cone, [Fraction(x) for x in point]) != "interior":
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

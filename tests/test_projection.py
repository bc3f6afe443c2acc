import gc
import itertools
import weakref
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import orth

from njcones import projection
from njcones.census import ConeCensus, census
from njcones.cones import (
    NJCone,
    _pick_normals,
    cone_from_trace,
    first_step_cone,
    interior_point,
    irredundant,
    membership,
)
from njcones.nj import CherryTrace
from njcones.projection import distance_to_wrong, distances_to_wrong, nearest_point
from njcones.rational import _eliminate, extreme_rays, solve
from njcones.simulate import build_model
from njcones.trees import TreeTopology, path_metric
from test_polytopes import intersection_closure
from test_trees import random_metric_tree


def pick34_cone():
    trace = CherryTrace(
        5, ((frozenset({3}), frozenset({4})), (frozenset({0}), frozenset({1})))
    )
    return cone_from_trace(trace)


def test_interior_point_is_fixed():
    cone = first_step_cone(0, 5)
    v = np.array([float(x) for x in interior_point(cone)])
    res = nearest_point(cone, v)
    assert res.distance == 0.0
    assert np.allclose(res.point, v)


def test_single_halfspace_closed_form(rng):
    h = np.zeros(6)
    h[0], h[3] = 3.0, -4.0
    cone = NJCone(4, (tuple(h),))
    for _ in range(20):
        v = rng.normal(size=6)
        res = nearest_point(cone, v)
        viol = min(h @ v, 0.0)
        assert res.distance == pytest.approx(abs(viol) / 5.0, abs=1e-12)
        expected = v - (viol / 25.0) * h
        assert np.allclose(res.point, expected, atol=1e-12)


def test_projection_is_idempotent_and_feasible(rng):
    cone = pick34_cone()
    for _ in range(25):
        v = rng.normal(size=10) * 3
        res = nearest_point(cone, v)
        assert (cone.unit_rows @ res.point >= -1e-7 * np.linalg.norm(v)).all()
        again = nearest_point(cone, res.point)
        assert again.distance <= 1e-8
        assert np.allclose(again.point, res.point, atol=1e-8)


def test_pushing_along_tight_normals_keeps_the_projection(census5, rng):
    # x - v in the normal cone at x means v projects to x, also when some
    # tight constraints get zero weight (degenerate multipliers)
    for cone in (pick34_cone(), census5.cones[27]):
        H = np.array(cone.normals, dtype=float)
        H /= np.linalg.norm(H, axis=1, keepdims=True)
        for _ in range(400):
            x = nearest_point(cone, rng.normal(size=10) * 2).point
            tight = np.flatnonzero(np.abs(H @ x) <= 1e-9)
            w = rng.exponential(size=len(tight)) * (rng.random(len(tight)) < 0.5)
            again = nearest_point(cone, x - H[tight].T @ w)
            assert np.allclose(again.point, x, atol=1e-8)


def test_projection_is_nonexpansive(rng):
    cone = first_step_cone(4, 5)
    for _ in range(25):
        v, w = rng.normal(size=(2, 10)) * 2
        pv = nearest_point(cone, v).point
        pw = nearest_point(cone, w).point
        assert np.linalg.norm(pv - pw) <= np.linalg.norm(v - w) + 1e-10


def all_subsets_projection(cone, v, tol=1e-9):
    """The definition the face oracle replaces: project onto the zero set
    of every subset of normals, keep the nearest feasible candidate."""
    H = np.array(cone.normals, dtype=float)
    H /= np.linalg.norm(H, axis=1, keepdims=True)
    best = (np.inf, None)
    for size in range(len(H) + 1):
        for subset in itertools.combinations(range(len(H)), size):
            S = H[list(subset)]
            x = v - np.linalg.pinv(S) @ (S @ v) if size else v.copy()
            if (H @ x).min() >= -tol * (1 + np.linalg.norm(v)):
                best = min(best, (float(np.linalg.norm(x - v)), x), key=lambda b: b[0])
    return best


def cone_faces(cone):
    """(rays, faces) of the cone, exactly; each face as its equality set.

    K = {w : Hw >= 0} splits as (K ∩ {w_free = 0}) ⊕ null(H), the free
    columns being those off the pivots of H's echelon form.  H on the pivot
    columns has full column rank, so its cone is pointed and has extreme
    rays.  A face is named by its equality set, the bit mask of the rows
    tight on all of it: an intersection of the rays' zero sets, or every
    row for the apex.
    """
    _, pivots = _eliminate(cone.normals)
    rays = extreme_rays([[h[c] for c in pivots] for h in cone.normals])
    apex = (1 << len(cone.normals)) - 1
    return rays, intersection_closure([z for _, z in rays]) | {apex}


def projection_oracle(cone, V, tol=1e-9):
    """Brute-force projections of the rows of V, for cross-checking.

    Enumerates every face of the cone.  The projection of v lies in the
    relative interior of exactly one face F, and there it equals the
    orthogonal projection of v onto F's linear hull (any direction along
    F keeps the point inside the cone, so v minus the point is orthogonal
    to F).  Every other feasible candidate is a point of the cone and so
    no closer to v.  The nearest feasible candidate over all faces is
    therefore the projection; no multipliers and no least-squares
    solver are involved.  Returns (distances, points).

    The faces come from exact zero sets (cone_faces); the linear hull of
    the face with equality set A is the null space of H_A, found by a float
    SVD.  Everything runs in coordinates on the span of the constraint
    rows: projections leave the orthogonal (lineality) component untouched,
    so distances are unchanged.
    """
    H = cone.unit_rows
    V = np.asarray(V, dtype=float)
    U = orth(H.T)                      # (m, r) orthonormal row-space basis
    Hq = H @ U                         # unit rows again (they live in span(U))
    Wt = U.T @ V.T                     # (r, npts): points run along the last axis
    lineal = V - Wt.T @ U.T
    scales = 1.0 + np.linalg.norm(V, axis=1)
    best_d2 = np.full(len(V), np.inf)
    best_w = np.zeros_like(Wt)

    _, faces = cone_faces(cone)
    equal = np.array([[face >> j & 1 for j in range(len(H))] for face in faces], dtype=bool)
    cols = np.arange(len(V))
    for start in range(0, len(equal), 128):
        _, sv, vt = np.linalg.svd(Hq * equal[start:start + 128, :, None], full_matrices=False)
        B = vt * (sv <= tol * sv[:, :1])[:, :, None]   # (b, r, r): rows span null(H_A)
        X = B.transpose(0, 2, 1) @ (B @ Wt)            # (b, r, npts) candidates
        feas = (Hq @ X).min(axis=1) >= -tol * scales
        R = X - Wt
        d2 = np.where(feas, (R * R).sum(axis=1), np.inf)
        which = d2.argmin(axis=0)
        dmin = d2[which, cols]
        upd = dmin < best_d2
        best_d2[upd] = dmin[upd]
        best_w[:, upd] = X[which[upd], :, cols[upd]].T
    return np.sqrt(np.maximum(best_d2, 0.0)), best_w.T @ U.T + lineal


def test_matches_exhaustive_oracle(rng):
    for cone in (first_step_cone(0, 5), irredundant(pick34_cone())):
        V = rng.normal(size=(40, 10)) * 2
        dists, points = projection_oracle(cone, V)
        for k in range(len(V)):
            res = nearest_point(cone, V[k])
            assert res.distance == pytest.approx(dists[k], abs=1e-9)
            assert np.allclose(res.point, points[k], atol=1e-7)
            literal_d, literal_x = all_subsets_projection(cone, V[k])
            assert abs(literal_d - dists[k]) <= 1e-12
            assert np.allclose(literal_x, points[k], rtol=0, atol=1e-12)


def exact_squared_distance(cone, v, x):
    """|P_K v - v|^2 in exact arithmetic, certified from a float projection x.

    Each float of v is a dyadic rational.  The normals whose unit slack at
    x is at most 1e-9 |v| form a candidate active set A, and
    (H_A H_A^T) z = -H_A v is solved exactly on A's integer normals.  Then
    H_A (v + H_A^T z) = 0.  When z >= 0 and every exact slack of
    v + H_A^T z is >= 0, that point lies in the cone and v minus it is a
    nonnegative combination of normals tight at it, so it is the
    projection (KKT), and |H_A^T z|^2 is the squared distance.  Returns
    None when A does not certify itself so, e.g. when A is dependent and
    the multipliers the solve picks are not all nonnegative.
    """
    vq = [Fraction(t) for t in np.asarray(v).tolist()]
    tight = np.flatnonzero(cone.unit_rows @ x <= 1e-9 * np.linalg.norm(v))
    HA = [cone.normals[i] for i in tight]
    z = solve(
        [[sum(a * b for a, b in zip(hi, hj)) for hj in HA] for hi in HA],
        [-sum(a * b for a, b in zip(hi, vq)) for hi in HA],
    )
    if any(t < 0 for t in z):
        return None
    w = [sum((zi * hi[c] for zi, hi in zip(z, HA)), Fraction(0)) for c in range(len(vq))]
    xq = [a + b for a, b in zip(vq, w)]
    if any(sum(a * b for a, b in zip(h, xq)) < 0 for h in cone.normals):
        return None
    return sum(t * t for t in w)


# The kernel's squared distances lie within this relative error of the exact
# ones: a few hundred units in the last place.  The worst seen on 900 certified
# pairs was 3.3e-15 (9.4e-15 for the per-call lstsq refit it replaced).
SQUARED_DISTANCE_RTOL = 1e-13


def test_kernel_distance_matches_the_exact_projection(census5, census6, rng):
    tried = certified = 0
    for cns in (census5, census6):
        for scale in (0.1, 1.0, 10.0):
            for _ in range(40):
                cone = cns.cones[rng.integers(len(cns.cones))]
                v = scale * rng.standard_normal(cone.m)
                res = nearest_point(cone, v)
                exact = exact_squared_distance(cone, v, res.point)
                tried += 1
                if exact is None:
                    continue
                certified += 1
                assert abs(Fraction(res.distance) ** 2 - exact) <= SQUARED_DISTANCE_RTOL * exact
    assert certified >= 0.75 * tried


def test_the_exact_oracle_rejects_wrong_active_sets(census6):
    # p inside the cone.  With no normal tight (x = p), -p would be its own
    # projection and fails the slack check; with the normals tight at the
    # projection of -p, the multipliers of p come out negative.
    cone = census6.cones[0]
    p = np.array([float(t) for t in interior_point(cone)])
    assert exact_squared_distance(cone, p, p) == 0
    assert exact_squared_distance(cone, -p, p) is None
    assert exact_squared_distance(cone, p, nearest_point(cone, -p).point) is None


def assert_kkt(U, normals, V):
    """_nnls's steps and multipliers meet the KKT conditions of every problem.

    mu >= 0, W = H^T mu, and every slack H (v + W) >= -_TOL |v| (primal
    feasibility to the kernel's threshold).  mu is zero off the passive
    set: the normals it uses are tight at v + W and independent, which
    is what lets cone reduction re-solve a certificate on that support.
    """
    W, mu = projection._nnls(U, normals, V)
    H = U[normals]
    size = np.sqrt((V * V).sum(axis=1))
    assert mu.shape == normals.shape and (mu >= 0).all()
    combo = np.einsum("bk,bkd->bd", mu, H)
    assert (np.abs(W - combo).max(axis=1) <= 1e-12 * (np.abs(mu).sum(axis=1) + size)).all()
    slack = (H * (V + W)[:, None, :]).sum(axis=2)
    assert (slack >= -projection._TOL * size[:, None]).all()
    for b in range(len(V)):
        on = mu[b] > 0
        assert (np.abs(slack[b, on]) <= projection._TOL * size[b]).all()
        assert np.linalg.matrix_rank(H[b, on]) == on.sum()


def test_nnls_multipliers_meet_the_kkt_conditions(census5, rng):
    # random stacks, rows drawn with repeats, at several scales
    U = rng.standard_normal((30, 8))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    for scale in (1e-3, 1.0, 1e3):
        assert_kkt(U, rng.integers(0, 30, size=(60, 12)), scale * rng.standard_normal((60, 8)))
    for cone in census5.cones:
        # the certificate stack of cone reduction: -u_k against all the others
        count = len(cone.normals)
        U = cone.unit_rows
        others = np.tile(np.arange(count), (count, 1))[~np.eye(count, dtype=bool)]
        assert_kkt(U, others.reshape(count, -1), -U)
        # feasible_point's least distance stacks: its interior point question,
        # and each normal's question with that normal negated (feasible or not)
        for k in range(-1, count):
            G = np.array(cone.normals, dtype=float)
            G[k] *= -1 if k >= 0 else 1
            E = np.c_[G, np.ones(count)]
            E /= np.linalg.norm(E, axis=1, keepdims=True)
            v = np.zeros((1, cone.m + 1))
            v[0, -1] = -1.0
            assert_kkt(E, np.arange(count)[None], v)


def test_rays_and_faces_of_the_criterion_9_cones_are_pinned(census5, type_reps):
    cones = (census5.cones[27], *(irredundant(rep) for rep in type_reps))
    counts = [tuple(map(len, cone_faces(cone))) for cone in cones]
    assert counts == [(14, 84), (274, 11630), (254, 11170), (334, 14244)]


def test_distance_to_wrong_classifies_tree_metrics(census5, rng):
    for _ in range(5):
        top, d = random_metric_tree(5, rng)
        rec = distance_to_wrong(d.as_array(), top, census5)
        assert rec.verdict == "correct"
        assert rec.boundary_distance > 0
        assert rec.nearest_region.endswith(";")
        assert rec.nearest_region != top.newick()


def test_distance_to_wrong_flags_wrong_topology(census5, rng):
    top, d = random_metric_tree(5, rng)
    wrong = next(
        t for t in (c.topology for c in census5.cones) if t is not None and t != top
    )
    rec = distance_to_wrong(d.as_array(), wrong, census5)
    assert rec.verdict == "incorrect"
    assert rec.boundary_distance > 0
    assert rec.nearest_region == wrong.newick()


def test_distance_to_wrong_unknown_topology(census5):
    alien = TreeTopology(6, [(0, 6), (1, 6), (6, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (5, 9)])
    with pytest.raises(ValueError, match="the true topology has 6 taxa, the census 5"):
        distance_to_wrong(np.zeros(10), alien, census5)


def test_distances_to_wrong_rejects_rows_of_another_width(census5, census6):
    top = build_model("T1").topology
    for V, cns in ((np.zeros((3, 15)), census5), (np.zeros((3, 10)), census6)):
        with pytest.raises(ValueError, match=f"a {cns.n}-taxon census takes {cns.normals.shape[1]}"):
            distances_to_wrong(V, top, cns)


def test_distances_to_wrong_needs_a_cone_of_the_true_topology(census5):
    # a census of the first cone alone: every other topology is absent
    part = census_of(census5, range(1))
    absent = next(top for top in census5.topology_index if top != part.cones[0].topology)
    with pytest.raises(ValueError, match="census contains no cone for the given topology"):
        distances_to_wrong(np.zeros((1, 10)), absent, part)


def unpruned_margins(v, top, cones):
    """Verdict by membership, then every candidate cone's projection distance.

    Returns (verdict, {cone index: distance}) with no pruning at all.
    """
    correct = any(
        membership(c, v) != "outside" for c in cones if c.topology == top
    )
    dists = {
        k: nearest_point(c, v).distance
        for k, c in enumerate(cones)
        if (c.topology == top) != correct
    }
    return ("correct" if correct else "incorrect"), dists


def noisy_tree_rows(n, rng, count, sigmas):
    """(topology, rows): noisy copies of one random tree metric."""
    top, d = random_metric_tree(n, rng)
    base = d.as_array()
    noise = rng.standard_normal((count, base.size))
    scale = np.resize(np.asarray(sigmas, dtype=float), count)[:, None]
    return top, base + scale * noise


def assert_margins_match_unpruned(V, top, cns):
    records = distances_to_wrong(V, top, cns)
    cones = cns.cones
    assert len(records) == len(V)
    for v, rec in zip(V, records):
        verdict, dists = unpruned_margins(v, top, cones)
        assert rec.verdict == verdict
        assert abs(rec.boundary_distance - min(dists.values())) <= 1e-12
        # the named region is a candidate at the reported distance
        named = [d for k, d in dists.items() if cones[k].topology.newick() == rec.nearest_region]
        assert named and abs(min(named) - rec.boundary_distance) <= 1e-12


def test_batched_margins_equal_unpruned_minimum(census5, census6, rng):
    for cns, trees, count in ((census5, 4, 30), (census6, 2, 12)):
        for _ in range(trees):
            top, V = noisy_tree_rows(cns.n, rng, count, (0.05, 0.2, 0.5))
            assert_margins_match_unpruned(V, top, cns)


def test_exact_tree_metrics_name_a_region_at_the_margin(census6):
    # at sigma = 0 several wrong regions can be equidistant up to rounding;
    # whichever is named must lie at the reported distance.  Pendant edges
    # 0.42, interior edges 0.03.
    pos = [0.0, 0.0, 0.03, 0.06, 0.09, 0.09]  # caterpillar attachment points
    for newick, path in (
        ("((((0,1),2),3),4,5);", lambda a, b: 0.84 + abs(pos[a] - pos[b])),
        ("((0,1),(2,3),(4,5));", lambda a, b: 0.84 + 0.06 * (a // 2 != b // 2)),
    ):
        top = TreeTopology.from_newick(newick)
        d = np.array([path(a, b) for a in range(1, 6) for b in range(a)])
        assert distance_to_wrong(d, top, census6).verdict == "correct"
        assert_margins_match_unpruned(np.array([d, d, d]), top, census6)


def test_one_row_is_the_batched_case(census6, rng):
    # 60 six-taxa rows take several blocks; exact tree metrics, whose
    # margins tie between regions, get the same region in a block and alone
    top, V = noisy_tree_rows(6, rng, 60, (0.0, 0.0, 0.1, 0.3))
    assert distances_to_wrong(V, top, census6) == [
        distance_to_wrong(v, top, census6) for v in V
    ]


def equal_pendant_metric(newick):
    """The tree metric of `newick` with pendant edges 0.42 and interior 0.03."""
    top = TreeTopology.from_newick(newick)
    lengths = {(u, v): 0.42 if u < top.n else 0.03 for u, v in top.edges()}
    return top, np.array(path_metric(top.n, top.edges(), lengths))


def test_margins_do_not_depend_on_the_batch_split(census5, census6, rng, monkeypatch):
    # one row per screen block, per gathered batch and per problem stack
    # against the default blocks, bit for bit.  Exact tree metrics (sigma 0)
    # sit at equal distance from several regions, so a rounding that
    # depended on the rest of a stack could name another region.
    cases = []
    for cns, newick, count in (
        (census5, build_model("T1").topology.newick(), 60),
        (census6, "((((0,1),2),3),4,5);", 30),
        (census6, "((0,1),(2,3),(4,5));", 30),
    ):
        top, base = equal_pendant_metric(newick)
        sigma = np.resize([0.0, 0.0, 0.02, 0.1, 0.5], count)[:, None]
        cases.append((cns, top, base + sigma * rng.standard_normal((count, base.size))))
    default = [distances_to_wrong(V, top, cns) for cns, top, V in cases]
    monkeypatch.setattr(projection, "BLOCK_BYTES", 1)
    assert [distances_to_wrong(V, top, cns) for cns, top, V in cases] == default


def test_a_census_of_facets_gives_the_full_margins(census5, rng, monkeypatch):
    # every cone reduced to its 9 facets: the redundant normals change no
    # verdict and no distance beyond rounding, alone or in any block split
    facets = census_of(census5, range(30), irredundant)
    assert set(cone_sizes(facets).tolist()) == {9}
    top, V = noisy_tree_rows(5, rng, 40, (0.0, 0.1, 0.5))
    records = distances_to_wrong(V, top, facets)
    for rec, full in zip(records, distances_to_wrong(V, top, census5)):
        assert rec.verdict == full.verdict
        assert abs(rec.boundary_distance - full.boundary_distance) <= 1e-12
    monkeypatch.setattr(projection, "BLOCK_BYTES", 1)
    assert distances_to_wrong(V, top, facets) == records


def test_every_row_is_screened_once(census5, census6, rng, monkeypatch):
    # six-taxa star metrics (every d_ij = 1) sit near many cones: some rows
    # visit six or more, one _nnls stack per cone in a one-row call, and
    # still every row is screened once, in every block split
    star = TreeTopology.from_newick("((0,1),(2,3),(4,5));")
    cases = [noisy_tree_rows(5, rng, 60, (0.0, 0.1, 0.5)),
             (star, 1.0 + 0.001 * rng.standard_normal((12, 15)))]
    screened, stacks = [], []
    real_screen, real_nnls = projection._in_some_cone, projection._nnls

    def counting(X, *args):
        screened.append(X.copy())
        return real_screen(X, *args)

    def stacking(U, normals, V):
        stacks.append(len(V))
        return real_nnls(U, normals, V)

    monkeypatch.setattr(projection, "_in_some_cone", counting)
    monkeypatch.setattr(projection, "_nnls", stacking)
    for (top, V), cns in zip(cases, (census5, census6)):
        for budget in (projection.BLOCK_BYTES, 1):
            screened.clear()
            with monkeypatch.context() as m:
                m.setattr(projection, "BLOCK_BYTES", budget)
                distances_to_wrong(V, top, cns)
            assert np.concatenate(screened).tobytes() == V.tobytes()
    visits = []
    for v in cases[1][1]:
        stacks.clear()
        distance_to_wrong(v, star, census6)
        visits.append(len(stacks))
    assert max(visits) >= 6
    assert_margins_match_unpruned(cases[1][1], star, census6)


def test_normals_are_stacked_once_per_cone_sequence(census5, census6, rng):
    assert len(census6.normals) == 1200 and cone_sizes(census6).sum() == 11250
    # results do not depend on the order of the cones
    top, V = noisy_tree_rows(5, rng, 6, (0.1,))
    records = distances_to_wrong(V, top, census5)
    assert distances_to_wrong(V, top, census_of(census5, range(29, -1, -1))) == records


def test_the_margins_do_not_keep_a_census_alive(rng):
    cns = census(5)
    top, V = noisy_tree_rows(5, rng, 4, (0.1,))
    distances_to_wrong(V, top, cns)
    ref = weakref.ref(cns)
    del cns
    gc.collect()
    assert ref() is None


def normal_index(cones):
    """(H, cols, sizes): the stacked normals of a cone sequence, from its cones.

    H holds the distinct normals as floats in order of first appearance,
    cone by cone; cols is the row of H of every normal of every cone.
    """
    distinct: dict = {}
    cols = [distinct.setdefault(h, len(distinct)) for c in cones for h in c.normals]
    return (
        np.array(list(distinct), dtype=float),
        np.array(cols),
        np.array([len(c.normals) for c in cones]),
    )


def mask_row(topology) -> list:
    """A topology's splits as the census keeps them: sorted taxon bitmasks."""
    return sorted(sum(1 << i for i in split) for split in topology.splits)


def cone_sizes(cns):
    """Normals per cone of a census: the widths of its levels, summed."""
    width = sum(level.shape[2] for level in cns.levels)
    return np.full(len(cns.types), width, dtype=np.intp)


def census_of(cns, ids, reduce=lambda cone: cone):
    """A one-level census of cns's cones ids, each passed through reduce.

    Its normals are stacked by normal_index, and its one level, of shape
    (1, cones, normals per cone), names them cone by cone.
    """
    ids = list(ids)
    H, cols, sizes = normal_index([reduce(cns.cones[k]) for k in ids])
    assert (sizes == sizes[0]).all()
    return ConeCensus(
        cns.n, H.astype(np.int64), (cols.reshape(1, len(ids), -1),),
        cns.splits[ids], cns.picks[ids], tuple(cns.types[k] for k in ids),
    )


def test_the_walk_stacks_the_normals_of_its_cones(census5, census6):
    for cns in (census5, census6):
        H, cols, sizes = normal_index(cns.cones)
        assert H.tobytes() == cns.normals.astype(float).tobytes()
        assert cols.tobytes() == cns.cols.tobytes() and cols.dtype == cns.cols.dtype
        assert sizes.tobytes() == cone_sizes(cns).tobytes()
        assert sizes.dtype == cone_sizes(cns).dtype
        assert [mask_row(c.topology) for c in cns.cones] == cns.splits.tolist()


def test_seven_taxa_levels_are_the_pick_normals():
    cns = census(7)
    assert [level.shape for level in cns.levels] == [(1, 21, 20), (21, 15, 14), (315, 10, 9),
                                                     (3150, 3, 2)]
    assert all(level.dtype == np.intp for level in cns.levels)
    cols = cns.cols.reshape(len(cns.types), -1)
    assert cols.shape == (9450, 45)
    for c in np.random.default_rng(7).choice(9450, size=50, replace=False).tolist():
        picks = [c // 450, c // 30 % 15, c // 3 % 10, c % 3]  # the digits of its id
        assert [tuple(h) for h in cns.normals[cols[c]].tolist()] == list(
            _pick_normals(7, picks)
        )


def per_cone_bounds(T, cns):
    """The least entry of each row of T on each cone's normals, one reduceat over them all."""
    starts = np.concatenate(([0], np.cumsum(cone_sizes(cns)[:-1])))
    return np.minimum.reduceat(T[:, cns.cols], starts, axis=1)


def test_level_bounds_are_the_per_cone_bounds(census5, census6, rng, monkeypatch):
    # the screen's bound on each cone, the least of its path's node minima,
    # is the per-cone minimum bit for bit, in every block split, and on a
    # one-level census too
    seen = []
    real = projection._lowest

    def recording(T, levels):
        low = real(T, levels)
        seen.append((T.copy(), low))
        return low

    monkeypatch.setattr(projection, "_lowest", recording)
    for cns in (census5, census6, census_of(census5, range(29, -1, -1))):
        top, V = noisy_tree_rows(cns.n, rng, 40, (0.0, 0.02, 0.1, 0.5))
        for budget in (projection.BLOCK_BYTES, 1):
            seen.clear()
            with monkeypatch.context() as m:
                m.setattr(projection, "BLOCK_BYTES", budget)
                distances_to_wrong(V, top, cns)
            assert sum(len(T) for T, _ in seen) >= len(V)
            assert (budget == 1) == all(len(T) == 1 for T, _ in seen)
            for T, low in seen:
                assert T.shape[1] == len(cns.normals)
                assert low.tobytes() == per_cone_bounds(T, cns).tobytes()

def test_batched_margins_reject_non_finite_rows(census5, rng):
    top, V = noisy_tree_rows(5, rng, 4, (0.1,))
    for bad in (np.nan, np.inf, -np.inf):
        W = V.copy()
        W[2, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            distances_to_wrong(W, top, census5)

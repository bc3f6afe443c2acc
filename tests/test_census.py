import hashlib
import importlib
import json
import weakref
from collections import Counter
from dataclasses import replace
from itertools import permutations, product

import numpy as np
import pytest
from scipy.stats import chi2

from njcones.census import (
    AngleSurvey,
    _cascade,
    census,
    classify_batch,
    load_census,
    solid_angles_mc,
    stabilizer,
    topology_angle,
)
from njcones.cones import cone_from_trace, membership
from njcones.distvec import DissimilarityVector, num_pairs
from njcones.nj import CherryTrace, join_operator, nj_run, q_operator, trace_from_picks
from test_trees import random_metric_tree

census_module = importlib.import_module("njcones.census")  # njcones.census is the function


def canonical_trace(n: int, merges) -> CherryTrace:
    """CherryTrace with the last join rewritten to the side holding leaf 0."""
    return trace_from_picks(n, CherryTrace(n, tuple(merges)).step_picks())


def permute_trace(sigma, trace: CherryTrace) -> CherryTrace:
    """Relabeled trace, re-canonicalized so it hits the census id map."""
    return canonical_trace(
        trace.n,
        [
            (frozenset(sigma[x] for x in a), frozenset(sigma[x] for x in b))
            for a, b in trace.merges
        ],
    )


def trace_ids(cns) -> dict:
    """CherryTrace -> cone id."""
    return {c.trace: i for i, c in enumerate(cns.cones)}


def pick_radices(n: int) -> list[int]:
    """Digits of the mixed-radix cone id: pair counts for nk = n..5, then 3."""
    return [num_pairs(nk) for nk in range(n, 4, -1)] + [3]


def orbit_ids(cns, cone_id: int) -> set:
    """Census ids of the full symmetric-group orbit of one cone, by brute force."""
    trace = cns.cones[cone_id].trace
    ids = trace_ids(cns)
    return {ids[permute_trace(sigma, trace)] for sigma in permutations(range(cns.n))}


def type_of(trace) -> str:
    """The six-taxa type by the paper's rule, written out by hand.

    III: the second join takes in the first cluster.  I: the last join
    pairs the two merged clusters, or two leaves.  II: the rest.
    """
    (a, b), (c, e), last = trace.merges
    merged = a | b
    if c == merged or e == merged:
        return "III"
    p, q = last
    if {p, q} == {merged, c | e} or (len(p) == 1 and len(q) == 1):
        return "I"
    return "II"


@pytest.fixture(scope="module")
def census7():
    return census(7)


def per_trace_census(n):
    """The census built one trace at a time: replay each pick sequence alone.

    Every trace recomputes its whole chain of scores and builds its own
    topology, the way census(n) did before it walked the pick tree.
    """
    cones, types, index = [], [], {}
    for picks in product(*map(range, pick_radices(n))):
        trace = trace_from_picks(n, picks)
        cone = cone_from_trace(trace)
        if n == 5:
            (b,), (a,) = trace.merges[0]
            (mid,) = set(range(5)).difference(*cone.topology.cherries())
            t, label = "", f"C_{{{b}{a},{mid}}}"
        else:
            t = type_of(trace)
            label = f"{t}:{trace.label()}"
        index.setdefault(cone.topology, []).append(len(cones))
        cones.append(replace(cone, label=label))
        types.append(t)
    return tuple(cones), tuple(types), {k: tuple(v) for k, v in index.items()}


def test_census_walk_matches_per_trace_build(census5, census6):
    for cns in (census5, census6):
        cones, types, index = per_trace_census(cns.n)
        assert cns.cones == cones  # normals in order, trace, topology, label
        assert cns.types == types
        assert list(cns.topology_index.items()) == list(index.items())
        # one topology object per split set, shared by its cones
        for top, ids in cns.topology_index.items():
            assert all(cns.cones[i].topology is top for i in ids)


def test_seven_taxa_split_rows_are_the_trace_topologies(census7):
    assert census7.splits.shape == (9450, 4) and census7.joins.shape == (9450, 4, 2)
    for c in range(0, 9450, 7):
        digits = [int(p) for p in np.unravel_index(c, pick_radices(7))]
        trace = trace_from_picks(7, digits)
        assert census7.trace(c) == trace
        masks = sorted(sum(1 << i for i in split) for split in trace.topology().splits)
        assert census7.splits[c].tolist() == masks


@pytest.mark.parametrize("n", [5, 6, 7])
def test_cascade_composes_the_joins_of_each_pick_prefix(n):
    radices = pick_radices(n)
    for d, scores in enumerate(_cascade(n)):
        nk = n - d
        q = q_operator(nk) if nk > 4 else q_operator(4)[:3]
        assert scores.shape == (int(np.prod(radices[:d])), radices[d], num_pairs(n))
        for node in range(len(scores)):
            L = np.eye(num_pairs(n), dtype=np.int64)
            for k, p in enumerate(np.unravel_index(node, radices[:d])):
                L = join_operator(int(p), n - k) @ L
            assert (scores[node] == q @ L).all()


def test_census_only_five_to_seven():
    for n in (4, 8):
        with pytest.raises(ValueError):
            census(n)


def test_five_taxa_census_shape(census5):
    assert len(census5.cones) == 30
    assert len({c.label for c in census5.cones}) == 30
    assert all(len(c.normals) == 11 for c in census5.cones)
    # two completed traces per labeled topology
    assert len(census5.topology_index) == 15
    assert all(len(ids) == 2 for ids in census5.topology_index.values())


def test_pick_34_label_position(census5):
    cone = census5.cones[27]
    assert cone.label == "C_{34,2}"
    assert cone.trace.label() == "3-4+0-1"


def test_six_taxa_census_shape(census6):
    assert len(census6.cones) == 450
    assert Counter(census6.types) == {"I": 90, "II": 180, "III": 180}
    assert len(census6.topology_index) == 105
    for top, ids in census6.topology_index.items():
        kinds = Counter(census6.types[i] for i in ids)
        if len(top.cherries()) == 3:
            assert kinds == {"I": 6}
        else:
            assert kinds == {"II": 2, "III": 2}


def test_type_three_rejoins_the_merged_cluster(census6):
    for i in census6.cones_of_type("III"):
        first, second, _ = census6.cones[i].trace.merges
        merged = first[0] | first[1]
        assert merged in second
    for i in census6.cones_of_type("I") + census6.cones_of_type("II"):
        first, second, _ = census6.cones[i].trace.merges
        merged = first[0] | first[1]
        assert merged not in second


def test_canonical_trace_fixes_census_traces(census5, census6):
    for cns in (census5, census6):
        for cone in cns.cones[::7]:
            assert canonical_trace(cns.n, cone.trace.merges) == cone.trace


def test_permute_trace_acts_on_census(census5):
    ids = set()
    index = trace_ids(census5)
    for sigma in permutations(range(5)):
        moved = permute_trace(sigma, census5.cones[27].trace)
        ids.add(index[moved])
    assert ids == set(range(30))


def test_stabilizers_and_orbits(census5, census6, type_reps):
    stab5 = stabilizer(census5.cones[27])
    assert len(stab5) == 4
    assert tuple(range(5)) in {tuple(s) for s in stab5}
    assert len(orbit_ids(census5, 27)) == 30

    expected = {"I": 8, "II": 4, "III": 4}
    for rep, t in zip(type_reps, ("I", "II", "III")):
        stab = stabilizer(rep)
        assert len(stab) == expected[t]
        rep_id = trace_ids(census6)[rep.trace]
        orbit = orbit_ids(census6, rep_id)
        assert len(orbit) * len(stab) == 720
        assert {census6.types[i] for i in orbit} == {t}


def test_types_are_the_symmetric_group_orbits(census5, census6):
    for cns, sizes in ((census5, {"": 30}), (census6, {"I": 90, "II": 180, "III": 180})):
        classes = dict.fromkeys(cns.types)
        assert {t: len(cns.cones_of_type(t)) for t in classes} == sizes
        for t in classes:
            members = cns.cones_of_type(t)
            assert orbit_ids(cns, members[0]) == set(members)
    # the classes are named in the order of their first cone
    assert [census6.cones_of_type(t)[0] for t in ("I", "II", "III")] == [0, 1, 18]


def test_seven_taxa_census_and_its_orbits(census7):
    assert len(census7.cones) == 9450
    assert len(census7.topology_index) == 945
    assert all(len(c.normals) == 45 for c in census7.cones)
    names = list(dict.fromkeys(census7.types))
    assert names == "I II III IV V VI VII VIII IX X XI".split()
    sizes = Counter(len(census7.cones_of_type(t)) for t in names)
    assert sizes == {630: 7, 1260: 4}
    assert all(c.label.startswith(f"{t}:") for c, t in zip(census7.cones, census7.types))
    # brute force over all 5,040 relabelings, for one class of each size
    for t in ("I", "V"):
        members = census7.cones_of_type(t)
        assert orbit_ids(census7, members[len(members) // 2]) == set(members)


def test_stabilizer_is_a_group(census5):
    stab = {tuple(s) for s in stabilizer(census5.cones[0])}
    for s in stab:
        for t in stab:
            assert tuple(s[t[x]] for x in range(5)) in stab


def census_json(cns):
    """The census as earlier versions cached it on disk: format 1."""
    return json.dumps(
        {
            "format": 1,
            "n": cns.n,
            "cones": [
                {
                    "label": c.label,
                    "type": t,
                    "merges": [[sorted(a), sorted(b)] for a, b in c.trace.merges],
                    "normals": [list(h) for h in c.normals],
                }
                for c, t in zip(cns.cones, cns.types)
            ],
        }
    )


def test_trace_ids_index_the_cones(census6):
    ids = trace_ids(census6)
    assert [ids[c.trace] for c in census6.cones] == list(range(450))


def test_load_census_is_census_and_writes_nothing(tmp_path, census5):
    cns = load_census(5, cache_dir=tmp_path)
    assert [c.normals for c in cns.cones] == [c.normals for c in census5.cones]
    assert list(tmp_path.iterdir()) == []


def test_census_json_is_pinned(census5, census6):
    # normals, order, labels and types, as cached by earlier versions
    for cns, digest in (
        (census5, "fe2353951d081c490703adf5be9e3be9fd546ed8d647f751b9513ac5c0d2507b"),
        (census6, "cf65d7209aac4c3265087c861b1fb1592e3a842b556924731858be2c56a61a49"),
    ):
        assert hashlib.sha256(census_json(cns).encode()).hexdigest() == digest


def test_classify_batch_agrees_with_membership(census5, census6, rng):
    for cns in (census5, census6):
        X = rng.normal(size=(300, num_pairs(cns.n)))
        ids = classify_batch(cns.n, X)
        assert ids.dtype == np.int64
        assert (ids >= 0).sum() > 290
        for x, cid in zip(X, ids):
            if cid < 0:
                continue
            assert membership(cns.cones[cid], x) != "outside"


def test_classify_batch_matches_tree_runs(census5, census6, rng):
    for cns in (census5, census6):
        for _ in range(10):
            top, d = random_metric_tree(cns.n, rng)
            ids = classify_batch(cns.n, d.as_array()[None, :])
            assert ids[0] >= 0
            traces = {tr for tr, _ in nj_run(d)}
            assert cns.cones[ids[0]].trace in traces


def test_classify_batch_at_seven_taxa(census7, rng):
    # decode each id into its pick sequence and its trace, the census's cone
    X = rng.normal(size=(200, 21))
    ids = classify_batch(7, X)
    assert ids.max() < 21 * 15 * 10 * 3
    assert (ids >= 0).sum() > 190
    for x, cid in zip(X, ids):
        if cid < 0:
            continue
        picks = [int(p) for p in np.unravel_index(cid, pick_radices(7))]
        trace = trace_from_picks(7, picks)
        assert census7.cones[cid].trace == trace
        assert membership(census7.cones[cid], x) != "outside"
        d = DissimilarityVector(7, tuple(float(v) for v in x))
        assert trace in {tr for tr, _ in nj_run(d)}


def test_classify_batch_lets_go_of_its_input(rng):
    # the sampler feeds 16 MB chunks; nothing may keep one alive afterwards
    X = rng.normal(size=(100, 15))
    alive = weakref.ref(X)
    classify_batch(6, X)
    del X
    assert alive() is None


def test_classify_batch_reports_ties(census5):
    ids = classify_batch(5, np.ones((1, 10)))
    assert ids[0] == -1


@pytest.mark.parametrize("X", [np.zeros(10), np.zeros((3, 9)), np.zeros((1, 2, 10))])
def test_classify_batch_takes_rows_of_pair_distances(X):
    with pytest.raises(ValueError, match="one row of 10 distances"):
        classify_batch(5, X)


def test_solid_angles_reproducible_across_threads(monkeypatch, census5):
    monkeypatch.setattr(census_module, "_CHUNK", 1 << 14)
    one = solid_angles_mc(census5, 50_000, seed=11, threads=1)
    four = solid_angles_mc(census5, 50_000, seed=11, threads=4)
    assert one.counts == four.counts
    assert one.discarded == four.discarded
    assert sum(one.counts) == 50_000


def test_angle_estimates_shape(census5):
    survey = solid_angles_mc(census5, 30_000, seed=7)
    rows = survey.estimates(census5)
    assert len(rows) == 30
    assert [r.label for r in rows] == [c.label for c in census5.cones]
    total = sum(r.fraction for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)
    for r in rows:
        assert 0 < r.fraction < 1
        assert r.stderr == pytest.approx(
            (r.fraction * (1 - r.fraction) / survey.samples) ** 0.5
        )


def test_per_type_and_per_topology(census6):
    survey = solid_angles_mc(census6, 60_000, seed=5)
    per_type = survey.per_type(census6)
    assert [r.label for r in per_type] == ["type-I", "type-II", "type-III"]
    mass = sum(
        r.fraction * len(census6.cones_of_type(r.label.split("-")[1]))
        for r in per_type
    )
    assert mass == pytest.approx(1.0, abs=1e-12)

    per_top = survey.per_topology(census6)
    assert len(per_top) == 105
    assert [r.label for r in per_top] == sorted(r.label for r in per_top)
    some_top = next(iter(census6.topology_index))
    row = topology_angle(census6, survey, some_top)
    assert row.label == some_top.newick()
    from njcones.trees import TreeTopology

    with pytest.raises(ValueError):
        topology_angle(
            census6,
            survey,
            TreeTopology(5, [(0, 5), (1, 5), (5, 6), (2, 6), (6, 7), (3, 7), (4, 7)]),
        )


def test_per_type_requires_six(census5):
    survey = solid_angles_mc(census5, 1_000, seed=0)
    with pytest.raises(ValueError):
        survey.per_type(census5)


def test_survey_fields(census5):
    survey = solid_angles_mc(census5, 1_000, seed=9)
    assert isinstance(survey, AngleSurvey)
    assert survey.n == 5 and survey.samples == 1_000 and survey.seed == 9
    assert survey.discarded >= 0


def test_solid_angles_needs_a_thread(census5):
    for threads in (0, -1):
        with pytest.raises(ValueError):
            solid_angles_mc(census5, 10, seed=0, threads=threads)


def chunk_generator(seed, ci):
    """The sampler's stream for chunk ci: Philox keyed by (seed, ci)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(ci,)))
    )


def with_forced_ties(band: float):
    """classify_batch, with -1 also for rows whose two smallest root scores are within band.

    A row's id still depends on that row alone, so the sampler's
    tallies must not change with the chunking; a band of 0.05 ties 4% of
    Gaussian rows at 5 taxa and 3% at 6, and one of 1e-9 none.
    """

    def classify(n, X):
        ids = classify_batch(n, X)
        root = np.sort(X @ _cascade(n)[0][0].T, axis=1)
        ids[root[:, 1] - root[:, 0] <= band] = -1
        return ids

    return classify


def whole_chunk_survey(cns, samples, seed, classify, chunk):
    """(counts, discarded) by classifying whole chunks and reading them in order.

    The sampler's loop before rounds, one chunk at a time.  Every tie of a chunk
    read to its end counts, and in the last chunk those before the last
    accepted row.
    """
    m = num_pairs(cns.n)
    counts = np.zeros(len(cns.cones), dtype=np.int64)
    accepted = discarded = ci = 0
    while accepted < samples:
        X = chunk_generator(seed, ci).standard_normal((chunk, m))
        ids = classify(cns.n, X)
        ci += 1
        used = np.flatnonzero(ids >= 0)[: samples - accepted]
        counts += np.bincount(ids[used], minlength=counts.size)
        accepted += used.size
        discarded += (used[-1] + 1 if accepted == samples else ids.size) - used.size
    return tuple(int(c) for c in counts), int(discarded)


def counting(monkeypatch, classify) -> list:
    """Give the sampler classify for classify_batch; the list gets each call's row count."""
    rows = []

    def counted(n, X):
        rows.append(len(X))
        return classify(n, X)

    monkeypatch.setattr(census_module, "classify_batch", counted)
    return rows


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("band", [1e-9, 0.05])
def test_sampler_matches_the_whole_chunk_oracle(monkeypatch, census5, census6, n, band):
    cns = census5 if n == 5 else census6
    chunk = 1 << 10
    monkeypatch.setattr(census_module, "_CHUNK", chunk)
    classify = with_forced_ties(band)
    rows = counting(monkeypatch, classify)
    for samples in (1, 1023, 1024, 1025, 3 * 1024 + 17):
        want = whole_chunk_survey(cns, samples, 10, classify, chunk)
        for threads in (1, 2, 3):
            rows.clear()
            got = solid_angles_mc(cns, samples, 10, threads=threads)
            assert (got.counts, got.discarded) == want
            assert sum(got.counts) == samples
            assert sum(rows) == samples + got.discarded  # nothing drawn past the last sample


def test_sampler_with_one_row_chunks(monkeypatch, census5):
    monkeypatch.setattr(census_module, "_CHUNK", 1)
    classify = with_forced_ties(0.05)
    rows = counting(monkeypatch, classify)
    for samples in (1, 2, 200):
        want = whole_chunk_survey(census5, samples, 10, classify, 1)
        for threads in (1, 2):
            rows.clear()
            got = solid_angles_mc(census5, samples, 10, threads=threads)
            assert (got.counts, got.discarded) == want
            assert rows == [1] * (samples + got.discarded)
    assert want[1] > 0  # ties among the 200 made later rounds


def test_a_tie_round_resumes_mid_chunk_across_a_chunk_end(monkeypatch, census5):
    chunk = 64
    monkeypatch.setattr(census_module, "_CHUNK", chunk)
    classify = with_forced_ties(0.05)
    rows = counting(monkeypatch, classify)
    samples = 2 * chunk - 1
    # the first round reads chunk 0 and chunk 1 up to its last row; the
    # second reads as many rows as the first had ties: that last row, then
    # the first ties - 1 rows of chunk 2
    ties = sum(
        int((classify(5, chunk_generator(10, ci).standard_normal((r, 10))) < 0).sum())
        for ci, r in ((0, chunk), (1, chunk - 1))
    )
    assert 2 <= ties <= chunk
    want = whole_chunk_survey(census5, samples, 10, classify, chunk)
    for threads in (1, 2, 3):
        rows.clear()
        got = solid_angles_mc(census5, samples, 10, threads=threads)
        assert (got.counts, got.discarded) == want
        assert sum(rows) == samples + got.discarded
        if threads == 1:
            assert rows[:4] == [chunk, chunk - 1, 1, ties - 1]


def test_a_split_fill_equals_one_fill():
    # a fill of r rows is the first r rows of any longer fill, so rows
    # lo..hi of a chunk are the last hi - lo rows of a fill of hi rows
    for m in (10, 15, 21):
        for r, s in ((0, 5), (1, 1), (7, 1017), (1000, 24), (1023, 1)):
            gen = chunk_generator(3, 2)
            two = np.vstack([gen.standard_normal((r, m)), gen.standard_normal((s, m))])
            assert (two == chunk_generator(3, 2).standard_normal((r + s, m))).all()


def partition_argmin_gap(scores, bound):
    """The earlier rule on (rows, k) scores: argmin, and the gap by np.partition."""
    part = np.partition(scores, 1, axis=1)
    return np.argmin(scores, axis=1), (part[:, 1] - part[:, 0]) > bound


def with_partition_rule(monkeypatch):
    monkeypatch.setattr(
        census_module, "_argmin_gap", lambda S, bound: partition_argmin_gap(S.T, bound)
    )


@pytest.mark.parametrize("n", [5, 6, 7])
def test_classify_batch_matches_the_partition_rule(monkeypatch, n):
    X = np.random.default_rng(n).standard_normal((20_000, num_pairs(n)))
    ids = classify_batch(n, X)
    # the rules agree on the root picks and gap masks at any bound
    S = _cascade(n)[0][0] @ X.T
    for bound in (0.0, 0.05):
        want_pick, want_ok = partition_argmin_gap(S.T, bound)
        pick, ok = census_module._argmin_gap(S.copy(), bound)
        assert (pick == want_pick).all() and (ok == want_ok).all()
    with_partition_rule(monkeypatch)
    assert (classify_batch(n, X) == ids).all()


def test_argmin_gap_on_repeated_scores():
    # small integers: the minimum of a column is often repeated
    S = np.random.default_rng(2).integers(0, 4, size=(6, 2_000)).astype(float)
    low = S.min(axis=0)
    repeated = (S == low).sum(axis=0) > 1
    assert 100 < repeated.sum() < S.shape[1] - 100
    want_pick, want_ok = partition_argmin_gap(S.T, 1e-9)
    pick, ok = census_module._argmin_gap(S.copy(), 1e-9)
    assert (pick == want_pick).all() and (ok == want_ok).all()
    assert (ok == ~repeated).all()


def test_duplicated_minimal_scores_give_minus_one(monkeypatch):
    # integer entries give exact integer root scores, often with a repeated minimum
    X = np.random.default_rng(1).integers(0, 3, size=(5_000, 15)).astype(float)
    root = X @ _cascade(6)[0][0].T
    repeated = (root == root.min(axis=1)[:, None]).sum(axis=1) > 1
    assert repeated.sum() > 100
    ids = classify_batch(6, X)
    assert (ids[repeated] == -1).all()
    assert (ids >= 0).any()
    with_partition_rule(monkeypatch)
    assert (classify_batch(6, X) == ids).all()


def test_gaps_inside_the_rounding_bound_are_decided_exactly(census6):
    # small integers tie often; moving entries by 2**-50 breaks most ties
    # by less than the rounding bound, so those steps are scored exactly
    rng = np.random.default_rng(3)
    X = rng.integers(0, 3, size=(400, 15)) + 2.0**-50 * rng.integers(-1, 2, size=(400, 15))
    root = np.sort(X @ _cascade(6)[0][0].T, axis=1)
    assert ((0 < root[:, 1] - root[:, 0]) & (root[:, 1] - root[:, 0] < 1e-12)).sum() > 50
    want = []
    ids = trace_ids(census6)
    for x in X:
        runs = nj_run(DissimilarityVector(6, tuple(x.tolist())))
        want.append(ids[runs[0][0]] if len(runs) == 1 else -1)
    assert (classify_batch(6, X) == want).all()
    assert 0 < want.count(-1) < 100


def homogeneity_p(counts) -> float:
    """Chi-square p-value that multinomial counts share one cell probability."""
    counts = np.asarray(counts, dtype=float)
    expected = counts.mean()
    return chi2.sf(((counts - expected) ** 2 / expected).sum(), len(counts) - 1)


def test_seven_taxa_orbits_and_shapes_get_equal_mass(census7):
    survey = solid_angles_mc(census7, 2_000_000, seed=7, threads=2)
    counts = np.array(survey.counts)
    assert counts.sum() == 2_000_000
    for t in dict.fromkeys(census7.types):
        assert homogeneity_p(counts[list(census7.cones_of_type(t))]) > 1e-3
    by_shape = {}
    for top, ids in census7.topology_index.items():
        by_shape.setdefault(len(top.cherries()), []).append(counts[list(ids)].sum())
    assert sorted(map(len, by_shape.values())) == [315, 630]
    for masses in by_shape.values():
        assert homogeneity_p(masses) > 1e-3
    # the test has power: the two shapes pooled are far from equal
    assert homogeneity_p([m for masses in by_shape.values() for m in masses]) < 1e-12

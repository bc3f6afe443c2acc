import hashlib
import json
import weakref
from collections import Counter
from itertools import permutations

import numpy as np
import pytest

from njcones.census import (
    AngleSurvey,
    census,
    classify_batch,
    load_census,
    orbit_ids,
    permute_trace,
    pick_radices,
    solid_angles_mc,
    stabilizer,
    topology_angle,
)
from njcones.cones import membership
from njcones.distvec import DissimilarityVector, num_pairs
from njcones.nj import canonical_trace, nj_run, trace_from_picks


def test_census_only_five_or_six():
    with pytest.raises(ValueError):
        census(4)


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
    for sigma in permutations(range(5)):
        moved = permute_trace(sigma, census5.cones[27].trace)
        ids.add(census5.trace_ids[moved])
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
        rep_id = census6.trace_ids[rep.trace]
        orbit = orbit_ids(census6, rep_id)
        assert len(orbit) * len(stab) == 720
        assert {census6.types[i] for i in orbit} == {t}


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
    ids = census6.trace_ids
    assert census6.trace_ids is ids  # computed once per census
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
    from njcones.trees import random_metric_tree

    for cns in (census5, census6):
        for _ in range(10):
            top, d = random_metric_tree(cns.n, rng)
            ids = classify_batch(cns.n, d.as_array()[None, :])
            assert ids[0] >= 0
            traces = {tr for tr, _ in nj_run(d)}
            assert cns.cones[ids[0]].trace in traces


def test_classify_batch_beyond_the_census(rng):
    # seven taxa: decode each id into its pick sequence and its trace
    X = rng.normal(size=(200, 21))
    ids = classify_batch(7, X)
    assert ids.max() < 21 * 15 * 10 * 3
    assert (ids >= 0).sum() > 190
    for x, cid in zip(X, ids):
        if cid < 0:
            continue
        picks = [int(p) for p in np.unravel_index(cid, pick_radices(7))]
        trace = trace_from_picks(7, picks)
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


def test_solid_angles_reproducible_across_threads(census5):
    one = solid_angles_mc(census5, 50_000, seed=11, threads=1, chunk=1 << 14)
    four = solid_angles_mc(census5, 50_000, seed=11, threads=4, chunk=1 << 14)
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

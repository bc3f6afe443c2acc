"""Tests of the benchmark itself: smoke runs and checks that reject bad output.

    python3 -m pytest perfbench -q
"""

import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostClock  # noqa: E402
from spans import PER_LAYER, layer_metrics, setup_metrics  # noqa: E402

from njcones.trees import TreeTopology  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "seqsim5", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_per_layer_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_layer_metrics_self_time_and_useful_ratio():
    spans = [
        # (id, name, start, end, parent, thread, info)
        (1, "cli.main", 0.0, 10.0, None, 1, None),
        (2, "projection.distance_to_wrong", 1.0, 5.0, 1, 1, 0.5),
        (3, "projection.nearest_point", 1.0, 2.0, 2, 1, [0.7, False]),
        (4, "projection.nearest_point", 2.0, 3.0, 2, 1, [0.5, True]),
        (5, "census.solid_angles_mc", 5.0, 9.0, 1, 1, None),
        (6, "census.classify_batch", 5.0, 7.0, None, 2, [100, 3]),
        (7, "census.classify_batch", 6.0, 8.0, None, 3, [100, 1]),
    ]
    m = layer_metrics(spans)
    assert m["projection.distance_to_wrong.self_us"] == pytest.approx(2e6)
    assert m["projection.nearest_point.useful_ratio"] == 0.5
    assert m["projection.nearest_point.fallbacks"] == 1
    assert m["census.tie_frac"] == pytest.approx(0.02)
    assert m["census.classify_batch.rows_per_s"] == pytest.approx(50.0)
    assert m["census.solid_angles_mc.self_s"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    setup = [(8, "census.load_census", 0.0, 1.5, None, 1, None)]
    assert setup_metrics(setup) == {"census.load_census.setup_s": 1.5}


def test_host_clock_leaves_out_sampling():
    clock = HostClock()
    start = time.perf_counter()
    before = clock.net()
    for _ in range(5):
        clock.sample()
    assert clock.net() - before < 0.5 * (time.perf_counter() - start)
    assert len(clock.samples) == 5 and all(s > 0 for _, s in clock.samples)
    assert clock.speed(start, time.perf_counter()) == pytest.approx(
        sum(s for _, s in clock.samples) / 5)
    with pytest.raises(RuntimeError):
        clock.speed(start - 2.0, start - 1.0)


@pytest.mark.parametrize("n", [5, 6])
def test_first_trace_is_the_census_trace(n, tmp_path):
    cns = workloads.census_mod.load_census(n, cache_dir=tmp_path)
    first = cns.cones[cns.cones_of_type(cns.types[0])[0]]
    assert json.loads(first.trace.to_json()) == workloads.FIRST_TRACE[n]


# --- each check rejects a corrupted result ---------------------------------


@pytest.fixture(scope="module")
def census_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("census")


def test_sim_check_rejects_flipped_verdict(tmp_path, census_dir):
    rc, _, _ = workloads.call(["sim", "--tree", "T1", "--reps", 6, "--seed", 5,
                               "--out", tmp_path, "--census", census_dir])
    assert rc == 0
    text = (tmp_path / "records.csv").read_text()
    top = TreeTopology.from_newick(workloads.TRUE5)
    assert checks.check_sim_records(text, 6, top) == (6, 0)
    lines = text.splitlines()
    row = lines[1].split(",")
    row[1] = "correct" if row[1] == "incorrect" else "incorrect"
    flipped = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    assert checks.check_sim_records(flipped, 6, top) == (6, 1)
    assert checks.check_sim_records("\n".join(lines[:-1]) + "\n", 6, top) == (6, 1)
    row = lines[1].split(",")
    row[2] = "-0.1"
    negative = "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"
    assert checks.check_sim_records(negative, 6, top) == (6, 1)


def test_distance_check_rejects_flipped_verdict(tmp_path, census_dir):
    newick, edges = workloads.TREES6["three-cherry"]
    vectors = workloads.noisy_vectors(1, 0, edges, 6)
    path = tmp_path / "v.vecs"
    path.write_text("".join(" ".join(repr(x) for x in v) + "\n" for v in vectors))
    rc, out, _ = workloads.call(["distance", "--input", path, "--true-tree", newick,
                                 "--format", "vecs", "--census", census_dir])
    assert rc == 0
    top = TreeTopology.from_newick(newick)
    assert checks.check_distance_rows(out, vectors, top) == (6, 0)
    flipped = out.replace(",correct,", ",incorrect,", 1)
    if flipped == out:
        flipped = out.replace(",incorrect,", ",correct,", 1)
    assert checks.check_distance_rows(flipped, vectors, top) == (6, 1)


def test_angle_checks_reject_wrong_fractions(census_dir):
    rc, out, _ = workloads.call(["angles", "--taxa", 6, "--samples", 20000, "--seed", 2,
                                 "--per-topology", "--threads", 1, "--census", census_dir])
    assert rc == 0
    assert checks.check_topology_survey(out, 20000, 105)
    rows = list(csv.reader(io.StringIO(out)))
    rows[1][2] = repr(float(rows[1][2]) + 0.01)
    bad = io.StringIO()
    csv.writer(bad, lineterminator="\n").writerows(rows)
    assert not checks.check_topology_survey(bad.getvalue(), 20000, 105)

    good = ("label,samples,fraction,stderr\ntype-I,1000000,0.002888,4.9e-06\n"
            "type-II,1000000,0.001848,2.6e-06\ntype-III,1000000,0.002266,2.9e-06\n")
    assert checks.check_type_survey(good, 1000000)
    assert not checks.check_type_survey(good.replace("0.001848", "0.001948"), 1000000)


def test_exact_checks_reject_wrong_results(tmp_path):
    assert checks.check_census(6, 450, {"I": 90, "II": 180, "III": 180})
    assert not checks.check_census(6, 450, {"I": 91, "II": 179, "III": 180})
    fvec = " ".join(str(x) for x in checks.EXACT[6]["fvector"])
    assert checks.check_fvector(6, fvec + "\n")
    assert not checks.check_fvector(6, fvec.replace("1657", "1658"))
    cone = "# removed: 1 2 3\n6 15 22\n" + "".join("0 " * 14 + "1\n" for _ in range(22))
    assert checks.check_reduced_cone(6, cone)
    assert not checks.check_reduced_cone(6, cone.replace("6 15 22", "6 15 21"))

    inc = tmp_path / "inc"
    rc, out, _ = workloads.call(["polytope", "--taxa", 5, "--fvector", "--incidence", inc])
    assert rc == 0 and checks.check_fvector(5, out)
    lines = inc.read_text().splitlines()
    assert checks.check_incidence(5, "\n".join(lines))
    assert not checks.check_incidence(5, "\n".join(lines[1:]))
    normal, ids = lines[0].split(" | ")
    lines[0] = normal + " | " + " ".join(ids.split()[1:])
    assert not checks.check_incidence(5, "\n".join(lines))

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import njcones.cli
import njcones.polytopes
from njcones.cli import main
from njcones.cones import NJCone, first_step_cone, read_cone_text, write_cone_text
from njcones.simulate import build_model, tree_metric
from test_projection import equal_pendant_metric

census_module = importlib.import_module("njcones.census")  # njcones.census is the function

DEMO_CSV = "a,b,3\na,c,1.8\nb,c,2.8\na,d,2.5\nb,d,3.5\nc,d,1.3\n"
DEMO_PHYLIP = "4\na 0 3 1.8 2.5\nb 3 0 2.8 3.5\nc 1.8 2.8 0 1.3\nd 2.5 3.5 1.3 0\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_and_version(capsys):
    assert main(["--help"]) == 0
    assert "subcommand" in capsys.readouterr().out
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("nj ")
    for name in ("run", "polytope", "angles", "distance", "sim", "sim-gauss"):
        assert main([name, "--help"]) == 0
        text = capsys.readouterr().out
        assert "--" in text


def test_no_subcommand_and_unknown(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run"]) == 1  # --input is required
    capsys.readouterr()


def test_tolerance_options_are_gone(tmp_path, capsys):
    # ties and memberships are decided exactly, so there is no tolerance to set
    demo = tmp_path / "fig1.csv"
    demo.write_text(DEMO_CSV)
    vecs = tmp_path / "one.vecs"
    vecs.write_text(" ".join(["1"] * 10) + "\n")
    cone = tmp_path / "cone.txt"
    cone.write_text(write_cone_text(first_step_cone(9, 5)))
    for argv in (
        ["run", "--input", demo, "--tie-tol", "1e-9"],
        ["distance", "--input", vecs, "--true-tree", "((0,1),2,(3,4));",
         "--format", "vecs", "--tol", "1e-9"],
        ["cones", "member", "--in", cone, "--vector", ",".join(["1"] * 10), "--tol", "1e-9"],
    ):
        code, out, err = run_cli(capsys, *map(str, argv))
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err


def test_run_demo(tmp_path, capsys):
    f = tmp_path / "fig1.csv"
    f.write_text(DEMO_CSV)
    code, out, _ = run_cli(capsys, "run", "--input", str(f))
    assert code == 0
    assert out == "((a,b),(c,d));\n"


def test_run_trace_json(tmp_path, capsys):
    f = tmp_path / "fig1.csv"
    f.write_text(DEMO_CSV)
    code, out, _ = run_cli(capsys, "run", "--input", str(f), "--trace")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "((a,b),(c,d));"
    parsed = json.loads(lines[1])
    assert parsed  # trace payload is real JSON


def test_run_all_ties(tmp_path, capsys):
    rows = ["{},{},1".format(a, b) for a, b in ("ab", "ac", "ad", "bc", "bd", "cd")]
    f = tmp_path / "ones.csv"
    f.write_text("\n".join(rows) + "\n")
    code, out, _ = run_cli(capsys, "run", "--input", str(f), "--all-ties")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_run_phylip(tmp_path, capsys):
    f = tmp_path / "m.phy"
    f.write_text(DEMO_PHYLIP)
    code, out, _ = run_cli(
        capsys, "run", "--input", str(f), "--format", "phylip"
    )
    assert code == 0
    assert out == "((a,b),(c,d));\n"


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
@pytest.mark.parametrize(
    "fmt, text", [("csv", DEMO_CSV), ("phylip", DEMO_PHYLIP)], ids=["csv", "phylip"]
)
def test_run_rejects_non_finite_distances(tmp_path, capsys, fmt, text, bad):
    f = tmp_path / "m.txt"
    f.write_text(text.replace("1.8", bad))
    code, out, err = run_cli(capsys, "run", "--input", str(f), "--format", fmt)
    assert code == 2
    assert out == ""
    assert repr(bad) in err and "finite" in err


def test_run_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "run", "--input", str(tmp_path / "nope.csv"))
    assert code == 2
    assert "nj: error:" in err
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n")
    code, _, err = run_cli(capsys, "run", "--input", str(bad))
    assert code == 2
    assert "nj: error:" in err


def test_cones_build_reduce_member(tmp_path, capsys):
    cone_file = str(tmp_path / "cone9.txt")
    code, out, _ = run_cli(
        capsys,
        "cones",
        "build",
        "--taxa",
        "5",
        "--first-pick",
        "9",
        "--out",
        cone_file,
    )
    assert code == 0
    cone = read_cone_text(open(cone_file).read())
    assert cone.n == 5 and len(cone.normals) == 9

    code, out, _ = run_cli(capsys, "cones", "reduce", "--in", cone_file)
    assert code == 0
    assert out.startswith("# removed:")

    vec = ",".join("1" for _ in range(10))
    code, out, _ = run_cli(
        capsys, "cones", "member", "--in", cone_file, "--vector", vec
    )
    assert code == 0
    assert out.strip() == "boundary"  # equal entries sit on every wall

    code, _, err = run_cli(
        capsys, "cones", "member", "--in", cone_file, "--vector", "1,2,3"
    )
    assert code == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_cones_member_rejects_non_finite_vectors(tmp_path, capsys, bad):
    cone_file = tmp_path / "cone9.txt"
    cone_file.write_text(write_cone_text(first_step_cone(9, 5)))
    vec = ",".join(["1"] * 9 + [bad])
    code, out, err = run_cli(capsys, "cones", "member", "--in", str(cone_file), "--vector", vec)
    assert code == 2
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    "vec, verdict",
    [("-1,2,2,2,2,2,2,2,2,2", "outside"), ("-1,2,2,2,2,2,2,2,2,-3", "interior")],
)
def test_cones_member_takes_a_negative_first_entry(tmp_path, capsys, vec, verdict):
    # argparse reads "-1,..." as an option unless the CLI attaches it
    cone_file = tmp_path / "cone9.txt"
    cone_file.write_text(write_cone_text(first_step_cone(9, 5)))
    for argv in (["--vector", vec], [f"--vector={vec}"]):
        code, out, err = run_cli(capsys, "cones", "member", "--in", str(cone_file), *argv)
        assert code == 0, err
        assert out.strip() == verdict

    # a non-finite first entry reaches the finiteness check: exit 2, not 1
    bad = ",".join(["-inf"] + ["1"] * 9)
    code, out, err = run_cli(capsys, "cones", "member", "--in", str(cone_file), "--vector", bad)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_cones_build_needs_exactly_one_source(capsys):
    assert main(["cones", "build", "--taxa", "5"]) == 1
    assert (
        main(
            [
                "cones",
                "build",
                "--taxa",
                "5",
                "--first-pick",
                "1",
                "--trace",
                "{}",
            ]
        )
        == 1
    )
    capsys.readouterr()


def test_cones_build_rejects_bad_first_pick(capsys):
    for pick in ("-1", "10"):
        code, _, err = run_cli(
            capsys, "cones", "build", "--taxa", "5", "--first-pick", pick
        )
        assert code == 2
        assert "nj: error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["--taxa", "3", "--first-pick", "0"],
        ["--taxa", "2", "--first-pick", "0"],
        ["--trace", '{"n":3,"merges":[]}'],
    ],
)
def test_cones_build_needs_four_taxa(tmp_path, capsys, argv):
    # below four taxa the join makes no choice, so there is no cone to write
    code, out, err = run_cli(capsys, "cones", "build", *argv, "--out", str(tmp_path / "c"))
    assert code == 2
    assert out == ""
    assert "need at least 4 taxa" in err
    assert not (tmp_path / "c").exists()


def test_cones_reduce_finds_redundant_pair(tmp_path, capsys, census5):
    trace_json = census5.cones[27].trace.to_json()
    cone_file = str(tmp_path / "c34.txt")
    code, _, _ = run_cli(
        capsys, "cones", "build", "--trace", trace_json, "--out", cone_file
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "cones", "reduce", "--in", cone_file)
    assert code == 0
    assert out.splitlines()[0] == "# removed: 1 2"


def test_cones_reduce_drops_the_earlier_of_two_parallel_rows(tmp_path, capsys, census5):
    # rows 11 and 12 repeat row 0 and double row 3; rows 1 and 2 are redundant
    normals = census5.cones[27].normals
    rows = (*normals, normals[0], tuple(2 * v for v in normals[3]))
    cone_file = tmp_path / "parallel.txt"
    cone_file.write_text(write_cone_text(NJCone(5, rows)))
    code, out, _ = run_cli(capsys, "cones", "reduce", "--in", str(cone_file))
    assert code == 0
    assert out.splitlines()[0] == "# removed: 0 1 2 3"
    slim = read_cone_text(out)
    assert slim.normals == rows[4:]
    assert slim.irredundant


@pytest.mark.parametrize("count", [0, 1])
def test_cones_reduce_keeps_zero_or_one_normal(tmp_path, capsys, count):
    rows = first_step_cone(9, 5).normals[:count]
    cone_file = tmp_path / "small.txt"
    cone_file.write_text(write_cone_text(NJCone(5, rows)))
    code, out, _ = run_cli(capsys, "cones", "reduce", "--in", str(cone_file))
    assert code == 0
    assert out.splitlines()[0] == "# removed: "
    assert read_cone_text(out).normals == rows


def test_cones_reduce_refuses_an_empty_interior(tmp_path, capsys):
    cone_file = tmp_path / "flat.txt"
    h = (1, -1) + (0,) * 8
    cone_file.write_text(write_cone_text(NJCone(5, (h, tuple(-v for v in h)))))
    code, out, err = run_cli(capsys, "cones", "reduce", "--in", str(cone_file))
    assert code == 2
    assert out == ""
    assert "empty interior" in err


def test_polytope_outputs(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "polytope", "--taxa", "4")
    assert code == 0
    assert out.strip() == "vertices=3 dim=2 facets=3 facets_per_vertex=2"
    code, out, _ = run_cli(capsys, "polytope", "--taxa", "5", "--fvector")
    assert code == 0
    assert out.strip() == "1 10 45 90 75 22 1"
    inc = tmp_path / "inc.txt"
    code, _, _ = run_cli(
        capsys, "polytope", "--taxa", "4", "--fvector", "--incidence", str(inc)
    )
    assert code == 0
    assert len(inc.read_text().strip().splitlines()) == 3


def test_polytope_enumerates_facets_once(capsys, monkeypatch):
    calls = []
    original = njcones.polytopes.facet_enumeration

    def counted(P):
        calls.append(P.n)
        return original(P)

    monkeypatch.setattr(njcones.polytopes, "facet_enumeration", counted)
    monkeypatch.setattr(njcones.cli, "facet_enumeration", counted)
    code, out, _ = run_cli(capsys, "polytope", "--taxa", "5")
    assert code == 0
    assert out.strip() == "vertices=10 dim=5 facets=22 facets_per_vertex=12"
    assert calls == [5]


def test_angles_csv(capsys):
    argv = (
        "angles",
        "--taxa",
        "5",
        "--samples",
        "3000",
        "--seed",
        "0",
    )
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,samples,fraction,stderr"
    assert len(lines) == 32
    assert lines[-1].startswith("# discarded_ties ")
    code, out2, _ = run_cli(capsys, *argv)
    assert out2 == out  # same seed, same tallies


def test_angles_per_type_needs_six_taxa(capsys):
    code = main(
        [
            "angles",
            "--taxa",
            "5",
            "--samples",
            "100",
            "--seed",
            "0",
            "--per-type",
        ]
    )
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_angles_threads_below_one_is_a_usage_error(capsys, monkeypatch, threads):
    pools = []
    monkeypatch.setattr(census_module, "ThreadPoolExecutor", lambda **kw: pools.append(kw))
    code, out, err = run_cli(
        capsys, "angles", "--taxa", "5", "--samples", "100", "--seed", "0", "--threads", threads
    )
    assert code == 1
    assert out == "" and "--threads must be at least 1" in err
    assert pools == []


@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--taxa", "6", "--samples", "300000", "--seed", "7", "--per-topology"],
            "53dc49f99561359a7999d1582f7b91a5c6aa06bff3889706d9d95576ff4e5d38",
        ),
        (
            ["--taxa", "7", "--samples", "50000", "--seed", "7", "--per-type"],
            "e8444f27cebd38895f2280620b98409c843908efa3e3772de8ebb97dbd4daad4",
        ),
    ],
)
def test_angles_output_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "angles", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_angles_seven_taxa_per_type(capsys):
    code, out, _ = run_cli(
        capsys, "angles", "--taxa", "7", "--samples", "20000", "--seed", "0"
    )
    assert code == 0
    header, *rows, tail = out.strip().splitlines()
    assert header == "label,samples,fraction,stderr"
    labels = [r.split(",")[0] for r in rows]
    assert labels == [f"type-{t}" for t in "I II III IV V VI VII VIII IX X XI".split()]
    assert tail.startswith("# discarded_ties ")
    # seven classes of 630 cones and four of 1,260; their masses add up to one
    sizes = [630] * 4 + [1260, 630, 1260, 630, 630, 1260, 1260]
    mass = sum(float(r.split(",")[2]) * k for r, k in zip(rows, sizes))
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_distance_vecs(tmp_path, capsys):
    d = tree_metric(build_model("T1"))
    good = " ".join(str(x) for x in d.values)
    f = tmp_path / "vecs.txt"
    f.write_text(f"# two inputs\n{good}\n{' '.join(['1'] * 10)}\n")
    code, out, _ = run_cli(
        capsys,
        "distance",
        "--input",
        str(f),
        "--true-tree",
        "((0,1),2,(3,4));",
        "--format",
        "vecs",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,verdict,boundary_distance,nearest_region"
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "correct"


# sha256 of `nj distance --format vecs` on 30 noisy copies of each six-taxa
# tree metric (pendant edges 0.42, interior 0.03), sigma 0, 0.02 and 0.05 in
# turn.  The sigma = 0 rows of both trees are equidistant from two regions,
# and the order of visits on equal bounds, then rounding, decide which one
# they name: a change that flips them re-pins this.  The caterpillar's
# (ids 0, 3, ..., 27) name (((0,2),1),(3,(4,5))); since the screen's slacks
# are rounded once (rational.products).
PINNED_DISTANCE = {
    "((((0,1),2),3),4,5);": "c5536e966af619c8b630e1d72a15ac49427ac566503e99ef79f65be63d5aec30",
    "((0,1),(2,3),(4,5));": "391604334f5305c9d237b108382b44ff7623350267b31bee240f76d93ae0e962",
}


@pytest.mark.parametrize("newick", sorted(PINNED_DISTANCE))
def test_distance_output_is_pinned(tmp_path, capsys, newick):
    _, base = equal_pendant_metric(newick)
    sigma = np.resize([0.0, 0.02, 0.05], 30)[:, None]
    V = base + sigma * np.random.default_rng(23).standard_normal((30, base.size))
    f = tmp_path / "six.vecs"
    f.write_text("".join(" ".join(map(repr, v)) + "\n" for v in V.tolist()))
    code, out, _ = run_cli(
        capsys, "distance", "--input", str(f), "--true-tree", newick, "--format", "vecs"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_DISTANCE[newick]


def test_cone_objects_are_built_only_on_request(tmp_path, capsys, monkeypatch):
    # the margin, sim and per-topology angle paths read the census's stack,
    # split sets and types; NJCone objects wait until cones is read
    built = []
    real = NJCone.__post_init__

    def counted(self):
        built.append(self)
        real(self)

    monkeypatch.setattr(NJCone, "__post_init__", counted)
    for n in (5, 6, 7):
        census_module.census(n)
    top, base = equal_pendant_metric("((0,1),(2,3),(4,5));")
    vecs = tmp_path / "six.vecs"
    vecs.write_text(" ".join(map(repr, base.tolist())) + "\n")
    for argv in (
        ["distance", "--input", vecs, "--true-tree", top.newick(), "--format", "vecs"],
        ["sim", "--tree", "T1", "--sites", "50", "--reps", "4", "--seed", "0",
         "--out", tmp_path / "sim"],
        ["sim-gauss", "--tree", "T1", "--sigma-grid", "0:0.1:0.1", "--reps", "2",
         "--seed", "0", "--out", tmp_path / "gauss"],
        ["angles", "--taxa", "6", "--samples", "1000", "--seed", "0", "--per-topology"],
    ):
        assert run_cli(capsys, *map(str, argv))[0] == 0
    assert built == []
    cns = census_module.census(6)
    assert len(cns.cones) == len(built) == len(cns.splits) == 450
    assert cns.cones is cns.cones and len(built) == 450


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "1e999"])
def test_distance_rejects_non_finite_vectors(tmp_path, capsys, bad):
    good = " ".join(str(x) for x in tree_metric(build_model("T1")).values)
    f = tmp_path / "vecs.txt"
    f.write_text(f"# header\n{good}\n\n{' '.join(['1'] * 9 + [bad])}\n{good}\n")
    code, out, err = run_cli(
        capsys,
        "distance",
        "--input",
        str(f),
        "--true-tree",
        "((0,1),2,(3,4));",
        "--format",
        "vecs",
    )
    assert code == 2
    assert out == ""
    assert "line 4" in err and "finite" in err


def test_distance_needs_five_or_six_taxa(tmp_path, capsys):
    f = tmp_path / "vecs.txt"
    f.write_text(" ".join(["1"] * 21) + "\n")
    code, out, err = run_cli(
        capsys,
        "distance",
        "--input",
        str(f),
        "--true-tree",
        "((((0,1),2),3),4,(5,6));",
        "--format",
        "vecs",
    )
    assert code == 2
    assert out == ""
    assert "5 or 6 taxa" in err


def test_sim_writes_run_directory(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    argv = [
        "sim",
        "--tree",
        "T2",
        "--sites",
        "80",
        "--reps",
        "8",
        "--seed",
        "5",
        "--out",
        str(out_dir),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    records = (out_dir / "records.csv").read_text()
    assert len(records.strip().splitlines()) == 9
    assert (out_dir / "summary.csv").exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["subcommand"] == "sim"
    assert manifest["seed"] == 5
    assert manifest["config"]["sites"] == 80
    # reproducible from the manifest alone
    out2 = tmp_path / "exp2"
    argv[argv.index(str(out_dir))] = str(out2)
    assert main(argv) == 0
    capsys.readouterr()
    assert (out2 / "records.csv").read_text() == records


def test_sim_gauss_writes_curve(tmp_path, capsys):
    out_dir = tmp_path / "gauss"
    code = main(
        [
            "sim-gauss",
            "--tree",
            "T1",
            "--sigma-grid",
            "0:0.1:0.2",
            "--reps",
            "5",
            "--seed",
            "1",
            "--out",
            str(out_dir),
        ]
    )
    capsys.readouterr()
    assert code == 0
    curve = (out_dir / "curve.csv").read_text().strip().splitlines()
    assert len(curve) == 4
    assert json.loads((out_dir / "manifest.json").read_text())["subcommand"] == (
        "sim-gauss"
    )


def test_sim_gauss_rejects_bad_grid(tmp_path, capsys):
    code = main(
        [
            "sim-gauss",
            "--tree",
            "T1",
            "--sigma-grid",
            "1:0:0",
            "--reps",
            "2",
            "--seed",
            "0",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    _, err = capsys.readouterr()
    assert code == 2
    assert "nj: error:" in err


def test_sigma_grid_does_not_depend_on_scale():
    unit = njcones.cli._parse_grid("0:1:5")
    assert unit == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    for scale in (1e-13, 1e-3, 1e13):
        got = njcones.cli._parse_grid(f"0:{scale!r}:{5 * scale!r}")
        assert got == [float(f"{k * scale:.12g}") for k in range(6)]
    # the grids of the pinned curves
    assert njcones.cli._parse_grid("0:0.05:0.3") == [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    assert njcones.cli._parse_grid("1:0.7:9")[-1] == 8.7
    assert len(njcones.cli._parse_grid("0:0.01:1")) == 101
    with pytest.raises(ValueError, match="12 significant digits"):
        njcones.cli._parse_grid("1:1e-15:2")
    for bad in ("0:1:inf", "0:1:nan", "nan:1:2", "0:inf:1"):
        with pytest.raises(ValueError, match="finite"):
            njcones.cli._parse_grid(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["angles", "--taxa", "5", "--samples", "100", "--seed", "0"],
        ["distance", "--input", "{vecs}", "--true-tree", "((0,1),2,(3,4));",
         "--format", "vecs"],
        ["sim", "--tree", "T1", "--sites", "50", "--reps", "2", "--seed", "0",
         "--out", "{out}"],
        ["sim-gauss", "--tree", "T1", "--sigma-grid", "0:0.1:0.1", "--reps", "2",
         "--seed", "0", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_census_flag_is_accepted_and_ignored(tmp_path, capsys, argv):
    vecs = tmp_path / "one.vecs"
    vecs.write_text(" ".join(["1"] * 10) + "\n")
    census_dir = tmp_path / "census"
    census_dir.mkdir()
    args = [a.format(vecs=vecs, out=tmp_path / "out") for a in argv]
    assert main(args + ["--census", str(census_dir)]) == 0
    capsys.readouterr()
    assert list(census_dir.iterdir()) == []


SRC = Path(__file__).resolve().parents[1] / "src"
# criterion 4's cone: pick {3,4} first, then {0,1}
CRITERION4_TRACE = '{"n": 5, "merges": [[[3], [4]], [[0], [1]]]}'
CRITERION4_REDUCED = """\
# removed: 1 2
# label: 3-4+0-1
# trace: {"n": 5, "merges": [[[3], [4]], [[0], [1]]]}
# topology: ((0,1),2,(3,4));
# irredundant: true
5 10 9
1 -1 -1 0 0 1 0 0 1 -1
-1 -1 0 2 0 0 0 1 1 -2
-1 0 -1 0 2 0 1 0 1 -2
0 -1 -1 0 0 2 1 1 0 -2
-1 -1 0 0 1 1 2 0 0 -2
-1 0 -1 1 0 1 0 2 0 -2
0 -1 -1 1 1 0 0 0 2 -2
-2 2 0 0 1 -1 0 1 -1 0
-2 0 2 1 0 -1 1 0 -1 0
"""
# Imports the CLI in a fresh interpreter, runs each argv of the JSON list
# in argv[1] through cli.main, and prints per call whether scipy.optimize
# is loaded after it.
IMPORT_PROBE = """\
import contextlib, io, json, sys
from njcones import cli
report = ["scipy.optimize" in sys.modules]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    report.append([argv[0], rc, out.getvalue(), "scipy.optimize" in sys.modules])
print(json.dumps(report))
"""


def test_no_command_loads_scipy_optimize(tmp_path):
    demo = tmp_path / "fig1.csv"
    demo.write_text(DEMO_CSV)
    vecs = tmp_path / "one.vecs"
    vecs.write_text(" ".join(["1"] * 10) + "\n")
    cone = str(tmp_path / "cone.txt")
    calls = [
        ["run", "--input", str(demo)],
        ["cones", "build", "--trace", CRITERION4_TRACE, "--out", cone],
        ["cones", "member", "--in", cone, "--vector", ",".join(["1"] * 10)],
        ["polytope", "--taxa", "5", "--fvector"],
        ["sim", "--tree", "T1", "--reps", "3", "--seed", "0",
         "--out", str(tmp_path / "sim")],
        ["distance", "--input", str(vecs), "--true-tree", "((0,1),2,(3,4));",
         "--format", "vecs"],
        ["angles", "--taxa", "5", "--samples", "2000", "--seed", "0"],
        ["cones", "reduce", "--in", cone],
    ]
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(calls)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    loaded_at_import, *results = json.loads(child.stdout)
    assert not loaded_at_import
    assert [(name, code, seen) for name, code, _, seen in results] == [
        (argv[0], 0, False) for argv in calls
    ]
    assert results[-1][2] == CRITERION4_REDUCED


def test_one_parser_serves_every_call(tmp_path, capsys, monkeypatch):
    demo = tmp_path / "fig1.csv"
    demo.write_text(DEMO_CSV)
    angles = ["angles", "--samples", "2000", "--seed", "3"]
    calls = [
        [*angles, "--taxa", "6", "--per-type"],
        [*angles, "--taxa", "5"],  # per-cone unless --per-type carried over
        ["run", "--input", str(demo), "--trace"],
        ["run", "--no-such-flag"],
        ["run", "--input", str(demo)],
    ]
    assert njcones.cli.build_parser() is njcones.cli.build_parser()
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 0, 0, 1, 0]
    monkeypatch.setattr(njcones.cli, "build_parser", njcones.cli.build_parser.__wrapped__)
    fresh = [run_cli(capsys, *argv) for argv in calls]
    assert shared == fresh

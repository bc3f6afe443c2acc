import json

import pytest

import njcones.cli
import njcones.polytopes
from njcones.cli import main
from njcones.cones import read_cone_text
from njcones.simulate import build_model, tree_metric

DEMO_CSV = "a,b,3\na,c,1.8\nb,c,2.8\na,d,2.5\nb,d,3.5\nc,d,1.3\n"


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
    f.write_text(
        "4\n"
        "a 0 3 1.8 2.5\n"
        "b 3 0 2.8 3.5\n"
        "c 1.8 2.8 0 1.3\n"
        "d 2.5 3.5 1.3 0\n"
    )
    code, out, _ = run_cli(
        capsys, "run", "--input", str(f), "--format", "phylip"
    )
    assert code == 0
    assert out == "((a,b),(c,d));\n"


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

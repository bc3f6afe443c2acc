"""The `nj` command line: one binary over the whole toolbox.

Exit codes: 0 success, 1 usage errors (bad flags, unknown subcommands),
2 computation or input-content errors.  Stochastic subcommands demand an
explicit --seed; sim and sim-gauss also stamp a manifest next to their
outputs so any run can be reproduced from the directory alone.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .census import census, solid_angles_mc
from .cones import (
    cone_from_trace,
    first_step_cone,
    irredundant,
    membership,
    read_cone_text,
    write_cone_text,
)
from .distvec import (
    InputFormatError,
    num_pairs,
    parse_pair_csv,
    parse_phylip,
)
from .nj import BranchLimitExceeded, CherryTrace, nj_run, unique_topologies
from .polytopes import (
    build_p,
    f_vector,
    facet_enumeration,
    table_row,
    write_incidence_text,
)
from .projection import distances_to_wrong
from .simulate import (
    ExperimentConfig,
    _g,
    build_model,
    curve_csv,
    gaussian_experiment,
    records_csv,
    run_experiment,
    summary_csv,
)
from .trees import TreeError, TreeTopology


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def _write_manifest(out: Path, subcommand: str, config: dict, seed, inputs, started):
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "version": __version__,
        "input_digests": {str(p): _sha256(Path(p)) for p in inputs},
        "started": started,
        "finished": _utc(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _read_vector_file(path: str, fmt: str):
    text = Path(path).read_text()
    if fmt == "phylip":
        return parse_phylip(text)
    return parse_pair_csv(text)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_run(args) -> int:
    vec, names = _read_vector_file(args.input, args.format)
    results = nj_run(vec, tie_tol=args.tie_tol)
    if args.all_ties or args.trace:
        for tr, top in results:
            print(top.newick(names))
            if args.trace:
                print(tr.to_json())
    else:
        for top in unique_topologies(results):
            print(top.newick(names))
    return 0


def _cmd_cones_build(args) -> int:
    if (args.first_pick is None) == (args.trace is None):
        raise SystemExit(_usage(args, "give exactly one of --first-pick or --trace"))
    if args.first_pick is not None:
        if args.taxa is None:
            raise SystemExit(_usage(args, "--first-pick needs --taxa"))
        cone = first_step_cone(args.first_pick, args.taxa)
    else:
        cone = cone_from_trace(CherryTrace.from_json(args.trace))
    text = write_cone_text(cone)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cones_reduce(args) -> int:
    cone = read_cone_text(Path(args.infile).read_text())
    slim = irredundant(cone)
    text = f"# removed: {' '.join(str(i) for i in slim.removed)}\n" + write_cone_text(
        slim
    )
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_cones_member(args) -> int:
    cone = read_cone_text(Path(args.infile).read_text())
    vals = [float(x) for x in args.vector.replace(",", " ").split()]
    if len(vals) != num_pairs(cone.n):
        raise ValueError(
            f"vector has {len(vals)} entries, cone needs {num_pairs(cone.n)}"
        )
    print(membership(cone, vals, tol=args.tol))
    return 0


def _cmd_polytope(args) -> int:
    inc = facet_enumeration(build_p(args.taxa))
    if args.fvector:
        print(" ".join(str(c) for c in f_vector(inc)))
    else:
        row = table_row(inc)
        print(
            f"vertices={row.vertices} dim={row.dim} facets={row.facets} "
            f"facets_per_vertex={row.facets_per_vertex}"
        )
    if args.incidence:
        Path(args.incidence).write_text(write_incidence_text(inc))
    return 0


def _cmd_angles(args) -> int:
    cns = census(args.taxa)
    mode = args.mode or ("per-type" if args.taxa == 6 else "per-cone")
    if mode == "per-type" and args.taxa != 6:
        raise SystemExit(_usage(args, "--per-type applies only to --taxa 6"))
    survey = solid_angles_mc(cns, args.samples, args.seed, threads=args.threads)
    if mode == "per-cone":
        rows = survey.estimates(cns)
    elif mode == "per-type":
        rows = survey.per_type(cns)
    else:
        rows = survey.per_topology(cns)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["label", "samples", "fraction", "stderr"])
    for est in rows:
        out.writerow([est.label, est.samples, _g(est.fraction), _g(est.stderr)])
    print(f"# discarded_ties {survey.discarded}")
    return 0


def _cmd_distance(args) -> int:
    names = None
    if args.format == "vecs":
        rows = []  # (where in the input, vector)
        text = Path(args.input).read_text()
        for k, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if line and not line.startswith("#"):
                rows.append((f"line {k}", [float(x) for x in line.replace(",", " ").split()]))
        if not rows:
            raise ValueError("no vectors in input file")
    else:
        vec, names = _read_vector_file(args.input, args.format)
        rows = [(args.input, list(vec.as_array()))]
    true_top = TreeTopology.from_newick(args.true_tree, names)
    n = true_top.n
    for where, v in rows:
        if len(v) != num_pairs(n):
            raise ValueError(f"{where}: vector length does not match the tree's taxon count")
        if not all(map(math.isfinite, v)):
            raise ValueError(f"{where}: distances must be finite")
    cns = census(n)
    records = distances_to_wrong([v for _, v in rows], true_top, cns.cones, tol=args.tol)
    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["id", "verdict", "boundary_distance", "nearest_region"])
    for i, rec in enumerate(records):
        out.writerow([i, rec.verdict, _g(rec.boundary_distance), rec.nearest_region])
    return 0


def _cmd_sim(args) -> int:
    started = _utc()
    model = build_model(args.tree, args.a, args.b)
    config = ExperimentConfig(
        model=model,
        submodel=args.model,
        sites=args.sites,
        replicates=args.reps,
        seed=args.seed,
        kappa=args.kappa,
    )
    cns = census(5)
    report = run_experiment(config, cns)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "records.csv").write_text(records_csv(report))
    (out / "summary.csv").write_text(summary_csv(report))
    _write_manifest(
        out,
        "sim",
        {
            "tree": args.tree,
            "a": args.a,
            "b": args.b,
            "model": args.model,
            "kappa": args.kappa,
            "sites": args.sites,
            "reps": args.reps,
        },
        args.seed,
        [],
        started,
    )
    return 0


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("sigma grid must look like start:step:stop")
    start, step, stop = (float(x) for x in parts)
    if step <= 0 or stop < start:
        raise ValueError("sigma grid needs step > 0 and stop >= start")
    grid = []
    k = 0
    while True:
        x = start + k * step
        if x > stop + 1e-12:
            break
        grid.append(round(x, 12))
        k += 1
    return grid


def _cmd_sim_gauss(args) -> int:
    started = _utc()
    model = build_model(args.tree, args.a, args.b)
    grid = _parse_grid(args.sigma_grid)
    cns = census(5)
    points = gaussian_experiment(model, grid, args.reps, args.seed, cns)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "curve.csv").write_text(curve_csv(points))
    _write_manifest(
        out,
        "sim-gauss",
        {
            "tree": args.tree,
            "a": args.a,
            "b": args.b,
            "sigma_grid": args.sigma_grid,
            "reps": args.reps,
        },
        args.seed,
        [],
        started,
    )
    return 0


def _usage(args, message: str) -> int:
    print(f"nj {args.subcommand}: error: {message}", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Parser wiring


def build_parser() -> _Parser:
    parser = _Parser(prog="nj", description=__doc__)
    parser.add_argument("--version", action="version", version=f"nj {__version__}")
    sub = parser.add_subparsers(
        dest="subcommand", metavar="subcommand", parser_class=_Parser
    )

    run = sub.add_parser("run", help="join pairs on one input")
    run.add_argument("--input", required=True, help="distance file")
    run.add_argument("--format", choices=("csv", "phylip"), default="csv")
    run.add_argument("--trace", action="store_true", help="also print traces as JSON")
    run.add_argument("--all-ties", action="store_true", help="one line per tied run")
    run.add_argument("--tie-tol", type=float, default=1e-9)
    run.set_defaults(func=_cmd_run)

    cones = sub.add_parser("cones", help="cone files")
    csub = cones.add_subparsers(
        dest="cones_command", metavar="action", parser_class=_Parser
    )
    build = csub.add_parser("build")
    build.add_argument("--taxa", type=int)
    build.add_argument("--first-pick", type=int, help="flat pair index")
    build.add_argument("--trace", help="trace as JSON")
    build.add_argument("--out")
    build.set_defaults(func=_cmd_cones_build)
    reduce_ = csub.add_parser("reduce")
    reduce_.add_argument("--in", dest="infile", required=True)
    reduce_.add_argument("--out")
    reduce_.set_defaults(func=_cmd_cones_reduce)
    member = csub.add_parser("member")
    member.add_argument("--in", dest="infile", required=True)
    member.add_argument("--vector", required=True, help="comma or space separated")
    member.add_argument("--tol", type=float, default=1e-9)
    member.set_defaults(func=_cmd_cones_member)

    poly = sub.add_parser("polytope", help="vertex polytopes")
    poly.add_argument("--taxa", type=int, required=True)
    poly.add_argument("--fvector", action="store_true")
    poly.add_argument("--incidence", help="write facet/vertex incidence here")
    poly.set_defaults(func=_cmd_polytope)

    angles = sub.add_parser("angles", help="MC solid angles")
    angles.add_argument("--taxa", type=int, choices=(5, 6), required=True)
    angles.add_argument("--samples", type=int, required=True)
    angles.add_argument("--seed", type=int, required=True)
    mode = angles.add_mutually_exclusive_group()
    mode.add_argument(
        "--per-cone", dest="mode", action="store_const", const="per-cone"
    )
    mode.add_argument(
        "--per-type", dest="mode", action="store_const", const="per-type"
    )
    mode.add_argument(
        "--per-topology", dest="mode", action="store_const", const="per-topology"
    )
    angles.add_argument("--threads", type=int)
    # --census DIR is accepted and ignored here and on distance, sim and
    # sim-gauss, so that command lines naming a census directory still run
    angles.add_argument("--census", help=argparse.SUPPRESS)
    angles.set_defaults(func=_cmd_angles, mode=None)

    dist = sub.add_parser("distance", help="margins to cones")
    dist.add_argument("--input", required=True)
    dist.add_argument("--true-tree", required=True, help="Newick")
    dist.add_argument("--census", help=argparse.SUPPRESS)
    dist.add_argument("--format", choices=("csv", "phylip", "vecs"), default="csv")
    dist.add_argument("--tol", type=float, default=1e-9)
    dist.set_defaults(func=_cmd_distance)

    sim = sub.add_parser("sim", help="sequence experiment")
    sim.add_argument("--tree", choices=("T1", "T2"), required=True)
    sim.add_argument("--a", type=float, default=0.03)
    sim.add_argument("--b", type=float, default=0.42)
    sim.add_argument("--model", choices=("jc", "k2p"), default="jc")
    sim.add_argument("--kappa", type=float, default=2.0)
    sim.add_argument("--sites", type=int, default=500)
    sim.add_argument("--reps", type=int, default=10_000)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True)
    sim.add_argument("--census", help=argparse.SUPPRESS)
    sim.set_defaults(func=_cmd_sim)

    gauss = sub.add_parser("sim-gauss", help="noise curve")
    gauss.add_argument("--tree", choices=("T1", "T2"), required=True)
    gauss.add_argument("--a", type=float, default=0.03)
    gauss.add_argument("--b", type=float, default=0.42)
    gauss.add_argument("--sigma-grid", default="0:0.05:0.5")
    gauss.add_argument("--reps", type=int, default=1000)
    gauss.add_argument("--seed", type=int, required=True)
    gauss.add_argument("--out", required=True)
    gauss.add_argument("--census", help=argparse.SUPPRESS)
    gauss.set_defaults(func=_cmd_sim_gauss)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    func = getattr(args, "func", None)
    if func is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        rc = func(args)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 1
    except BrokenPipeError:
        return 0
    except (
        InputFormatError,
        TreeError,
        BranchLimitExceeded,
        ValueError,
        ArithmeticError,
        KeyError,
        OSError,
        RuntimeError,
    ) as exc:
        print(f"nj: error: {exc}", file=sys.stderr)
        return 2
    return int(rc or 0)


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Time per call in the layers of `nj sim`, `nj distance` and `nj polytope`.

Runs `nj sim --tree T1|T2` (JC, 500 sites) and, DISTANCE_CALLS times,
`nj distance --format vecs` on noisy six-taxa caterpillar metrics in this
process, with a timer around each layer's functions (the `nj distance`
figures are medians over its calls), then calls the layers of
`nj polytope` directly, and prints one JSON object:

- startup: what every `nj` call pays before it runs, the median wall
  time and peak RSS (`ru_maxrss`) of `import njcones.cli` over 5 fresh
  interpreters, whether that import loaded scipy.optimize and whether a
  following `nj cones build` and `nj cones reduce` on the first
  five-taxa type-I trace did, and the milliseconds per
  `cli.build_parser` call (median of 200), of which `cli.main` makes
  one per call;
- simulate: `simulate_alignment`, or its block form `_simulate_block`,
  less the seeks it makes (counted under rng);
- estimate: `estimate_distances`, or its block form `_estimates`;
- screen: `distance_to_wrong` / `distances_to_wrong` minus the time
  spent in the projections and in the slack kernel;
- slacks: the screen's product kernel `rational.products` (as
  `projection.products`), which gives every slack rounded once with its
  exact sign, so also the verdict (counted in the screen in packages
  without it);
- nnls: the projections themselves, the stacked NNLS kernel
  `projection._nnls`, or `nearest_point` in packages without it;
- rng (`nj sim` only): making and positioning the generators: each
  block's `keyed_stream` and its per-segment `_seek`s, or each
  replicate's `_replicate_rng` in packages that draw per replicate;
- census: the command's one `census(n)` call (n = 5 for `nj sim`, 6 for
  `nj distance`), spread over its replicates or vectors;
- distance_nnls_per_vector (`nj distance` only): the NNLS problems
  `projection._nnls` was given, its steps (`projection._refit` problem
  refits: each entering step or step back of one problem) and its early
  exits (problems returned above the cutoff `_margins` gave them), per
  vector, medians over the calls; steps need a package with `_refit`
  and exits one whose `_nnls` takes a cutoff;
- report (`nj sim` only): `run_experiment`'s own time, outside the
  layers above, which joins the blocks' estimates into the report;
- csv (`nj sim` only): `records_csv` and `summary_csv`;
- polytope_ms: milliseconds per call of `facet_enumeration(build_p(n))`,
  `f_vector`, `polytope_vertices` and `table_row` at n = 5 and 6, median
  of three calls each after one warm-up enumeration;
- census: milliseconds per `census(5)`, `census(6)` and `census(7)` call
  (median of seven after one warm-up), rows per second of
  `classify_batch(6)` and `classify_batch(7)` on one sampler chunk of
  Gaussian rows (median of three), microseconds per `TreeTopology` built
  from the edge lists of 1,000 random trees on 5-20 leaves, and
  microseconds per `cone_from_trace` call over the 450 six-taxa census
  traces (each a median of three passes); and milliseconds for the
  first read of `cones` and, apart, of `topology_index` of a census(n)
  at n = 5, 6 and 7 (median over five fresh census(n) objects each;
  reading `cones` builds `topology_index` too);
- irredundant: milliseconds per `cones.irredundant` call on the first
  census cone of each six-taxa type, and of the `interior_point` and the
  NNLS proposal calls inside it (stacked `cones._nnls` calls, or
  one-normal `cones.nnls` calls in packages without them), each a median
  of three calls after one warm-up; the proposal calls each one makes,
  the normals proposed again after the first call (reproposed), and its
  `feasible_point` calls, the interior point's and one per normal whose
  proposals did not check out;
- sampler: seconds per `solid_angles_mc(census(6), samples)` call (median
  of three) at 1,000 and 2,000,000 samples and 1 and 2 threads, with the
  rows it handed to `classify_batch`;
- tie_rule: microseconds per `nj_run` row on 500 Gaussian six-taxa rows
  (median of three passes); for `distances_to_wrong` on 300 copies of
  the six-taxa caterpillar metric (sigma 0, every row on cone
  boundaries) and on 300 noisy copies (sigma 0.02), the microseconds
  per vector of the screen's product kernel `products` (or of the
  verdict step `_in_some_cone` in packages without it); and
  microseconds per row of `classify_batch(6)` on 400 near ties (small
  integers moved by 2**-50, median of three calls).  Each comes with
  the rows handed to the exact kernel, `rational.products` or
  `rational.signs` (exact_rows), and the rows taken to Python integers
  by `rational.primitive` (primitive_rows, the kernel's fallback); in
  packages without a kernel every exact row is a primitive row.

Only the outermost call of a layer is timed, so a one-row wrapper around
a block function is not counted twice.  Layer functions absent from the
package on the path are skipped, which lets the same script time older
and newer versions of the package (the census part needs a package
whose census reaches 7 taxa):

    PYTHONPATH=src python3 scripts/layer_times.py
"""

import contextlib
import functools
import importlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from njcones import cli, cones, polytopes, projection, rational, simulate, trees
from njcones.census import _CHUNK, census, classify_batch
from njcones.distvec import DissimilarityVector
from njcones.nj import nj_run

census_module = importlib.import_module("njcones.census")  # njcones.census is the function

LAYERS = {
    "simulate": ((simulate, "simulate_alignment"), (simulate, "_simulate_block")),
    "estimate": ((simulate, "estimate_distances"), (simulate, "_estimates")),
    "margin": ((projection, "distance_to_wrong"), (projection, "distances_to_wrong")),
    "nnls": ((projection, "nearest_point"), (projection, "_nnls")),
    "slacks": ((projection, "products"),),
    "rng": ((simulate, "_replicate_rng"), (simulate, "keyed_stream")),
    "seek": ((simulate, "_seek"),),
    "census": ((census_module, "census"),),
    "run": ((simulate, "run_experiment"),),
    "csv": ((simulate, "records_csv"), (simulate, "summary_csv")),
}
CATERPILLAR = "((((0,1),2),3),4,5);"
REPS = 2000  # replicates of each of T1 and T2
VECS = 600   # noisy six-taxa vectors
DISTANCE_CALLS = 5  # `nj distance` calls on them, one figure each
SEED = 1
POLYTOPE_TAXA = (5, 6)
POLYTOPE_CALLS = 3  # timed calls per polytope layer
CENSUS_CALLS = 7
CENSUS_READS = 5  # fresh census(n) objects timed for each first read
TREES = 1000  # random trees timed for TreeTopology construction
IMPORTS = 5  # fresh interpreters timed importing the CLI
PARSER_CALLS = 200
SAMPLER_SAMPLES = (1_000, 2_000_000)
SAMPLER_CALLS = 3
NJ_RUN_ROWS = 500
VERDICT_ROWS = 300
# Run in a fresh interpreter: time `import njcones.cli`, then report it
# with the process's peak RSS and whether scipy.optimize came along, and
# whether it did once `nj cones reduce` ran.
IMPORT_PROBE = """\
import time
start = time.perf_counter()
import njcones.cli
seconds = time.perf_counter() - start
import contextlib, io, json, resource, sys, tempfile
report = {"s": seconds,
          "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
          "scipy_optimize": "scipy.optimize" in sys.modules}
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    trace = '{"n": 5, "merges": [[[0], [1]], [[0, 1], [4]]]}'
    njcones.cli.main(["cones", "build", "--trace", trace, "--out", tmp + "/c"])
    njcones.cli.main(["cones", "reduce", "--in", tmp + "/c", "--out", tmp + "/r"])
report["reduce_scipy_optimize"] = "scipy.optimize" in sys.modules
print(json.dumps(report))
"""


def instrument(totals: dict) -> None:
    """Wrap every layer function that exists; add outermost call time to totals."""
    depth = dict.fromkeys(LAYERS, 0)
    for layer, targets in LAYERS.items():
        for module, name in targets:
            fn = getattr(module, name, None)
            if fn is None:
                continue

            @functools.wraps(fn)
            def timed(*args, _fn=fn, _layer=layer, **kwargs):
                depth[_layer] += 1
                start = time.perf_counter()
                try:
                    return _fn(*args, **kwargs)
                finally:
                    depth[_layer] -= 1
                    if depth[_layer] == 0:
                        totals[_layer] += time.perf_counter() - start

            for mod in (cli, projection, simulate):
                if getattr(mod, name, None) is fn:
                    setattr(mod, name, timed)


def margin_census(cns):
    """What distances_to_wrong takes: the census, or its cones in packages
    that stack the normals on each call."""
    return cns.cones if hasattr(projection, "_normal_index") else cns


def caterpillar_metric() -> np.ndarray:
    """Path lengths of the caterpillar with pendant 0.42 and interior 0.03."""
    pos = [0.0, 0.0, 0.03, 0.06, 0.09, 0.09]  # position of each leaf's attachment
    return np.array(
        [abs(pos[a] - pos[b]) + 0.84 for a in range(1, 6) for b in range(a)]
    )


def per_unit(totals: dict, units: int) -> dict:
    out = {k: v / units * 1e6 for k, v in totals.items()}
    out["screen"] = out.pop("margin") - out["nnls"] - out["slacks"]
    out["simulate"] -= out["seek"]  # a block seeks inside _simulate_block
    out["rng"] += out.pop("seek")
    run = out.pop("run")
    if run:  # nj sim: run_experiment's time outside its inner layers
        inner = ("simulate", "rng", "estimate", "screen", "slacks", "nnls")
        out["report"] = run - sum(out[k] for k in inner)
    return {k: round(v, 1) for k, v in out.items() if v}


def median_time(call, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def startup_times() -> dict:
    """What every `nj` call pays before it runs: import, then parser."""
    runs = [
        json.loads(subprocess.run([sys.executable, "-c", IMPORT_PROBE], check=True,
                                  capture_output=True, text=True).stdout)
        for _ in range(IMPORTS)
    ]
    return {
        "import_s": round(statistics.median(r["s"] for r in runs), 3),
        "import_rss_mb": round(statistics.median(r["rss_mb"] for r in runs), 1),
        "scipy_optimize_loaded": any(r["scipy_optimize"] for r in runs),
        "cones_reduce_loads_scipy_optimize": any(r["reduce_scipy_optimize"] for r in runs),
        "build_parser_ms": round(median_time(cli.build_parser, PARSER_CALLS) * 1e3, 4),
    }


def polytope_ms() -> dict:
    """Median milliseconds per call of each exact polytope layer, per n."""
    out = {}
    for n in POLYTOPE_TAXA:
        inc = polytopes.facet_enumeration(polytopes.build_p(n))
        layers = {
            "facet_enumeration": lambda: polytopes.facet_enumeration(
                polytopes.build_p(n)
            ),
            "f_vector": lambda: polytopes.f_vector(inc),
            "polytope_vertices": lambda: polytopes.polytope_vertices(inc),
            "table_row": lambda: polytopes.table_row(inc),
        }
        out[str(n)] = {
            name: round(median_time(call, POLYTOPE_CALLS) * 1e3, 2)
            for name, call in layers.items()
        }
    return out


def first_read_time(n: int, name: str) -> float:
    """Median seconds of the first read of census attribute name, each
    time on a fresh census(n), whose build is not timed."""
    times = []
    for _ in range(CENSUS_READS):
        cns = census(n)
        start = time.perf_counter()
        getattr(cns, name)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def census_times() -> dict:
    """census(n) in ms, classify_batch(6) and (7) in rows/s, TreeTopology and
    cone_from_trace in us per call, first reads of cones and topology_index
    in ms."""
    out = {}
    for n in (5, 6, 7):
        census(n)
        per_call = median_time(lambda: census(n), CENSUS_CALLS)
        out[f"census{n}_ms"] = round(per_call * 1e3, 2)
    for n in (6, 7):
        X = np.random.default_rng(SEED).standard_normal((_CHUNK, n * (n - 1) // 2))
        out[f"classify_batch{n}_rows_per_s"] = round(
            _CHUNK / median_time(lambda: classify_batch(n, X), 3)
        )
    rng = np.random.default_rng(SEED)
    shapes = []
    for _ in range(TREES):
        n = int(rng.integers(5, 21))
        shapes.append((n, trees.random_topology(n, rng).edges()))

    def build_all():
        for n, edges in shapes:
            trees.TreeTopology(n, edges)

    out["tree_topology_us"] = round(median_time(build_all, 3) / TREES * 1e6, 1)
    traces = [c.trace for c in census(6).cones]

    def cones_from_traces():
        for trace in traces:
            cones.cone_from_trace(trace)

    per_call = median_time(cones_from_traces, 3) / len(traces)
    out["cone_from_trace_us"] = round(per_call * 1e6, 1)
    for n in (5, 6, 7):
        out[f"cones{n}_read_ms"] = round(first_read_time(n, "cones") * 1e3, 2)
        out[f"topology_index{n}_ms"] = round(first_read_time(n, "topology_index") * 1e3, 2)
    return out


def irredundant_times() -> dict:
    """Per six-taxa type: irredundant, interior_point and proposal ms per
    call, proposal calls, normals proposed again and feasible_point calls."""
    six = census(6)
    proposer = "_nnls" if hasattr(cones, "_nnls") else "nnls"
    spent = {"interior_point": 0.0, proposer: 0.0}
    counts = {"proposal_calls": 0, "reproposed": 0, "feasible_point_calls": 0}
    real = {name: getattr(cones, name) for name in (*spent, "feasible_point")}

    def timed(name):
        def call(*args):
            start = time.perf_counter()
            try:
                return real[name](*args)
            finally:
                spent[name] += time.perf_counter() - start
        return call

    def proposal(*args):
        if proposer == "_nnls" and counts["proposal_calls"]:
            counts["reproposed"] += len(args[-1])
        counts["proposal_calls"] += 1
        return timed(proposer)(*args)

    def counted(G):
        counts["feasible_point_calls"] += 1
        return real["feasible_point"](G)

    out = {}
    cones.interior_point, cones.feasible_point = timed("interior_point"), counted
    setattr(cones, proposer, proposal)
    try:
        for kind in ("I", "II", "III"):
            cone = six.cones[six.types.index(kind)]
            cones.irredundant(cone)
            runs = []
            for _ in range(3):
                spent.update(dict.fromkeys(spent, 0.0))
                counts.update(dict.fromkeys(counts, 0))
                start = time.perf_counter()
                cones.irredundant(cone)
                runs.append((time.perf_counter() - start, *spent.values()))
            whole, interior, proposing = (statistics.median(r) * 1e3 for r in zip(*runs))
            out[kind] = {
                "ms": round(whole, 2),
                "interior_point_ms": round(interior, 2),
                "proposal_ms": round(proposing, 2),
                **counts,
            }
    finally:
        for name, fn in real.items():
            setattr(cones, name, fn)
    return out


def sampler_times() -> dict:
    """Seconds and rows classified per solid_angles_mc(census(6), ...) call."""
    six = census(6)
    rows = [0]
    real = census_module.classify_batch

    def counted(n, X, *args):
        rows[0] += len(X)
        return real(n, X, *args)

    out = {}
    census_module.classify_batch = counted
    try:
        for samples in SAMPLER_SAMPLES:
            for threads in (1, 2):
                rows[0] = 0
                seconds = median_time(
                    lambda: census_module.solid_angles_mc(six, samples, SEED, threads=threads),
                    SAMPLER_CALLS,
                )
                out[f"samples{samples}_threads{threads}"] = {
                    "s": round(seconds, 4),
                    "rows": rows[0] // SAMPLER_CALLS,
                }
    finally:
        census_module.classify_batch = real
    return out


@contextlib.contextmanager
def nnls_counts():
    """Count the NNLS problems, steps and early exits inside the block."""
    counts = {"problems": 0, "steps": 0, "exits": 0}
    nnls, refit = projection._nnls, getattr(projection, "_refit", None)

    def counted_nnls(U, normals, V, *cutoff):
        counts["problems"] += len(V)
        W, *rest = nnls(U, normals, V, *cutoff)
        if cutoff:
            counts["exits"] += int((np.sqrt((W * W).sum(axis=1)) > cutoff[0]).sum())
        return (W, *rest)

    def counted_refit(U, normals, V, passive):
        counts["steps"] += len(passive)
        return refit(U, normals, V, passive)

    projection._nnls = counted_nnls
    if refit:
        projection._refit = counted_refit
    try:
        yield counts
    finally:
        projection._nnls = nnls
        if refit:
            projection._refit = refit


@contextlib.contextmanager
def exact_rows(module):
    """Count the rows the module takes to exact arithmetic inside the block.

    exact_rows: the rows handed to the module's exact kernel,
    rational.products or rational.signs, each call counted (so a row
    counts at every classify_batch node that hands it on), or in packages
    without a kernel, the rows taken to integers by the module's
    primitive.  primitive_rows: the rows rational.primitive takes to
    Python integers, the kernel's fallback; without a kernel, every
    exact row.
    """
    counts = {"exact_rows": 0, "primitive_rows": 0}
    name = next((n for n in ("products", "signs") if hasattr(module, n)), None)
    kernel = getattr(module, name) if name else None
    owner = rational if kernel else module
    real = owner.primitive

    def primitive(x):
        counts["primitive_rows"] += 1
        return real(x)

    def counted(N, X):
        counts["exact_rows"] += len(X)
        return kernel(N, X)

    owner.primitive = primitive
    if kernel:
        setattr(module, name, counted)
    try:
        yield counts
    finally:
        owner.primitive = real
        if kernel:
            setattr(module, name, kernel)
        else:
            counts["exact_rows"] = counts["primitive_rows"]


def tie_rule_times() -> dict:
    """nj_run per row, the screen's product kernel (or verdict step) of
    distances_to_wrong per vector, and classify_batch per near-tie row,
    with the rows each takes to exact arithmetic."""
    rng = np.random.default_rng(SEED)
    rows = rng.standard_normal((NJ_RUN_ROWS, 15)).tolist()
    runs = [DissimilarityVector(6, tuple(x)) for x in rows]
    per_row = median_time(lambda: [nj_run(d) for d in runs], 3) / NJ_RUN_ROWS
    out = {"nj_run_us_per_row": round(per_row * 1e6, 1)}
    six = census(6)
    step = next((n for n in ("products", "_in_some_cone") if hasattr(projection, n)), None)
    top = trees.TreeTopology.from_newick(CATERPILLAR)
    base = caterpillar_metric()
    for sigma in (0.0, 0.02) if step else ():
        V = base + sigma * rng.standard_normal((VERDICT_ROWS, base.size))
        spent = [0.0]
        real = getattr(projection, step)

        def timed(*args):
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                spent[0] += time.perf_counter() - start

        setattr(projection, step, timed)
        try:
            with exact_rows(projection) as counts:
                projection.distances_to_wrong(V, top, margin_census(six))
        finally:
            setattr(projection, step, real)
        out[f"sigma{sigma}"] = {
            f"{step.lstrip('_')}_us_per_vector": round(spent[0] / VERDICT_ROWS * 1e6, 1),
            **counts,
        }
    # the near ties of test_gaps_inside_the_rounding_bound_are_decided_exactly
    near = np.random.default_rng(3)
    X = near.integers(0, 3, size=(400, 15)) + 2.0**-50 * near.integers(-1, 2, size=(400, 15))
    with exact_rows(census_module) as counts:
        classify_batch(6, X)
    per_row = median_time(lambda: classify_batch(6, X), 3) / len(X)
    out["near_ties"] = {"classify_batch_us_per_row": round(per_row * 1e6, 1), **counts}
    return out


def main() -> int:
    totals = dict.fromkeys(LAYERS, 0.0)
    instrument(totals)
    report = {"startup": startup_times()}
    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("T1", "T2"):
            cli.main(["sim", "--tree", tree, "--reps", str(REPS),
                      "--seed", str(SEED), "--out", str(Path(tmp) / tree)])
        report["sim_us_per_replicate"] = per_unit(totals, 2 * REPS)

        rng = np.random.default_rng(SEED)
        base = caterpillar_metric()
        sigmas = (0.02, 0.05)
        rows = [base + sigmas[k % 2] * rng.standard_normal(base.size)
                for k in range(VECS)]
        path = Path(tmp) / "noisy.vecs"
        path.write_text("".join(" ".join(repr(float(x)) for x in v) + "\n" for v in rows))
        calls, solved = [], []
        for _ in range(DISTANCE_CALLS):
            totals.update(dict.fromkeys(LAYERS, 0.0))
            with open(Path(tmp) / "distance.csv", "w") as sink:
                with contextlib.redirect_stdout(sink), nnls_counts() as counts:
                    cli.main(["distance", "--input", str(path), "--true-tree", CATERPILLAR,
                              "--format", "vecs"])
            calls.append(per_unit(totals, VECS))
            solved.append({k: v / VECS for k, v in counts.items()})
        report["distance_us_per_vector"] = {
            k: statistics.median(c.get(k, 0.0) for c in calls) for k in sorted(set().union(*calls))
        }
        report["distance_nnls_per_vector"] = {
            k: round(statistics.median(c[k] for c in solved), 3) for k in solved[0]
        }
    report["polytope_ms"] = polytope_ms()
    report["census"] = census_times()
    report["irredundant"] = irredundant_times()
    report["sampler"] = sampler_times()
    report["tie_rule"] = tie_rule_times()
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

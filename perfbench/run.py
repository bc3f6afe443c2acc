"""njcones benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload seqsim5 --seed 1 --seconds 5 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 5

Run from the root of a checkout.  Each workload runs in PROCESSES fresh
worker processes (perfbench/worker.py) that import njcones from the
checkout's ``src``.  Each sets up; the workload's measuring ones then
share --seconds, and check their outputs.  ``setup_s`` is the median
set-up time of all of them, ``ops_per_s`` the median over the rounds of
all of them.  The last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, counted in reference seconds
(hostspeed.py), with ``--trace 1`` the per-layer ones.  Lines before it
show the machine, the inputs, the wall-clock figures, the host speed and
the failed fraction.  Spans, results and scratch files go under
``.perfbench_work/`` in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("seqsim5", "margin6", "angles6", "census6", "reduce6", "fvector6")
PROCESSES = 3           # worker processes per run, each of which sets up
DEADLINE_S = 170.0      # a run must end within 180 s
MAX_THREADS = 4         # angles6 threads: min(nproc, MAX_THREADS)
BLAS_THREADS = "1"


def fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NJ_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_worker(argv, deadline: float) -> dict:
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *argv],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=left,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name: str, args, spec: dict, deadline: float) -> dict:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-seed{args.seed}-", dir=work_root))
    threads = min(nproc(), MAX_THREADS)
    common = ["--workload", name, "--seed", str(args.seed), "--size", args.size,
              "--threads", str(threads), "--seconds", str(args.seconds)]
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    try:
        parts = [
            run_worker(common + ["--work", str(work / f"part{k}"), "--part", str(k),
                                 "--parts", str(PROCESSES), "--trace", str(args.trace),
                                 "--spans", str(work_root / f"spans-{tag}.jsonl")],
                       deadline)
            for k in range(PROCESSES)
        ]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured = [p for p in parts if "attempted" in p]
    res = measured[-1]

    details = {}
    if args.trace:
        values = res["layers"]
        declared = spec["per_layer"]
    else:
        values = {"ops_per_s": statistics.median(r for p in measured for r in p["rates"]),
                  "setup_s": statistics.median(p["setup_s"] for p in parts),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in measured)}
        declared = spec["end_to_end"]
        details = {
            "wall_ops_per_s": (statistics.median(r for p in measured for r in p["wall_rates"]), "1/s"),
            "wall_setup_s": (statistics.median(p["wall_setup_s"] for p in parts), "s"),
            "host_speed": (statistics.median(p["host_speed"] for p in measured), "ratio"),
        }
    attempted = sum(p["attempted"] for p in measured)
    failed = sum(p["failed"] for p in measured)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"workload {name} did not report {missing}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "commit": git_commit(), "nproc": nproc(), "threads": threads,
        "blas_threads": BLAS_THREADS, "env": res["env"], "inputs": res["inputs"],
        "setup_runs": [{k: p[k] for k in ("setup_s", "wall_setup_s")} for p in parts],
        "details": details, "ops": [p["ops"] for p in measured], "result": result,
    }
    (work_root / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"# perfbench {name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} commit={record['commit']}")
    print("# machine " + json.dumps({"nproc": record["nproc"], "threads": threads,
                                     "blas_threads": BLAS_THREADS, **res["env"]}))
    print("# inputs " + json.dumps(res["inputs"]))
    for metric, v in result["metrics"].items():
        print(f"{metric:40s} {v['value']:.6g} {v['unit']}")
    for metric, (value, unit) in record["details"].items():
        print(f"{metric:40s} {value:.6g} {unit}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':40s} {frac:.6g} ({result['failed']} of {result['attempted']} ops)")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: a smoke run with small operations")
    args = ap.parse_args()

    if not (ROOT / "src" / "njcones" / "cli.py").is_file():
        return fail(f"no njcones sources under {ROOT / 'src'}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        # every workload of an `all` run gets its own 180 s budget
        deadline = time.monotonic() + DEADLINE_S
        try:
            results[name] = run_workload(name, args, spec, deadline)
        except (RuntimeError, TimeoutError, subprocess.TimeoutExpired, OSError,
                ValueError, KeyError) as exc:
            return fail(f"{name}: {exc}")
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

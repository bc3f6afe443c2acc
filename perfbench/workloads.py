"""The benchmark workloads, each entering through `njcones.cli.main`.

A workload is a numbered sequence of operations; every `per_round`
consecutive operations form one round.  `op(j, tag)` makes the inputs of
operation j from the benchmark seed, runs it, times only the call into
the program with `self.clock` and keeps its output for `check()`.  The
same j always gets the same inputs, which lets a traced run replay
untraced operations.
"""

from __future__ import annotations

import importlib
import io
import json
import time
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from njcones import cli
from njcones.trees import TreeTopology

from checks import (
    check_census,
    check_distance_rows,
    check_fvector,
    check_incidence,
    check_reduced_cone,
    check_sim_records,
    check_topology_survey,
    check_type_survey,
)

# Operation size per benchmark size: "full" is what the benchmark measures,
# "tiny" is a smoke run of every code path in a second or two.  The full
# sizes keep each call's fixed cost (start-up, census load) a small share
# where the program allows it; README.md gives the shares.
SIZES = {
    "full": {"reps": 1000, "vecs": 300, "samples": 2_000_000, "taxa": 6},
    "tiny": {"reps": 4, "vecs": 3, "samples": 20_000, "taxa": 5},
}

SIGMAS = (0.0, 0.02, 0.05)
PENDANT, INTERIOR = 0.42, 0.03
# (Newick, edges): leaves 0..5, interior vertices 6..; interior edges join two
# interior vertices and get INTERIOR, pendant edges get PENDANT.
TREES6 = {
    "caterpillar": (
        "((((0,1),2),3),4,5);",
        ((0, 6), (1, 6), (6, 7), (2, 7), (7, 8), (3, 8), (8, 9), (4, 9), (5, 9)),
    ),
    "three-cherry": (
        "((0,1),(2,3),(4,5));",
        ((0, 6), (1, 6), (2, 7), (3, 7), (4, 8), (5, 8), (6, 9), (7, 9), (8, 9)),
    ),
}
TRUE5 = "((0,1),2,(3,4));"
TOPOLOGIES6 = 105  # (2n-5)!! labeled unrooted binary trees on n=6 leaves
# The first trace of `load_census(n).cones_of_type(types[0])`: for n=6 the
# first type-I cone.  Kept as input so that `reduce6` need not build a census.
FIRST_TRACE = {
    5: {"n": 5, "merges": [[[0], [1]], [[0, 1], [4]]]},
    6: {"n": 6, "merges": [[[0], [1]], [[2], [3]], [[0, 1], [2, 3]]]},
}
# the package re-exports the function `census`, which hides the module
census_mod = importlib.import_module("njcones.census")


def op_seed(seed: int, j: int) -> int:
    """A CLI seed for operation j, fixed by the benchmark seed."""
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(j,)).generate_state(1)[0])


def tree_metric(n: int, edges) -> list:
    """Path lengths between leaves in flat pair order (1,0),(2,0),(2,1),(3,0),..."""
    adj: dict = {}
    for u, v in edges:
        w = PENDANT if min(u, v) < n else INTERIOR
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, []).append((u, w))

    def dists(src):
        out, stack = {src: 0.0}, [src]
        while stack:
            u = stack.pop()
            for v, w in adj[u]:
                if v not in out:
                    out[v] = out[u] + w
                    stack.append(v)
        return out

    rows = [dists(a) for a in range(n)]
    return [rows[a][b] for a in range(1, n) for b in range(a)]


def noisy_vectors(seed: int, j: int, edges, count: int) -> list:
    """`count` noisy copies of a tree metric, split evenly over SIGMAS."""
    base = np.array(tree_metric(6, edges))
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(j,)))
    out = []
    for k in range(count):
        sigma = SIGMAS[k % len(SIGMAS)]
        out.append([float(x) for x in base + sigma * rng.standard_normal(base.size)])
    return out


def call(argv, clock=time.perf_counter):
    """(exit code, stdout, seconds by `clock`) of one in-process `nj` invocation."""
    out = io.StringIO()
    with redirect_stdout(out):
        start = clock()
        rc = cli.main([str(a) for a in argv])
        wall = clock() - start
    return rc, out.getvalue(), wall


class Workload:
    name = ""
    per_round = 1
    min_rounds = 1     # rounds run whatever --seconds says; peak memory is read after them
    processes = 3      # worker processes that measure, each for a share of --seconds
    last_part = True   # whether this is the run's last process (angles6 checks more there)

    def __init__(self, work: Path, seed: int, size: str, threads: int):
        self.work = work
        self.seed = seed
        self.size = SIZES[size]
        self.n = self.size["taxa"]
        self.threads = threads
        self.cache = work / "census"
        self.outputs: list = []
        self.clock = time.perf_counter

    def call(self, argv):
        return call(argv, self.clock)

    def setup(self) -> None:
        """Program set-up before the timed phase (cache fill, warm-up call)."""

    def op(self, j: int, tag: str):
        """Run operation j; return (seconds of the call by self.clock, units of work)."""
        raise NotImplementedError

    def check(self):
        """(attempted, failed) over every operation run so far.

        This default suits workloads whose operations record one bool each.
        """
        return len(self.outputs), self.outputs.count(False)

    def inputs(self) -> dict:
        raise NotImplementedError


def round_rates(records, per_round: int) -> list:
    """Units per second of every complete round in (j, wall, units) records."""
    rounds: dict = {}
    for j, wall, units in records:
        rounds.setdefault(j // per_round, []).append((wall, units))
    return [
        sum(u for _, u in ops) / sum(w for w, _ in ops)
        for ops in rounds.values()
        if len(ops) == per_round
    ]


class SeqSim5(Workload):
    """`nj sim` for T1 then T2 on a warm private census cache."""

    name = "seqsim5"
    per_round = 2

    def setup(self):
        census_mod.load_census(5, cache_dir=self.cache)
        rc, _, _ = self.call(["sim", "--tree", "T1", "--reps", 5, "--seed", 0,
                         "--out", self.work / "warm", "--census", self.cache])
        if rc != 0:
            raise RuntimeError("warm-up `nj sim` failed")

    def op(self, j, tag):
        tree = ("T1", "T2")[j % 2]
        out = self.work / f"{tag}{j}"
        rc, _, wall = self.call(["sim", "--tree", tree, "--reps", self.size["reps"],
                            "--seed", op_seed(self.seed, j // 2), "--out", out,
                            "--census", self.cache])
        self.outputs.append((rc, out))
        return wall, self.size["reps"]

    def check(self):
        true_top = TreeTopology.from_newick(TRUE5)
        reps = self.size["reps"]
        attempted = failed = 0
        for rc, out in self.outputs:
            path = out / "records.csv"
            if rc != 0 or not path.is_file():
                a, f = reps, reps
            else:
                a, f = check_sim_records(path.read_text(), reps, true_top)
            attempted += a
            failed += f
        return attempted, failed

    def inputs(self):
        return {"trees": ["T1", "T2"], "model": "jc", "sites": 500,
                "reps_per_call": self.size["reps"]}


class Margin6(Workload):
    """`nj distance --format vecs` on noisy six-taxa tree metrics."""

    name = "margin6"
    per_round = 2

    def _distance(self, path: Path, newick: str):
        return self.call(["distance", "--input", path, "--true-tree", newick,
                     "--format", "vecs", "--census", self.cache])

    @staticmethod
    def _write(path: Path, vectors) -> None:
        path.write_text("".join(" ".join(repr(x) for x in v) + "\n" for v in vectors))

    def setup(self):
        census_mod.load_census(6, cache_dir=self.cache)
        newick, edges = TREES6["caterpillar"]
        path = self.work / "warm.vecs"
        self._write(path, [tree_metric(6, edges)])
        if self._distance(path, newick)[0] != 0:
            raise RuntimeError("warm-up `nj distance` failed")

    def op(self, j, tag):
        newick, edges = list(TREES6.values())[j % 2]
        vectors = noisy_vectors(self.seed, j, edges, self.size["vecs"])
        path = self.work / f"{tag}{j}.vecs"
        self._write(path, vectors)
        rc, stdout, wall = self._distance(path, newick)
        self.outputs.append((rc, stdout, vectors, newick))
        return wall, len(vectors)

    def check(self):
        attempted = failed = 0
        for rc, stdout, vectors, newick in self.outputs:
            if rc != 0:
                a, f = len(vectors), len(vectors)
            else:
                a, f = check_distance_rows(stdout, vectors, TreeTopology.from_newick(newick))
            attempted += a
            failed += f
        return attempted, failed

    def inputs(self):
        return {"trees": {k: v[0] for k, v in TREES6.items()}, "pendant": PENDANT,
                "interior": INTERIOR, "sigmas": list(SIGMAS),
                "vectors_per_call": self.size["vecs"]}


class Angles6(Workload):
    """`nj angles --taxa 6 --per-topology` with --threads at most nproc."""

    name = "angles6"

    def _angles(self, samples, seed, mode):
        return self.call(["angles", "--taxa", 6, "--samples", samples, "--seed", seed, mode,
                          "--threads", self.threads, "--census", self.cache])

    def setup(self):
        census_mod.load_census(6, cache_dir=self.cache)
        if self._angles(1000, 0, "--per-topology")[0] != 0:
            raise RuntimeError("warm-up `nj angles` failed")

    def op(self, j, tag):
        rc, stdout, wall = self._angles(self.size["samples"], op_seed(self.seed, j),
                                        "--per-topology")
        self.outputs.append((rc, stdout))
        return wall, self.size["samples"]

    def check(self):
        samples = self.size["samples"]
        failed = sum(
            1 for rc, out in self.outputs
            if rc != 0 or not check_topology_survey(out, samples, TOPOLOGIES6)
        )
        if not self.last_part:
            return len(self.outputs), failed
        # one per-type survey per run, of the seed's first draws, outside the timing
        rc, out, _ = self._angles(samples, op_seed(self.seed, 0), "--per-type")
        failed += rc != 0 or not check_type_survey(out, samples)
        return len(self.outputs) + 1, failed

    def inputs(self):
        return {"taxa": 6, "mode": "per-topology", "samples_per_call": self.size["samples"],
                "threads": self.threads}


class Census6(Workload):
    """A cold `load_census(6)` into an empty directory: every cone built exactly."""

    name = "census6"
    min_rounds = 2  # a process's share of --seconds holds about one operation

    def setup(self):
        census_mod.load_census(5, cache_dir=self.work / "warm")

    def op(self, j, tag):
        start = self.clock()
        cns = census_mod.load_census(self.n, cache_dir=self.work / f"{tag}{j}")
        wall = self.clock() - start
        self.outputs.append(check_census(self.n, len(cns.cones), dict(Counter(cns.types))))
        return wall, 1

    def inputs(self):
        return {"taxa": self.n, "cache": "empty"}


class Reduce6(Workload):
    """`nj cones build --trace` then `nj cones reduce` on the first type-I cone."""

    name = "reduce6"
    processes = 1  # one operation outlasts --seconds

    def _build_reduce(self, trace, out: Path):
        cone, slim = out.with_suffix(".cone"), out.with_suffix(".slim")
        rc1, _, w1 = self.call(["cones", "build", "--trace", json.dumps(trace), "--out", cone])
        rc2, _, w2 = self.call(["cones", "reduce", "--in", cone, "--out", slim])
        return rc1 == 0 and rc2 == 0, slim, w1 + w2

    def setup(self):
        if not self._build_reduce(FIRST_TRACE[5], self.work / "warm")[0]:
            raise RuntimeError("warm-up `nj cones build/reduce` failed")

    def op(self, j, tag):
        ok, slim, wall = self._build_reduce(FIRST_TRACE[self.n], self.work / f"{tag}{j}")
        self.outputs.append(ok and check_reduced_cone(self.n, slim.read_text()))
        return wall, 1

    def inputs(self):
        return {"trace": FIRST_TRACE[self.n]}


class Fvector6(Workload):
    """`nj polytope --taxa 6 --fvector --incidence FILE`: facets and faces exactly.

    `nj polytope --taxa 6` (the table row) is left out: it enumerates the
    facets twice, and at 30-40 s a run it does not fit the benchmark's time
    budget.  The incidence check covers the facts the row states.
    """

    name = "fvector6"
    processes = 1  # one operation outlasts --seconds

    def setup(self):
        if self.call(["polytope", "--taxa", 4, "--fvector"])[0] != 0:
            raise RuntimeError("warm-up `nj polytope` failed")

    def op(self, j, tag):
        inc = self.work / f"{tag}{j}.inc"
        rc, stdout, wall = self.call(["polytope", "--taxa", self.n, "--fvector", "--incidence", inc])
        self.outputs.append(
            rc == 0 and check_fvector(self.n, stdout) and check_incidence(self.n, inc.read_text())
        )
        return wall, 1

    def inputs(self):
        return {"taxa": self.n}


WORKLOADS = {w.name: w for w in (SeqSim5, Margin6, Angles6, Census6, Reduce6, Fvector6)}

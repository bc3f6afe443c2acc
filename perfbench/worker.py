"""One process of a workload run: set up, then measure and check, print one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's ``src`` and
BLAS pinned to one thread, as part ``--part`` of ``--parts`` fresh
processes.  Every part sets up; the set-up clock starts before the first
import, so ``setup_s`` covers importing njcones, filling the private
census cache and the warm-up call.  The last ``processes`` parts of the
workload (one when traced) then measure, for an equal share of --seconds
each, so that no single process's luck of memory layout sets the result.

Operations run in whole rounds: at least the workload's ``min_rounds``,
then more while another round would end nearer the process's share of
--seconds than stopping does.  Untraced (--trace 0), times are counted in
reference seconds (hostspeed.py): the host's speed is sampled every 0.1 s
during set-up and operations, and before and after every operation.  The
wall-clock figures are reported beside them.

Traced (--trace 1), set-up and every operation run with the tracer
installed; while the first --seconds last, each operation also runs
untraced on the same inputs, before its traced twin in even rounds and
after it in odd ones.  The traced minus the untraced wall time of those
twins is the tracing overhead.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import HostClock  # noqa: E402

BRACKET = 3        # host speed samples taken before and after each operation
PART_OPS = 10_000  # operation numbers reserved for each part


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas.get('version', '')}"}


def main(clock: HostClock) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full")
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spans", help="write the spans of a traced run here")
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    args = ap.parse_args()

    traced = args.trace == 1
    if not traced:
        clock.sample()
        clock.start()

    from spans import Tracer, layer_metrics, setup_metrics
    from workloads import WORKLOADS, round_rates

    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.size, args.threads)
    setup_tracer = Tracer()
    if traced:
        setup_tracer.install()
    try:
        wl.setup()
    finally:
        setup_tracer.uninstall()
    wall_setup_s = clock.net() - _T0
    if not traced:
        clock.sample()
    setup = {"wall_setup_s": wall_setup_s,
             "setup_s": wall_setup_s * clock.speed(_T0, time.perf_counter()) if not traced else None}
    measuring = 1 if traced else min(wl.processes, args.parts)
    if args.part < args.parts - measuring:
        print(json.dumps(setup))
        return 0
    seconds = args.seconds / measuring
    wl.last_part = args.part == args.parts - 1

    records = []  # (operation index, seconds, units); reference seconds when untraced
    walls = []    # (operation index, wall seconds, units)
    per_round = wl.per_round
    tracer = Tracer()
    untraced = traced_s = 0.0

    def traced_op(j):
        tracer.install()
        try:
            return wl.op(j, "traced")
        finally:
            tracer.uninstall()

    def plain_op(j):
        """Operation j timed in reference seconds, between host speed samples."""
        start = time.perf_counter()
        for _ in range(BRACKET):
            clock.sample()
        wall, units = wl.op(j, "op")
        for _ in range(BRACKET):
            clock.sample()
        walls.append((j, wall, units))
        return wall * clock.speed(start, time.perf_counter()), units

    if not traced:
        wl.clock = clock.net
    peak_rss = None
    j = j0 = args.part * PART_OPS  # each part draws its own inputs
    start = round_start = time.perf_counter()
    round_s = 0.0
    while (j - j0 < wl.min_rounds * per_round or j % per_round
           or time.perf_counter() - start + round_s / 2 < seconds):
        if not traced:
            took, units = plain_op(j)
        elif time.perf_counter() - start < seconds:
            # an untraced twin, run first in even rounds and second in odd ones
            first = (j // per_round) % 2 == 0
            if first:
                untraced += wl.op(j, "plain")[0]
            took, units = traced_op(j)
            traced_s += took
            if not first:
                untraced += wl.op(j, "plain")[0]
        else:
            took, units = traced_op(j)
        records.append((j, took, units))
        j += 1
        if j % per_round == 0:
            round_s, round_start = time.perf_counter() - round_start, time.perf_counter()
        if j - j0 == wl.min_rounds * per_round:
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    clock.stop()

    out = dict(setup)
    if not traced:
        out["rates"] = round_rates(records, per_round)
        out["wall_rates"] = round_rates(walls, per_round)
        out["host_speed"] = statistics.median(s for _, s in clock.samples)
        out["ops"] = [[j, s, w, u] for (j, s, u), (_, w, _) in zip(records, walls)]
    else:
        metrics = layer_metrics(tracer.spans)
        metrics.update(setup_metrics(setup_tracer.spans))
        metrics["trace.overhead_s"] = traced_s - untraced
        metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced) / untraced
        out["layers"] = metrics
        out["ops"] = [[j, w, u] for j, w, u in records]
        if args.spans:
            tracer.write(args.spans)
    out["peak_rss_mb"] = peak_rss / 1024.0
    out["attempted"], out["failed"] = wl.check()
    out["inputs"] = wl.inputs()
    out["env"] = machine()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    host_clock = HostClock()
    try:
        code = main(host_clock)
    finally:
        host_clock.stop()
    sys.exit(code)

#!/usr/bin/env python3
"""Microseconds per replicate or vector in each layer of `nj sim` and `nj distance`.

Runs `nj sim --tree T1|T2` (JC, 500 sites) and `nj distance --format vecs`
on noisy six-taxa caterpillar metrics in this process, with a timer
around each layer's functions, and prints one JSON object:

- simulate: `simulate_alignment`, or its block form `_simulate_block`;
- estimate: `estimate_distances`, or its block form `_estimates`;
- screen: `distance_to_wrong` / `distances_to_wrong` minus the time
  spent inside `nearest_point`;
- nearest_point: the projections themselves.

Only the outermost call of a layer is timed, so a one-row wrapper around
a block function is not counted twice.  Functions absent from the
package on the path are skipped, which lets the same script time older
and newer versions of the package:

    PYTHONPATH=src python3 scripts/layer_times.py
"""

import contextlib
import functools
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from njcones import cli, projection, simulate

LAYERS = {
    "simulate": ((simulate, "simulate_alignment"), (simulate, "_simulate_block")),
    "estimate": ((simulate, "estimate_distances"), (simulate, "_estimates")),
    "margin": ((projection, "distance_to_wrong"), (projection, "distances_to_wrong")),
    "nearest_point": ((projection, "nearest_point"),),
}
CATERPILLAR = "((((0,1),2),3),4,5);"
REPS = 2000  # replicates of each of T1 and T2
VECS = 600   # noisy six-taxa vectors
SEED = 1


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


def caterpillar_metric() -> np.ndarray:
    """Path lengths of the caterpillar with pendant 0.42 and interior 0.03."""
    pos = [0.0, 0.0, 0.03, 0.06, 0.09, 0.09]  # position of each leaf's attachment
    return np.array(
        [abs(pos[a] - pos[b]) + 0.84 for a in range(1, 6) for b in range(a)]
    )


def per_unit(totals: dict, units: int) -> dict:
    out = {k: v / units * 1e6 for k, v in totals.items()}
    out["screen"] = out.pop("margin") - out["nearest_point"]
    return {k: round(v, 1) for k, v in out.items() if v}


def main() -> int:
    totals = dict.fromkeys(LAYERS, 0.0)
    instrument(totals)
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for tree in ("T1", "T2"):
            cli.main(["sim", "--tree", tree, "--reps", str(REPS),
                      "--seed", str(SEED), "--out", str(Path(tmp) / tree)])
        report["sim_us_per_replicate"] = per_unit(totals, 2 * REPS)

        totals.update(dict.fromkeys(LAYERS, 0.0))
        rng = np.random.default_rng(SEED)
        base = caterpillar_metric()
        sigmas = (0.02, 0.05)
        rows = [base + sigmas[k % 2] * rng.standard_normal(base.size)
                for k in range(VECS)]
        path = Path(tmp) / "noisy.vecs"
        path.write_text("".join(" ".join(repr(float(x)) for x in v) + "\n" for v in rows))
        with open(Path(tmp) / "distance.csv", "w") as sink:
            with contextlib.redirect_stdout(sink):
                cli.main(["distance", "--input", str(path), "--true-tree", CATERPILLAR,
                          "--format", "vecs"])
        report["distance_us_per_vector"] = per_unit(totals, VECS)
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

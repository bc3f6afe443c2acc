#!/usr/bin/env python3
"""Correct-classification curve under Gaussian noise on a 5-leaf tree metric.

Runs `nj sim-gauss` over the sigma grid 0:STEP:MAX, writing curve.csv
plus a manifest to the output directory, and prints the curve read back
from curve.csv.
"""

import argparse
import csv
from pathlib import Path

from njcones import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tree", choices=("T1", "T2"), default="T1")
    ap.add_argument("--a", type=float, default=0.03)
    ap.add_argument("--b", type=float, default=0.42)
    ap.add_argument("--sigma-max", type=float, default=0.2)
    ap.add_argument("--sigma-step", type=float, default=0.01)
    ap.add_argument("--reps", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="results/gaussian")
    args = ap.parse_args()

    rc = cli.main(
        [
            "sim-gauss",
            "--tree", args.tree,
            "--a", str(args.a),
            "--b", str(args.b),
            "--sigma-grid", f"0:{args.sigma_step}:{args.sigma_max}",
            "--reps", str(args.reps),
            "--seed", str(args.seed),
            "--out", args.out,
        ]
    )
    if rc:
        return rc
    with (Path(args.out) / "curve.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            print(f"sigma={float(row['sigma']):.3f}  correct={float(row['correct_rate']):.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

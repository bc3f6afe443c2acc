#!/usr/bin/env python3
"""Sequence-noise robustness run for both tree models.

Runs `nj sim` once per model tree, writing records.csv / summary.csv /
manifest.json under OUT/T1 and OUT/T2, and prints the
correct-classification rates read back from each summary.csv.
"""

import argparse
import csv
from pathlib import Path

from njcones import cli


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=500)
    ap.add_argument("--reps", type=int, default=10_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--model", choices=("jc", "k2p"), default="jc")
    ap.add_argument("--kappa", type=float, default=2.0)
    ap.add_argument("--a", type=float, default=0.03)
    ap.add_argument("--b", type=float, default=0.42)
    ap.add_argument("--out", default="results/robustness")
    args = ap.parse_args()

    rates = {}
    for name in ("T1", "T2"):
        out = Path(args.out) / name
        rc = cli.main(
            [
                "sim",
                "--tree", name,
                "--a", str(args.a),
                "--b", str(args.b),
                "--model", args.model,
                "--kappa", str(args.kappa),
                "--sites", str(args.sites),
                "--reps", str(args.reps),
                "--seed", str(args.seed),
                "--out", str(out),
            ]
        )
        if rc:
            return rc
        with (out / "summary.csv").open(newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["verdict"] == "correct")
        rates[name] = int(row["count"]) / int(row["replicates"])
        print(f"{name}: correct rate {rates[name]:.4f}")
    print(f"gap T2 - T1: {rates['T2'] - rates['T1']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

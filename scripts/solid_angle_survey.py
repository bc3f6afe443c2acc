#!/usr/bin/env python3
"""Monte Carlo solid-angle survey of the first-step cones for 5 and 6 taxa.

Writes one CSV per view (per-cone for 5 taxa; per-cone, per-type and
per-topology for 6) under the output directory.
"""

import argparse
import csv
from pathlib import Path

from njcones.census import census, solid_angles_mc


def _dump(path: Path, rows, discarded: int) -> None:
    with path.open("w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(["label", "samples", "fraction", "stderr"])
        for est in rows:
            out.writerow([est.label, est.samples, repr(est.fraction), repr(est.stderr)])
        fh.write(f"# discarded_ties {discarded}\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=2_000_000)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--out", default="results/angles")
    args = ap.parse_args()

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for n in (5, 6):
        cns = census(n)
        survey = solid_angles_mc(cns, args.samples, args.seed, threads=args.threads)
        _dump(outdir / f"n{n}_per_cone.csv", survey.estimates(cns), survey.discarded)
        if n == 6:
            _dump(outdir / "n6_per_type.csv", survey.per_type(cns), survey.discarded)
            _dump(
                outdir / "n6_per_topology.csv",
                survey.per_topology(cns),
                survey.discarded,
            )
        print(f"n={n}: {survey.samples} accepted, {survey.discarded} ties discarded")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

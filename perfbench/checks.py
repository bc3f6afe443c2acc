"""Output checks for the benchmark workloads.

Each check takes what a public entry point produced (CLI text, files, a
census) and returns how many operations it judged and how many failed.
Verdicts are compared against float ``nj_run``, which shares no code
with the margin classifier; exact results against the counts the paper
states.  Every mismatch is a failure: nothing is filtered out.
"""

from __future__ import annotations

import csv
import io
import math

from njcones.distvec import DissimilarityVector
from njcones.nj import nj_run, unique_topologies
from njcones.trees import TreeTopology

# Per-cone solid angles of the three six-taxa cone types (paper values).
TYPE_FRACTIONS = {"type-I": 2.888e-3, "type-II": 1.848e-3, "type-III": 2.266e-3}
TYPE_Z = 5.0          # allowed distance in standard errors
TYPE_ROUNDING = 5e-7  # the reference values carry four digits

# Exact results per taxon count: the tiny benchmark size runs n=5.
EXACT = {
    6: {
        "cones": 450,
        "types": {"I": 90, "II": 180, "III": 180},
        "reduced_facets": 22,
        "fvector": (1, 15, 105, 435, 1095, 1657, 1470, 735, 195, 25, 1),
        "facets": 25,
        "vertices": 15,
        "facets_per_vertex": 18,
    },
    5: {
        "cones": 30,
        "types": {"": 30},
        "reduced_facets": 9,
        "fvector": (1, 10, 45, 90, 75, 22, 1),
        "facets": 22,
        "vertices": 10,
        "facets_per_vertex": 12,
    },
}


def expected_verdict(values, true_topology: TreeTopology):
    """'correct'/'incorrect' by float nj_run, or None when it returns a tie."""
    n = true_topology.n
    tops = unique_topologies(nj_run(DissimilarityVector(n, tuple(values))))
    if len(tops) != 1:
        return None
    return "correct" if tops[0] == true_topology else "incorrect"


def _row_ok(verdict: str, margin_text: str, values, true_topology) -> bool:
    try:
        margin = float(margin_text)
    except ValueError:
        return False
    if verdict not in ("correct", "incorrect") or not math.isfinite(margin) or margin < 0:
        return False
    want = expected_verdict(values, true_topology)
    return want is None or want == verdict


def check_sim_records(text: str, reps: int, true_topology: TreeTopology):
    """(attempted, failed) over the replicates of one `nj sim` records.csv."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        return reps, reps
    header, body = rows[0], rows[1:]
    pair_cols = [i for i, h in enumerate(header) if h.startswith("d")]
    failed = abs(len(body) - reps)
    seen = set()
    for row in body:
        try:
            rep = int(row[0])
            values = [float(row[i]) for i in pair_cols]
        except (ValueError, IndexError):
            failed += 1
            continue
        if rep in seen or not 0 <= rep < reps or not _row_ok(row[1], row[2], values, true_topology):
            failed += 1
        seen.add(rep)
    return reps, min(failed, reps)


def check_distance_rows(text: str, vectors, true_topology: TreeTopology):
    """(attempted, failed) over the vectors of one `nj distance` output."""
    rows = list(csv.reader(io.StringIO(text)))
    want = len(vectors)
    if not rows or rows[0] != ["id", "verdict", "boundary_distance", "nearest_region"]:
        return want, want
    body = rows[1:]
    failed = abs(len(body) - want)
    for k, row in enumerate(body[:want]):
        if len(row) != 4 or row[0] != str(k) or not _row_ok(row[1], row[2], vectors[k], true_topology):
            failed += 1
    return want, min(failed, want)


def _angle_rows(text: str):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    if not rows or rows[0] != ["label", "samples", "fraction", "stderr"]:
        raise ValueError("missing header")
    return [(r[0], int(r[1]), float(r[2]), float(r[3])) for r in rows[1:]]


def check_topology_survey(text: str, samples: int, topologies: int) -> bool:
    """A per-topology survey: one row per topology, counts summing to samples."""
    try:
        rows = _angle_rows(text)
    except (ValueError, IndexError):
        return False
    if len(rows) != topologies or "# discarded_ties " not in text:
        return False
    if any(s != samples or not 0.0 <= f <= 1.0 for _, s, f, _ in rows):
        return False
    return sum(round(f * samples) for _, _, f, _ in rows) == samples


def check_type_survey(text: str, samples: int) -> bool:
    """Per-type fractions within TYPE_Z standard errors of the paper's values."""
    try:
        rows = _angle_rows(text)
    except (ValueError, IndexError):
        return False
    if [r[0] for r in rows] != list(TYPE_FRACTIONS) or any(r[1] != samples for r in rows):
        return False
    return all(
        abs(f - TYPE_FRACTIONS[label]) <= TYPE_Z * err + TYPE_ROUNDING
        for label, _, f, err in rows
    )


def check_census(n: int, cones: int, type_counts: dict) -> bool:
    want = EXACT[n]
    return cones == want["cones"] and type_counts == want["types"]


def check_reduced_cone(n: int, text: str) -> bool:
    """The cone file written by `nj cones reduce` has the expected facet count."""
    body = [ln.split() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not body or len(body[0]) != 3:
        return False
    try:
        k = int(body[0][2])
    except ValueError:
        return False
    return k == EXACT[n]["reduced_facets"] and len(body) == k + 1


def check_fvector(n: int, stdout: str) -> bool:
    try:
        return tuple(int(x) for x in stdout.split()) == EXACT[n]["fvector"]
    except ValueError:
        return False


def check_incidence(n: int, text: str) -> bool:
    """One line per facet, and every vertex on the same number of facets.

    These are the facts of the paper's table row (for n=6: vertices=15,
    facets=25, facets_per_vertex=18), read from the incidence file.
    """
    want = EXACT[n]
    lines = [ln for ln in text.splitlines() if ln.strip()]
    through: dict = {}
    for ln in lines:
        _, sep, ids = ln.partition(" | ")
        if not sep:
            return False
        for v in set(ids.split()):
            through[v] = through.get(v, 0) + 1
    return (
        len(lines) == want["facets"]
        and len(through) == want["vertices"]
        and set(through.values()) == {want["facets_per_vertex"]}
    )

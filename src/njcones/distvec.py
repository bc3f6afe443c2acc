"""Flattened pairwise-distance vectors and the leaf relabeling action.

A dissimilarity map on taxa {0, ..., n-1} is stored as a vector of
length m = n(n-1)/2, one entry per unordered pair, arranged so that
the pair {a, b} with a > b sits at index a(a-1)/2 + b.  Everything
downstream (the neighbor-joining criterion, the cones, the polytopes)
is linear algebra on these vectors, so the indexing conventions live
here and nowhere else.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class InputFormatError(ValueError):
    """Raised when a distance input file fails validation."""


def num_pairs(n: int) -> int:
    return n * (n - 1) // 2


def pair_to_index(a: int, b: int, n: int) -> int:
    """Flat index of the unordered pair {a, b} among the pairs of n taxa."""
    if a == b:
        raise ValueError(f"pair requires two distinct taxa, got ({a}, {b})")
    if not (0 <= a < n and 0 <= b < n):
        raise ValueError(f"taxon out of range for n={n}: ({a}, {b})")
    if a < b:
        a, b = b, a
    return a * (a - 1) // 2 + b


def index_to_pair(i: int, n: int) -> tuple[int, int]:
    """Inverse of pair_to_index; returns (a, b) with a > b."""
    if not (0 <= i < num_pairs(n)):
        raise ValueError(f"pair index {i} out of range for n={n}")
    # integer sqrt keeps this exact for any index size
    a = (1 + math.isqrt(1 + 8 * i)) // 2
    while a * (a - 1) // 2 > i:
        a -= 1
    while (a + 1) * a // 2 <= i:
        a += 1
    return a, i - a * (a - 1) // 2


def all_pairs(n: int) -> list[tuple[int, int]]:
    """Pairs (a, b) with a > b in flat-index order."""
    return [(a, b) for a in range(1, n) for b in range(a)]


@dataclass(frozen=True)
class DissimilarityVector:
    """A flattened dissimilarity map; entries may be Fractions or floats."""

    n: int
    values: tuple

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("need at least 4 taxa")
        if len(self.values) != num_pairs(self.n):
            raise ValueError(
                f"expected {num_pairs(self.n)} entries for n={self.n}, got {len(self.values)}"
            )

    @property
    def m(self) -> int:
        return len(self.values)

    def get(self, a: int, b: int):
        return self.values[pair_to_index(a, b, self.n)]

    def as_array(self) -> np.ndarray:
        return np.array([float(v) for v in self.values])

    @classmethod
    def from_pairs(cls, n: int, mapping) -> "DissimilarityVector":
        vals = [None] * num_pairs(n)
        for (a, b), v in mapping.items():
            vals[pair_to_index(a, b, n)] = v
        if any(v is None for v in vals):
            missing = [p for p, v in zip(all_pairs(n), vals) if v is None]
            raise ValueError(f"missing pairs: {missing}")
        return cls(n, tuple(vals))

    @classmethod
    def from_matrix(cls, rows) -> "DissimilarityVector":
        n = len(rows)
        vals = [rows[a][b] for a in range(1, n) for b in range(a)]
        return cls(n, tuple(vals))


def pair_permutation(sigma: Sequence[int], n: int) -> list[int]:
    """Index permutation pi with pi[index(a,b)] = index(sigma a, sigma b)."""
    if sorted(sigma) != list(range(n)):
        raise ValueError("sigma must be a permutation of range(n)")
    return [pair_to_index(sigma[a], sigma[b], n) for a, b in all_pairs(n)]


def permute_flat(sigma: Sequence[int], values: Sequence, n: int) -> list:
    """Relabel taxa: the output entry at {sigma a, sigma b} is the input at {a, b}."""
    pi = pair_permutation(sigma, n)
    out = [None] * len(values)
    for i, v in enumerate(values):
        out[pi[i]] = v
    return out


# ---------------------------------------------------------------------------
# Input parsing.

_SYM_RTOL = 1e-12  # entries that must agree may differ by this, relatively


def _parse_value(text: str):
    text = text.strip()
    value = float(text)
    if not math.isfinite(value):
        raise InputFormatError(f"distance {text!r} is not finite")
    return value


def parse_pair_csv(text: str):
    """Parse 'label,label,value' rows into a vector plus the sorted label list.

    Each unordered pair must appear, and again only with an equal value
    (see parse_phylip); rows with equal labels must carry the value zero.
    """
    entries = {}
    labels = set()
    for row in csv.reader(io.StringIO(text)):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if row[0].lstrip().startswith("#"):
            continue
        if len(row) != 3:
            raise InputFormatError(f"expected 'a,b,value', got {row!r}")
        a, b, raw = row[0].strip(), row[1].strip(), row[2]
        value = _parse_value(raw)
        if a == b:
            if value != 0:
                raise InputFormatError(f"diagonal entry for {a!r} must be zero")
            labels.add(a)
            continue
        labels.update((a, b))
        key = frozenset((a, b))
        if key in entries:
            prev = entries[key]
            if abs(prev - value) > _SYM_RTOL * max(abs(prev), abs(value)):
                raise InputFormatError(f"conflicting entries for pair ({a}, {b})")
        else:
            entries[key] = value
    names = sorted(labels)
    n = len(names)
    if n < 4:
        raise InputFormatError("need at least 4 taxa")
    index = {name: i for i, name in enumerate(names)}
    mapping = {}
    for key, value in entries.items():
        a, b = sorted(key)
        mapping[(index[a], index[b])] = value
    try:
        vec = DissimilarityVector.from_pairs(n, mapping)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    return vec, names


def parse_phylip(text: str):
    """Parse a square symmetric PHYLIP distance matrix; returns (vector, names).

    Mirror entries must agree to within _SYM_RTOL relatively, and
    diagonal entries be within _SYM_RTOL of the largest |entry|.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputFormatError("empty input")
    try:
        n = int(lines[0].split()[0])
    except ValueError as exc:
        raise InputFormatError("first line must give the number of taxa") from exc
    if len(lines) != n + 1:
        raise InputFormatError(f"expected {n} matrix rows, found {len(lines) - 1}")
    names = []
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != n + 1:
            raise InputFormatError(f"row {parts[:1]} must list a name and {n} values")
        names.append(parts[0])
        rows.append([_parse_value(p) for p in parts[1:]])
    scale = max((abs(v) for row in rows for v in row), default=0)
    for i in range(n):
        if abs(rows[i][i]) > _SYM_RTOL * scale:
            raise InputFormatError(f"nonzero diagonal at {names[i]}")
        for j in range(i):
            a, b = rows[i][j], rows[j][i]
            if abs(a - b) > _SYM_RTOL * max(abs(a), abs(b)):
                raise InputFormatError(f"asymmetric entries for ({names[i]}, {names[j]})")
    vec = DissimilarityVector.from_matrix(rows)
    return vec, names

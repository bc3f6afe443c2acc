"""Spans around njcones' public functions, recorded from outside the package.

`Tracer.install()` replaces each traced function by a wrapper in every
loaded ``njcones`` module that holds it, so names bound through
``from .x import y`` (``simulate.distance_to_wrong``,
``cones.feasible_point``, ``polytopes.rank``, ...) are traced where they
are looked up.  A span is (id, name, start, end, parent id, thread id,
info); parents come from a per-thread stack, so the chunk workers of
``solid_angles_mc`` open root spans on their own threads.  Spans stay in
memory until `write()`; `layer_metrics()` derives the per-layer metrics of
the operations and `setup_metrics()` those of the set-up.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from math import comb


def _dtw_info(rec):
    return rec.boundary_distance


def _nearest_info(res):
    return [res.distance, res.method == "enumeration"]


def _classify_info(ids):
    return [int(ids.size), int((ids < 0).sum())]


def _facets_info(inc):
    return [len(inc.facets), comb(len(inc.distinct_points), inc.dim)]


# (defining module, function, extractor of span info from the call).  Some
# functions the CLI calls feed no metric of their own; they are traced so that
# `cli.self_s` leaves out their time.
TRACED = (
    ("cli", "main", None),
    ("simulate", "build_model", None),
    ("simulate", "run_experiment", None),
    ("simulate", "simulate_alignment", None),
    ("simulate", "estimate_distances", None),
    ("simulate", "records_csv", None),
    ("simulate", "summary_csv", None),
    ("projection", "distance_to_wrong", _dtw_info),
    ("projection", "nearest_point", _nearest_info),
    ("cones", "membership", None),
    ("cones", "cone_from_trace", None),
    ("cones", "irredundant", None),
    ("cones", "read_cone_text", None),
    ("cones", "write_cone_text", None),
    ("rational", "feasible_point", None),
    ("rational", "rank", None),
    ("rational", "nullspace", None),
    ("rational", "affine_rank", None),
    ("census", "load_census", None),
    ("census", "census", None),
    ("census", "classify_batch", _classify_info),
    ("census", "solid_angles_mc", None),
    ("polytopes", "build_p", None),
    ("polytopes", "facet_enumeration", _facets_info),
    ("polytopes", "f_vector", None),
    ("polytopes", "write_incidence_text", None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, info=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = info(result) if info and result is not None else None
                spans.append((sid, name, start, end, parent, threading.get_ident(), extra))

        return traced

    def install(self) -> None:
        """Wrap every function in TRACED wherever an njcones module binds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "njcones"]
        for mod_name, fn_name, info in TRACED:
            owner = sys.modules[f"njcones.{mod_name}"]
            original = getattr(owner, fn_name)
            wrapper = self.wrap(f"{mod_name}.{fn_name}", original, info)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent, thread, extra in self.spans:
                fh.write(
                    json.dumps(
                        {"id": sid, "name": name, "start": start, "end": end,
                         "parent": parent, "thread": thread, "info": extra}
                    )
                    + "\n"
                )


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# name -> unit; every traced run reports all of them (0 where a layer is idle)
PER_LAYER = {
    "simulate.simulate_alignment.us": "us",
    "simulate.estimate_distances.us": "us",
    "simulate.records_csv.s": "s",
    "projection.distance_to_wrong.calls": "count",
    "projection.distance_to_wrong.us": "us",
    "projection.distance_to_wrong.self_us": "us",
    "projection.nearest_point.calls": "count",
    "projection.nearest_point.us": "us",
    "projection.nearest_point.useful_ratio": "ratio",
    "projection.nearest_point.fallbacks": "count",
    "cones.membership.calls": "count",
    "cones.membership.us": "us",
    "census.load_census.s": "s",
    "census.load_census.cache_hit": "ratio",
    "census.load_census.setup_s": "s",
    "census.classify_batch.calls": "count",
    "census.classify_batch.rows_per_s": "1/s",
    "census.tie_frac": "ratio",
    "census.solid_angles_mc.self_s": "s",
    "census.census.s": "s",
    "cones.cone_from_trace.calls": "count",
    "cones.cone_from_trace.ms": "ms",
    "cones.irredundant.s": "s",
    "rational.feasible_point.calls": "count",
    "rational.feasible_point.ms": "ms",
    "polytopes.facet_enumeration.calls": "count",
    "polytopes.facet_enumeration.s": "s",
    "polytopes.facet_yield": "ratio",
    "rational.rank.calls": "count",
    "rational.rank.us": "us",
    "rational.nullspace.calls": "count",
    "rational.nullspace.us": "us",
    "polytopes.f_vector.s": "s",
    "rational.affine_rank.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def setup_metrics(spans) -> dict:
    """Per-layer values of the set-up phase: the private census cache fill."""
    return {"census.load_census.setup_s": sum(
        s[3] - s[2] for s in spans if s[1] == "census.load_census"
    )}


def layer_metrics(spans) -> dict:
    """Per-layer values of the operations (PER_LAYER but set-up and trace.*)."""
    by_name: dict = {}
    children: dict = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(s[3] - s[2] for s in by_name.get(name, ()))

    def mean(name, scale):
        return _ratio(total(name), calls(name)) * scale

    def child_time(span):
        return sum(c[3] - c[2] for c in children.get(span[0], ()))

    out = {
        "simulate.simulate_alignment.us": mean("simulate.simulate_alignment", 1e6),
        "simulate.estimate_distances.us": mean("simulate.estimate_distances", 1e6),
        "simulate.records_csv.s": total("simulate.records_csv"),
        "projection.distance_to_wrong.calls": calls("projection.distance_to_wrong"),
        "projection.distance_to_wrong.us": mean("projection.distance_to_wrong", 1e6),
        "projection.nearest_point.calls": calls("projection.nearest_point"),
        "projection.nearest_point.us": mean("projection.nearest_point", 1e6),
        "cones.membership.calls": calls("cones.membership"),
        "cones.membership.us": mean("cones.membership", 1e6),
        "census.load_census.s": total("census.load_census"),
        "census.classify_batch.calls": calls("census.classify_batch"),
        "census.census.s": total("census.census"),
        "cones.cone_from_trace.calls": calls("cones.cone_from_trace"),
        "cones.cone_from_trace.ms": mean("cones.cone_from_trace", 1e3),
        "cones.irredundant.s": total("cones.irredundant"),
        "rational.feasible_point.calls": calls("rational.feasible_point"),
        "rational.feasible_point.ms": mean("rational.feasible_point", 1e3),
        "polytopes.facet_enumeration.calls": calls("polytopes.facet_enumeration"),
        "polytopes.facet_enumeration.s": total("polytopes.facet_enumeration"),
        "rational.rank.calls": calls("rational.rank"),
        "rational.rank.us": mean("rational.rank", 1e6),
        "rational.nullspace.calls": calls("rational.nullspace"),
        "rational.nullspace.us": mean("rational.nullspace", 1e6),
        "polytopes.f_vector.s": total("polytopes.f_vector"),
        "rational.affine_rank.calls": calls("rational.affine_rank"),
    }

    dtw = by_name.get("projection.distance_to_wrong", ())
    dtw_self = sum(s[3] - s[2] - child_time(s) for s in dtw)
    out["projection.distance_to_wrong.self_us"] = _ratio(dtw_self, len(dtw)) * 1e6
    # a projection is useful when its distance became the reported margin
    useful = sum(
        1
        for s in dtw
        if any(
            c[1] == "projection.nearest_point" and c[6] is not None and c[6][0] == s[6]
            for c in children.get(s[0], ())
        )
    )
    nearest = by_name.get("projection.nearest_point", ())
    out["projection.nearest_point.useful_ratio"] = _ratio(useful, len(nearest))
    out["projection.nearest_point.fallbacks"] = sum(
        1 for s in nearest if s[6] is not None and s[6][1]
    )

    loads = by_name.get("census.load_census", ())
    rebuilt = sum(
        1 for s in loads if any(c[1] == "census.census" for c in children.get(s[0], ()))
    )
    out["census.load_census.cache_hit"] = _ratio(len(loads) - rebuilt, len(loads))

    batches = by_name.get("census.classify_batch", ())
    rows = sum(s[6][0] for s in batches if s[6] is not None)
    ties = sum(s[6][1] for s in batches if s[6] is not None)
    out["census.classify_batch.rows_per_s"] = _ratio(rows, total("census.classify_batch"))
    out["census.tie_frac"] = _ratio(ties, rows)
    # wall time of the sampler not covered by a classify_batch span on any thread
    batch_iv = [(s[2], s[3]) for s in batches]
    mc_self = 0.0
    for s in by_name.get("census.solid_angles_mc", ()):
        inside = [(max(lo, s[2]), min(hi, s[3])) for lo, hi in batch_iv if hi > s[2] and lo < s[3]]
        mc_self += (s[3] - s[2]) - _union_length(inside)
    out["census.solid_angles_mc.self_s"] = mc_self

    enums = [s for s in by_name.get("polytopes.facet_enumeration", ()) if s[6] is not None]
    out["polytopes.facet_yield"] = _ratio(
        sum(s[6][0] for s in enums), sum(s[6][1] for s in enums)
    )

    out["cli.self_s"] = sum(
        s[3] - s[2] - child_time(s) for s in by_name.get("cli.main", ())
    )
    return out

"""Run-time spans around epsstream's layer entry points.

The tracer replaces each entry point on the object its caller looks it up
on (``engine`` binds ``reduce_with_budget`` and ``collapse_duplicates`` by
name; ``sampler`` calls ``rangesums.max_range_sums`` through the module;
``max_range_sums`` finds the per-family sweeps in its module globals) with
a wrapper that records a span: name, start, end, parent span and run id.
Spans stay in memory and are written out when the benchmark ends.  Every
original is restored on exit.  A target that no longer exists is recorded
as absent, and the metrics derived from it are left out, not reported as 0.

Accepted halvings are derived from outside: a reduction keeps the prefix of
its halvings whose measured errors sum to the spend it returns (the first
halving that would overspend is rolled back and ends the reduction).
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

from epsstream import engine, queries, rangesums, sampler, stats

from workloads import STAT_FUNCS

# (owner, attribute, span name); the owner is where the caller looks it up.
TARGETS = (
    (engine.StreamState, "insert", "engine.insert"),
    (engine.StreamState, "snapshot", "engine.snapshot"),
    (engine, "reduce_with_budget", "engine.reduce"),
    (engine, "collapse_duplicates", "sampler.collapse"),
    (sampler, "collapse_duplicates", "sampler.collapse"),
    (sampler, "halve", "sampler.halve"),
    (sampler, "_guidance_masks", "sampler.guidance"),
    (sampler, "low_discrepancy_coloring", "sampler.coloring"),
    (sampler, "_paired_coloring", "sampler.coloring"),
    (rangesums, "max_range_sums", "rangesums.measure"),
    (rangesums, "_max_halfplane_sums_np", "rangesums.halfplane_fast"),
    (rangesums, "_max_halfplane_sums_py", "rangesums.halfplane_fallback"),
    (rangesums, "max_quadrant_sums", "rangesums.quadrant"),
    (rangesums, "max_disk_sum", "rangesums.disk"),
    (rangesums, "max_slab_sum", "rangesums.slab"),
    (rangesums, "max_wedge_sum", "rangesums.wedge"),
    (rangesums, "max_dwedge_sum", "rangesums.dwedge"),
    (rangesums, "max_vpar_sum", "rangesums.vpar"),
    (queries, "approx_count", "queries.count"),
    (queries, "iceberg_query", "queries.iceberg"),
) + tuple((stats, fn, "stats." + name.replace("-", "_")) for name, fn in STAT_FUNCS.items())

# Per-layer metric -> (unit, span names it is derived from).
PER_LAYER = {
    "engine.insert_self_s": ("s", ("engine.insert", "engine.reduce")),
    "engine.reduce_calls": ("count", ("engine.reduce",)),
    "engine.snapshot_s": ("s", ("engine.snapshot",)),
    "engine.snapshot_self_s": ("s", ("engine.snapshot", "engine.reduce")),
    "sampler.guidance_s": ("s", ("sampler.guidance",)),
    "sampler.coloring_s": ("s", ("sampler.coloring",)),
    "sampler.snapshot_coloring_s": ("s", ("sampler.coloring", "engine.snapshot")),
    "sampler.halve_calls": ("count", ("sampler.halve",)),
    "sampler.halve_accepted": ("count", ("sampler.halve", "engine.reduce")),
    "sampler.halve_accept_ratio": ("ratio", ("sampler.halve", "engine.reduce")),
    "sampler.halve_points": ("count", ("sampler.halve",)),
    "sampler.snapshot_halve_calls": ("count", ("sampler.halve",)),
    "sampler.snapshot_halve_accepted": ("count", ("sampler.halve", "engine.reduce")),
    "sampler.halve_self_s": ("s", ("sampler.halve",)),
    "sampler.collapse_s": ("s", ("sampler.collapse",)),
    "sampler.collapse_saved_points": ("count", ("sampler.collapse",)),
    "rangesums.measure_calls": ("count", ("rangesums.measure",)),
    "rangesums.measure_lists": ("count", ("rangesums.measure",)),
    "rangesums.measure_s": ("s", ("rangesums.measure",)),
    "rangesums.halfplane_fast_calls": ("count", ("rangesums.halfplane_fast",)),
    "rangesums.halfplane_fast_s": ("s", ("rangesums.halfplane_fast",)),
    "rangesums.halfplane_fallback_calls": ("count", ("rangesums.halfplane_fallback",)),
    "rangesums.halfplane_fallback_s": ("s", ("rangesums.halfplane_fallback",)),
    "rangesums.snapshot_fallback_s": ("s", ("rangesums.halfplane_fallback", "engine.snapshot")),
    **{f"rangesums.{fam}_s": ("s", (f"rangesums.{fam}",))
       for fam in ("quadrant", "disk", "slab", "wedge", "dwedge", "vpar")},
    "queries.count_calls": ("count", ("queries.count",)),
    "queries.count_s": ("s", ("queries.count",)),
    "queries.iceberg_calls": ("count", ("queries.iceberg",)),
    "queries.iceberg_s": ("s", ("queries.iceberg",)),
    **{f"stats.{fn}_s": ("s", (f"stats.{fn}",))
       for fn in (name.replace("-", "_") for name in STAT_FUNCS)},
    "trace.overhead_ratio": ("ratio", ()),
}

# Counts that repeat exactly for a given workload and seed.
DETERMINISTIC = tuple(name for name, (unit, _) in PER_LAYER.items()
                      if unit == "count" or name == "sampler.halve_accept_ratio")


class Tracer:
    """Spans and counters for the passes run inside ``with tracer:``."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, run id]
        self.run_id = ""
        self.absent: set = set()
        self.args: dict = {}  # span index -> count taken from arguments or results
        self.reductions: list = []  # (caller span name, halvings, accepted)
        self._stack: list = []
        self._halvings: list = []  # measured errors per open reduction
        self._patches: list = []

    def __enter__(self):
        present = set()
        for owner, attr, name in TARGETS:
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            present.add(name)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, name))
        self.absent = {name for _, _, name in TARGETS} - present
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)
        return False

    def _wrap(self, fn, name):
        spans, stack, args_of = self.spans, self._stack, self.args

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.run_id])
            stack.append(idx)
            if name == "engine.reduce":
                self._halvings.append([])
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx][1:3] = (t0, t1)
                errs = self._halvings.pop() if name == "engine.reduce" else None
            if name == "sampler.halve":
                args_of[idx] = len(args[0])
                if self._halvings:
                    self._halvings[-1].append(out[1])
            elif name == "engine.reduce":
                self._reduced(idx, errs, out[1])
            elif name == "sampler.collapse":
                args_of[idx] = len(args[0]) - len(out)
            elif name == "rangesums.measure":
                args_of[idx] = len(args[2])
            return out

        traced.__wrapped__ = fn
        return traced

    def _reduced(self, idx, errs, spent):
        total = accepted = 0
        for err in errs:
            total += err
            if total > spent:
                break
            accepted += 1
        parent = self.spans[idx][3]
        caller = self.spans[parent][0] if parent is not None else ""
        self.reductions.append((caller, len(errs), accepted))

    # -- metrics -----------------------------------------------------------

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """Per-layer metrics: times are per-pass means, counts per pass."""
        spans = self.spans
        dur: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        from_args: dict = defaultdict(int)
        # time of each span name's direct children that its self time excludes
        child: dict = defaultdict(float)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            pname = spans[parent][0] if parent is not None else ""
            layer = name.split(".")[0]
            # queries and stats count the calls the benchmark made, not the
            # ones they make of each other (iceberg asks approx_count)
            if layer in ("queries", "stats") and pname.split(".")[0] == layer:
                continue
            dur[name] += t1 - t0
            calls[name] += 1
            if name == "rangesums.halfplane_fallback" and pname == "rangesums.halfplane_fast":
                # the fast sweep handed its call on: count it, and its
                # time, as the fallback's only
                dur[pname] -= t1 - t0
                calls[pname] -= 1
            from_args[name] += self.args.get(i, 0)
            if (pname.startswith("engine.") and name == "engine.reduce") or (
                    pname == "sampler.halve"
                    and name in ("sampler.guidance", "sampler.coloring", "rangesums.measure")):
                child[pname] += t1 - t0
        halve_points = 0
        in_snapshot: dict = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(spans):
            if name == "sampler.halve" and self._under(i, "engine.insert"):
                halve_points += self.args[i]
            elif name in ("sampler.coloring", "rangesums.halfplane_fallback") \
                    and self._under(i, "engine.snapshot"):
                in_snapshot[name] += t1 - t0
        ingest = [(h, a) for caller, h, a in self.reductions if caller == "engine.insert"]
        snap = [(h, a) for caller, h, a in self.reductions if caller == "engine.snapshot"]
        h_calls, h_acc = sum(h for h, _ in ingest), sum(a for _, a in ingest)
        p = max(1, passes)
        special = {
            "engine.insert_self_s": (dur["engine.insert"] - child["engine.insert"]) / p,
            "engine.snapshot_self_s": (dur["engine.snapshot"] - child["engine.snapshot"]) / p,
            "sampler.snapshot_coloring_s": in_snapshot["sampler.coloring"] / p,
            "sampler.halve_calls": h_calls / p,
            "sampler.halve_accepted": h_acc / p,
            "sampler.halve_accept_ratio": h_acc / h_calls if h_calls else 0.0,
            "sampler.halve_points": halve_points / p,
            "sampler.snapshot_halve_calls": sum(h for h, _ in snap) / p,
            "sampler.snapshot_halve_accepted": sum(a for _, a in snap) / p,
            "sampler.halve_self_s": (dur["sampler.halve"] - child["sampler.halve"]) / p,
            "sampler.collapse_saved_points": from_args["sampler.collapse"] / p,
            "rangesums.measure_lists": from_args["rangesums.measure"] / p,
            "rangesums.snapshot_fallback_s": in_snapshot["rangesums.halfplane_fallback"] / p,
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for metric, (unit, sources) in PER_LAYER.items():
            if self.absent.intersection(sources):
                continue
            if metric in special:
                value = special[metric]
            else:  # a span name's busy time or call count
                value = (dur if unit == "s" else calls)[sources[0]] / p
            out[metric] = {"value": value, "unit": unit}
        return out

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, run) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "run": run}) + "\n")

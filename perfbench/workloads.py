"""Seeded workloads for the epsstream benchmark, and one timed pass over them.

Each workload is a list of streams.  A stream is one range family's points,
the prefix lengths at which it is snapshotted, the count and iceberg queries
asked of its final snapshot, and the statistics computed on one of its
snapshots.  Points come from ``random.Random`` seeded with the workload name
and ``--seed``; queries and statistic arguments come from a generator seeded
with the workload name only, so every seed asks the same questions of
different data.

The engine is a single-writer library with no queue, so the benchmark drives
it as a closed loop with one client: each call starts when the previous one
has returned, and no backlog can form.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from epsstream import Point2, StreamState, make_config, queries, stats
from epsstream.ranges import Disk, DoubleWedge, Halfplane, Quadrant, Slab, VParallelogram, Wedge
from epsstream.sampler import sample_to_json

EPS = Fraction(1, 4)

# In-range coordinates: |c| < 2^25 keeps the exact halfplane sweep on its
# int64 path and the halfplane discrepancy oracle usable.
SPAN = 1 << 21

# Wide coordinates: x = WIDE_K * u + WIDE_C for an integer preimage u in
# [0, WIDE_U], so x runs from 2^26 to just under 2^28 (inputs of 64 to 256
# units at the default 2^20 scale, on a lattice of step ~1e-4 unit).
WIDE_K = 105
WIDE_C = 1 << 26
WIDE_U = 1_900_000
# Mean lag, in readings, between the two readings of a repeated point.
WIDE_LAG = 8

THETAS = tuple(Fraction(k, 8) for k in range(1, 8))

# Inserts are timed in slices of this many points.
INGEST_SLICE = 64

# Statistic name (as the CLI spells it) -> function in epsstream.stats.
STAT_FUNCS = {
    "tukey-depth": "tukey_depth",
    "tukey-median": "tukey_median",
    "simplicial": "simplicial_depth_estimate",
    "regdepth": "regression_depth",
    "regfit": "max_regression_depth_fit",
    "slope-rank": "slope_rank_estimate",
    "theil-sen": "theil_sen_fit",
    "lms-loc": "lms_location",
    "lms-reg": "lms_regression",
}


@dataclass
class Stream:
    family: str
    points: list
    checkpoints: tuple
    queries: list = field(default_factory=list)  # (op, descriptor, theta or None)
    stats: list = field(default_factory=list)  # (stat name, argument tuple)
    stats_at: int = -1  # index of the checkpoint whose snapshot the statistics read
    affine: tuple | None = None  # (K, c): every coordinate is K*u + c for an integer u


@dataclass
class Workload:
    name: str
    seed: int
    streams: list


@dataclass
class StreamResult:
    snapshots: list  # Snapshot, or the exception raised, per checkpoint
    stored: int
    answers: list  # per query: CountEstimate, Verdict or exception
    stats: list  # per statistic call: result or exception


@dataclass
class PassResult:
    """Outputs and per-call times of one pass; passes list calls in the same order."""

    streams: list | None  # None once only the digest and times are kept
    points: int
    # (start, seconds) of each call, in wall-clock time
    ingest_times: list  # per slice of at most INGEST_SLICE inserts
    snapshot_times: list
    query_times: list
    stat_times: list
    wall_s: float
    calls: int
    digest: str  # hash of every output; passes with equal outputs have equal digests


# ---------------------------------------------------------------------------
# Generators.
# ---------------------------------------------------------------------------


def _uniform(rng: random.Random, n: int) -> list:
    return [Point2(rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)) for _ in range(n)]


def _wide(rng: random.Random, n: int) -> list:
    """n points on the wide lattice: n/2 distinct ones, each read twice.

    The second reading of a point follows the first after a lag drawn from
    a geometric distribution of mean WIDE_LAG readings, with no regard to
    where the engine's merge blocks begin, so some pairs meet in the first
    merge and others only in a later one or at the snapshot.  The lag scale
    is an assumption, not taken from a measured source.
    """
    seen: set = set()
    firsts = []
    while len(firsts) < n // 2:
        u = (rng.randint(0, WIDE_U), rng.randint(0, WIDE_U))
        if u not in seen:
            seen.add(u)
            firsts.append(u)
    log_stay = math.log(1 - 1 / WIDE_LAG)
    events = []
    for j, u in enumerate(firsts):
        lag = 1 + int(math.log(1.0 - rng.random()) / log_stay)
        events.append((2 * j, rng.random(), u))
        events.append((2 * j + lag, rng.random(), u))
    events.sort()
    return [Point2(WIDE_K * u + WIDE_C, WIDE_K * v + WIDE_C) for _, _, (u, v) in events]


def _box_point(rng: random.Random, lo: int, hi: int) -> tuple:
    return rng.randint(lo, hi), rng.randint(lo, hi)


def _halfplane(rng: random.Random, lo: int, hi: int) -> Halfplane:
    a = b = 0
    while a == 0 and b == 0:
        a, b = rng.randint(-8, 8), rng.randint(-8, 8)
    x0, y0 = _box_point(rng, lo, hi)
    return Halfplane(a, b, a * x0 + b * y0)


def _slab_params(rng: random.Random, lo: int, hi: int) -> tuple:
    a = rng.randint(-3, 3)
    x0, y0 = _box_point(rng, lo, hi)
    w = rng.randint(0, (hi - lo) // 3)
    return a, y0 - a * x0 - w, y0 - a * x0 + w


def _descriptor(kind: str, rng: random.Random, lo: int, hi: int):
    if kind == "halfplane":
        return _halfplane(rng, lo, hi)
    if kind == "quadrant":
        return Quadrant(*_box_point(rng, lo, hi))
    if kind == "wedge":
        return Wedge(_halfplane(rng, lo, hi), _halfplane(rng, lo, hi))
    if kind == "dwedge":
        return DoubleWedge(_halfplane(rng, lo, hi), _halfplane(rng, lo, hi))
    if kind == "disk":
        cx, cy = _box_point(rng, lo, hi)
        r = rng.randint(0, (hi - lo) // 2)
        return Disk(cx, cy, r * r)
    if kind == "slab":
        return Slab(*_slab_params(rng, lo, hi))
    if kind == "vpar":
        x1, x2 = sorted(_box_point(rng, lo, hi))
        return VParallelogram(x1, x2, *_slab_params(rng, lo, hi))
    raise ValueError(f"unknown family {kind!r}")


def _queries(kind: str, rng: random.Random, count: int, lo: int, hi: int) -> list:
    """count queries, alternating count and iceberg."""
    out = []
    for i in range(count):
        desc = _descriptor(kind, rng, lo, hi)
        out.append(("iceberg", desc, rng.choice(THETAS)) if i % 2 else ("count", desc, None))
    return out


def _probes(rng: random.Random, count: int, lo: int, hi: int) -> list:
    return [Point2(*_box_point(rng, lo, hi)) for _ in range(count)]


def _lines(rng: random.Random, count: int) -> list:
    return [stats.FitLine(Fraction(rng.randint(-8, 8), rng.randint(1, 5)),
                          Fraction(rng.randint(-SPAN, SPAN), rng.randint(1, 7)))
            for _ in range(count)]


def _halfplane_stream(name: str, seed: int, wide: bool) -> Stream:
    """n = 1536 (in range) or 512 (wide), snapshotted at n/4, n/2, 3n/4 and n.

    In range the stream runs past the halfplane reduce threshold (1024), so
    its last two snapshots show the cliff; 1536 rather than 2048 keeps a
    pass near 11 s rather than 17 s, so a 36-s run repeats it three times.
    """
    rng = random.Random(f"{name}:{seed}")
    fixed = random.Random(name)
    # Each time metric needs enough work per pass to average over the
    # host's second-scale speed swings, and a run needs three passes for
    # its per-call medians.  The wide stream's queries are 20x cheaper, so
    # it asks more of them; in range a pass is long, so it asks fewer.
    if wide:
        n, pts, asked, probed = 512, _wide(rng, 512), 4096, 12
        lo, hi, affine = WIDE_C, WIDE_C + WIDE_K * WIDE_U, (WIDE_K, WIDE_C)
    else:
        n, pts, asked, probed = 1536, _uniform(rng, 1536), 768, 8
        lo, hi, affine = -SPAN, SPAN, None
    probes = _probes(fixed, probed, (3 * lo + hi) // 4, (lo + 3 * hi) // 4)
    # Tukey depth reads a snapshot of a prefix of at most 512 points, the
    # cap of its oracle, so every call is checked: the wide stream's final
    # one (64 points) and, in range, the one at n/4 (96 points at most
    # seeds).  In range the last two snapshots hold over 1024 points, where
    # one probe would take ~10 s.
    return Stream("halfplane", pts, (n // 4, n // 2, 3 * n // 4, n),
                  queries=_queries("halfplane", fixed, asked, lo, hi),
                  stats=[("tukey-depth", (q,)) for q in probes],
                  stats_at=-1 if wide else 0, affine=affine)


# Families, stream lengths and statistics of the families-stats workload.
# Lengths sit at or below each family's reduce threshold so the final
# reduction runs, and are small enough that every statistic ends in seconds
# (regfit is O(m^4) in its snapshot size, so it reads its own 12-point
# stream).  At these lengths the snapshot sizes do not depend on the seed.
_FAMILY_STREAMS = (
    ("halfplane", 64, ("tukey-depth", "tukey-median")),
    ("quadrant", 512, ()),
    ("wedge", 24, ("simplicial",)),
    ("dwedge", 48, ("regdepth",)),
    ("dwedge", 12, ("regfit",)),
    ("vpar", 16, ("slope-rank", "theil-sen")),
    ("disk", 24, ("lms-loc",)),
    ("slab", 32, ("lms-reg",)),
)
_QUERIES_PER_FAMILY = 148  # 7 queried families -> 1036 queries per pass


def _families_streams(name: str, seed: int) -> list:
    rng = random.Random(f"{name}:{seed}")
    fixed = random.Random(name)
    inner = (-SPAN // 2, SPAN // 2)
    out = []
    queried = set()
    for fam, n, stat_names in _FAMILY_STREAMS:
        calls = []
        for stat in stat_names:
            if stat in ("tukey-depth", "simplicial"):
                calls.extend((stat, (q,)) for q in _probes(fixed, 4 if stat == "tukey-depth" else 3,
                                                           *inner))
            elif stat == "regdepth":
                calls.extend((stat, (line,)) for line in _lines(fixed, 4))
            elif stat == "slope-rank":
                calls.extend((stat, (Fraction(fixed.randint(-9, 9), fixed.randint(1, 4)),))
                             for _ in range(4))
            else:
                calls.append((stat, ()))
        qs = [] if fam in queried else _queries(fam, fixed, _QUERIES_PER_FAMILY, -SPAN, SPAN)
        queried.add(fam)
        out.append(Stream(fam, _uniform(rng, n), (n,), queries=qs, stats=calls))
    return out


WORKLOADS = ("stream-halfplane", "halfplane-wide", "families-stats")


def generate(name: str, seed: int) -> Workload:
    if name == "stream-halfplane":
        streams = [_halfplane_stream(name, seed, wide=False)]
    elif name == "halfplane-wide":
        streams = [_halfplane_stream(name, seed, wide=True)]
    elif name == "families-stats":
        streams = _families_streams(name, seed)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return Workload(name, seed, streams)


# ---------------------------------------------------------------------------
# One pass.
# ---------------------------------------------------------------------------


def _digest(results: list) -> str:
    h = hashlib.sha256()
    for sr in results:
        for snap in sr.snapshots:
            if isinstance(snap, Exception):
                h.update(repr(snap).encode())
            else:
                h.update(json.dumps([snap.n, sample_to_json(snap.sample, snap.family)],
                                    sort_keys=True).encode())
        h.update(repr((sr.stored, sr.answers, sr.stats)).encode())
    return h.hexdigest()


def _timed(fn, *args):
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raised call is counted as failed; the pass goes on
        out = exc
    return out, (t0, perf_counter() - t0)


def run_pass(wl: Workload) -> PassResult:
    """Drive every stream of the workload once through the library API.

    Statistics are computed right after the snapshot they read, and each
    stream's queries are asked of its final snapshot when the stream ends.
    Entry points are looked up on their modules at call time, so a tracer
    that patches them sees these calls.
    """
    t_start = perf_counter()
    results = []
    points = calls = 0
    ingest_times: list = []
    snapshot_times: list = []
    query_times: list = []
    stat_times: list = []
    for stream in wl.streams:
        state = StreamState(make_config(EPS, stream.family))
        stats_at = stream.stats_at % len(stream.checkpoints)
        snaps = []
        stat_out = []
        answers = []
        done = 0
        for ci, cp in enumerate(stream.checkpoints):
            for lo in range(done, cp, INGEST_SLICE):
                _, took = _timed(state.extend, stream.points[lo:min(cp, lo + INGEST_SLICE)])
                ingest_times.append(took)
            points += cp - done
            done = cp
            snap, took = _timed(state.snapshot)
            snapshot_times.append(took)
            snaps.append(snap)
            if ci == stats_at:
                for stat, args in stream.stats:
                    res, took = _timed(getattr(stats, STAT_FUNCS[stat]), snap, *args)
                    stat_times.append(took)
                    stat_out.append(res)
        for op, desc, theta in stream.queries:
            if op == "count":
                ans, took = _timed(queries.approx_count, snaps[-1], desc)
            else:
                ans, took = _timed(queries.iceberg_query, snaps[-1], desc, theta)
            query_times.append(took)
            answers.append(ans)
        calls += 2 * len(stream.checkpoints) + len(stream.queries) + len(stat_out)
        results.append(StreamResult(snaps, state.memory_footprint().points_stored, answers,
                                    stat_out))
    wall_s = perf_counter() - t_start
    return PassResult(results, points, ingest_times, snapshot_times, query_times, stat_times,
                      wall_s, calls, _digest(results))

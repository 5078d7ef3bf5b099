"""Time every robust statistic on exact uniform snapshots.

    python3 tools/stats_timing.py

For each size m in ``SIZES``, the m points of ``tests/streams.make_stream(
"uniform", m, SEED)`` (integers in [-2^21, 2^21]) become one exact snapshot
per range family at eps 1/4, with every weight 1, and each statistic is
called on its family's snapshot ``REPEATS`` times; the best wall-clock time
is kept.  The package is imported from ``src``.  The process pins itself to
one CPU, the lowest it may use, and prints one JSON object: the settings,
the host, and per size the seconds of each statistic, keyed by the name the
CLI uses.  Two more rows time Tukey depth alone: at the centre of a
``WIDE_POINTS``-point snapshot with coordinates in [2^26, 2^28] (the shape
of the benchmark's halfplane-wide workload), and at a Fraction probe of
the ``WIDE_POINTS``-point uniform snapshot, which scales the support and
the probe together to integers.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from epsstream import Point2, make_config, stats  # noqa: E402
from epsstream.engine import snapshot_of_exact  # noqa: E402

SIZES = (48, 96, 128)
SEED = 5
REPEATS = 3
SPAN = 1 << 21
WIDE_POINTS = 64
WIDE_LO, WIDE_HI = 1 << 26, 1 << 28
FRACTION_PROBE = Point2(Fraction(1, 3), Fraction(-2, 7))

# CLI name -> (function in epsstream.stats, snapshot family, extra arguments)
STATISTICS = {
    "tukey-depth": ("tukey_depth", "halfplane", (Point2(0, 0),)),
    "tukey-median": ("tukey_median", "halfplane", ()),
    "simplicial": ("simplicial_depth_estimate", "wedge", (Point2(0, 0),)),
    "regdepth": ("regression_depth", "dwedge", (stats.FitLine(Fraction(1, 3), Fraction(0)),)),
    "regfit": ("max_regression_depth_fit", "dwedge", ()),
    "slope-rank": ("slope_rank_estimate", "vpar", (Fraction(1, 2),)),
    "theil-sen": ("theil_sen_fit", "vpar", ()),
    "lms-loc": ("lms_location", "disk", ()),
    "lms-reg": ("lms_regression", "slab", ()),
}


def uniform_points(m: int, seed: int) -> list[Point2]:
    """The points of ``tests/streams.make_stream("uniform", m, seed)``."""
    rng = random.Random(("uniform", m, seed).__repr__())
    return [Point2(rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)) for _ in range(m)]


def best_time(func, *args) -> float:
    """The least wall-clock seconds of ``REPEATS`` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        func(*args)
        best = min(best, perf_counter() - start)
    return best


def time_sizes() -> dict:
    out = {}
    for m in SIZES:
        pts = uniform_points(m, SEED)
        snaps = {}
        row = {}
        for name, (func, family, args) in STATISTICS.items():
            if family not in snaps:
                snaps[family] = snapshot_of_exact(pts, make_config(Fraction(1, 4), family))
            row[name] = round(best_time(getattr(stats, func), snaps[family], *args), 4)
        out[str(m)] = row
    return out


def time_tukey_depth_rows() -> dict:
    config = make_config(Fraction(1, 4), "halfplane")
    rng = random.Random(("wide", WIDE_POINTS, SEED).__repr__())
    wide = [Point2(rng.randint(WIDE_LO, WIDE_HI), rng.randint(WIDE_LO, WIDE_HI))
            for _ in range(WIDE_POINTS)]
    centre = Point2((WIDE_LO + WIDE_HI) // 2, (WIDE_LO + WIDE_HI) // 2)
    uniform = snapshot_of_exact(uniform_points(WIDE_POINTS, SEED), config)
    return {
        f"tukey-depth-wide-{WIDE_POINTS}": round(
            best_time(stats.tukey_depth, snapshot_of_exact(wide, config), centre), 6),
        f"tukey-depth-fraction-probe-{WIDE_POINTS}": round(
            best_time(stats.tukey_depth, uniform, FRACTION_PROBE), 6),
    }


def main() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = {
        "settings": {"seed": SEED, "eps": "1/4", "repeats": REPEATS, "best_of": True,
                     "points": "make_stream('uniform', m, seed), exact snapshots"},
        "host": {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine()},
        "seconds": time_sizes(),
        "tukey_depth_seconds": time_tukey_depth_rows(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

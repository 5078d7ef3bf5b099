"""Time every robust statistic on exact uniform snapshots.

    python3 tools/stats_timing.py

For each size m in ``SIZES``, the m points of ``tests/streams.make_stream(
"uniform", m, SEED)`` (integers in [-2^21, 2^21]) become one exact snapshot
per range family at eps 1/4, with every weight 1, and each statistic is
called on its family's snapshot ``REPEATS`` times; the best wall-clock time
is kept.  The package is imported from ``src``.  The process pins itself to
one CPU, the lowest it may use, and prints one JSON object: the settings,
the host, and per size the seconds of each statistic, keyed by the name the
CLI uses.
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


def time_sizes() -> dict:
    out = {}
    for m in SIZES:
        pts = uniform_points(m, SEED)
        snaps = {}
        row = {}
        for name, (func, family, args) in STATISTICS.items():
            if family not in snaps:
                snaps[family] = snapshot_of_exact(pts, make_config(Fraction(1, 4), family))
            best = float("inf")
            for _ in range(REPEATS):
                start = perf_counter()
                getattr(stats, func)(snaps[family], *args)
                best = min(best, perf_counter() - start)
            row[name] = round(best, 4)
        out[str(m)] = row
    return out


def main() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = {
        "settings": {"seed": SEED, "eps": "1/4", "repeats": REPEATS, "best_of": True,
                     "points": "make_stream('uniform', m, seed), exact snapshots"},
        "host": {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine()},
        "seconds": time_sizes(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

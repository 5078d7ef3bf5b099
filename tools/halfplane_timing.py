"""Time the exact halfplane measure and one halfplane halving.

    python3 tools/halfplane_timing.py

For each size m in ``SIZES``, the m points of ``tests/streams.make_stream(
"uniform", m, SEED)`` (integers in [-2^21, 2^21]) take weight 1 each.  Two
calls are timed ``REPEATS`` times and the best wall-clock time is kept:
``rangesums.max_halfplane_sums`` on the five delta lists a halving measures
(one per curve pairing of ``sampler._curve_keys``), and ``sampler.halve``
itself, which also builds the curve keys, the pairings and the kept class.
The package is imported from ``src``.  The process pins itself to one CPU,
the lowest it may use, and prints one JSON object: the settings, the host,
and per size the seconds of each call.
"""

from __future__ import annotations

import json
import os
import platform
import random
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from epsstream import FamilyKind, Point2, family, rangesums, sampler  # noqa: E402
from epsstream.sampler import WeightedSample  # noqa: E402

SIZES = (96, 192, 384, 768, 1024)
SEED = 7
REPEATS = 3
SPAN = 1 << 21


def uniform_points(m: int, seed: int) -> list[Point2]:
    """The points of ``tests/streams.make_stream("uniform", m, seed)``."""
    rng = random.Random(("uniform", m, seed).__repr__())
    return [Point2(rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)) for _ in range(m)]


def pairing_lists(sample: WeightedSample) -> list[list[int]]:
    """The delta lists ``sampler.halve`` measures for halfplanes."""
    scaled, _ = sample.scaled_weights
    return [sampler._class_error_deltas(sampler._paired_coloring(sample, key).signs, scaled)[0]
            for key in sampler._curve_keys(sample, FamilyKind.HALFPLANE)]


def best_of(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = perf_counter()
        call()
        best = min(best, perf_counter() - start)
    return round(best, 4)


def time_sizes() -> dict:
    fam = family("halfplane")
    out = {}
    for m in SIZES:
        sample = WeightedSample.uniform(uniform_points(m, SEED))
        lists = pairing_lists(sample)
        out[str(m)] = {
            "measure": best_of(lambda: rangesums.max_halfplane_sums(sample.points, lists)),
            "halve": best_of(lambda: sampler.halve(sample, fam)),
        }
    return out


def main() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    report = {
        "settings": {"seed": SEED, "lists": 5, "repeats": REPEATS, "best_of": True,
                     "points": "make_stream('uniform', m, seed), weight 1 each"},
        "host": {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine()},
        "seconds": time_sizes(),
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

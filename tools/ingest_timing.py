"""Time one ingest of a uniform halfplane stream, layer by layer.

    python3 tools/ingest_timing.py

The ``N`` points of ``tests/streams.make_stream("uniform", N, SEED)``
(integers in [-2^21, 2^21]) are inserted one by one into a fresh
``StreamState`` at eps 1/4.  The whole ingest is timed ``REPEATS`` times
and the best wall-clock time is kept.  Then the same ingest runs
``REPEATS`` more times with four layers wrapped in timers, and for each
layer the best of its per-ingest totals is kept:

- ``union``: the level merges' ``sampler.union``, as ``engine`` calls it;
- ``reduce``: ``sampler.reduce_with_budget``, as ``engine`` calls it;
- ``collapse``: ``sampler.collapse_duplicates``, inside ``reduce``;
- ``singleton_bound``: ``sampler.singleton_error_bound``, inside ``reduce``.

Layer times include the layers inside them and the timers' own cost, so
they add up to more than the plain ingest.  The package is imported from
``src``.  The process pins itself to one CPU, the lowest it may use, and
prints one JSON object: the settings, the host, and the seconds.
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

from epsstream import Point2, StreamState, engine, make_config, sampler  # noqa: E402

N = 1536
SEED = 31
EPS = Fraction(1, 4)
REPEATS = 7
SPAN = 1 << 21

# layer name -> (module the caller looks it up on, attribute)
LAYERS = {
    "union": (engine, "union"),
    "reduce": (engine, "reduce_with_budget"),
    "collapse": (sampler, "collapse_duplicates"),
    "singleton_bound": (sampler, "singleton_error_bound"),
}


def uniform_points(n: int, seed: int) -> list[Point2]:
    """The points of ``tests/streams.make_stream("uniform", n, seed)``."""
    rng = random.Random(("uniform", n, seed).__repr__())
    return [Point2(rng.randint(-SPAN, SPAN), rng.randint(-SPAN, SPAN)) for _ in range(n)]


def ingest(points: list[Point2]) -> float:
    state = StreamState(make_config(EPS, "halfplane"))
    start = perf_counter()
    for p in points:
        state.insert(p)
    return perf_counter() - start


def timed(fn, totals: dict, name: str):
    def wrapper(*args):
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            totals[name] += perf_counter() - start
    return wrapper


def layer_times(points: list[Point2]) -> dict:
    best = {name: float("inf") for name in LAYERS}
    for _ in range(REPEATS):
        totals = dict.fromkeys(LAYERS, 0.0)
        originals = {name: getattr(owner, attr) for name, (owner, attr) in LAYERS.items()}
        try:
            for name, (owner, attr) in LAYERS.items():
                setattr(owner, attr, timed(originals[name], totals, name))
            ingest(points)
        finally:
            for name, (owner, attr) in LAYERS.items():
                setattr(owner, attr, originals[name])
        best = {name: min(best[name], totals[name]) for name in LAYERS}
    return {name: round(t, 5) for name, t in best.items()}


def main() -> int:
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    points = uniform_points(N, SEED)
    plain = min(ingest(points) for _ in range(REPEATS))
    report = {
        "settings": {"n": N, "seed": SEED, "eps": f"{EPS.numerator}/{EPS.denominator}",
                     "family": "halfplane", "repeats": REPEATS, "best_of": True,
                     "points": "make_stream('uniform', n, seed)"},
        "host": {"cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine()},
        "seconds": {"ingest": round(plain, 5), "us_per_insert": round(plain / N * 1e6, 2),
                    **layer_times(points)},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""epsstream benchmark: seeded workloads driven through the library API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src``.  One
process acts as a single client in a closed loop (see ``workloads.py``).
Passes over the workload repeat until the measured time is as near to
``--seconds`` as whole passes allow (at least one pass is made).  Every
pass makes the same calls, so each call's time is its median over the
passes, and time metrics are built from these per-call times; query
latency percentiles are taken over the per-query medians.  Peak RSS is
read after the first pass, so it does not depend on how many passes fit.

Every call's time, and every set-up time, is first normalised for the
host's speed at that moment (see ``hostspeed.py``): shared virtual CPUs
run the same code up to twice as fast at one moment as at another, for
seconds or minutes at a time.  The same metrics in plain wall-clock time
are printed with the run details.

The process pins itself to one CPU, the lowest it may use.  On small
virtual machines the CPUs can differ in speed from minute to minute (one
running up to 1.7x faster while its host core is idle); a process the
scheduler moves between them measures whichever it lands on.

The first pass's outputs are checked against the oracles, and every later
pass must reproduce them byte for byte.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, measured by
the spans of ``tracing.py`` (the untraced passes give the tracing
overhead).  Neither kind of pass runs host probes, so per-layer times are
plain wall-clock seconds.  Every layer is a single-threaded library call
with no queue in front of it, so each reports busy time and counts;
waiting time is zero by construction.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run details (code
identity, seed, versions, CPU count, BLAS threads, certificates) go to the
line before it and, with the spans of a traced run, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# One BLAS thread: the engine is single-threaded, and pool threads on a
# shared machine only add noise to the few float matrix products it makes.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

SETUP_REPEATS = 9

# Work a user pays before the first point: a fresh interpreter importing the
# package and building the workload's configurations.
SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from epsstream import make_config
from epsstream.engine import error_budget
for fam in sys.argv[2:]:
    error_budget(1, make_config(Fraction(1, 4), fam))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "ingest_pts_per_s": "1/s",
    "snapshot_s": "s",
    "stored_points": "count",
    "snapshot_points": "count",
    "stats_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "iceberg_uncertain_ratio": "ratio",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(families, speed) -> list:
    """(start, seconds) of each fresh-interpreter set-up, with a host probe between them.

    One probe each, not several in a row: a probe that follows another
    finds its code in the caches and runs faster than one after other work.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *families], check=True)
        times.append((t0, perf_counter() - t0))
    speed.probe()
    return times


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _run_info(args, nproc: int) -> dict:
    commit = None
    try:
        top, _, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                      capture_output=True, text=True, timeout=10
                                      ).stdout.strip().partition("\n")
        if top and Path(top).resolve() == ROOT:
            commit = head
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "epsstream").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": commit, "source_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": nproc, "cpu_count": os.cpu_count(),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "epsstream" / "__init__.py").is_file():
        print(f"epsstream sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import hostspeed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    wl = workloads.generate(args.workload, args.seed)
    speed = hostspeed.HostSpeed()
    setup = measure_setup(sorted({s.family for s in wl.streams}), speed)

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    # Only the first pass keeps its outputs, for checking; later passes keep
    # their digest and times, so memory does not grow with the pass count.
    plain, traced = [], []
    first = None
    start = perf_counter()
    while True:
        traced_turn = tracer is not None and len(traced) < len(plain)
        if traced_turn:
            tracer.run_id = f"{wl.name}:{wl.seed}:traced-pass-{len(traced)}"
        # per-layer times are plain wall-clock, so traced runs need no probes
        with tracer if traced_turn else nullcontext() if tracer else speed.sampling():
            res = workloads.run_pass(wl)
        if first is None:
            first = res
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        (traced if traced_turn else plain).append(replace(res, streams=None))
        runs = plain + traced
        if tracer is not None and not traced:
            continue
        # stop where the measured time lands nearest to --seconds
        expected = statistics.median(r.wall_s for r in runs)
        if perf_counter() - start + expected / 2 > args.seconds:
            break

    report = checks.check_pass(wl, first)
    # a pass that reproduces the first pass's outputs fails the same calls;
    # one that does not is failed as a whole
    attempted = sum(r.calls for r in runs)
    failed = 0
    failures = [f"{key}: {what}" for key, what in report.failed.items()]
    for i, r in enumerate(runs):
        if r.digest == first.digest:
            failed += len(report.failed)
        else:
            failed += r.calls
            failures.append(f"pass {i} outputs differ from the first pass")

    wall_clock = None
    if tracer is None:
        metrics = _end_to_end(plain, first, setup, peak_rss_mb, wl, attempted, failed,
                              speed.normalise)
        wall_clock = {name: m["value"] for name, m in _end_to_end(
            plain, first, setup, peak_rss_mb, wl, attempted, failed,
            speed.busy).items() if END_TO_END_UNITS[name] in ("s", "1/s", "us")}
    else:
        # the first pass also pays for warming caches up
        overhead = (statistics.median(r.wall_s for r in traced)
                    / statistics.median(r.wall_s for r in plain[1:] or plain))
        metrics = tracer.metrics(len(traced), overhead)

    info = _run_info(args, len(cpus))
    info.update({
        "passes": len(plain), "traced_passes": len(traced), "digest": first.digest,
        "wall_clock_metrics": wall_clock, "host_probes": len(speed.times),
        "host_probe_median_s": statistics.median(speed.times),
        "oracle_checks": report.checked, "oracle_skipped": report.skipped,
        "eps": str(workloads.EPS),
        "certified_errors": [[str(s.certified_error) if not isinstance(s, Exception) else None
                              for s in sr.snapshots] for sr in first.streams],
        "snapshot_sizes": [[len(s.sample) if not isinstance(s, Exception) else None
                            for s in sr.snapshots] for sr in first.streams],
        "failures": failures[:20],
    })
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.jsonl")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(OUT / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def _end_to_end(passes, first, setup, peak_rss_mb, wl, attempted, failed, norm) -> dict:
    """End-to-end metrics; ``norm(start, seconds)`` gives the time a call counts for."""

    def per_call(per_pass) -> list:
        """Each call's median time over the passes (calls line up across passes)."""
        return [statistics.median(norm(*took) for took in times) for times in zip(*per_pass)]

    latencies = per_call([r.query_times for r in passes])
    iceberg = [a for s, sr in zip(wl.streams, first.streams)
               for (op, _, _), a in zip(s.queries, sr.answers) if op == "iceberg"]
    uncertain = sum(1 for a in iceberg if getattr(a, "value", None) == "uncertain")
    values = {
        "setup_s": statistics.median(norm(*took) for took in setup),
        "ingest_pts_per_s": first.points / sum(per_call([r.ingest_times for r in passes])),
        "snapshot_s": statistics.fmean(per_call([r.snapshot_times for r in passes])),
        "stored_points": sum(sr.stored for sr in first.streams),
        "snapshot_points": sum(len(sr.snapshots[-1].sample) for sr in first.streams
                               if not isinstance(sr.snapshots[-1], Exception)),
        "stats_s": sum(per_call([r.stat_times for r in passes])),
        "query_p50_us": _percentile(latencies, 0.50) * 1e6,
        "query_p99_us": _percentile(latencies, 0.99) * 1e6,
        "iceberg_uncertain_ratio": uncertain / len(iceberg) if iceberg else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


if __name__ == "__main__":
    sys.exit(main())

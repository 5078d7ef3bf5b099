"""Command line surface: build summaries, query them, compare with oracles.

Exit codes: 0 ok, 2 input parse failure, 3 bad configuration, 4 internal
certification failure.  All outputs are JSON lines or CSV and deterministic
for a given input and configuration (the bench runtime column aside).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from .engine import Snapshot, StreamState, config_json, make_config
from .errors import CertificationError, EpsStreamError, FamilyMismatchError, StreamParseError
from .oracles import (
    PrefixMirror,
    exact_count,
    exact_discrepancy,
    exact_lms_disk,
    exact_lms_slab,
    exact_regression_depth,
    exact_simplicial_depth,
    exact_slope_rank,
    exact_tukey_depth,
)
from .queries import approx_count, eps_net, iceberg_query
from .ranges import (DEFAULT_SCALE, FamilyKind, Point2, _coord_from_text, format_point,
                     parse_descriptor, parse_point)
from .sampler import WeightedSample, _frac_str
from . import stats as stats_mod

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_CONFIG = 3
EXIT_CERT = 4


def _emit(out, obj) -> None:
    out.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_lines(path: str) -> list[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def _read_points(path: str, scale: int) -> list[Point2]:
    pts = []
    for i, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        pts.append(parse_point(line, scale, line_no=i))
    if not pts:
        raise StreamParseError("empty stream")
    return pts


def _load_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise StreamParseError(f"not a {what} file ({exc})") from exc


def _line_flag(text: str) -> tuple[Fraction, Fraction]:
    """The exact slope and intercept of a ``--line slope,intercept`` flag."""
    parts = text.split(",")
    if len(parts) != 2:
        raise StreamParseError(f"expected 'slope,intercept', got {text!r}")
    return _coord_from_text(parts[0]), _coord_from_text(parts[1])


def _scale_of(args) -> int:
    if args.scale is not None:
        scale = _int_from_text(args.scale, "--scale")
    else:
        env = os.environ.get("EPS_STREAM_SCALE")
        scale = _int_from_text(env, "EPS_STREAM_SCALE") if env else DEFAULT_SCALE
    if scale < 1:
        raise ValueError(f"scale must be a positive integer, got {scale}")
    return scale


def _int_from_text(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise StreamParseError(f"bad {what} {text!r}: expected an integer") from exc


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_build(args, out) -> int:
    scale = _scale_of(args)
    cfg = make_config(_coord_from_text(args.eps), args.family, scale)
    pts = _read_points(args.input, scale)
    if args.resume:
        state = StreamState.from_json(_load_json(args.resume, "state"))
        have, want = config_json(state.config), config_json(cfg)
        mismatched = [f"{key} {have[key]} (flags: {want[key]})"
                      for key in ("family", "eps", "scale") if have[key] != want[key]]
        if mismatched:
            raise EpsStreamError("resumed state has " + ", ".join(mismatched))
    else:
        state = StreamState(cfg)
    state.extend(pts)
    if args.state:
        with open(args.state, "w", encoding="utf-8") as fh:
            fh.write(state.to_json_str())
    snap = state.snapshot()
    if args.snapshot:
        with open(args.snapshot, "w", encoding="utf-8") as fh:
            fh.write(snap.to_json_str())
    _emit(out, {"n": state.n, "points_stored": state.memory_footprint().points_stored,
                "levels": state.memory_footprint().levels_occupied,
                "snapshot_size": len(snap.sample),
                "certified_error": _frac_str(snap.certified_error)})
    return EXIT_OK


def _run_query_line(snap: Snapshot, line: str, scale: int) -> dict:
    parts = line.strip().split(None, 1)
    if not parts:
        raise StreamParseError("empty query")
    verb = parts[0]
    if verb == "net":
        return {"points": [format_point(p, scale) for p in eps_net(snap)]}
    if verb == "count":
        if len(parts) < 2:
            raise StreamParseError("count needs a range descriptor")
        desc = parse_descriptor(parts[1], scale)
        est = approx_count(snap, desc)
        return {"estimate": _frac_str(est.estimate), "estimate_float": float(est.estimate),
                "bound": _frac_str(est.additive_bound)}
    if verb == "iceberg":
        rest = parts[1].split(None, 1) if len(parts) > 1 else []
        if len(rest) != 2:
            raise StreamParseError("iceberg needs: iceberg <theta> <descriptor>")
        theta = _coord_from_text(rest[0])
        verdict = iceberg_query(snap, parse_descriptor(rest[1], scale), theta)
        return {"verdict": verdict.value}
    raise StreamParseError(f"unknown query verb {verb!r}")


def _cmd_query(args, out) -> int:
    snap = Snapshot.from_json(_load_json(args.snapshot, "snapshot"))
    scale = snap.config.scale
    for line in _read_lines(args.queries):
        if line.strip():
            _emit(out, _run_query_line(snap, line, scale))
    return EXIT_OK


def _cmd_net(args, out) -> int:
    snap = Snapshot.from_json(_load_json(args.snapshot, "snapshot"))
    _emit(out, {"points": [format_point(p, snap.config.scale) for p in eps_net(snap)]})
    return EXIT_OK


def _cmd_stats(args, out) -> int:
    snap = Snapshot.from_json(_load_json(args.snapshot, "snapshot"))
    scale = snap.config.scale
    op = args.stat
    if op == "tukey-depth":
        dv = stats_mod.tukey_depth(snap, parse_point(args.point, scale))
        _emit(out, {"value": _frac_str(dv.value), "value_float": float(dv.value),
                    "additive_bound": _frac_str(dv.additive_bound)})
    elif op == "tukey-median":
        pt, dv = stats_mod.tukey_median(snap)
        _emit(out, {"point": format_point(pt, scale), "value": _frac_str(dv.value),
                    "value_float": float(dv.value), "additive_bound": _frac_str(dv.additive_bound)})
    elif op == "simplicial":
        delta = _coord_from_text(args.delta) if args.delta else None
        dv = stats_mod.simplicial_depth_estimate(snap, parse_point(args.point, scale), delta)
        _emit(out, {"value": _frac_str(dv.value), "value_float": float(dv.value),
                    "additive_bound": _frac_str(dv.additive_bound)})
    elif op == "regdepth":
        a, b = _line_flag(args.line)
        line = stats_mod.FitLine(a, b * scale)
        dv = stats_mod.regression_depth(snap, line)
        _emit(out, {"value": _frac_str(dv.value), "value_float": float(dv.value),
                    "additive_bound": _frac_str(dv.additive_bound)})
    elif op == "regfit":
        fit, dv = stats_mod.max_regression_depth_fit(snap)
        _emit(out, {"slope": _frac_str(fit.slope), "intercept": _frac_str(fit.intercept / scale),
                    "value": _frac_str(dv.value), "additive_bound": _frac_str(dv.additive_bound)})
    elif op == "slope-rank":
        rank = stats_mod.slope_rank_estimate(snap, _coord_from_text(args.slope))
        _emit(out, {"value": _frac_str(rank), "value_float": float(rank)})
    elif op == "theil-sen":
        fit = stats_mod.theil_sen_fit(snap)
        _emit(out, {"slope": _frac_str(fit.slope), "slope_float": float(fit.slope),
                    "intercept": _frac_str(fit.intercept / scale)})
    elif op == "lms-loc":
        disk = stats_mod.lms_location(snap)
        cx, cy = (_frac_str(v / scale) for v in disk.center)
        _emit(out, {"center": f"{cx},{cy}",
                    "radius2": _frac_str(disk.radius2 / scale / scale),
                    "radius_float": float(disk.radius2) ** 0.5 / scale})
    elif op == "lms-reg":
        fit, width = stats_mod.lms_regression(snap)
        _emit(out, {"slope": _frac_str(fit.slope), "intercept": _frac_str(fit.intercept / scale),
                    "vertical_width": _frac_str(width / scale)})
    else:
        raise StreamParseError(f"unknown stats subcommand {op!r}")
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    scale = _scale_of(args)
    mirror = PrefixMirror(_read_points(args.input, scale))
    op = args.stat
    if op == "count":
        desc = parse_descriptor(args.range, scale)
        _emit(out, {"count": exact_count(mirror, desc)})
    elif op == "tukey-depth":
        v = exact_tukey_depth(mirror, parse_point(args.point, scale))
        _emit(out, {"value": _frac_str(v), "value_float": float(v)})
    elif op == "simplicial":
        v = exact_simplicial_depth(mirror, parse_point(args.point, scale))
        _emit(out, {"value": _frac_str(v), "value_float": float(v)})
    elif op == "regdepth":
        a, b = _line_flag(args.line)
        v = exact_regression_depth(mirror, a, b * scale)
        _emit(out, {"value": _frac_str(v), "value_float": float(v)})
    elif op == "slope-rank":
        v = exact_slope_rank(mirror, _coord_from_text(args.slope))
        _emit(out, {"value": _frac_str(v), "value_float": float(v)})
    elif op == "lms-loc":
        (cx, cy), r2 = exact_lms_disk(mirror, _coord_from_text(args.fraction))
        _emit(out, {"center": f"{_frac_str(cx / scale)},{_frac_str(cy / scale)}",
                    "radius2": _frac_str(r2 / scale / scale)})
    elif op == "lms-reg":
        a, b1, b2 = exact_lms_slab(mirror, _coord_from_text(args.fraction))
        _emit(out, {"slope": _frac_str(a), "b1": _frac_str(b1 / scale), "b2": _frac_str(b2 / scale),
                    "vertical_width": _frac_str((b2 - b1) / scale)})
    elif op == "discrepancy":
        snap = Snapshot.from_json(_load_json(args.snapshot, "snapshot"))
        ground = WeightedSample.uniform(sorted(mirror.points))
        v = exact_discrepancy(ground, snap.sample, snap.family)
        _emit(out, {"value": _frac_str(v), "value_float": float(v), "eps": _frac_str(snap.eps)})
    else:
        raise StreamParseError(f"unknown oracle subcommand {op!r}")
    return EXIT_OK


def _cmd_bench(args, out) -> int:
    scale = _scale_of(args)
    cfg = make_config(_coord_from_text(args.eps), args.family, scale)
    pts = _read_points(args.input, scale)
    sizes = sorted({_int_from_text(s, "size") for s in args.sizes.split(",") if s.strip()})
    if not sizes or sizes[-1] > len(pts):
        raise ValueError(f"sizes must be nonempty and at most the stream length {len(pts)}")
    state = StreamState(cfg)
    rows = ["n,points_stored,levels,max_error,runtime_ms"]
    done = 0
    t0 = time.perf_counter()
    for n in sizes:
        state.extend(pts[done:n])
        done = n
        foot = state.memory_footprint()
        max_err = ""
        if n <= 512:
            snap = state.snapshot()
            ground = WeightedSample.uniform(sorted(pts[:n]))
            max_err = str(float(exact_discrepancy(ground, snap.sample, cfg.family) * n))
        ms = (time.perf_counter() - t0) * 1000.0
        rows.append(f"{n},{foot.points_stored},{foot.levels_occupied},{max_err},{ms:.1f}")
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="eps-stream",
                                  description="deterministic geometric stream summaries")
    top.add_argument("--scale", default=None,
                     help="coordinate scale (default env EPS_STREAM_SCALE or 2^20)")
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="stream points into a summary")
    b.add_argument("--input", required=True, help="points file, one x,y per line ('-' = stdin)")
    b.add_argument("--family", required=True, choices=[k.value for k in FamilyKind])
    b.add_argument("--eps", required=True)
    b.add_argument("--state", help="write engine state JSON here")
    b.add_argument("--snapshot", help="write snapshot JSON here")
    b.add_argument("--resume", help="resume from a previously written state")

    q = sub.add_parser("query", help="run query lines against a snapshot")
    q.add_argument("--snapshot", required=True)
    q.add_argument("--queries", default="-", help="query file ('-' = stdin)")

    n = sub.add_parser("net", help="emit the epsilon-net (snapshot support)")
    n.add_argument("--snapshot", required=True)

    s = sub.add_parser("stats", help="robust statistics from a snapshot")
    s.add_argument("stat", choices=["tukey-depth", "tukey-median", "simplicial", "regdepth",
                                    "regfit", "slope-rank", "theil-sen", "lms-loc", "lms-reg"])
    s.add_argument("--snapshot", required=True)
    s.add_argument("--point", help="x,y for depth queries")
    s.add_argument("--delta", help="sector granularity for simplicial depth")
    s.add_argument("--line", help="slope,intercept for regdepth")
    s.add_argument("--slope", help="query slope for slope-rank")

    o = sub.add_parser("oracle", help="exact brute-force references on raw input")
    o.add_argument("stat", choices=["count", "tukey-depth", "simplicial", "regdepth",
                                    "slope-rank", "lms-loc", "lms-reg", "discrepancy"])
    o.add_argument("--input", required=True)
    o.add_argument("--point")
    o.add_argument("--line")
    o.add_argument("--slope")
    o.add_argument("--range", help="range descriptor for count")
    o.add_argument("--fraction", default="1/2")
    o.add_argument("--snapshot", help="snapshot file for discrepancy")

    be = sub.add_parser("bench", help="space/error report over stream prefixes")
    be.add_argument("--input", required=True)
    be.add_argument("--family", required=True, choices=[k.value for k in FamilyKind])
    be.add_argument("--eps", required=True)
    be.add_argument("--sizes", required=True, help="comma separated prefix sizes")
    be.add_argument("--out", help="write the CSV here instead of stdout")

    return top


# The flag each (command, stat) reads, checked before the stat runs.
REQUIRED_FLAGS = {
    ("stats", "tukey-depth"): "point",
    ("stats", "simplicial"): "point",
    ("stats", "regdepth"): "line",
    ("stats", "slope-rank"): "slope",
    ("oracle", "count"): "range",
    ("oracle", "tukey-depth"): "point",
    ("oracle", "simplicial"): "point",
    ("oracle", "regdepth"): "line",
    ("oracle", "slope-rank"): "slope",
    ("oracle", "discrepancy"): "snapshot",
}

_DISPATCH = {
    "build": _cmd_build,
    "query": _cmd_query,
    "net": _cmd_net,
    "stats": _cmd_stats,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        flag = REQUIRED_FLAGS.get((args.command, getattr(args, "stat", None)))
        if flag and getattr(args, flag) is None:
            raise EpsStreamError(f"{args.stat} needs --{flag}")
        return _DISPATCH[args.command](args, out)
    except StreamParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERT
    except (ValueError, FamilyMismatchError, EpsStreamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks of one pass's outputs against epsstream's oracles.

The oracles share only membership predicates with the engine, so they act
as the benchmark's independent checker.  Checks run outside every timed
section.  A check the oracle cannot run (its 768-union-point or 2^25
coordinate cap for discrepancy, its caps for the depth statistics) is
skipped and counted in ``skipped``; it never fails a call.

On ``halfplane-wide`` the discrepancy and depth checks run on the
generator's exact preimage u = (x - c) / K: an affine map with K > 0 maps
halfplanes to halfplanes, so induced subsets, discrepancies and Tukey
depths are unchanged, and the preimage fits the oracles' int64 paths.
"""

from __future__ import annotations

import math
from fractions import Fraction

from epsstream import Point2, Verdict, WeightedSample
from epsstream.errors import CapExceededError
from epsstream.oracles import (
    PrefixMirror,
    exact_count,
    exact_discrepancy,
    exact_regression_depth,
    exact_simplicial_depth,
    exact_slope_rank,
    exact_tukey_depth,
)
from epsstream.ranges import family
from epsstream.stats import SIMPLICIAL_K, SLOPE_RANK_K

from workloads import EPS


class Report:
    """Failed calls by key, plus how many oracle checks ran or were skipped."""

    def __init__(self):
        self.failed: dict = {}
        self.checked = 0
        self.skipped = 0

    def expect(self, key, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.failed.setdefault(key, what)


def _preimage(affine):
    if affine is None:
        return lambda p: p
    k, c = affine

    def pre(p: Point2) -> Point2:
        x, y = Fraction(p.x - c, k), Fraction(p.y - c, k)
        return Point2(x.numerator if x.denominator == 1 else x,
                      y.numerator if y.denominator == 1 else y)

    return pre


def check_pass(wl, res) -> Report:
    rep = Report()
    for si, (stream, sr) in enumerate(zip(wl.streams, res.streams)):
        pre = _preimage(stream.affine)
        fam = family(stream.family)
        for ci, (cp, snap) in enumerate(zip(stream.checkpoints, sr.snapshots)):
            key = ("snapshot", si, ci)
            if isinstance(snap, Exception):
                rep.expect(key, False, repr(snap))
                continue
            rep.expect(key, snap.certified_error <= EPS,
                       f"certificate {snap.certified_error} > eps")
            ground = WeightedSample.uniform(sorted(pre(p) for p in stream.points[:cp]))
            cand = WeightedSample(tuple(pre(p) for p in snap.sample.points), snap.sample.weights,
                                  snap.sample.total_weight, snap.sample.eps_bound)
            try:
                disc = exact_discrepancy(ground, cand, fam)
            except CapExceededError:
                rep.skipped += 1
            else:
                rep.expect(key, disc <= snap.certified_error,
                           f"measured discrepancy {disc} > certificate {snap.certified_error}")
        mirror = PrefixMirror(stream.points)
        n = len(stream.points)
        for qi, ((op, desc, theta), ans) in enumerate(zip(stream.queries, sr.answers)):
            key = ("query", si, qi)
            if isinstance(ans, Exception):
                rep.expect(key, False, repr(ans))
                continue
            truth = exact_count(mirror, desc)
            if op == "count":
                rep.expect(key, ans.additive_bound <= EPS * n
                           and abs(ans.estimate - truth) <= ans.additive_bound,
                           f"count {ans.estimate} vs exact {truth} (bound {ans.additive_bound})")
            else:
                sound = not ((ans is Verdict.ABOVE and truth < theta * n)
                             or (ans is Verdict.BELOW and truth > theta * n))
                rep.expect(key, sound, f"iceberg {ans} at theta {theta}, exact {truth}/{n}")
        at = stream.checkpoints[stream.stats_at]
        mirror = PrefixMirror([pre(p) for p in stream.points[:at]])
        for ki, ((stat, args), out) in enumerate(zip(stream.stats, sr.stats)):
            _check_stat_call(rep, ("stat", si, ki), stat, args, out, mirror, pre)
    return rep


def _check_stat_call(rep: Report, key, stat, args, out, mirror, pre) -> None:
    if isinstance(out, Exception):
        rep.expect(key, False, repr(out))
        return
    try:
        _check_stat(rep, key, stat, args, out, mirror, len(mirror), pre)
    except CapExceededError:
        rep.skipped += 1


def _check_stat(rep, key, stat, args, out, mirror, n, pre) -> None:
    if stat == "tukey-depth":
        exact = exact_tukey_depth(mirror, pre(args[0]))
        rep.expect(key, abs(out.value - exact) <= EPS, f"tukey depth {out.value} vs {exact}")
    elif stat == "tukey-median":
        q, dv = out
        exact = exact_tukey_depth(mirror, pre(q))
        rep.expect(key, abs(dv.value - exact) <= EPS and dv.value >= Fraction(1, 3) - EPS,
                   f"tukey median depth {dv.value} vs exact {exact}")
    elif stat == "simplicial":
        exact = exact_simplicial_depth(mirror, pre(args[0]))
        rep.expect(key, float(abs(out.value - exact)) <= SIMPLICIAL_K * math.sqrt(EPS),
                   f"simplicial {out.value} vs {exact}")
    elif stat == "regdepth":
        line = args[0]
        exact = exact_regression_depth(mirror, line.slope, line.intercept)
        rep.expect(key, abs(out.value - exact) <= EPS, f"regression depth {out.value} vs {exact}")
    elif stat == "regfit":
        line, dv = out
        exact = exact_regression_depth(mirror, line.slope, line.intercept)
        rep.expect(key, abs(dv.value - exact) <= EPS, f"regfit depth {dv.value} vs {exact}")
    elif stat == "slope-rank":
        exact = exact_slope_rank(mirror, args[0])
        rep.expect(key, float(abs(out - exact)) <= SLOPE_RANK_K * float(EPS) ** (1 / 3),
                   f"slope rank {out} vs {exact}")
    elif stat == "theil-sen":
        above = sum(1 for p in mirror.points if p.y > out.slope * p.x + out.intercept)
        below = sum(1 for p in mirror.points if p.y < out.slope * p.x + out.intercept)
        rep.expect(key, abs(above - below) <= EPS * n, f"theil-sen imbalance {above - below}")
    elif stat == "lms-loc":
        (cx, cy), r2 = out.center, out.radius2
        inside = sum(1 for p in mirror.points if (p.x - cx) ** 2 + (p.y - cy) ** 2 <= r2)
        rep.expect(key, 2 * inside >= n, f"lms disk covers {inside} of {n}")
    elif stat == "lms-reg":
        fit, width = out
        covered = sum(1 for p in mirror.points
                      if abs(p.y - (fit.slope * p.x + fit.intercept)) <= width / 2)
        rep.expect(key, 2 * covered >= n, f"lms slab covers {covered} of {n}")
    else:
        raise ValueError(f"no check for statistic {stat!r}")

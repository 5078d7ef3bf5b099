import bisect
import math
import random
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epsstream import Point2, StreamState, WeightedSample, make_config, rangesums, stats
from epsstream.engine import Snapshot, snapshot_of_exact
from epsstream.errors import EpsStreamError, FamilyMismatchError
from epsstream.oracles import (
    PrefixMirror,
    exact_lms_disk,
    exact_lms_slab,
    exact_regression_depth,
    exact_simplicial_depth,
    exact_slope_rank,
    exact_tukey_depth,
)
from epsstream.ranges import _pair_slopes
from epsstream.rangesums import _primitive, _slope_orders
from epsstream.stats import (
    FitLine,
    lms_location,
    lms_regression,
    max_regression_depth_fit,
    regression_depth,
    simplicial_depth_estimate,
    slope_rank_estimate,
    theil_sen_fit,
    tukey_depth,
    tukey_median,
)
from streams import make_stream
from test_rangesums import _exact_direction_key, _ref_apex_sums


def exact_snap(pts, fam):
    return snapshot_of_exact(pts, make_config(Fraction(1, 4), fam))


class TestTukey:
    def test_depth_examples(self):
        square = exact_snap([Point2(1, 1), Point2(-1, 1), Point2(1, -1), Point2(-1, -1)],
                            "halfplane")
        assert tukey_depth(square, Point2(0, 0)).value == Fraction(1, 2)
        tri = exact_snap([Point2(0, 0), Point2(3, 0), Point2(0, 3)], "halfplane")
        assert tukey_depth(tri, Point2(1, 1)).value == Fraction(1, 3)
        assert tukey_depth(tri, Point2(9, 9)).value == 0

    def test_depth_family_check(self):
        snap = exact_snap([Point2(0, 0)], "disk")
        with pytest.raises(FamilyMismatchError):
            tukey_depth(snap, Point2(0, 0))

    def test_depth_matches_oracle_on_exact_snapshots(self):
        rng = random.Random(1)
        for _ in range(12):
            n = rng.randint(1, 20)
            pts = [Point2(rng.randint(-15, 15), rng.randint(-15, 15)) for _ in range(n)]
            snap = exact_snap(pts, "halfplane")
            mirror = PrefixMirror(pts)
            for _ in range(4):
                q = Point2(rng.randint(-15, 15), rng.randint(-15, 15))
                assert tukey_depth(snap, q).value == exact_tukey_depth(mirror, q)

    def test_median_examples(self):
        single = exact_snap([Point2(4, 5)], "halfplane")
        pt, dv = tukey_median(single)
        assert pt == Point2(4, 5) and dv.value == 1
        square = exact_snap([Point2(1, 1), Point2(-1, 1), Point2(1, -1), Point2(-1, -1)],
                            "halfplane")
        _, dv = tukey_median(square)
        assert dv.value == Fraction(1, 2)
        tri = exact_snap([Point2(0, 0), Point2(3, 0), Point2(0, 3)], "halfplane")
        _, dv = tukey_median(tri)
        assert dv.value == Fraction(1, 3)

    def test_median_is_true_maximum(self):
        rng = random.Random(2)
        for _ in range(8):
            n = rng.randint(3, 8)
            pts = [Point2(rng.randint(-7, 7), rng.randint(-7, 7)) for _ in range(n)]
            snap = exact_snap(pts, "halfplane")
            _, dv = tukey_median(snap)
            # brute force over arrangement vertices of support pair lines
            cands = set(pts)
            for (a, b), (c, d) in combinations(combinations(pts, 2), 2):
                den = (a.x - b.x) * (c.y - d.y) - (a.y - b.y) * (c.x - d.x)
                if den == 0:
                    continue
                f1 = a.x * b.y - a.y * b.x
                f2 = c.x * d.y - c.y * d.x
                px = Fraction(f1 * (c.x - d.x) - (a.x - b.x) * f2, den)
                py = Fraction(f1 * (c.y - d.y) - (a.y - b.y) * f2, den)
                cands.add(Point2(px, py))
            mirror = PrefixMirror(pts)
            want = max(exact_tukey_depth(mirror, q) for q in cands)
            assert dv.value == want

    def test_median_collinear_support(self):
        snap = exact_snap([Point2(i, 2 * i) for i in range(5)], "halfplane")
        pt, dv = tukey_median(snap)
        assert pt == Point2(2, 4)
        assert dv.value == Fraction(3, 5)

    def test_median_depth_at_least_one_third(self):
        for style in ("uniform", "clustered", "duplicates"):
            pts = make_stream(style, 60, seed=3)
            snap = StreamState(make_config(Fraction(1, 4), "halfplane")).extend(pts).snapshot()
            _, dv = tukey_median(snap)
            assert dv.value >= Fraction(1, 3)

    def test_scaling_invariance(self):
        pts = make_stream("uniform", 24, seed=4)
        snap1 = exact_snap(pts, "halfplane")
        snap2 = exact_snap([Point2(7 * p.x, 7 * p.y) for p in pts], "halfplane")
        assert tukey_median(snap1)[1].value == tukey_median(snap2)[1].value


def _reference_depth(points, weights, total, q):
    """Tukey depth by the direct O(m^2) loop over boundary normals, kept here
    as the reference for the apex-sweep implementation."""
    def prim(vx, vy):
        if isinstance(vx, Fraction) or isinstance(vy, Fraction):
            fx, fy = Fraction(vx), Fraction(vy)
            mul = fx.denominator * fy.denominator // math.gcd(fx.denominator, fy.denominator)
            vx, vy = int(fx * mul), int(fy * mul)
        g = math.gcd(abs(vx), abs(vy))
        return vx // g, vy // g

    coincident = Fraction(0)
    groups = {}
    for p, w in zip(points, weights):
        vx = p.x - q.x
        vy = p.y - q.y
        if vx == 0 and vy == 0:
            coincident += w
            continue
        d = prim(vx, vy)
        groups[d] = groups.get(d, Fraction(0)) + w
    if not groups:
        return coincident / total
    best = None
    for d in list(groups):
        for u in ((-d[1], d[0]), (d[1], -d[0])):
            at = plus = minus = coincident
            rx, ry = -u[1], u[0]
            for c, w in groups.items():
                dot = c[0] * u[0] + c[1] * u[1]
                if dot > 0:
                    at += w
                    plus += w
                    minus += w
                elif dot == 0:
                    at += w
                    if c[0] * rx + c[1] * ry > 0:
                        plus += w
                    else:
                        minus += w
            cand = min(at, plus, minus)
            if best is None or cand < best:
                best = cand
    return best / total


_COORD = st.one_of(st.integers(-6, 6),
                   st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def _depth_inputs(draw):
    """Points with collinear runs, duplicates and Fraction coordinates, and
    a query point that is a support point, a grid point or a Fraction point."""
    free = st.builds(lambda x, y: [Point2(x, y)], _COORD, _COORD)
    line = st.builds(lambda ax, ay, dx, dy, ts: [Point2(ax + t * dx, ay + t * dy) for t in ts],
                     _COORD, _COORD, st.integers(-3, 3), st.integers(-3, 3),
                     st.lists(st.integers(-3, 3), min_size=2, max_size=5))
    groups = draw(st.lists(st.one_of(free, line), min_size=1, max_size=5))
    pts = [p for g in groups for p in g]
    pts += [pts[i % len(pts)] for i in draw(st.lists(st.integers(0, 99), max_size=4))]
    q = draw(st.one_of(st.sampled_from(pts), st.builds(Point2, _COORD, _COORD)))
    return pts, q


def _weighted_snapshot(pts, raw_weights, fam="halfplane", eps=Fraction(1, 4)):
    n = len(pts)
    scale = Fraction(n) / sum(raw_weights)
    ws = tuple(w * scale for w in raw_weights)
    return Snapshot(WeightedSample(tuple(pts), ws, Fraction(n), Fraction(0)), n,
                    make_config(eps, fam))


def _draw_weights(data, pts):
    return data.draw(st.lists(st.fractions(min_value=Fraction(1, 7), max_value=5),
                              min_size=len(pts), max_size=len(pts)))


@settings(max_examples=300, deadline=None)
@given(inp=_depth_inputs(), data=st.data())
def test_depth_matches_direct_loop_on_fraction_weights(inp, data):
    pts, q = inp
    snap = _weighted_snapshot(pts, _draw_weights(data, pts))
    want = _reference_depth(snap.sample.points, snap.sample.weights, Fraction(snap.n), q)
    assert tukey_depth(snap, q).value == want


@settings(max_examples=300, deadline=None)
@given(inp=_depth_inputs())
def test_depth_matches_oracle_on_unit_weights(inp):
    pts, q = inp
    snap = exact_snap(pts, "halfplane")
    assert tukey_depth(snap, q).value == exact_tukey_depth(PrefixMirror(pts), q)


_PROBE_SCALES = st.sampled_from([1, 1 << 10, 1 << 40, 1 << 64])


@settings(max_examples=300, deadline=None)
@given(inp=_depth_inputs(), scale=_PROBE_SCALES, data=st.data())
def test_probe_depths_are_the_least_apex_sweep_sums(inp, scale, data):
    """One row per probe, several probes per call: collinear runs,
    duplicates, probes on support points and Fraction probes, on int64
    columns (scales 1 and 2^10) and Python-int columns (2^40, 2^64)."""
    pts, q = inp
    more = data.draw(st.lists(st.one_of(st.sampled_from(pts), st.builds(Point2, _COORD, _COORD)),
                              max_size=3))
    pts, probes = ([Point2(p.x * scale, p.y * scale) for p in ps] for ps in (pts, [q, *more]))
    snap = _weighted_snapshot(pts, _draw_weights(data, pts))
    ints, denom = snap.sample.scaled_weights
    want = [Fraction(min(_ref_apex_sums(snap.sample.points, ints, p)), denom * snap.n)
            for p in probes]
    assert stats._depths_of(snap, probes) == want
    assert [tukey_depth(snap, p).value for p in probes] == want


def _collinear_median_by_point(snap):
    """The deepest support point, the least of equals, one apex sweep per point."""
    ints, denom = snap.sample.scaled_weights
    pts = snap.sample.points
    depths = [Fraction(min(_ref_apex_sums(pts, ints, p)), denom * snap.n) for p in pts]
    return min(zip(pts, depths), key=lambda pd: (-pd[1], pd[0]))


def _spy_turn_rows(monkeypatch):
    """Record the number of probes of every ``_half_turn`` call from ``stats``."""
    calls = []
    real = stats._half_turn
    monkeypatch.setattr(stats, "_half_turn",
                        lambda xs, ys, ax, ay: calls.append(len(ax)) or real(xs, ys, ax, ay))
    return calls


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 24), step=st.sampled_from([(1, 2), (3, -1), (0, 1), (1 << 20, 1 << 40)]),
       frac=st.booleans(), data=st.data())
def test_collinear_median_reads_its_probes_in_blocks(n, step, frac, data):
    """A collinear support scores every support point as a probe; with 8
    events per block (one or two probes) the probes span several blocks,
    none larger than ``_block_rows(m)``, and the median is the per-point
    reference's, on int64 and Python-int columns and Fraction points."""
    scale = Fraction(1, 3) if frac else 1
    ts = data.draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    pts = [Point2(t * step[0] * scale, t * step[1] * scale) for t in ts]
    snap = _weighted_snapshot(pts, _draw_weights(data, pts))
    m = len(snap.sample.points)
    assume(m >= 3 and len(set(snap.sample.points)) >= 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rangesums, "_BLOCK_EVENTS", 8)
        calls = _spy_turn_rows(mp)
        pt, dv = tukey_median(snap)
        assert max(calls) <= stats._block_rows(m) < m
    assert (pt, dv.value) == _collinear_median_by_point(snap)


def test_large_collinear_median_reads_its_probes_in_blocks(monkeypatch):
    """300 distinct collinear points at the default block size: two or more
    blocks of probes, and the per-point reference's median."""
    pts = [Point2(3 * t, 7 * t + 1) for t in random.Random(5).sample(range(-10000, 10000), 300)]
    snap = _weighted_snapshot(pts, [1 + i % 4 for i in range(300)])
    calls = _spy_turn_rows(monkeypatch)
    pt, dv = tukey_median(snap)
    assert len(calls) >= 2 and max(calls) <= stats._block_rows(300) < 300
    assert (pt, dv.value) == _collinear_median_by_point(snap)


def _search_from_zero(levels, region):
    """The deepest nonempty region, by the level search as it ran from the
    lowest level."""
    lo, hi, best = 0, len(levels) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        poly = region(levels[mid])
        if poly:
            best, lo = poly, mid + 1
        else:
            hi = mid - 1
    return best


@settings(max_examples=200, deadline=None)
@given(inp=_depth_inputs(), data=st.data())
def test_median_search_from_the_centerpoint_level_finds_the_same_region(inp, data):
    """The search reads no region below the largest level at or below
    ceil(total / 3), whose region is not empty, and ends on the region the
    search from the lowest level finds."""
    stretch = data.draw(_STRETCHES)
    pts = [Point2(p.x * stretch, p.y * stretch) for p in inp[0]]
    snap = _weighted_snapshot(pts, _wide_weights(data, pts))
    support = snap.sample.points
    a, b = support[0], next((p for p in support if p != support[0]), support[0])
    assume(any((p.x - a.x) * (b.y - a.y) != (p.y - a.y) * (b.x - a.x) for p in support))
    levels, region, _ = stats._depth_regions(support, snap.sample.columns[2])
    reads = []
    poly = stats._deepest_region(levels, lambda tau: reads.append(tau) or region(tau))
    assert poly == _search_from_zero(levels, region)
    third = -(-int(levels[-1]) // 3)
    known = max((int(v) for v in levels if v <= third), default=None)
    if known is not None:
        assert region(known)
        assert min(int(v) for v in reads) >= known


def _reference_tukey_median(snap):
    """The deepest point by binary search over depth levels with Fraction
    polygon clipping, kept here as the reference for the integer-line
    clipping.  It runs on the merged support: on coincident support points
    its normal loop divided by zero."""
    pts, ws = _merged_support(snap)
    n = Fraction(snap.n)
    if len(pts) == 1:
        return pts[0], Fraction(1)
    base, ref = pts[0], pts[1]
    if all((p.x - base.x) * (ref.y - base.y) == (p.y - base.y) * (ref.x - base.x) for p in pts):
        best = None
        for p in pts:
            d = _reference_depth(pts, ws, n, p)
            if best is None or d > best[1] or (d == best[1] and p < best[0]):
                best = (p, d)
        return best
    normals = set()
    for p, q in combinations(pts, 2):
        d = _primitive(q.x - p.x, q.y - p.y)
        normals.update({(-d[1], d[0]), (d[1], -d[0])})
    tables = []
    levels = set()
    for u in normals:
        proj = {}
        for r, w in zip(pts, ws):
            v = u[0] * r.x + u[1] * r.y
            proj[v] = proj.get(v, Fraction(0)) + w
        vals = sorted(proj, reverse=True)
        suffix = list(accumulate(proj[v] for v in vals))
        tables.append((u, vals, suffix))
        levels.update(suffix)
    levels = sorted(levels)

    def clip(poly, a, b, t):
        out = []
        vals = [a * x + b * y for x, y in poly]
        for i, (x1, y1) in enumerate(poly):
            x2, y2 = poly[(i + 1) % len(poly)]
            v1, v2 = vals[i], vals[(i + 1) % len(poly)]
            if v1 <= t:
                out.append((x1, y1))
            if v1 < t < v2 or v2 < t < v1:
                lam = (t - v1) / (v2 - v1)
                out.append((x1 + lam * (x2 - x1), y1 + lam * (y2 - y1)))
        return out

    def region(tau):
        lo_x, hi_x = Fraction(min(p.x for p in pts) - 1), Fraction(max(p.x for p in pts) + 1)
        lo_y, hi_y = Fraction(min(p.y for p in pts) - 1), Fraction(max(p.y for p in pts) + 1)
        poly = [(lo_x, lo_y), (hi_x, lo_y), (hi_x, hi_y), (lo_x, hi_y)]
        for u, vals, suffix in tables:
            k = bisect.bisect_left(suffix, tau)
            if k == len(suffix):
                return []
            poly = clip(poly, u[0], u[1], vals[k])
            if not poly:
                return []
        return poly

    lo, hi = 0, len(levels) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        poly = region(levels[mid])
        if poly:
            best_poly = poly
            lo = mid + 1
        else:
            hi = mid - 1
    x, y = min(best_poly)
    q = Point2(x.numerator if x.denominator == 1 else x, y.numerator if y.denominator == 1 else y)
    return q, _reference_depth(pts, ws, n, q)


def _assert_median_matches_reference(snap):
    pt, dv = tukey_median(snap)
    assert repr((pt, dv.value)) == repr(_reference_tukey_median(snap))


# Stretches of the support that take its integer-scaled coordinates past
# 2^30 (dtype object tables), and past what a float holds (no float screen).
_STRETCHES = st.sampled_from([1, 1, (1 << 31) + 3, Fraction(1 << 600, 3)])


def _wide_weights(data, pts):
    """``_lms_weights``, or weights over large prime denominators whose
    integer scaled sum reaches 2^63."""
    if data.draw(st.booleans()):
        return _lms_weights(data, pts)
    heavy = [1, Fraction(1, (1 << 61) - 1), Fraction(5, (1 << 31) - 1)]
    return (heavy[:len(pts)] + data.draw(st.lists(st.sampled_from(heavy), min_size=len(pts),
                                                  max_size=len(pts))))[:len(pts)]


@settings(max_examples=200, deadline=None)
@given(inp=_depth_inputs(), data=st.data())
def test_median_matches_fraction_clipping_reference(inp, data):
    stretch = data.draw(_STRETCHES)
    pts = [Point2(p.x * stretch, p.y * stretch) for p in inp[0]]
    _assert_median_matches_reference(_weighted_snapshot(pts, _wide_weights(data, pts)))


@pytest.mark.parametrize("coords", [
    # the deepest region is one point: the centre of a square, a Fraction point
    [(1, 1), (-1, 1), (1, -1), (-1, -1)],
    [(-3, -3), (-2, 2), (-1, 3), (3, 2)],
    # the deepest region is the segment from (0, 0) to (3/5, 0)
    [(-3, 0), (-3, 3), (0, 0), (1, 3), (2, 0), (3, -3), (3, -2)],
    # the deepest region's leftmost side is vertical: its lower end wins
    [(-3, -3), (-3, 0), (-1, -3), (-1, 2), (1, -3), (2, 1), (3, -2)],
    # Fraction coordinates, with a coincident copy
    [(Fraction(1, 2), 0), (Fraction(-1, 3), Fraction(2, 3)), (2, Fraction(5, 4)),
     (Fraction(1, 2), 0), (1, Fraction(-7, 6))],
])
def test_median_matches_reference_on_degenerate_regions(coords):
    pts = [Point2(x, y) for x, y in coords]
    _assert_median_matches_reference(_weighted_snapshot(pts, [1] * len(pts)))


class TestSimplicial:
    def test_triangle_contains(self):
        snap = exact_snap([Point2(0, 0), Point2(4, 0), Point2(0, 4)], "wedge")
        assert simplicial_depth_estimate(snap, Point2(1, 1), Fraction(1, 4)).value == 1

    def test_outside_hull_zero(self):
        snap = exact_snap([Point2(0, 0), Point2(4, 0), Point2(0, 4)], "wedge")
        assert simplicial_depth_estimate(snap, Point2(9, 9), Fraction(1, 4)).value == 0

    def test_close_to_exact_on_exact_samples(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(6, 20)
            pts = [Point2(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(n)]
            q = Point2(rng.randint(-8, 8), rng.randint(-8, 8))
            snap = exact_snap(pts, "wedge")
            delta = Fraction(1, 4)
            est = simplicial_depth_estimate(snap, q, delta).value
            exact = exact_simplicial_depth(PrefixMirror(pts), q)
            assert abs(est - exact) <= 2 * delta

    def test_delta_validation(self):
        snap = exact_snap([Point2(i, 0) for i in range(4)], "wedge")
        with pytest.raises(ValueError):
            simplicial_depth_estimate(snap, Point2(0, 0), Fraction(2))


def _reference_simplicial(snap, q, delta_sub):
    """The sector estimate as it grouped the directions about q in Python:
    primitive directions, sorted on exact full-turn keys, Fraction masses."""
    n = Fraction(snap.n)
    groups = {}
    for p, w in zip(snap.sample.points, snap.sample.weights):
        vx, vy = Fraction(p.x - q.x), Fraction(p.y - q.y)
        if vx == vy == 0:
            continue
        s = math.lcm(vx.denominator, vy.denominator)
        ix, iy = int(vx * s), int(vy * s)
        g = math.gcd(ix, iy)
        groups[(ix // g, iy // g)] = groups.get((ix // g, iy // g), Fraction(0)) + w
    if not groups:
        return Fraction(1)
    cap, sectors, cur, cur_mass = delta_sub * n, [], [], Fraction(0)
    for d in sorted(groups, key=lambda d: _exact_direction_key(*d)):
        spans = cur and not (cur[0][0] * d[1] - cur[0][1] * d[0] > 0)
        if cur and (cur_mass + groups[d] > cap or spans):
            sectors.append(cur)
            cur, cur_mass = [], Fraction(0)
        cur.append(d)
        cur_mass += groups[d]
    sectors.append(cur)
    excluded = Fraction(0)
    for sec in sectors:
        w_i = sum((groups[d] for d in sec), Fraction(0))
        lead = sec[0]
        h_i = sum((wd for d, wd in groups.items()
                   if lead[0] * d[1] - lead[1] * d[0] > 0 or d == lead), Fraction(0))
        rest = h_i - w_i
        excluded += (stats._c3(w_i) + stats._c2(w_i) * rest + w_i * stats._c2(rest))
    return min(max(1 - excluded / stats._c3(n), Fraction(0)), Fraction(1))


@settings(max_examples=300, deadline=None)
@given(inp=_depth_inputs(), scale=_PROBE_SCALES, data=st.data())
def test_simplicial_estimate_matches_the_python_grouping(inp, scale, data):
    """Directions about q that are exactly antipodal (points on lines through
    q), collinear runs, copies of q and Fraction probes, on int64 and
    Python-int columns, with several sector caps."""
    pts, q = inp
    steps = data.draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3),
                                         st.integers(1, 3), st.integers(1, 3)), max_size=3))
    pts = pts + [Point2(q.x + sign * t * dx, q.y + sign * t * dy)
                 for dx, dy, t1, t2 in steps for sign, t in ((1, t1), (-1, t2))]
    assume(len(pts) >= 3)
    pts, q = [Point2(p.x * scale, p.y * scale) for p in pts], Point2(q.x * scale, q.y * scale)
    snap = _weighted_snapshot(pts, _draw_weights(data, pts), fam="wedge")
    delta = data.draw(st.sampled_from([Fraction(1, 8), Fraction(1, 4), Fraction(1, 2),
                                       Fraction(3, 4)]))
    assert simplicial_depth_estimate(snap, q, delta).value == _reference_simplicial(snap, q, delta)


class TestRegressionDepth:
    def test_matches_oracle_on_exact_samples(self):
        rng = random.Random(6)
        for _ in range(20):
            n = rng.randint(2, 24)
            pts = [Point2(rng.randint(-20, 20), rng.randint(-20, 20)) for _ in range(n)]
            slope = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            inter = Fraction(rng.randint(-15, 15), rng.randint(1, 2))
            snap = exact_snap(pts, "dwedge")
            got = regression_depth(snap, FitLine(slope, inter)).value
            want = exact_regression_depth(PrefixMirror(pts), slope, inter)
            assert got == want

    def test_all_above_is_nonfit(self):
        snap = exact_snap([Point2(0, 2), Point2(1, 3), Point2(5, 9)], "dwedge")
        assert regression_depth(snap, FitLine(Fraction(0), Fraction(0))).value == 0

    def test_vertical_rejected(self):
        snap = exact_snap([Point2(0, 0), Point2(1, 1)], "dwedge")
        with pytest.raises(ValueError):
            regression_depth(snap, FitLine(None, Fraction(0)))

    def test_max_fit_examples(self):
        snap = exact_snap([Point2(0, 0), Point2(1, 1), Point2(2, 0), Point2(3, 1)], "dwedge")
        _, dv = max_regression_depth_fit(snap)
        assert dv.value == Fraction(1, 2)
        two = exact_snap([Point2(0, 0), Point2(2, 2)], "dwedge")
        fit, dv = max_regression_depth_fit(two)
        assert fit.slope == 1 and dv.value == Fraction(1, 2)
        coll = exact_snap([Point2(i, i) for i in range(6)], "dwedge")
        fit, dv = max_regression_depth_fit(coll)
        assert fit.slope == 1 and dv.value == Fraction(5, 6)

    def test_max_fit_at_least_one_third(self):
        rng = random.Random(7)
        for _ in range(6):
            pts = [Point2(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(12)]
            snap = exact_snap(pts, "dwedge")
            _, dv = max_regression_depth_fit(snap)
            assert dv.value >= Fraction(1, 3)


class TestSlopeStatistics:
    def test_rank_trivials(self):
        snap = exact_snap([Point2(0, 1), Point2(1, 3), Point2(2, 5)], "vpar")
        assert slope_rank_estimate(snap, Fraction(3)) == 1
        assert slope_rank_estimate(snap, Fraction(1)) == 0
        assert slope_rank_estimate(snap, Fraction(2)) == Fraction(1, 2)

    def test_rank_matches_oracle_on_exact_samples(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(2, 25)
            pts = [Point2(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(n)]
            snap = exact_snap(pts, "vpar")
            s = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            got = slope_rank_estimate(snap, s)
            want = exact_slope_rank(PrefixMirror(pts), s)
            assert got == want

    def test_theil_sen_on_a_line(self):
        pts = [Point2(i, 2 * i + 1) for i in range(9)]
        snap = exact_snap(pts, "vpar")
        fit = theil_sen_fit(snap)
        assert fit.slope == 2
        # the line bisects: strict above/below masses are balanced
        above = sum(1 for p in pts if p.y > fit.slope * p.x + fit.intercept)
        below = sum(1 for p in pts if p.y < fit.slope * p.x + fit.intercept)
        assert abs(above - below) <= 1

    def test_theil_sen_with_outlier(self):
        pts = [Point2(i, i) for i in range(9)] + [Point2(4, 1000)]
        snap = exact_snap(pts, "vpar")
        fit = theil_sen_fit(snap)
        assert fit.slope == 1

    def test_theil_sen_two_points(self):
        snap = exact_snap([Point2(0, 1), Point2(2, 4)], "vpar")
        fit = theil_sen_fit(snap)
        assert fit.slope == Fraction(3, 2) and fit.intercept == 1

    def test_theil_sen_degenerate(self):
        snap = exact_snap([Point2(1, 1), Point2(1, 1)], "vpar")
        with pytest.raises(EpsStreamError):
            theil_sen_fit(snap)
        vertical = exact_snap([Point2(0, 0), Point2(0, 5), Point2(0, 9)], "vpar")
        with pytest.raises(EpsStreamError):
            theil_sen_fit(vertical)

    def test_rank_scaling_invariance(self):
        pts = make_stream("uniform", 20, seed=9)
        s1 = exact_snap(pts, "vpar")
        s2 = exact_snap([Point2(3 * p.x, 3 * p.y) for p in pts], "vpar")
        assert slope_rank_estimate(s1, Fraction(1, 2)) == slope_rank_estimate(s2, Fraction(1, 2))


_SMALL = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4, max_denominator=3))


def _with_duplicates(draw, pts):
    return pts + [pts[i % len(pts)] for i in draw(st.lists(st.integers(0, 99), max_size=3))]


@st.composite
def _regression_inputs(draw):
    """Columns of points sharing an x, points on the line, duplicates, and a
    line with Fraction slope and intercept."""
    slope = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    inter = draw(_SMALL)
    pts = []
    for x in draw(st.lists(_SMALL, min_size=1, max_size=5)):
        pts += [Point2(x, y) for y in draw(st.lists(_SMALL, min_size=1, max_size=4))]
        if draw(st.booleans()):
            pts.append(Point2(x, slope * x + inter))
    return _with_duplicates(draw, pts), FitLine(slope, inter)


def _reference_regression_depth(points, weights, total, line):
    """Regression depth by the direct per-pivot loop over every support
    point, kept here as the reference for the column sweep."""
    residuals = [p.y - (line.slope * p.x + line.intercept) for p in points]
    best = None
    for v in sorted({v for p in points for v in (p.x - 1, p.x, p.x + 1)}):
        on_off = up_right = up_left = down_right = down_left = Fraction(0)
        for p, w, r in zip(points, weights, residuals):
            if p.x == v:
                continue
            if r == 0:
                on_off += w
            elif r > 0:
                if p.x > v:
                    up_right += w
                else:
                    up_left += w
            elif p.x > v:
                down_right += w
            else:
                down_left += w
        cand = min(up_right + down_left + on_off, up_left + down_right + on_off)
        if best is None or cand < best:
            best = cand
    return best / total


@settings(max_examples=300, deadline=None)
@given(inp=_regression_inputs(), data=st.data())
def test_regression_depth_matches_direct_loop_on_fraction_weights(inp, data):
    pts, line = inp
    snap = _weighted_snapshot(pts, _draw_weights(data, pts), "dwedge")
    want = _reference_regression_depth(snap.sample.points, snap.sample.weights,
                                       Fraction(snap.n), line)
    assert regression_depth(snap, line).value == want


@settings(max_examples=300, deadline=None)
@given(inp=_regression_inputs())
def test_regression_depth_matches_oracle_on_unit_weights(inp):
    pts, line = inp
    want = exact_regression_depth(PrefixMirror(pts), line.slope, line.intercept)
    assert regression_depth(exact_snap(pts, "dwedge"), line).value == want


@st.composite
def _fit_inputs(draw):
    """A few columns of points sharing an x, or one vertical column, a
    collinear run, duplicates, and a stretch past 2^30."""
    if draw(st.booleans()):
        pts = [Point2(x, y) for x in draw(st.lists(_SMALL, min_size=1, max_size=3))
               for y in draw(st.lists(_SMALL, min_size=1, max_size=2))]
    else:
        x = draw(_SMALL)
        pts = [Point2(x, y) for y in draw(st.lists(_SMALL, min_size=2, max_size=5))]
    if draw(st.booleans()):
        ax, ay, dx, dy = draw(st.tuples(_SMALL, _SMALL, st.integers(0, 2), st.integers(-2, 2)))
        pts += [Point2(ax + t * dx, ay + t * dy) for t in range(3)]
    stretch = draw(_STRETCHES)
    return _with_duplicates(draw, [Point2(p.x * stretch, p.y * stretch) for p in pts])


def _reference_max_regression_depth_fit(snap):
    """The first deepest candidate line in (slope, intercept) order, each
    measured by the direct per-pivot loop in Fractions, kept here as the
    reference for the integer swept masses."""
    pts, ws = snap.sample.points, snap.sample.weights
    candidates = set()
    for p, q in combinations(pts, 2):
        if p.x != q.x:
            slope = Fraction(q.y - p.y, q.x - p.x)
            candidates.add((slope, p.y - slope * p.x))
    if not candidates:
        candidates = {(Fraction(0), Fraction(p.y)) for p in pts}
    enriched = set()
    for slope, inter in candidates:
        enriched.add((slope, inter))
        gaps = [g for g in (abs(p.y - (slope * p.x + inter)) for p in pts) if g > 0]
        if gaps:
            enriched.update({(slope, inter + min(gaps) / 2), (slope, inter - min(gaps) / 2)})
        da = min(gaps) / (2 * (max(abs(p.x) for p in pts) + 1)) if gaps else Fraction(1, 2)
        enriched.update({(slope + da, inter), (slope - da, inter)})
    best = None
    for slope, inter in sorted(enriched):
        d = _reference_regression_depth(pts, ws, Fraction(snap.n), FitLine(slope, inter))
        if best is None or d > best[1]:
            best = (FitLine(slope, inter), d)
    return best


def _assert_fit_matches_reference(snap):
    fit, dv = max_regression_depth_fit(snap)
    assert repr((fit, dv.value)) == repr(_reference_max_regression_depth_fit(snap))


@settings(max_examples=200, deadline=None)
@given(pts=_fit_inputs(), data=st.data())
def test_max_fit_matches_fraction_reference(pts, data):
    assume(len(pts) >= 2)
    _assert_fit_matches_reference(_weighted_snapshot(pts, _wide_weights(data, pts), "dwedge"))


@pytest.mark.parametrize("coords", [
    # Fraction coordinates, with a shared x and a coincident copy
    [(Fraction(1, 2), 1), (Fraction(1, 2), Fraction(-2, 3)), (Fraction(-5, 4), 0),
     (2, Fraction(7, 3)), (2, Fraction(7, 3))],
    # one vertical column: only horizontal candidates
    [(1, 0), (1, 3), (1, -2), (1, 3)],
])
def test_max_fit_matches_reference_on_fixed_supports(coords):
    pts = [Point2(x, y) for x, y in coords]
    _assert_fit_matches_reference(_weighted_snapshot(pts, [1, 2, 3, 1, 2][:len(pts)], "dwedge"))


@st.composite
def _slope_inputs(draw):
    """At least two distinct points on a small grid (vertical pairs and tied
    slopes are common), duplicates, and a slope that is often a pair slope."""
    pts = draw(st.lists(st.builds(Point2, _SMALL, _SMALL), min_size=2, max_size=10, unique=True))
    slopes = [Fraction(q.y - p.y, q.x - p.x) for p, q in combinations(pts, 2) if q.x != p.x]
    s = draw(st.one_of(st.fractions(min_value=-4, max_value=4, max_denominator=4),
                       st.sampled_from(slopes or [Fraction(0)])))
    return _with_duplicates(draw, pts), s


def _reference_slope_rank(points, weights, s):
    """Slope rank by the direct cross-multiplying loop over the pairs of the
    collapsed support, kept here as the reference for the pair-slope table."""
    merged = {}
    for p, w in zip(points, weights):
        merged[p] = merged.get(p, Fraction(0)) + w
    pts, ws = list(merged), list(merged.values())
    below = ties = denom = Fraction(0)
    for i, j in combinations(range(len(pts)), 2):
        ww = ws[i] * ws[j]
        denom += ww
        dx = pts[j].x - pts[i].x
        if dx == 0:
            continue
        lhs = (pts[j].y - pts[i].y) * s.denominator
        rhs = s.numerator * dx
        if dx < 0:
            lhs, rhs = -lhs, -rhs
        if lhs < rhs:
            below += ww
        elif lhs == rhs:
            ties += ww
    return (below + ties / 2) / denom


@settings(max_examples=300, deadline=None)
@given(inp=_slope_inputs(), data=st.data())
def test_slope_rank_matches_direct_loop_on_fraction_weights(inp, data):
    pts, s = inp
    snap = _weighted_snapshot(pts, _draw_weights(data, pts), "vpar")
    want = _reference_slope_rank(snap.sample.points, snap.sample.weights, s)
    assert slope_rank_estimate(snap, s) == want


@settings(max_examples=300, deadline=None)
@given(inp=_slope_inputs())
def test_slope_rank_matches_oracle_on_unit_weights(inp):
    pts, s = inp
    assert slope_rank_estimate(exact_snap(pts, "vpar"), s) == exact_slope_rank(PrefixMirror(pts), s)


class TestLms:
    def test_location_all_mass_one_point(self):
        snap = exact_snap([Point2(5, 5)] * 4, "disk")
        disk = lms_location(snap)
        assert disk.center == (5, 5) and disk.radius2 == 0

    def test_location_two_pairs(self):
        pts = [Point2(0, 0), Point2(1, 0), Point2(10, 0), Point2(11, 0)]
        # eps = 1/4 forces mass >= 3: smallest disk over three points
        snap = exact_snap(pts, "disk")
        disk = lms_location(snap)
        assert disk.radius2 == 25

    def test_location_eps_cap(self):
        snap = snapshot_of_exact([Point2(0, 0)], make_config(Fraction(1, 2) - Fraction(1, 100), "disk"))
        lms_location(snap)  # fine below 1/2
        bad = snapshot_of_exact([Point2(0, 0)], make_config(Fraction(99, 200), "disk"))
        assert lms_location(bad).radius2 == 0

    def test_regression_width_zero_on_line(self):
        pts = [Point2(0, 0), Point2(1, 1), Point2(2, 2), Point2(10, 50), Point2(11, -60)]
        snap = snapshot_of_exact(pts, make_config(Fraction(1, 10), "slab"))
        fit, width = lms_regression(snap)
        assert width == 0 and fit.slope == 1

    def test_regression_two_level_grid(self):
        # the (1/2 + eps) threshold needs 3 of the 4 points for any eps > 0,
        # so both levels cannot be spanned by a width-0 slab
        pts = [Point2(x, y) for x in (0, 4) for y in (0, 1)]
        snap = snapshot_of_exact(pts, make_config(Fraction(1, 100), "slab"))
        fit, width = lms_regression(snap)
        assert width == 1

    def test_lms_hard_guarantees_match_oracle(self):
        rng = random.Random(10)
        for _ in range(4):
            pts = [Point2(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(16)]
            eps = Fraction(1, 8)
            sd = snapshot_of_exact(pts, make_config(eps, "disk"))
            disk = lms_location(sd)
            inside = sum(1 for p in pts
                         if (p.x - disk.center[0]) ** 2 + (p.y - disk.center[1]) ** 2
                         <= disk.radius2)
            assert Fraction(inside) >= Fraction(len(pts), 2)
            _, oracle_r2 = exact_lms_disk(PrefixMirror(pts), Fraction(1, 2) + 2 * eps)
            assert disk.radius2 <= oracle_r2
            ss = snapshot_of_exact(pts, make_config(eps, "slab"))
            fit, width = lms_regression(ss)
            half = width / 2
            covered = sum(1 for p in pts
                          if abs(p.y - (fit.slope * p.x + fit.intercept)) <= half)
            assert Fraction(covered) >= Fraction(len(pts), 2)
            a, b1, b2 = exact_lms_slab(PrefixMirror(pts), Fraction(1, 2) + 2 * eps)
            assert width <= b2 - b1


_EPSES = (Fraction(1, 100), Fraction(1, 8), Fraction(1, 4), Fraction(1, 3))
_CIRCLE25 = [Point2(x, y) for x, y in ((3, 4), (4, 3), (5, 0), (0, 5))
             for x, y in ((x, y), (-x, y), (x, -y), (-x, -y))]


@st.composite
def _lms_inputs(draw):
    """Small supports rich in degeneracies: a +-2 lattice (cocircular
    quadruples, collinear runs, shared x), lattice points mirrored in both
    axes, points of the circle x^2 + y^2 = 25 among lattice points, free
    points in +-40, two-point and all-vertical supports, with some
    duplicates, and an eps of the grid."""
    lattice = st.builds(Point2, st.integers(-2, 2), st.integers(-2, 2))
    kind = draw(st.sampled_from(("lattice", "mirror", "circle", "free", "pair", "vertical")))
    if kind == "mirror":  # equal disks and slabs, so ties are common
        base = draw(st.lists(st.builds(Point2, st.integers(0, 3), st.integers(0, 3)),
                             min_size=1, max_size=4))
        pts = [Point2(sx * p.x, sy * p.y) for p in base for sx in (1, -1) for sy in (1, -1)]
    elif kind == "lattice":
        pts = draw(st.lists(lattice, min_size=1, max_size=9))
    elif kind == "circle":
        pts = draw(st.lists(st.sampled_from(_CIRCLE25), min_size=2, max_size=6))
        pts += draw(st.lists(st.builds(Point2, st.integers(-5, 5), st.integers(-5, 5)),
                             max_size=3))
    elif kind == "free":
        free = st.builds(Point2, st.integers(-40, 40), st.integers(-40, 40))
        pts = draw(st.lists(free, min_size=1, max_size=8))
    elif kind == "pair":
        pts = draw(st.lists(st.builds(Point2, st.integers(-5, 5), st.integers(-5, 5)),
                            min_size=2, max_size=2, unique=True))
    else:
        x = draw(st.integers(-5, 5))
        pts = [Point2(x, y) for y in draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6))]
    return _with_duplicates(draw, pts), draw(st.sampled_from(_EPSES))


def _lms_weights(data, pts):
    """Equal weights, which make equal disks and slabs tie, or Fractions."""
    return [1] * len(pts) if data.draw(st.booleans()) else _draw_weights(data, pts)


def _merged_support(snap):
    merged = {}
    for p, w in zip(snap.sample.points, snap.sample.weights):
        merged[p] = merged.get(p, Fraction(0)) + w
    pts = sorted(merged)
    return pts, [merged[p] for p in pts]


def _reference_lms_location(snap):
    """The smallest disk by a rescan of the support for every radius-0 disk,
    diametral disk and triple circumcircle, in Fractions, kept here as the
    reference for the bisector sweep."""
    pts, ws = _merged_support(snap)
    need = (Fraction(1, 2) + snap.eps) * snap.n

    def mass_in(cx, cy, r2):
        return sum((w for p, w in zip(pts, ws) if (p.x - cx) ** 2 + (p.y - cy) ** 2 <= r2),
                   Fraction(0))

    best = None
    m = len(pts)
    for i, w in enumerate(ws):
        if w >= need:
            cand = (Fraction(0), Fraction(pts[i].x), Fraction(pts[i].y))
            if best is None or cand < best:
                best = cand
    for i, j in combinations(range(m), 2):
        cx = Fraction(pts[i].x + pts[j].x, 2)
        cy = Fraction(pts[i].y + pts[j].y, 2)
        r2 = Fraction((pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2, 4)
        if (best is None or r2 < best[0]) and mass_in(cx, cy, r2) >= need:
            best = (r2, cx, cy)
    for i, j, k in combinations(range(m), 3):
        a, b, c = pts[i], pts[j], pts[k]
        d = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
        if d == 0:
            continue
        a2, b2, c2 = a.x ** 2 + a.y ** 2, b.x ** 2 + b.y ** 2, c.x ** 2 + c.y ** 2
        cx = Fraction(a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y), d)
        cy = Fraction(a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x), d)
        r2 = (a.x - cx) ** 2 + (a.y - cy) ** 2
        if (best is None or r2 < best[0]) and mass_in(cx, cy, r2) >= need:
            best = (r2, cx, cy)
    return (best[1], best[2]), best[0]


def _reference_lms_regression(snap):
    """The narrowest slab by one Fraction-keyed window per pair slope, kept
    here as the reference for the window over the slab measure's orders."""
    pts, ws = _merged_support(snap)
    need = (Fraction(1, 2) + snap.eps) * snap.n
    slopes = {Fraction(q.y - p.y, q.x - p.x) for p, q in combinations(pts, 2) if q.x != p.x}
    best = None
    for a in sorted(slopes) or [Fraction(0)]:
        keyed = {}
        for p, w in zip(pts, ws):
            keyed[p.y - a * p.x] = keyed.get(p.y - a * p.x, Fraction(0)) + w
        keys = sorted(keyed)
        lo = 0
        run = Fraction(0)
        for hi, k in enumerate(keys):
            run += keyed[k]
            while run - keyed[keys[lo]] >= need:
                run -= keyed[keys[lo]]
                lo += 1
            if run >= need:
                cand = (k - keys[lo], a, keys[lo])
                if best is None or cand < best:
                    best = cand
    width, a, blo = best
    return FitLine(a, blo + width / 2), width


def _reference_theil_sen(snap):
    """Theil-Sen with a rescan of the support for every candidate intercept,
    kept here as the reference for the prefix-mass pass."""
    pts, ws = _merged_support(snap)
    slopes = {}
    vertical = total = Fraction(0)
    for (p, wp), (q, wq) in combinations(zip(pts, ws), 2):
        total += wp * wq
        if q.x == p.x:
            vertical += wp * wq
        else:
            sl = Fraction(q.y - p.y, q.x - p.x)
            slopes[sl] = slopes.get(sl, Fraction(0)) + wp * wq
    if len(pts) < 2 or 2 * vertical >= total:
        raise EpsStreamError("no finite median slope")
    run = Fraction(0)
    for slope in sorted(slopes):
        run += slopes[slope]
        if 2 * run >= total:
            break
    keys = sorted({p.y - slope * p.x for p in pts})
    best = None
    for b in keys + [(u + v) / 2 for u, v in zip(keys, keys[1:])]:
        above = sum((w for p, w in zip(pts, ws) if p.y > slope * p.x + b), Fraction(0))
        below = sum((w for p, w in zip(pts, ws) if p.y < slope * p.x + b), Fraction(0))
        if best is None or (abs(above - below), b) < best:
            best = (abs(above - below), b)
    return FitLine(slope, best[1])


@settings(max_examples=300, deadline=None)
@given(inp=_lms_inputs(), data=st.data())
def test_lms_location_matches_rescan_reference(inp, data):
    pts, eps = inp
    snap = _weighted_snapshot(pts, _lms_weights(data, pts), "disk", eps)
    disk = lms_location(snap)
    assert (disk.center, disk.radius2) == _reference_lms_location(snap)
    assert all(isinstance(v, Fraction) for v in (*disk.center, disk.radius2))


@pytest.mark.parametrize("coords, eps", [
    # the least disk ties a diametral disk holding a third point of its
    # circle with a circumcircle of the same radius
    ([(-2, 0), (-2, 1), (-1, -3), (-1, -2), (-1, 2), (-1, 3), (1, -3), (1, -2), (1, 2),
      (1, 3), (2, 0)], Fraction(1, 8)),
    ([(-2, -2), (-2, 2), (-1, -3), (-1, 3), (0, 0), (1, -3), (1, 3), (2, -2), (2, 2)],
     Fraction(1, 100)),
    # circumcircles of equal radius, told apart by their least index triples
    ([(-3, -1), (-3, 1), (-2, -3), (-2, 3), (0, 0), (2, -3), (2, 3), (3, -1), (3, 1)],
     Fraction(1, 8)),
    ([(-3, 0), (-2, -2), (-2, 2), (-1, -3), (-1, 3), (0, -3), (0, 3), (1, -3), (1, 3),
      (2, -2), (2, 2), (3, 0)], Fraction(1, 8)),
])
def test_lms_location_breaks_ties_like_the_reference(coords, eps):
    snap = _weighted_snapshot([Point2(x, y) for x, y in coords], [1] * len(coords), "disk", eps)
    disk = lms_location(snap)
    assert (disk.center, disk.radius2) == _reference_lms_location(snap)


@settings(max_examples=300, deadline=None)
@given(inp=_lms_inputs(), data=st.data())
def test_lms_regression_matches_window_reference(inp, data):
    pts, eps = inp
    assume(len(set(pts)) >= 2)
    snap = _weighted_snapshot(pts, _lms_weights(data, pts), "slab", eps)
    fit, width = lms_regression(snap)
    assert (fit, width) == _reference_lms_regression(snap)
    assert all(isinstance(v, Fraction) for v in (fit.slope, fit.intercept, width))


@settings(max_examples=300, deadline=None)
@given(inp=_lms_inputs(), data=st.data())
def test_theil_sen_matches_rescan_reference(inp, data):
    pts, _ = inp
    snap = _weighted_snapshot(pts, _lms_weights(data, pts), "vpar")
    try:
        want = _reference_theil_sen(snap)
    except EpsStreamError:
        with pytest.raises(EpsStreamError):
            theil_sen_fit(snap)
        return
    fit = theil_sen_fit(snap)
    assert fit == want
    assert isinstance(fit.intercept, Fraction)


@settings(max_examples=200, deadline=None)
@given(pts=st.lists(st.builds(Point2, st.integers(-3, 3), st.integers(-3, 3)),
                    min_size=1, max_size=10, unique=True))
def test_slope_orders_sort_the_keys_at_each_pair_slope(pts):
    slopes = _pair_slopes(pts)
    pairs, blocks = _slope_orders(pts, 2)
    orders = np.concatenate(list(blocks))
    assert [Fraction(int(num), int(den)) for num, den in pairs] == slopes
    assert len(orders) == len(slopes) + 1
    for a, order in zip(slopes or [Fraction(0)], orders):
        keys = [pts[i].y - a * pts[i].x for i in order]
        assert keys == sorted(keys)


# -- which LMS columns ---------------------------------------------------------------


def _spy_columns(monkeypatch) -> list:
    """Record the dtype of every column pair ``_int_columns`` builds, for
    the disk columns and for LMS regression's own call."""
    dtypes = []
    real = rangesums._int_columns

    def spy(*args, **kwargs):
        xs, ys, s = real(*args, **kwargs)
        dtypes.append(xs.dtype)
        return xs, ys, s

    monkeypatch.setattr(rangesums, "_int_columns", spy)
    monkeypatch.setattr(stats, "_int_columns", spy)
    return dtypes


def _lms_snapshots(pts, eps=Fraction(1, 8)):
    weights = [1 + i % 3 for i in range(len(pts))]
    return (_weighted_snapshot(pts, weights, "disk", eps),
            _weighted_snapshot(pts, weights, "slab", eps))


_LMS_TIES = [(0, 0), (3, 4), (4, 3), (-5, 0), (0, 5), (1, 1), (2, 2), (3, 3), (-3, 1), (5, 0),
             (0, -5), (3, 4), (-4, -3), (2, -1)]


def test_lms_at_benchmark_coordinates_take_int64_columns(monkeypatch):
    """With |c| <= 2^21, as the benchmark draws them, both statistics sweep
    int64 columns."""
    rng = random.Random(11)
    c = 1 << 21
    pts = [Point2(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(30)]
    pts += [Point2(c - 5 + x, y) for x, y in _LMS_TIES]
    disk_snap, slab_snap = _lms_snapshots(pts)
    dtypes = _spy_columns(monkeypatch)
    lms_location(disk_snap)
    lms_regression(slab_snap)
    assert dtypes == [np.int64, np.int64]


def test_lms_with_one_pair_or_slope_per_block(monkeypatch):
    """Results carried from block to block count, and the |AB|^2 pruning
    stops at a block boundary."""
    disk_snap, slab_snap = _lms_snapshots([Point2(x, y) for x, y in _LMS_TIES])
    expected = lms_location(disk_snap), lms_regression(slab_snap)
    monkeypatch.setattr(rangesums, "_BLOCK_EVENTS", 1)
    assert (lms_location(disk_snap), lms_regression(slab_snap)) == expected


@pytest.mark.parametrize("scale", [Fraction(1, 3), 1 << 23, 1 << 28, 1 << 40, 1 << 600])
def test_lms_far_or_fraction_coordinates_give_the_scaled_answers(scale, monkeypatch):
    """Scaling the support by s scales the least disk's center by s and its
    radius^2 by s^2, and the narrowest slab's intercept and width by s.
    Disk columns hold Python ints from a spread of 2^25 and slope columns
    from |c| = 2^30 (at 2^40 their products pass 2^63, and at 2^600 the
    squared radii and widths pass the float range); Fraction coordinates
    are scaled back to integers."""
    pts = [Point2(x, y) for x, y in _LMS_TIES]
    disk, (fit, width) = (lms_location(_lms_snapshots(pts)[0]),
                          lms_regression(_lms_snapshots(pts)[1]))
    disk_snap, slab_snap = _lms_snapshots([Point2(p.x * scale, p.y * scale) for p in pts])
    dtypes = _spy_columns(monkeypatch)
    got = lms_location(disk_snap)
    assert (got.center, got.radius2) == ((disk.center[0] * scale, disk.center[1] * scale),
                                         disk.radius2 * scale * scale)
    assert lms_regression(slab_snap) == (FitLine(fit.slope, fit.intercept * scale),
                                         width * scale)
    assert dtypes == list({Fraction(1, 3): (np.int64, np.int64),
                           1 << 23: (object, np.int64)}.get(scale, (object, object)))


def test_lms_location_with_an_event_time_below_the_float_range():
    """C is just outside the diametral disk of AB, |AB| = 2^600: its event
    time, 1 / (2^1200 - 2^601), rounds to 0.0, and only its sign keeps it
    out of that disk, so the least disk is the circumcircle of A, B, C."""
    r = 1 << 599
    pts = [Point2(-r, 0), Point2(r, 0), Point2(1 << 300, r - 1), Point2(0, -1 << 700),
           Point2(0, 1 << 700)]
    snap = _weighted_snapshot(pts, [1, 1, 2, 1, 1], "disk", Fraction(1, 8))
    disk = lms_location(snap)
    assert disk.radius2 > r * r
    assert (disk.center, disk.radius2) == _reference_lms_location(snap)


def _prime_denominators(count, low):
    primes = []
    d = low
    while len(primes) < count:
        d += 1
        if all(d % q for q in range(2, math.isqrt(d) + 1)):
            primes.append(d)
    return primes


def test_lms_on_fractions_with_a_wide_lcm_match_the_references():
    """Distinct prime denominators near 2^22 scale the columns by an lcm
    past 2^500; the answers are the Fraction references'."""
    rng = random.Random(5)
    pts = [Point2(Fraction(rng.randint(-9 * d, 9 * d), d), Fraction(rng.randint(-9 * d, 9 * d), d))
           for d in _prime_denominators(24, 1 << 22)]
    disk_snap, slab_snap = _lms_snapshots(pts)
    disk = lms_location(disk_snap)
    assert (disk.center, disk.radius2) == _reference_lms_location(disk_snap)
    assert lms_regression(slab_snap) == _reference_lms_regression(slab_snap)


def test_lms_with_pair_distances_spanning_past_the_float_range():
    """Pairs 1 and 2^1100 apart in one support: the exact screens settle
    both statistics as the references do."""
    far = 1 << 1100
    pts = [Point2(x, y) for x, y in _LMS_TIES]
    pts += [Point2(far, 1), Point2(far + 1, -far), Point2(-far, 3)]
    disk_snap, slab_snap = _lms_snapshots(pts)
    disk = lms_location(disk_snap)
    assert (disk.center, disk.radius2) == _reference_lms_location(disk_snap)
    assert lms_regression(slab_snap) == _reference_lms_regression(slab_snap)

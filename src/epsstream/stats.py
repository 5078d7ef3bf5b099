"""Robust statistics evaluated on stream snapshots.

Each estimator reads the weighted support of a snapshot built on the range
family its error analysis needs (halfplanes for Tukey depth, wedges for
simplicial depth, double wedges for regression depth, vertical
parallelograms for slope statistics, disks and slabs for the least-median
fits).  All arithmetic is exact; additive bounds quote the snapshot's eps.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import rangesums
from .engine import Snapshot
from .errors import EpsStreamError, FamilyMismatchError
from .ranges import FamilyKind, Point2
from .rangesums import (_block_rows, _collapse_multi, _delta_matrix, _disk_columns, _disk_events,
                        _half_turn, _int_columns, _slope_orders_np)

# Documented constant for the simplicial-depth additive bound K*sqrt(eps);
# fitted empirically on exact samples (see the acceptance suite).
SIMPLICIAL_K = 5

# Documented constant for the slope-rank bound K*eps^(1/3).
SLOPE_RANK_K = 2


@dataclass(frozen=True)
class FitLine:
    """y = slope * x + intercept; slope None marks a vertical (nonfit) line."""

    slope: Fraction | None
    intercept: Fraction


@dataclass(frozen=True)
class DepthValue:
    value: Fraction
    additive_bound: Fraction

    def __post_init__(self):
        if not 0 <= self.value <= 1:
            raise ValueError("depth must lie in [0, 1]")


def _require(snap: Snapshot, kind: FamilyKind, op: str) -> None:
    if snap.family.kind is not kind:
        raise FamilyMismatchError(f"{op} needs a {kind.value} snapshot, got "
                                  f"{snap.family.kind.value}")


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x)."""
    scale = 1 << 20
    if x < 0:
        raise ValueError("negative radicand")
    num = x.numerator * scale * scale
    return Fraction(math.isqrt(num // x.denominator) + 1, scale)


# ---------------------------------------------------------------------------
# Tukey depth and median.
# ---------------------------------------------------------------------------


def _probe_turns(snap: Snapshot, qs: Sequence[Point2]) -> rangesums._HalfTurn:
    """The support about each probe, one row per probe
    (``rangesums._half_turn``).  Int probes below 2^30 on an int64 support
    read the sample's cached columns; any other probe or support takes
    ``_int_columns`` of the support and the probes, scaled together."""
    xs, ys, _ = snap.sample.columns
    if xs.dtype != object and all(type(c) is int and abs(c) < rangesums._NP_COORD_LIMIT
                                  for q in qs for c in q):
        ax, ay = np.array(qs, dtype=np.int64).reshape(len(qs), 2).T
    else:
        m = len(xs)
        xs, ys, _ = _int_columns((*snap.sample.points, *qs), rangesums._NP_COORD_LIMIT)
        xs, ys, ax, ay = xs[:m], ys[:m], xs[m:], ys[m:]
    return _half_turn(xs, ys, ax, ay)


def _depths_of(snap: Snapshot, qs: Sequence[Point2]) -> list[Fraction]:
    """Minimum closed-halfplane mass through each probe over the stream mass,
    on the integer scaled weights, divided once.

    About a probe, with folded groups g ascending (``_probe_turns``), a line
    turned just short of group g leaves on one side the upper parts from g
    on and the lower parts before g, and on the other the mirror; copies of
    the probe lie in both.  With D the running sum of lower minus upper
    mass at a group end (or 0), those sides hold U + D and L - D, U and L
    the upper and lower masses, so the depth is base + min(U + min D,
    L - max D), base the copies' mass.  The probes are read in blocks of
    ``_block_rows(m)`` rows, so a call holds O(m) cells per array however
    many probes it takes.
    """
    weights = snap.sample.columns[2]
    denom = snap.sample.scaled_weights[1] * snap.n
    out = []
    rows = _block_rows(len(weights))
    for lo in range(0, len(qs), rows):
        ht = _probe_turns(snap, qs[lo:lo + rows])
        w = weights[ht.order]
        up, low = np.where(ht.lower | ht.copy, 0, w), np.where(ht.lower, w, 0)
        reads = np.where(ht.end, np.cumsum(low - up, axis=1), 0)
        base = np.where(ht.copy, w, 0).sum(axis=1)
        depth = base + np.minimum(up.sum(axis=1) + reads.min(axis=1, initial=0),
                                  low.sum(axis=1) - reads.max(axis=1, initial=0))
        out += [Fraction(int(v), denom) for v in depth]
    return out


def tukey_depth(snap: Snapshot, q: Point2) -> DepthValue:
    """Halfspace depth of q in the snapshot; within eps of the stream's."""
    _require(snap, FamilyKind.HALFPLANE, "tukey_depth")
    return DepthValue(_depths_of(snap, [q])[0], snap.eps)


def _meet(l1, l2) -> tuple[int, int, int]:
    """Homogeneous coordinates (X, Y, W), W > 0, of the meet of two
    nonparallel integer lines a*x + b*y = t (Cramer's rule)."""
    a1, b1, t1 = l1
    a2, b2, t2 = l2
    x, y, w = t1 * b2 - t2 * b1, a1 * t2 - a2 * t1, a1 * b2 - a2 * b1
    return (x, y, w) if w > 0 else (-x, -y, -w)


def _clip(poly: list, line: tuple[int, int, int]) -> list:
    """Clip a convex polygon to a*x + b*y <= t for line (a, b, t).

    The polygon is a cycle of (X, Y, W, edge): a vertex in homogeneous
    integer coordinates and the line through it and the next vertex, so a
    crossing vertex is the meet of the crossed edge and the clip line, and
    every vertex stays the meet of two input lines.
    """
    a, b, t = line
    side = [a * x + b * y - t * w for x, y, w, _ in poly]
    if max(side) <= 0:
        return poly
    out = []
    for i, v in enumerate(poly):
        s1, s2 = side[i], side[(i + 1) % len(poly)]
        if s1 <= 0:  # kept; past it the boundary runs on the clip line if it leaves here
            out.append(v if s1 < 0 or s2 <= 0 else (*v[:3], line))
        if s1 < 0 < s2:
            out.append((*_meet(v[3], line), line))
        elif s2 < 0 < s1:
            out.append((*_meet(v[3], line), v[3]))
    return out


def _lex_order(u, v) -> int:
    """Sign of the lexicographic comparison of two homogeneous vertices."""
    return (u[0] * v[2] - v[0] * u[2]) or (u[1] * v[2] - v[1] * u[2])


# A float side a*x + b*y - t at a vertex is within 2^-50 (|a*x| + |b*y| +
# |t|) of the exact side, so below minus this share the vertex holds.
_SIDE_SLACK = 2.0 ** -48


def _floats(values) -> np.ndarray:
    """float64 copies of exact numbers; NaN, never screened, on overflow."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return np.full(len(values), np.nan)


def _depth_regions(pts: Sequence[Point2], g: np.ndarray):
    """The depth levels of a support that is not collinear, ascending; the
    level's region as a function of the level; and the scale s.

    The region of level tau is the box around the support clipped, for
    every support-pair normal u, to u.p <= t, t the greatest support
    projection whose suffix mass (on the integer masses g) reaches tau; it
    holds every point of depth tau or more.  Lines are integer, on
    coordinates scaled by s, the lcm of their denominators.  Projections are
    int64 (scaled |coordinates| below 2^30) or Python ints; a float screen
    spares exact clipping of most lines.
    """
    xs, ys, scale = _int_columns(pts, rangesums._NP_COORD_LIMIT)
    # normals of all support directions, both ways (parallel ones bound the same halfplanes)
    i, j = np.triu_indices(len(pts), 1)
    spans = (xs[i] != xs[j]) | (ys[i] != ys[j])
    i, j = np.concatenate([i[spans], j[spans]]), np.concatenate([j[spans], i[spans]])
    ux, uy = ys[i] - ys[j], xs[j] - xs[i]
    # per normal, projections descending and their running masses; the
    # levels are the masses ending runs of equal values (every row ends at
    # the total), deduplicated by hand (np.unique hashes, far slower), and a
    # level's threshold is the value where the running mass first reaches it
    proj = ux[:, None] * xs + uy[:, None] * ys
    order = np.argsort(-proj, axis=1, kind="stable")
    vals = np.take_along_axis(proj, order, axis=1)
    run = np.cumsum(g[order], axis=1)
    levels = np.sort(np.append(run[:, :-1][vals[:, 1:] != vals[:, :-1]], run[0, -1]))
    levels = levels[np.append(True, levels[1:] != levels[:-1])]
    rows, uxf, uyf = np.arange(len(ux)), _floats(ux), _floats(uy)
    lo_x, hi_x = int(xs.min()) - scale, int(xs.max()) + scale
    lo_y, hi_y = int(ys.min()) - scale, int(ys.max()) + scale
    box = [(lo_x, lo_y, 1, (0, 1, lo_y)), (hi_x, lo_y, 1, (1, 0, hi_x)),
           (hi_x, hi_y, 1, (0, 1, hi_y)), (lo_x, hi_y, 1, (1, 0, lo_x))]

    def region(tau):
        t = vals[rows, (run < tau).sum(axis=1)]
        poly, live, af, bf, tf = box, rows, uxf, uyf, _floats(t)
        while poly and len(live):
            vx, vy, vw = (_floats([v[c] for v in poly]) for c in range(3))
            with np.errstate(invalid="ignore", over="ignore"):
                ax, by = af[:, None] * (vx / vw), bf[:, None] * (vy / vw)
                side = ax + by - tf[:, None]
                keep = ~(side < -_SIDE_SLACK * (abs(ax) + abs(by) + abs(tf[:, None]))).all(axis=1)
            live, side, af, bf, tf = live[keep], side[keep], af[keep], bf[keep], tf[keep]
            if not len(live):
                break
            finite = np.isfinite(side)
            clip = ~finite.all(axis=1)
            clip[np.argmax(np.where(finite, side, np.inf), axis=0)] = True
            for r in live[clip].tolist():
                poly = poly and _clip(poly, (int(ux[r]), int(uy[r]), int(t[r])))
            live, af, bf, tf = live[~clip], af[~clip], bf[~clip], tf[~clip]
        return poly

    return levels, region, scale


def _deepest_region(levels: np.ndarray, region) -> list:
    """The region of the largest level whose region is not empty.

    Regions shrink as the level grows, so a binary search finds it.  Every
    weighted planar set has a point of depth at least a third of its mass
    (the centerpoint theorem), so the region of the largest level at or
    below ceil(total / 3) is not empty: the search starts above it and
    reads that region only if no higher level's is nonempty.
    """
    known = int(np.searchsorted(levels, -(-int(levels[-1]) // 3), side="right")) - 1
    lo, hi, best = known + 1, len(levels) - 1, None
    while lo <= hi:
        mid = (lo + hi) // 2
        poly = region(levels[mid])
        if poly:
            best, lo = poly, mid + 1
        else:
            hi = mid - 1
    if best is None and known >= 0:
        best = region(levels[known])
    if not best:
        raise EpsStreamError("depth region search failed")
    return best


def tukey_median(snap: Snapshot) -> tuple[Point2, DepthValue]:
    """A point maximizing snapshot depth; its depth is within eps of the
    stream's maximum depth and at least 1/3.

    Binary search over the depth levels, from the centerpoint level up
    (``_deepest_region``), of the levels' regions (``_depth_regions``).
    The lexicographically least vertex of the deepest region is returned.
    A collinear support returns its deepest point, the least of equals.
    """
    _require(snap, FamilyKind.HALFPLANE, "tukey_median")
    pts = snap.sample.points
    if not pts:
        raise EpsStreamError("empty snapshot")
    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    if ref is None:
        return base, DepthValue(Fraction(1), snap.eps)
    collinear = all((p.x - base.x) * (ref.y - base.y) == (p.y - base.y) * (ref.x - base.x)
                    for p in pts)
    if collinear:
        best, depth = min(zip(pts, _depths_of(snap, pts)), key=lambda pd: (-pd[1], pd[0]))
        return best, DepthValue(depth, snap.eps)
    levels, region, scale = _depth_regions(pts, snap.sample.columns[2])
    vx, vy, vw, _ = min(_deepest_region(levels, region), key=functools.cmp_to_key(_lex_order))
    x, y = Fraction(vx, vw * scale), Fraction(vy, vw * scale)
    q = Point2(x.numerator if x.denominator == 1 else x,
               y.numerator if y.denominator == 1 else y)
    return q, DepthValue(_depths_of(snap, [q])[0], snap.eps)


# ---------------------------------------------------------------------------
# Simplicial depth.
# ---------------------------------------------------------------------------


def _c2(w: Fraction) -> Fraction:
    v = w * (w - 1) / 2
    return v if v > 0 else Fraction(0)


def _c3(w: Fraction) -> Fraction:
    v = w * (w - 1) * (w - 2) / 6
    return v if v > 0 else Fraction(0)


def simplicial_depth_estimate(snap: Snapshot, q: Point2,
                              delta_sub: Fraction | None = None) -> DepthValue:
    """Wedge-count estimate of the fraction of point triples enclosing q.

    The plane around q is cut into angular sectors holding at most a
    delta_sub fraction of the mass each (heavy single directions may
    overshoot); triples confined to one halfplane off a sector boundary are
    subtracted from the total.  The directions about q are one row of
    ``rangesums._half_turn``: the full turn is the upper part of each
    folded group, in order, then the lower parts.  Masses are integer sums
    of the scaled weights; Fractions are built once per sector.
    """
    _require(snap, FamilyKind.WEDGE, "simplicial_depth_estimate")
    if delta_sub is None:
        delta_sub = min(Fraction(1, 2), _sqrt_upper(snap.eps)) if snap.eps > 0 else Fraction(1, 4)
    delta_sub = Fraction(delta_sub)
    if not 0 < delta_sub < 1:
        raise ValueError("delta_sub must be in (0, 1)")
    n = Fraction(snap.n)
    if n < 3:
        raise EpsStreamError("simplicial depth needs mass >= 3")
    # triples using q-coincident points always contain q: copies weigh 0
    ht = _probe_turns(snap, [q])
    w = snap.sample.columns[2][ht.order[0]]
    ends = np.flatnonzero(ht.end[0])
    lower = ht.lower[0]
    ucum = np.cumsum(np.where(lower | ht.copy[0], 0, w))[ends].tolist()
    lcum = np.cumsum(np.where(lower, w, 0))[ends].tolist()
    ub, lb = [0, *ucum[:-1]], [0, *lcum[:-1]]  # masses before each group
    # the full turn: the upper part of each group in folded order, then the lower parts
    turn = [(half, a, c - b) for half, cum, before in ((0, ucum, ub), (1, lcum, lb))
            for a, (c, b) in enumerate(zip(cum, before)) if c > b]
    if not turn:
        return DepthValue(Fraction(1), SIMPLICIAL_K * _sqrt_upper(snap.eps))
    denom = snap.sample.scaled_weights[1]
    cap = delta_sub * n * denom
    # sectors [lead half, lead group, mass]; a lower part at or past an upper
    # lead's group lies a half-turn or more from it
    sectors: list[list[int]] = []
    for half, a, mass in turn:
        cur = sectors[-1] if sectors else None
        if cur is None or cur[2] + mass > cap or (cur[0] < half and a >= cur[1]):
            sectors.append([half, a, mass])
        else:
            cur[2] += mass
    excluded = Fraction(0)
    for half, a, mass in sectors:
        # the half-turn from the lead: its half from group a on, the other before a
        h = (ucum[-1] - ub[a] + lb[a]) if half == 0 else (lcum[-1] - lb[a] + ub[a])
        w_i, rest = Fraction(mass, denom), Fraction(h - mass, denom)
        excluded += _c3(w_i) + _c2(w_i) * rest + w_i * _c2(rest)
    value = 1 - excluded / _c3(n)
    value = min(max(value, Fraction(0)), Fraction(1))
    return DepthValue(value, SIMPLICIAL_K * _sqrt_upper(snap.eps))


# ---------------------------------------------------------------------------
# Regression depth.
# ---------------------------------------------------------------------------


def _column_masses(mask: np.ndarray, xs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per row of a mask over points in x order (coordinates xs, masses g),
    the mass of the masked points in the first c x columns, c = 0 .. C."""
    ends = np.flatnonzero(np.append(xs[1:] != xs[:-1], True))
    out = np.zeros((len(mask), len(ends) + 1), dtype=g.dtype)
    out[:, 1:] = np.cumsum(np.where(mask, g, 0), axis=1)[:, ends]
    return out


def _least_swept(up: np.ndarray, down: np.ndarray, on) -> np.ndarray:
    """Per line, the least mass swept when rotating it to vertical about any
    pivot, from its column masses above, below and on it.

    Points on the line (outside the pivot column) always count: the motion
    starts on them.  Only pivots on columns are read: turning either way, a
    pivot on a column next to a gap sweeps part of what a pivot in the gap
    sweeps.  About column j, rising sweeps the mass above on the right and
    below on the left (falling the other two), and every point on the line
    off the column: prefix masses before column j, suffix masses after it.
    """
    up_on, down_on = up + on, down + on
    return np.minimum(up_on[:, -1] + (down_on[:, :-1] - up_on[:, 1:]).min(axis=1),
                      down_on[:, -1] + (up_on[:, :-1] - down_on[:, 1:]).min(axis=1))


def regression_depth(snap: Snapshot, line: FitLine) -> DepthValue:
    """Minimum mass swept when rotating the line to vertical about any pivot
    (``_least_swept``), over the stream mass.  At slope a/b and intercept
    c/d, the residual of (x, y) has the sign of b*d*y - a*d*x - b*c."""
    _require(snap, FamilyKind.DOUBLE_WEDGE, "regression_depth")
    if line.slope is None:
        raise ValueError("vertical lines are nonfits")
    slope, inter = Fraction(line.slope), Fraction(line.intercept)
    a, b, c, d = slope.numerator, slope.denominator, inter.numerator, inter.denominator
    xs, _, g = snap.sample.columns
    order = np.argsort(xs, kind="stable")
    res = np.array([b * d * p.y - a * d * p.x - b * c for p in snap.sample.points])[order]
    mass, = _least_swept(*_column_masses(np.stack([res > 0, res < 0, res == 0]), xs[order],
                                         g[order])[:, None])
    return DepthValue(Fraction(int(mass), snap.sample.scaled_weights[1] * snap.n), snap.eps)


def max_regression_depth_fit(snap: Snapshot) -> tuple[FitLine, DepthValue]:
    """Deepest fit over lines through support pairs and nearby perturbations;
    ties go to the least (slope, intercept).

    A pair's line shares its residual signs (int64 on int64 columns) with
    its nudges by the least nonzero |residual| g (intercept -g/2, slope
    -g/(2 (max |x| + 1)) or -1/2) but on the line, whose points go above
    the lowered line and to sign(x) of the turned one.  The raising nudges
    never win: moving points off a line never deepens it, and they sort
    above their line in (slope, intercept).  Fractions are built only for
    the deepest lines.  A vertical support takes horizontal lines.
    """
    _require(snap, FamilyKind.DOUBLE_WEDGE, "max_regression_depth_fit")
    if len(snap.sample.points) < 2:
        raise EpsStreamError("need at least 2 support points")
    order = np.argsort(snap.sample.columns[0], kind="stable")
    xs, ys, g = (col[order] for col in snap.sample.columns)
    i, j = np.triu_indices(len(xs), 1)
    i, j = i[xs[j] != xs[i]], j[xs[j] != xs[i]]
    dx, dy = xs[j] - xs[i], ys[j] - ys[i]
    if not len(i):
        i, dx, dy = np.arange(len(xs)), np.ones_like(xs), np.zeros_like(xs)
    rows = max(1, rangesums._BLOCK_EVENTS // len(xs))
    masses = []
    for lo in range(0, len(i), rows):
        blk = slice(lo, lo + rows)
        res = dx[blk, None] * (ys - ys[i[blk], None]) - dy[blk, None] * (xs - xs[i[blk], None])
        up, down = _column_masses(res > 0, xs, g), _column_masses(res < 0, xs, g)
        on, pos, neg = (_column_masses((res == 0) & side, xs, g) for side in (True, xs > 0, xs < 0))
        gapped = (res != 0).any(axis=1)  # a line through every point has no intercept nudge
        masses.append(np.stack([_least_swept(up, down, on),
                                np.where(gapped, _least_swept(up + on, down, 0), -1),
                                _least_swept(up + pos, down + neg, on - pos - neg)]))
    masses = np.concatenate(masses, axis=1)
    deepest = masses.max()
    xl, yl, il, dxl, dyl = (v.tolist() for v in (xs, ys, i, dx, dy))
    spanx = max(map(abs, xl)) + 1
    lines = set()
    for kind, r in zip(*np.nonzero(masses == deepest)):
        px, py, run, rise = xl[il[r]], yl[il[r]], dxl[r], dyl[r]
        slope = Fraction(rise, run)
        inter = py - slope * px
        gap = Fraction(min((v for v in (abs(run * (y - py) - rise * (x - px))
                                        for x, y in zip(xl, yl)) if v), default=0), run)
        da = gap / (2 * spanx) if gap else Fraction(1, 2)
        lines.add(((slope, inter), (slope, inter - gap / 2), (slope - da, inter))[kind])
    return FitLine(*min(lines)), DepthValue(
        Fraction(int(deepest), snap.sample.scaled_weights[1] * snap.n), snap.eps)


# ---------------------------------------------------------------------------
# Slope statistics (Theil-Sen).
# ---------------------------------------------------------------------------


def _pair_slope_masses(pts: Sequence[Point2], gs: Sequence[int]):
    """({slope: mass}, vertical mass, total mass) over the pairs of a
    collapsed support with integer masses gs; a pair weighs the product of
    its masses."""
    slopes: dict[Fraction, int] = {}
    vertical = total = 0
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            gg = gs[i] * gs[j]
            total += gg
            dx = pts[j].x - pts[i].x
            if dx == 0:
                vertical += gg
                continue
            sl = Fraction(pts[j].y - pts[i].y, dx)
            slopes[sl] = slopes.get(sl, 0) + gg
    return slopes, vertical, total


def slope_rank_estimate(snap: Snapshot, s: Fraction) -> Fraction:
    """Normalized position of slope s among weighted support pair slopes.

    Vertical pairs rank above any finite slope; ties count half.  One
    integer pass over the pairs of the collapsed support: with dx > 0, the
    pair slope dy/dx is below s = num/den exactly when dy*den < num*dx.
    """
    _require(snap, FamilyKind.VPARALLELOGRAM, "slope_rank_estimate")
    s = Fraction(s)
    num, den = s.numerator, s.denominator
    pts, (gs,) = _collapse_multi(snap.sample.points, [snap.sample.scaled_weights[0]])
    if len(pts) < 2:
        raise EpsStreamError("need at least 2 distinct support points")
    below = at = total = 0
    for i, (p, gp) in enumerate(zip(pts, gs)):
        for q, gq in zip(pts[i + 1:], gs[i + 1:]):
            gg = gp * gq
            total += gg
            dx, dy = q.x - p.x, q.y - p.y
            if dx < 0:
                dx, dy = -dx, -dy
            elif dx == 0:
                continue
            lhs, rhs = dy * den, num * dx
            if lhs < rhs:
                below += gg
            elif lhs == rhs:
                at += gg
    return Fraction(2 * below + at, 2 * total)


def theil_sen_fit(snap: Snapshot) -> FitLine:
    """Line with the weighted-median pair slope, balancing mass above/below:
    the least (|above - below|, intercept) over the support keys y - slope*x
    and their midpoints, read off prefix masses over the sorted keys."""
    _require(snap, FamilyKind.VPARALLELOGRAM, "theil_sen_fit")
    pts, (gs,) = _collapse_multi(snap.sample.points, [snap.sample.scaled_weights[0]])
    if len(pts) < 2:
        raise EpsStreamError("all support points coincident")
    slopes, vertical, total = _pair_slope_masses(pts, gs)
    if 2 * vertical >= total:
        raise EpsStreamError("median pair slope is vertical")
    run = 0
    slope = None
    for sl in sorted(slopes):
        run += slopes[sl]
        if 2 * run >= total:
            slope = sl
            break
    if slope is None:
        raise EpsStreamError("median pair slope is vertical")
    # intercepts scaled by den, as integer keys den*y - num*x; candidates by 2*den
    num, den = slope.numerator, slope.denominator
    columns: dict = {}
    for p, g in zip(pts, gs):
        k = p.y * den - p.x * num
        columns[k] = columns.get(k, 0) + g
    keys = sorted(columns)
    below = [0, *itertools.accumulate(columns[k] for k in keys)]
    mass = below[-1]
    cands = [(abs(mass - below[i + 1] - below[i]), 2 * k) for i, k in enumerate(keys)]
    cands += [(abs(mass - 2 * below[i + 1]), k + keys[i + 1]) for i, k in enumerate(keys[:-1])]
    return FitLine(slope, Fraction(min(cands)[1], 2 * den))


# ---------------------------------------------------------------------------
# Least median of squares.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LmsDisk:
    center: tuple[Fraction, Fraction]
    radius2: Fraction


# Float r^2 and width screens are within 2^-50 relative of the exact values;
# candidates within this factor of the least are settled exactly.
_SCREEN = 1 + 2.0 ** -40


def _ratios(num: np.ndarray, den) -> np.ndarray:
    """The screens' keys num/den: float64 on int64 arrays, and exact
    Fractions on Python ints (dtype object), whose size no float range
    limits."""
    return np.frompyfunc(Fraction, 2, 1)(num, den) if num.dtype == object else num / den


def _lms_disks_np(pts, g: np.ndarray, need: int, xs: np.ndarray, ys: np.ndarray) -> tuple:
    """``lms_location``'s least key over the bisector sweeps
    (``rangesums._disk_events``) of the pairs, in blocks in |AB|^2 order.

    Squared radii are in the units of the columns; centers are read off
    ``pts``, since the event times do not depend on the columns' scale.
    On int64 columns candidates are screened by float r^2, and those
    within ``_SCREEN`` of the least are settled in Fractions; on Python-int
    columns the screen's r^2 are Fractions (``_ratios``) and only the least
    are settled.
    """
    n = len(g)
    ia, ib = np.triu_indices(n, 1)
    ab2 = (xs[ib] - xs[ia]) ** 2 + (ys[ib] - ys[ia]) ** 2
    by = np.argsort(ab2, kind="stable")
    ia, ib, ab2 = ia[by], ib[by], ab2[by]
    rows = _block_rows(n)
    pos = np.arange(n)
    best = (math.inf,)  # (r2, 1 diametral or 2 circumcircle, index key, center)
    for lo in range(0, len(ab2), rows):
        if int(ab2[lo]) > 4 * best[0]:
            break  # every disk through these pairs is larger
        i, j, b2 = ia[lo:lo + rows], ib[lo:lo + rows], ab2[lo:lo + rows]
        ev = _disk_events(xs, ys, i, j)
        entering = np.where(ev.enters, g[ev.order], 0)
        leaving = np.where(ev.leaves, g[ev.order], 0)
        start = ev.start @ g
        # mass at each group's time: before the group, plus its entering points
        first = np.ones(ev.end.shape, dtype=bool)
        first[:, 1:] = ev.end[:, :-1]
        gstart = np.maximum.accumulate(np.where(first, pos, 0), axis=1)
        left_before = np.cumsum(leaving, axis=1) - leaving
        at = (start[:, None] + np.cumsum(entering, axis=1)
              - np.take_along_axis(left_before, gstart, axis=1))
        feasible = ev.end & (at >= need)
        below = np.where(feasible & (ev.time < 0), pos, -1).max(axis=1)
        above = np.where(feasible & (ev.time > 0), pos, n).min(axis=1)
        at_zero = (start + np.where(ev.time <= 0, entering, 0).sum(axis=1)
                   - np.where(ev.time < 0, leaving, 0).sum(axis=1))
        r2 = [np.where(at_zero >= need, _ratios(b2, 4), np.inf)]
        for p, ok in ((below, below >= 0), (above, above < n)):
            c = np.take_along_axis(ev.order, np.minimum(p, n - 1)[:, None], axis=1)
            t = _ratios(np.take_along_axis(ev.alpha, c, axis=1)[:, 0],
                        np.where(ok, np.take_along_axis(ev.beta, c, axis=1)[:, 0], 1))
            r2.append(np.where(ok, b2 * (4 * t * t + 1) / 4, np.inf))
        least = min(v.min() for v in r2)
        limit = (min(least, best[0]) if b2.dtype == object
                 else min(least, float(best[0])) * _SCREEN)
        if limit == np.inf:
            continue
        for r in np.flatnonzero(r2[0] <= limit):
            ii, jj = int(i[r]), int(j[r])
            A, B = pts[ii], pts[jj]
            best = min(best, (Fraction(int(b2[r]), 4), 1, (ii, jj),
                              (Fraction(A.x + B.x, 2), Fraction(A.y + B.y, 2))))
        for p, v in ((below, r2[1]), (above, r2[2])):
            for r in np.flatnonzero(v <= limit):
                ii, jj, e = int(i[r]), int(j[r]), int(p[r])
                A, B = pts[ii], pts[jj]
                group = ev.order[r, gstart[r, e]:e + 1].tolist()
                t = Fraction(int(ev.alpha[r, group[0]]), int(ev.beta[r, group[0]]))
                circle = tuple(sorted({ii, jj, *group})[:3])
                best = min(best, (int(b2[r]) * (Fraction(1, 4) + t * t), 2, circle,
                                  (Fraction(A.x + B.x, 2) + t * (A.y - B.y),
                                   Fraction(A.y + B.y, 2) + t * (B.x - A.x))))
    return best


def lms_location(snap: Snapshot) -> LmsDisk:
    """Smallest canonical disk holding a (1/2 + eps) fraction of the snapshot.

    Such a disk holds at least half of the true stream mass.  Past radius 0,
    each pair's bisector sweep gives its diametral disk (t = 0) and
    circumcircles (one per group of equal event times, holding the mass
    before the group plus its entering points), on the integer scaled
    weights.  Of the circles, only the last feasible one before t = 0 and
    the first after it can be least.  The least squared radius wins; ties
    go to radius 0 by (x, y), then to diametral disks by pair (i, j), then
    to circumcircles by the least index triple on the circle.

    Pairs are taken in order of |AB|^2, and none past 4 times the best
    squared radius is swept.  The disk measure's sweep
    (``rangesums._disk_events``) runs on its columns
    (``rangesums._disk_columns``), scaled by s to integers, over blocks of
    pairs, O(m^3 log m) numpy work, and stops at the first block past that
    bound; candidates are screened by r^2, float on int64 columns and
    exact on Python-int ones, and settled in Fractions, and the least r^2
    is divided by s^2.  The columns and the weights are each int64 or
    Python ints, so no spread or scale is out of range.
    """
    _require(snap, FamilyKind.DISK, "lms_location")
    if snap.eps >= Fraction(1, 2):
        raise ValueError("lms_location needs eps < 1/2")
    ints, denom = snap.sample.scaled_weights
    pts, (gs,) = _collapse_multi(snap.sample.points, [ints])
    need = math.ceil((Fraction(1, 2) + snap.eps) * snap.n * denom)
    heavy = [p for p, g in zip(pts, gs) if g >= need]
    if heavy:
        return LmsDisk((Fraction(heavy[0].x), Fraction(heavy[0].y)), Fraction(0))
    xs, ys, scale = _disk_columns(pts)
    best = _lms_disks_np(pts, _delta_matrix([gs], len(pts))[0], need, xs, ys)
    if best[0] == math.inf:
        raise EpsStreamError("no feasible disk (internal)")
    return LmsDisk(best[3], best[0] / (scale * scale))


def _lms_slabs_np(xs: np.ndarray, ys: np.ndarray, g: np.ndarray, need: int,
                  slopes: np.ndarray, blocks, step: int) -> tuple:
    """``lms_regression``'s least (width, slope, lower intercept) over
    windows, in the blocks of ``step`` slopes that ``blocks`` orders.

    Along row r the keys den*y - num*x ascend.  Prefix masses of the rows
    of a block, offset by row so the block is one ascending array, give
    every window start at once: the last start whose prefix is at most the
    end's prefix minus ``need``; on int64 masses that needs ``step`` times
    the total mass plus one below 2^63.  A window with no start is marked
    by the row's key span plus one, which no width reaches.  Each row keeps
    its least (width, low key); rows whose width (``_ratios``: float on
    int64 keys, within ``_SCREEN`` of the least, or exact on Python ints)
    is least are settled in Fractions.
    """
    m = len(g)
    total = int(g.sum())
    best = (math.inf,)
    for lo, order in zip(range(0, len(slopes), step), blocks):
        num, den = slopes[lo:lo + step, :1], slopes[lo:lo + step, 1:]
        order = order[:len(num)]  # the last block may end with the order above every slope
        keys = ys[order] * den - xs[order] * num
        row = np.arange(len(order))[:, None]
        prefix = np.zeros((len(order), m + 1), dtype=g.dtype)
        np.cumsum(g[order], axis=1, out=prefix[:, 1:])
        target = prefix[:, 1:] - need
        shift = row.astype(g.dtype) * (total + 1)  # rows apart, in one ascending array
        first = np.searchsorted((prefix + shift).ravel(), (target + shift).ravel(), side="right")
        first = first.reshape(target.shape) - 1 - row * (m + 1)
        low = np.take_along_axis(keys, np.clip(first, 0, m - 1), axis=1)
        top = keys[:, -1:] - keys[:, :1] + 1
        width = np.where(target >= 0, keys - low, top)
        least = width.min(axis=1)
        low = np.where(width == least[:, None], low, keys[:, -1:]).min(axis=1)
        widths = np.where(least < top[:, 0], _ratios(least, den[:, 0]), np.inf)
        limit = (min(widths.min(), best[0]) if widths.dtype == object
                 else min(widths.min(), float(best[0])) * _SCREEN)
        if limit == np.inf:
            continue
        for r in np.flatnonzero(widths <= limit):
            d = int(den[r, 0])
            best = min(best, (Fraction(int(least[r]), d), Fraction(int(num[r, 0]), d),
                              Fraction(int(low[r]), d)))
    return best


def lms_regression(snap: Snapshot) -> tuple[FitLine, Fraction]:
    """Minimum-vertical-width slab holding a (1/2 + eps) fraction; returns
    its central line and the width.

    Per support pair slope a = num/den (0 if there is none), the slab
    measure's order at the separator just below it
    (``rangesums._slope_orders``) sorts the integer keys den*y - num*x, so
    one window along it on the integer scaled weights finds the narrowest
    slabs.  Ties go to the least (width, slope, lower intercept).  The
    windows of all O(m^2) slopes run in numpy blocks (``_lms_slabs_np``),
    O(m^3 log m) in all, on the measure's columns, scaled by s to integers
    (``rangesums._int_columns``), and the intercept and width are divided
    by s.  The columns and the weights are each int64 or Python ints, so
    no coordinate or weight is out of range.
    """
    _require(snap, FamilyKind.SLAB, "lms_regression")
    if snap.eps >= Fraction(1, 2):
        raise ValueError("lms_regression needs eps < 1/2")
    ints, denom = snap.sample.scaled_weights
    pts, (gs,) = _collapse_multi(snap.sample.points, [ints])
    if len(pts) < 2:
        raise EpsStreamError("need at least 2 distinct support points")
    need = math.ceil((Fraction(1, 2) + snap.eps) * snap.n * denom)
    total = sum(gs)
    int64 = total < rangesums._INT64_SUM_LIMIT
    g = np.array(gs, dtype=np.int64 if int64 else object)
    # on int64 masses a block's row offsets, step * (total + 1), stay below 2^63
    cap = ((1 << 63) - 1) // (total + 1) if int64 else rangesums._BLOCK_EVENTS
    step = max(1, min(rangesums._BLOCK_EVENTS // len(pts), cap))
    xs, ys, scale = _int_columns(pts, rangesums._NP_COORD_LIMIT)
    slopes, blocks = _slope_orders_np(xs, ys, step)
    rows = slopes if len(slopes) else np.array([[0, 1]], dtype=slopes.dtype)
    width, a, blo = _lms_slabs_np(xs, ys, g, need, rows, blocks, step)
    if width == math.inf:
        raise EpsStreamError("no feasible slab (internal)")
    return FitLine(a, (blo + width / 2) / scale), width / scale

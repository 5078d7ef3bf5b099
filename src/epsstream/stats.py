"""Robust statistics evaluated on stream snapshots.

Each estimator reads the weighted support of a snapshot built on the range
family its error analysis needs (halfplanes for Tukey depth, wedges for
simplicial depth, double wedges for regression depth, vertical
parallelograms for slope statistics, disks and slabs for the least-median
fits).  All arithmetic is exact; additive bounds quote the snapshot's eps.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .engine import Snapshot
from .errors import EpsStreamError, FamilyMismatchError
from .ranges import FamilyKind, Point2, _pair_slopes
from .rangesums import (_apex_sweep, _collapse_multi, _disk_pair_events, _primitive,
                        _slope_orders, _sorted_directions)

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


def _support(snap: Snapshot):
    return snap.sample.points, snap.sample.weights, Fraction(snap.n)


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


def _depth_of(points: Sequence[Point2], weights: Sequence[Fraction], total: Fraction,
              q: Point2) -> Fraction:
    """Minimum closed-halfplane mass through q, over total (one apex sweep)."""
    masses: list[Fraction] = []
    _apex_sweep(points, weights, q, masses.append)
    return min(masses) / total


def tukey_depth(snap: Snapshot, q: Point2) -> DepthValue:
    """Halfspace depth of q in the snapshot; within eps of the stream's."""
    _require(snap, FamilyKind.HALFPLANE, "tukey_depth")
    pts, ws, n = _support(snap)
    return DepthValue(_depth_of(pts, ws, n, q), snap.eps)


def _clip(poly, a: int, b: int, t) -> list:
    """Clip a convex polygon (Fraction vertex list) to a*x + b*y <= t."""
    if not poly:
        return poly
    out = []
    m = len(poly)
    vals = [a * x + b * y for x, y in poly]
    for i in range(m):
        x1, y1 = poly[i]
        v1 = vals[i]
        j = (i + 1) % m
        x2, y2 = poly[j]
        v2 = vals[j]
        if v1 <= t:
            out.append((x1, y1))
        if (v1 < t < v2) or (v2 < t < v1):
            lam = Fraction(t - v1, v2 - v1)
            out.append((x1 + lam * (x2 - x1), y1 + lam * (y2 - y1)))
    return out


def tukey_median(snap: Snapshot) -> tuple[Point2, DepthValue]:
    """A point maximizing snapshot depth; its depth is within eps of the
    stream's maximum depth and at least 1/3."""
    _require(snap, FamilyKind.HALFPLANE, "tukey_median")
    pts, ws, n = _support(snap)
    if not pts:
        raise EpsStreamError("empty snapshot")
    if len(pts) == 1:
        return pts[0], DepthValue(Fraction(1), snap.eps)

    base = pts[0]
    ref = next((p for p in pts if p != base), None)
    collinear = all((p.x - base.x) * (ref.y - base.y) == (p.y - base.y) * (ref.x - base.x)
                    for p in pts)
    if collinear:
        best = None
        for p in pts:
            d = _depth_of(pts, ws, n, p)
            if best is None or d > best[1] or (d == best[1] and p < best[0]):
                best = (p, d)
        return best[0], DepthValue(best[1], snap.eps)

    # normals to all support directions, both orientations
    normals: set[tuple[int, int]] = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            d = _primitive(q.x - p.x, q.y - p.y)
            normals.add((-d[1], d[0]))
            normals.add((d[1], -d[0]))
    # per normal: descending projection values with suffix masses, summed
    # as the integers w * lcm(weight denominators); the level order is the same
    masses, _ = snap.sample.scaled_weights
    tables = {}
    depth_values: set[int] = set()
    for u in normals:
        proj: dict = {}
        for p, g in zip(pts, masses):
            v = u[0] * p.x + u[1] * p.y
            proj[v] = proj.get(v, 0) + g
        vals = sorted(proj, reverse=True)
        suffix = list(itertools.accumulate(proj[v] for v in vals))
        tables[u] = (vals, suffix)
        depth_values.update(suffix)

    levels = sorted(depth_values)

    def region(tau: int):
        minx = min(p.x for p in pts)
        maxx = max(p.x for p in pts)
        miny = min(p.y for p in pts)
        maxy = max(p.y for p in pts)
        poly = [(Fraction(minx - 1), Fraction(miny - 1)), (Fraction(maxx + 1), Fraction(miny - 1)),
                (Fraction(maxx + 1), Fraction(maxy + 1)), (Fraction(minx - 1), Fraction(maxy + 1))]
        for u, (vals, suffix) in tables.items():
            k = bisect.bisect_left(suffix, tau)
            if k == len(suffix):
                return []
            poly = _clip(poly, u[0], u[1], vals[k])
            if not poly:
                return []
        return poly

    lo, hi = 0, len(levels) - 1
    best_poly = None
    while lo <= hi:
        mid = (lo + hi) // 2
        poly = region(levels[mid])
        if poly:
            best_poly = poly
            lo = mid + 1
        else:
            hi = mid - 1
    if best_poly is None:
        raise EpsStreamError("depth region search failed")
    vx = min(best_poly)
    q = Point2(vx[0].numerator if vx[0].denominator == 1 else vx[0],
               vx[1].numerator if vx[1].denominator == 1 else vx[1])
    value = _depth_of(pts, ws, n, q)
    return q, DepthValue(value, snap.eps)


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
    subtracted from the total.
    """
    _require(snap, FamilyKind.WEDGE, "simplicial_depth_estimate")
    if delta_sub is None:
        delta_sub = min(Fraction(1, 2), _sqrt_upper(snap.eps)) if snap.eps > 0 else Fraction(1, 4)
    delta_sub = Fraction(delta_sub)
    if not 0 < delta_sub < 1:
        raise ValueError("delta_sub must be in (0, 1)")
    pts, ws, n = _support(snap)
    if n < 3:
        raise EpsStreamError("simplicial depth needs mass >= 3")
    groups: dict[tuple[int, int], Fraction] = {}
    for p, w in zip(pts, ws):
        vx = p.x - q.x
        vy = p.y - q.y
        if vx == 0 and vy == 0:
            continue  # triples using q-coincident points always contain q
        d = _primitive(vx, vy)
        groups[d] = groups.get(d, Fraction(0)) + w
    if not groups:
        return DepthValue(Fraction(1), SIMPLICIAL_K * _sqrt_upper(snap.eps))
    order = _sorted_directions(list(groups))
    cap = delta_sub * n
    sectors: list[list[tuple[int, int]]] = []
    cur: list[tuple[int, int]] = []
    cur_mass = Fraction(0)
    for d in order:
        w = groups[d]
        spans = cur and not (cur[0][0] * d[1] - cur[0][1] * d[0] > 0)
        if cur and (cur_mass + w > cap or spans):
            sectors.append(cur)
            cur = []
            cur_mass = Fraction(0)
        cur.append(d)
        cur_mass += w
    if cur:
        sectors.append(cur)
    excluded = Fraction(0)
    for sec in sectors:
        w_i = sum((groups[d] for d in sec), Fraction(0))
        lead = sec[0]
        h_i = Fraction(0)
        for d, wd in groups.items():
            cr = lead[0] * d[1] - lead[1] * d[0]
            if cr > 0 or d == lead:
                h_i += wd
        rest = h_i - w_i
        excluded += _c3(w_i) + _c2(w_i) * rest + w_i * _c2(rest)
    value = 1 - excluded / _c3(n)
    value = min(max(value, Fraction(0)), Fraction(1))
    return DepthValue(value, SIMPLICIAL_K * _sqrt_upper(snap.eps))


# ---------------------------------------------------------------------------
# Regression depth.
# ---------------------------------------------------------------------------


def _pivot_candidates(xs: list) -> list:
    out = set()
    for x in xs:
        out.add(x - 1)
        out.add(x)
        out.add(x + 1)
    return sorted(out)


def regression_depth(snap: Snapshot, line: FitLine) -> DepthValue:
    """Minimum mass swept when rotating the line to vertical about any pivot.

    Points on the line (outside the pivot column) always count: the motion
    starts on them.  The support is grouped into x columns of (above, below,
    on) mass, and each pivot reads prefix sums of the sorted columns.
    """
    _require(snap, FamilyKind.DOUBLE_WEDGE, "regression_depth")
    if line.slope is None:
        raise ValueError("vertical lines are nonfits")
    pts, ws, n = _support(snap)
    columns: dict = {}
    for p, w in zip(pts, ws):
        r = p.y - (line.slope * p.x + line.intercept)
        col = columns.setdefault(p.x, [Fraction(0)] * 3)
        col[0 if r > 0 else 1 if r < 0 else 2] += w
    xs = sorted(columns)
    prefix = [(Fraction(0),) * 3]
    for x in xs:
        prefix.append(tuple(a + b for a, b in zip(prefix[-1], columns[x])))
    up, down, on = prefix[-1]
    swept = []
    for v in _pivot_candidates(xs):
        up_left, down_left, on_left = prefix[bisect.bisect_left(xs, v)]
        up_through, down_through, on_through = prefix[bisect.bisect_right(xs, v)]
        on_off = on_left + on - on_through
        swept.append(min((up - up_through) + down_left + on_off,
                         up_left + (down - down_through) + on_off))
    return DepthValue(min(swept) / n, snap.eps)


def max_regression_depth_fit(snap: Snapshot) -> tuple[FitLine, DepthValue]:
    """Deepest fit over lines through support pairs and nearby perturbations."""
    _require(snap, FamilyKind.DOUBLE_WEDGE, "max_regression_depth_fit")
    pts, ws, n = _support(snap)
    if len(pts) < 2:
        raise EpsStreamError("need at least 2 support points")
    candidates: set[tuple[Fraction, Fraction]] = set()
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            p, q = pts[i], pts[j]
            if p.x == q.x:
                continue
            slope = Fraction(q.y - p.y, q.x - p.x)
            inter = p.y - slope * p.x
            candidates.add((slope, inter))
    if not candidates:
        # all support on one vertical column: any horizontal line through a point
        candidates = {(Fraction(0), Fraction(p.y)) for p in pts}
    enriched: set[tuple[Fraction, Fraction]] = set()
    for slope, inter in candidates:
        enriched.add((slope, inter))
        gaps = [abs(p.y - (slope * p.x + inter)) for p in pts]
        gaps = [g for g in gaps if g > 0]
        if gaps:
            db = min(gaps) / 2
            enriched.add((slope, inter + db))
            enriched.add((slope, inter - db))
        spanx = max(abs(p.x) for p in pts) + 1
        da = (min(gaps) / (2 * spanx)) if gaps else Fraction(1, 2)
        for ds in (da, -da):
            enriched.add((slope + ds, inter))
    best = None
    for slope, inter in sorted(enriched):
        d = regression_depth(snap, FitLine(slope, inter))
        if best is None or d.value > best[1].value:
            best = (FitLine(slope, inter), d)
    return best


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

    Vertical pairs rank above any finite slope; ties count half.
    """
    _require(snap, FamilyKind.VPARALLELOGRAM, "slope_rank_estimate")
    s = Fraction(s)
    pts, (gs,) = _collapse_multi(snap.sample.points, [snap.sample.scaled_weights[0]])
    if len(pts) < 2:
        raise EpsStreamError("need at least 2 distinct support points")
    slopes, _, total = _pair_slope_masses(pts, gs)
    below = sum(g for sl, g in slopes.items() if sl < s)
    return Fraction(2 * below + slopes.get(s, 0), 2 * total)


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


def lms_location(snap: Snapshot) -> LmsDisk:
    """Smallest canonical disk holding a (1/2 + eps) fraction of the snapshot.

    Such a disk holds at least half of the true stream mass.  Past radius 0,
    each pair's bisector sweep (``rangesums._disk_pair_events``) gives its
    diametral disk (t = 0) and circumcircles (one per group of equal event
    times, holding the mass before the group plus its entering points), on
    the integer scaled weights: O(m^3 log m).  The least squared radius
    wins; ties go to radius 0 by (x, y), then to diametral disks by pair
    (i, j), then to circumcircles by the least index triple on the circle.
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
    best = (math.inf,)  # (r2, 1 diametral or 2 circumcircle, index key, center)
    for ab2, i, j in sorted(((q.x - p.x) ** 2 + (q.y - p.y) ** 2, i, j)
                            for i, p in enumerate(pts) for j, q in enumerate(pts) if i < j):
        if ab2 > 4 * best[0]:
            break  # every disk through this pair is larger
        start, events, ends = _disk_pair_events(pts, i, j)
        run, at_zero, near, lo = sum(gs[c] for c in start), None, {}, 0
        for end in ends:
            group, lo = events[lo:end + 1], end + 1
            alpha, beta, _ = group[0]
            side = (alpha > 0) - (alpha < 0) if beta > 0 else (alpha < 0) - (alpha > 0)
            entering = sum(gs[c] for _, b, c in group if b > 0)
            if at_zero is None and side >= 0:
                at_zero = run + entering if side == 0 else run
            if side and run + entering >= need:
                near[side] = group  # the last feasible circle below t = 0, the first above
                if side > 0:
                    break
            run += entering - sum(gs[c] for _, b, c in group if b < 0)
        A, B = pts[i], pts[j]
        mx, my = Fraction(A.x + B.x, 2), Fraction(A.y + B.y, 2)
        if (run if at_zero is None else at_zero) >= need:
            best = min(best, (Fraction(ab2, 4), 1, (i, j), (mx, my)))
        for group in near.values():
            t = Fraction(group[0][0], group[0][1])
            circle = tuple(sorted({i, j, *(c for _, _, c in group)})[:3])
            best = min(best, (ab2 * (Fraction(1, 4) + t * t), 2, circle,
                              (mx + t * (A.y - B.y), my + t * (B.x - A.x))))
    if best[0] == math.inf:
        raise EpsStreamError("no feasible disk (internal)")
    return LmsDisk(best[3], best[0])


def lms_regression(snap: Snapshot) -> tuple[FitLine, Fraction]:
    """Minimum-vertical-width slab holding a (1/2 + eps) fraction; returns
    its central line and the width.

    Per support pair slope a = num/den (0 if there is none), the slab
    measure's order at the separator just below it
    (``rangesums._slope_orders``) sorts the integer keys den*y - num*x, so
    one window along it on the integer scaled weights finds the narrowest
    slabs.  Ties go to the least (width, slope, lower intercept).
    """
    _require(snap, FamilyKind.SLAB, "lms_regression")
    if snap.eps >= Fraction(1, 2):
        raise ValueError("lms_regression needs eps < 1/2")
    ints, denom = snap.sample.scaled_weights
    pts, (gs,) = _collapse_multi(snap.sample.points, [ints])
    if len(pts) < 2:
        raise EpsStreamError("need at least 2 distinct support points")
    need = math.ceil((Fraction(1, 2) + snap.eps) * snap.n * denom)
    cands = []
    for a, order in zip(_pair_slopes(pts) or [Fraction(0)], _slope_orders(pts).tolist()):
        num, den = a.numerator, a.denominator
        keys = [pts[i].y * den - pts[i].x * num for i in order]
        spans = []
        lo = run = 0
        for hi, i in enumerate(order):
            run += gs[i]
            while run - gs[order[lo]] >= need:
                run -= gs[order[lo]]
                lo += 1
            if run >= need:
                spans.append((keys[hi] - keys[lo], keys[lo]))
        if spans:
            width, blo = min(spans)
            cands.append((Fraction(width, den), a, Fraction(blo, den)))
    if not cands:
        raise EpsStreamError("no feasible slab (internal)")
    width, a, blo = min(cands)
    return FitLine(a, blo + width / 2), width

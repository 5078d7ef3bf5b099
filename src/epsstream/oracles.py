"""Brute-force reference implementations, kept independent of the engine.

Each oracle transliterates a definition directly over a retained stream
prefix (the mirror).  They share only membership predicates with the range
module; none of the sampler/engine code paths are reused, so agreement
between an estimator and its oracle is meaningful evidence.

Caps keep runtimes sane: n <= 512 generally, n <= 60 for regression depth,
n <= 25 for simplicial depth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import CapExceededError
from .ranges import (
    FamilyKind,
    Point2,
    RangeDescriptor,
    RangeFamily,
    subsystem_oracle_masks,
)
from .sampler import WeightedSample

ORACLE_N_CAP = 512
REGDEPTH_N_CAP = 60
SIMPLICIAL_N_CAP = 25
LMS_N_CAP = 128

# int64 bounds of the numpy passes.  Each keeps every multiplied integer
# below 2^31 in magnitude, so a product of two is below 2^62 and a sum of two
# products (a cross or dot product) stays below 2^63.
# exact_tukey_depth multiplies direction components (p - q over their gcd).
_TUKEY_NP_COMPONENT_BOUND = 1 << 31
# _halfplane_discrepancy_scaled multiplies coordinate differences, which
# stay below 2^31 while coordinates stay below 2^30.
_HALFPLANE_NP_COORD_BOUND = 1 << 30


class PrefixMirror:
    """The full ordered stream prefix; test-mode companion of the engine."""

    def __init__(self, points: Sequence[Point2] = ()):
        self.points: list[Point2] = list(points)

    def append(self, p: Point2) -> None:
        self.points.append(p)

    def __len__(self) -> int:
        return len(self.points)


def _cap(mirror: PrefixMirror, cap: int, what: str) -> None:
    if len(mirror) > cap:
        raise CapExceededError(f"{what} oracle capped at {cap} points, got {len(mirror)}")


def exact_count(mirror: PrefixMirror, desc: RangeDescriptor) -> int:
    return sum(1 for p in mirror.points if desc.contains(p))


# ---------------------------------------------------------------------------
# Tukey depth.
# ---------------------------------------------------------------------------


def exact_tukey_depth(mirror: PrefixMirror, q: Point2) -> Fraction:
    """Min over closed halfplanes containing q of the covered fraction."""
    _cap(mirror, ORACLE_N_CAP, "tukey depth")
    n = len(mirror)
    if n == 0:
        raise ValueError("empty mirror")
    coincident = 0
    classes: dict[tuple[int, int], int] = {}
    for p in mirror.points:
        vx = p.x - q.x
        vy = p.y - q.y
        if vx == 0 and vy == 0:
            coincident += 1
            continue
        if isinstance(vx, Fraction) or isinstance(vy, Fraction):
            fx, fy = Fraction(vx), Fraction(vy)
            mul = fx.denominator * fy.denominator // math.gcd(fx.denominator, fy.denominator)
            vx, vy = int(fx * mul), int(fy * mul)
        g = math.gcd(abs(vx), abs(vy))
        classes[(vx // g, vy // g)] = classes.get((vx // g, vy // g), 0) + 1
    if not classes:
        return Fraction(coincident, n)
    # min over halfplanes {v : <v, u> >= 0}; the mass changes only when the
    # normal u crosses a perpendicular of a point direction, so evaluating
    # at each such u plus both infinitesimal rotations is exhaustive
    dirs = list(classes)
    counts = [classes[d] for d in dirs]
    if all(abs(v) < _TUKEY_NP_COMPONENT_BOUND for d in dirs for v in d) and n < (1 << 31):
        dd = np.array(dirs, dtype=np.int64)
        cc = np.array(counts, dtype=np.int64)
        perp = np.concatenate([np.stack([-dd[:, 1], dd[:, 0]], axis=1),
                               np.stack([dd[:, 1], -dd[:, 0]], axis=1)])
        dots = perp @ dd.T  # (2m, m)
        rots = np.stack([-perp[:, 1], perp[:, 0]], axis=1)
        sides = rots @ dd.T
        pos = (dots > 0) @ cc
        zero = dots == 0
        at = pos + (zero @ cc)
        plus = pos + ((zero & (sides > 0)) @ cc)
        minus = pos + ((zero & (sides <= 0)) @ cc)
        best = int(np.minimum(at, np.minimum(plus, minus)).min()) + coincident
        return Fraction(best, n)
    best = None
    items = list(classes.items())
    for d in classes:
        for u in ((-d[1], d[0]), (d[1], -d[0])):
            rx, ry = -u[1], u[0]
            at = plus = minus = coincident
            for e, c in items:
                dot = e[0] * u[0] + e[1] * u[1]
                if dot > 0:
                    at += c
                    plus += c
                    minus += c
                elif dot == 0:
                    at += c
                    if e[0] * rx + e[1] * ry > 0:
                        plus += c
                    else:
                        minus += c
            cand = min(at, plus, minus)
            if best is None or cand < best:
                best = cand
    return Fraction(best, n)


# ---------------------------------------------------------------------------
# Simplicial depth.
# ---------------------------------------------------------------------------


def _orient3(a, b, c) -> int:
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return 0 if v == 0 else (1 if v > 0 else -1)


def exact_simplicial_depth(mirror: PrefixMirror, q: Point2) -> Fraction:
    """Fraction of closed point triples whose convex hull contains q."""
    _cap(mirror, SIMPLICIAL_N_CAP, "simplicial depth")
    pts = mirror.points
    n = len(pts)
    if n < 3:
        raise ValueError("simplicial depth needs n >= 3")
    qq = (q.x, q.y)
    hits = 0
    for i in range(n):
        a = (pts[i].x, pts[i].y)
        for j in range(i + 1, n):
            b = (pts[j].x, pts[j].y)
            for k in range(j + 1, n):
                c = (pts[k].x, pts[k].y)
                s1 = _orient3(a, b, qq)
                s2 = _orient3(b, c, qq)
                s3 = _orient3(c, a, qq)
                if s1 == s2 == s3 == 0:
                    # degenerate triangle: q must lie on the segment hull
                    if (min(a[0], b[0], c[0]) <= qq[0] <= max(a[0], b[0], c[0])
                            and min(a[1], b[1], c[1]) <= qq[1] <= max(a[1], b[1], c[1])
                            and _orient3(a, b, qq) == 0):
                        hits += 1
                    continue
                if all(s >= 0 for s in (s1, s2, s3)) or all(s <= 0 for s in (s1, s2, s3)):
                    hits += 1
    return Fraction(hits, n * (n - 1) * (n - 2) // 6)


# ---------------------------------------------------------------------------
# Regression depth, straight from the rotation-to-vertical definition.
# ---------------------------------------------------------------------------


def exact_regression_depth(mirror: PrefixMirror, slope: Fraction, intercept: Fraction) -> Fraction:
    """Min fraction of points touched when rotating the line to vertical."""
    _cap(mirror, REGDEPTH_N_CAP, "regression depth")
    pts = mirror.points
    n = len(pts)
    if n == 0:
        raise ValueError("empty mirror")
    slope = Fraction(slope)
    intercept = Fraction(intercept)
    pivots = set()
    for p in pts:
        pivots.update((p.x - 1, p.x, p.x + 1))
    best = None
    for v in sorted(pivots):
        ccw = 0
        cw = 0
        for p in pts:
            if p.x == v:
                continue
            r = p.y - (slope * p.x + intercept)
            if r == 0:
                ccw += 1
                cw += 1
            elif r > 0:
                if p.x > v:
                    ccw += 1
                else:
                    cw += 1
            else:
                if p.x < v:
                    ccw += 1
                else:
                    cw += 1
        cand = min(ccw, cw)
        if best is None or cand < best:
            best = cand
    return Fraction(best, n)


# ---------------------------------------------------------------------------
# Slope rank.
# ---------------------------------------------------------------------------


def exact_slope_rank(mirror: PrefixMirror, s: Fraction) -> Fraction:
    """Normalized rank of s among all pair slopes; vertical pairs rank high,
    coincident pairs are excluded."""
    _cap(mirror, ORACLE_N_CAP, "slope rank")
    pts = mirror.points
    n = len(pts)
    if n < 2:
        raise ValueError("slope rank needs n >= 2")
    s = Fraction(s)
    below = Fraction(0)
    ties = Fraction(0)
    denom = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = pts[j].x - pts[i].x
            dy = pts[j].y - pts[i].y
            if dx == 0 and dy == 0:
                continue
            denom += 1
            if dx == 0:
                continue
            sl = Fraction(dy, dx)
            if sl < s:
                below += 1
            elif sl == s:
                ties += 1
    if denom == 0:
        raise ValueError("all points coincident")
    return (below + ties / 2) / denom


# ---------------------------------------------------------------------------
# Least median of squares.
# ---------------------------------------------------------------------------


def exact_lms_disk(mirror: PrefixMirror, fraction: Fraction):
    """Smallest <=3-point disk covering at least fraction * n points."""
    _cap(mirror, LMS_N_CAP, "lms disk")
    pts = mirror.points
    n = len(pts)
    if n == 0 or not 0 < Fraction(fraction) <= 1:
        raise ValueError("need points and fraction in (0, 1]")
    need = Fraction(fraction) * n

    def covered(cx, cy, r2):
        return sum(1 for p in pts if (p.x - cx) ** 2 + (p.y - cy) ** 2 <= r2)

    best = None
    for p in pts:
        if covered(p.x, p.y, 0) >= need:
            cand = (Fraction(0), Fraction(p.x), Fraction(p.y))
            if best is None or cand < best:
                best = cand
    m = len(pts)
    for i in range(m):
        for j in range(i + 1, m):
            cx = Fraction(pts[i].x + pts[j].x, 2)
            cy = Fraction(pts[i].y + pts[j].y, 2)
            r2 = Fraction((pts[i].x - pts[j].x) ** 2 + (pts[i].y - pts[j].y) ** 2, 4)
            if best is not None and r2 >= best[0]:
                continue
            if covered(cx, cy, r2) >= need:
                cand = (r2, cx, cy)
                if best is None or cand < best:
                    best = cand
    for i in range(m):
        for j in range(i + 1, m):
            for k in range(j + 1, m):
                a, b, c = pts[i], pts[j], pts[k]
                d = 2 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
                if d == 0:
                    continue
                a2 = a.x * a.x + a.y * a.y
                b2 = b.x * b.x + b.y * b.y
                c2 = c.x * c.x + c.y * c.y
                cx = Fraction(a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y), d)
                cy = Fraction(a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x), d)
                r2 = (a.x - cx) ** 2 + (a.y - cy) ** 2
                if best is not None and r2 >= best[0]:
                    continue
                if covered(cx, cy, r2) >= need:
                    cand = (r2, cx, cy)
                    if best is None or cand < best:
                        best = cand
    if best is None:
        raise ValueError("infeasible fraction")
    r2, cx, cy = best
    return (cx, cy), r2


def exact_lms_slab(mirror: PrefixMirror, fraction: Fraction):
    """Minimum-vertical-width slab covering at least fraction * n points."""
    _cap(mirror, LMS_N_CAP, "lms slab")
    pts = mirror.points
    n = len(pts)
    if n == 0 or not 0 < Fraction(fraction) <= 1:
        raise ValueError("need points and fraction in (0, 1]")
    need = Fraction(fraction) * n
    slopes = sorted({Fraction(q.y - p.y, q.x - p.x)
                     for p in pts for q in pts if q.x != p.x}) or [Fraction(0)]
    best = None
    for a in slopes:
        keys = sorted(p.y - a * p.x for p in pts)
        lo = 0
        for hi in range(len(keys)):
            while (hi - lo) >= need:  # window can shed its leftmost point
                lo += 1
            if hi - lo + 1 >= need:
                width = keys[hi] - keys[lo]
                cand = (width, a, keys[lo])
                if best is None or cand < best:
                    best = cand
    if best is None:
        raise ValueError("infeasible fraction")
    width, a, blo = best
    return a, blo, blo + width


# ---------------------------------------------------------------------------
# Discrepancy between a weighted sample and a ground multiset.
# ---------------------------------------------------------------------------


def _union_deltas(ground: WeightedSample, candidate: WeightedSample):
    union: dict[tuple, Fraction] = {}
    for p, w in zip(ground.points, ground.weights):
        union[(p.x, p.y)] = union.get((p.x, p.y), Fraction(0)) - w
    for p, w in zip(candidate.points, candidate.weights):
        union[(p.x, p.y)] = union.get((p.x, p.y), Fraction(0)) + w
    coords = sorted(union)
    denom = 1
    for c in coords:
        denom = denom * union[c].denominator // math.gcd(denom, union[c].denominator)
    ints = [int(union[c] * denom) for c in coords]
    return [Point2(x, y) for x, y in coords], ints, denom


def _halfplane_discrepancy_scaled(pts, ints) -> int:
    """Exact max |sum| over halfplane subsets: closed/strict/tilted lines
    through every ordered point pair, vectorized with overflow guards."""
    u = len(pts)
    if any(abs(c) >= _HALFPLANE_NP_COORD_BOUND for p in pts for c in (p.x, p.y)):
        raise CapExceededError("halfplane discrepancy oracle needs |coords| < 2^30")
    xs = np.array([p.x for p in pts], dtype=np.int64)
    ys = np.array([p.y for p in pts], dtype=np.int64)
    dd = np.array(ints, dtype=np.int64)
    if sum(abs(v) for v in ints) >= (1 << 61):
        raise CapExceededError("halfplane discrepancy oracle: weights too large")
    best = abs(int(dd.sum()))
    for i in range(u):
        bx = xs - xs[i]
        by = ys - ys[i]
        dx = xs[:, None] - xs[i]
        dy = ys[:, None] - ys[i]
        cross = -by[None, :] * dx + bx[None, :] * dy  # cross[j, t] for pair (i, j), point t
        np.fill_diagonal(cross[:, :], 0)
        # cross (u, u): row j is the side of each point w.r.t. line (p_i, p_j)
        gt = cross > 0
        on = cross == 0
        dot = dx * bx[None, :] + dy * by[None, :]  # along-line position
        strict = gt @ dd
        closed = strict + (on @ dd)
        ahead = (on & (dot > 0)) @ dd
        behind = (on & (dot < 0)) @ dd
        at_i = int(dd[i])
        tilt_a = strict + ahead + at_i
        tilt_b = strict + behind + at_i
        valid = (bx != 0) | (by != 0)
        for arr in (strict, closed, tilt_a, tilt_b):
            vals = np.abs(arr[valid])
            if vals.size:
                best = max(best, int(vals.max()))
    return best


def _quadrant_discrepancy_scaled(pts, ints) -> int:
    xs = sorted({p.x for p in pts})
    ys = sorted({p.y for p in pts})
    xi = {x: i for i, x in enumerate(xs)}
    yi = {y: i for i, y in enumerate(ys)}
    grid = np.zeros((len(xs) + 1, len(ys) + 1), dtype=np.int64)
    for p, d in zip(pts, ints):
        grid[xi[p.x], yi[p.y]] += d
    suff = grid[::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
    return int(np.abs(suff).max())


def exact_discrepancy(ground: WeightedSample, candidate: WeightedSample,
                      fam: RangeFamily) -> Fraction:
    """Max weighted deviation over every induced range, / ground total."""
    pts, ints, denom = _union_deltas(ground, candidate)
    if not any(ints):
        return Fraction(0)
    u = len(pts)
    if fam.kind is FamilyKind.HALFPLANE and u > 2:
        if u > ORACLE_N_CAP + 256:
            raise CapExceededError(f"discrepancy oracle on {u} union points")
        mx = _halfplane_discrepancy_scaled(pts, ints)
    elif fam.kind is FamilyKind.QUADRANT:
        if u > ORACLE_N_CAP + 256:
            raise CapExceededError(f"discrepancy oracle on {u} union points")
        mx = _quadrant_discrepancy_scaled(pts, ints)
    else:
        if u > 64:
            raise CapExceededError(f"{fam.kind.value} discrepancy oracle capped at 64 points")
        mx = 0
        for mask in subsystem_oracle_masks(fam, pts):
            s = 0
            mm = mask
            i = 0
            while mm:
                if mm & 1:
                    s += ints[i]
                mm >>= 1
                i += 1
            mx = max(mx, abs(s))
    return Fraction(mx, denom) / ground.total_weight

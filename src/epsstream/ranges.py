"""Geometric range families over exact planar points.

Points carry integer (or exact rational) coordinates and every predicate is
evaluated in exact arithmetic, so membership never depends on floating-point
rounding.  All regions are closed: boundary points count as inside.

Each family provides

* ``contains``            -- exact membership of a point in a range, one
                             expression that also takes a ``Point2`` of
                             numpy coordinate arrays and returns a mask,
* ``peak``                -- a bound on the values ``contains`` forms,
                             which decides whether int64 arrays hold them,
* ``canonical_ranges``    -- a finite witness list of descriptors realizing
                             every subset the family induces on a point set,
* ``subsystem_oracle``    -- the deduplicated list of those induced subsets.

The canonical lists are polynomial in the input size; the composite
families (wedge, double wedge, vertical parallelogram) are products of
simpler ones and get expensive well below their hard caps, so callers
should keep those inputs small.  Each family's size limits are one
``RangeFamily`` row.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .errors import CapExceededError, FamilyMismatchError, StreamParseError

Coord = Union[int, Fraction]

DEFAULT_SCALE = 1 << 20


class Turn(enum.IntEnum):
    CW = -1
    COLLINEAR = 0
    CCW = 1


class Point2(NamedTuple):
    """A planar point with exact coordinates (int or Fraction)."""

    x: Coord
    y: Coord


def orient(p: Point2, q: Point2, r: Point2) -> Turn:
    """Sign of the signed area of triangle pqr, computed exactly."""
    cross = (q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x)
    if cross > 0:
        return Turn.CCW
    if cross < 0:
        return Turn.CW
    return Turn.COLLINEAR


def _coord_from_text(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise StreamParseError(f"bad coordinate {text!r}") from exc


def scale_coord(value: Fraction, scale: int) -> int:
    """Quantize an exact rational onto the 1/scale grid (round half to even)."""
    return round(value * scale)


def parse_point(line: str, scale: int = DEFAULT_SCALE, line_no: int | None = None) -> Point2:
    """Parse one ``x,y`` decimal line into a scaled integer point."""
    parts = line.strip().split(",")
    if len(parts) != 2:
        raise StreamParseError(f"expected 'x,y', got {line.strip()!r}", line_no)
    try:
        return Point2(scale_coord(_coord_from_text(parts[0]), scale),
                      scale_coord(_coord_from_text(parts[1]), scale))
    except StreamParseError as exc:
        raise StreamParseError(str(exc), line_no) from exc


def format_point(p: Point2, scale: int = DEFAULT_SCALE) -> str:
    def fmt(v: Coord) -> str:
        f = Fraction(v, scale)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    return f"{fmt(p.x)},{fmt(p.y)}"


class FamilyKind(str, enum.Enum):
    HALFPLANE = "halfplane"
    QUADRANT = "quadrant"
    WEDGE = "wedge"
    DOUBLE_WEDGE = "dwedge"
    DISK = "disk"
    SLAB = "slab"
    VPARALLELOGRAM = "vpar"


@dataclass(frozen=True)
class RangeFamily:
    """A range family and its size limits.

    ``oracle_cap`` bounds enumeration, halving and exact verification (it
    bounds admissibility, not speed); ``reduce_size`` bounds the inputs a
    reduction halves, and ``verify_size`` those ``weighted_eps_approx``
    verifies exactly.  Both are at most ``oracle_cap``.
    """

    kind: FamilyKind
    oracle_cap: int
    reduce_size: int
    verify_size: int


_FAMILIES = {fam.kind: fam for fam in (
    RangeFamily(FamilyKind.HALFPLANE, 4096, 1024, 160),
    RangeFamily(FamilyKind.QUADRANT, 4096, 2048, 256),
    RangeFamily(FamilyKind.WEDGE, 256, 64, 48),
    RangeFamily(FamilyKind.DOUBLE_WEDGE, 256, 64, 48),
    RangeFamily(FamilyKind.DISK, 1024, 96, 72),
    RangeFamily(FamilyKind.SLAB, 1024, 64, 56),
    RangeFamily(FamilyKind.VPARALLELOGRAM, 128, 24, 20),
)}


def family(kind: FamilyKind | str) -> RangeFamily:
    return _FAMILIES[FamilyKind(kind)]


ALL_FAMILIES = tuple(_FAMILIES.values())


# ---------------------------------------------------------------------------
# Range descriptors.  Closed-region convention throughout.
#
# ``contains`` combines its comparisons with ``&`` and ``!=``, never ``and``
# or chained comparisons, so one expression serves a point and a Point2 of
# arrays.  ``peak(c)``, for c >= 1, bounds the absolute value of every
# parameter, product and sum that ``contains`` forms on points whose
# coordinates are at most c in absolute value.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Halfplane:
    """a*x + b*y >= t."""

    a: Coord
    b: Coord
    t: Coord

    def __post_init__(self):
        if self.a == 0 and self.b == 0:
            raise ValueError("halfplane needs a nonzero normal")

    kind = FamilyKind.HALFPLANE

    def contains(self, p: Point2) -> bool:
        return self.a * p.x + self.b * p.y >= self.t

    def peak(self, c: int) -> Coord:
        return max((abs(self.a) + abs(self.b)) * c, abs(self.t))


@dataclass(frozen=True)
class Quadrant:
    """x >= px and y >= py."""

    px: Coord
    py: Coord

    kind = FamilyKind.QUADRANT

    def contains(self, p: Point2) -> bool:
        return (p.x >= self.px) & (p.y >= self.py)

    def peak(self, c: int) -> Coord:
        return max(abs(self.px), abs(self.py))


@dataclass(frozen=True)
class Wedge:
    """Intersection of two halfplanes."""

    h1: Halfplane
    h2: Halfplane

    kind = FamilyKind.WEDGE

    def contains(self, p: Point2) -> bool:
        return self.h1.contains(p) & self.h2.contains(p)

    def peak(self, c: int) -> Coord:
        return max(self.h1.peak(c), self.h2.peak(c))


@dataclass(frozen=True)
class DoubleWedge:
    """Symmetric difference of two halfplanes."""

    h1: Halfplane
    h2: Halfplane

    kind = FamilyKind.DOUBLE_WEDGE

    def contains(self, p: Point2) -> bool:
        return self.h1.contains(p) != self.h2.contains(p)

    def peak(self, c: int) -> Coord:
        return max(self.h1.peak(c), self.h2.peak(c))


@dataclass(frozen=True)
class Disk:
    """(x-cx)^2 + (y-cy)^2 <= r2."""

    cx: Coord
    cy: Coord
    r2: Coord

    def __post_init__(self):
        if self.r2 < 0:
            raise ValueError("disk needs r2 >= 0")

    kind = FamilyKind.DISK

    def contains(self, p: Point2) -> bool:
        dx = p.x - self.cx
        dy = p.y - self.cy
        return dx * dx + dy * dy <= self.r2

    def peak(self, c: int) -> Coord:
        d = c + max(abs(self.cx), abs(self.cy))
        return max(2 * d * d, self.r2)


@dataclass(frozen=True)
class Slab:
    """a*x + b1 <= y <= a*x + b2."""

    a: Coord
    b1: Coord
    b2: Coord

    def __post_init__(self):
        if self.b1 > self.b2:
            raise ValueError("slab needs b1 <= b2")

    kind = FamilyKind.SLAB

    def contains(self, p: Point2) -> bool:
        ax = self.a * p.x
        return (ax + self.b1 <= p.y) & (p.y <= ax + self.b2)

    def peak(self, c: int) -> Coord:
        return abs(self.a) * c + max(abs(self.b1), abs(self.b2))


@dataclass(frozen=True)
class VParallelogram:
    """Vertical strip x1 <= x <= x2 intersected with a slab."""

    x1: Coord
    x2: Coord
    a: Coord
    b1: Coord
    b2: Coord

    def __post_init__(self):
        if self.x1 > self.x2:
            raise ValueError("vpar needs x1 <= x2")
        if self.b1 > self.b2:
            raise ValueError("vpar needs b1 <= b2")

    kind = FamilyKind.VPARALLELOGRAM

    def contains(self, p: Point2) -> bool:
        ax = self.a * p.x
        return ((self.x1 <= p.x) & (p.x <= self.x2)
                & (ax + self.b1 <= p.y) & (p.y <= ax + self.b2))

    def peak(self, c: int) -> Coord:
        return max(abs(self.x1), abs(self.x2), abs(self.a) * c + max(abs(self.b1), abs(self.b2)))


RangeDescriptor = Union[Halfplane, Quadrant, Wedge, DoubleWedge, Disk, Slab, VParallelogram]


def contains(fam: RangeFamily, desc: RangeDescriptor, p: Point2) -> bool:
    """Exact membership; rejects descriptor/family kind mismatches."""
    if desc.kind is not fam.kind:
        raise FamilyMismatchError(f"descriptor {desc.kind.value} used with family {fam.kind.value}")
    return desc.contains(p)


# ---------------------------------------------------------------------------
# Descriptor text format: "kind:param1,param2,...".
# ---------------------------------------------------------------------------


def parse_descriptor(text: str, scale: int = 1) -> RangeDescriptor:
    """Parse ``kind:params`` exactly; coordinates are scaled on ingest.

    Slopes (slab/vpar ``a`` and halfplane normals) are scale free; offsets,
    apexes and centers live in point coordinates and get multiplied by the
    scale; squared radii by scale**2.
    """
    head, sep, tail = text.strip().partition(":")
    if not sep:
        raise StreamParseError(f"bad descriptor {text!r}")
    try:
        kind = FamilyKind(head.strip())
    except ValueError as exc:
        raise StreamParseError(f"unknown range kind {head!r}") from exc
    vals = [_coord_from_text(v) for v in tail.split(",")] if tail else []

    def exact(v: Fraction) -> Coord:
        return v.numerator if v.denominator == 1 else v

    try:
        if kind is FamilyKind.HALFPLANE:
            a, b, t = vals
            return Halfplane(exact(a), exact(b), exact(t * scale))
        if kind is FamilyKind.QUADRANT:
            px, py = vals
            return Quadrant(exact(px * scale), exact(py * scale))
        if kind is FamilyKind.DISK:
            cx, cy, r2 = vals
            return Disk(exact(cx * scale), exact(cy * scale), exact(r2 * scale * scale))
        if kind is FamilyKind.SLAB:
            a, b1, b2 = vals
            return Slab(exact(a), exact(b1 * scale), exact(b2 * scale))
        if kind is FamilyKind.VPARALLELOGRAM:
            x1, x2, a, b1, b2 = vals
            return VParallelogram(exact(x1 * scale), exact(x2 * scale), exact(a),
                                  exact(b1 * scale), exact(b2 * scale))
        if kind is FamilyKind.WEDGE:
            a1, b1, t1, a2, b2, t2 = vals
            return Wedge(Halfplane(exact(a1), exact(b1), exact(t1 * scale)),
                         Halfplane(exact(a2), exact(b2), exact(t2 * scale)))
        a1, b1, t1, a2, b2, t2 = vals
        return DoubleWedge(Halfplane(exact(a1), exact(b1), exact(t1 * scale)),
                           Halfplane(exact(a2), exact(b2), exact(t2 * scale)))
    except ValueError as exc:
        raise StreamParseError(f"bad descriptor {text!r}: {exc}") from exc


def descriptor_values(desc: RangeDescriptor) -> tuple[Coord, ...]:
    """The descriptor's parameters in text-format order."""
    k = desc.kind
    if k is FamilyKind.HALFPLANE:
        return (desc.a, desc.b, desc.t)
    if k is FamilyKind.QUADRANT:
        return (desc.px, desc.py)
    if k is FamilyKind.DISK:
        return (desc.cx, desc.cy, desc.r2)
    if k is FamilyKind.SLAB:
        return (desc.a, desc.b1, desc.b2)
    if k is FamilyKind.VPARALLELOGRAM:
        return (desc.x1, desc.x2, desc.a, desc.b1, desc.b2)
    return (desc.h1.a, desc.h1.b, desc.h1.t, desc.h2.a, desc.h2.b, desc.h2.t)


def format_descriptor(desc: RangeDescriptor) -> str:
    def fmt(v: Coord) -> str:
        f = Fraction(v)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    return f"{desc.kind.value}:" + ",".join(fmt(v) for v in descriptor_values(desc))


# ---------------------------------------------------------------------------
# Canonical witness ranges.
# ---------------------------------------------------------------------------


def _require_integer_points(pts: Sequence[Point2]) -> None:
    for p in pts:
        if not (isinstance(p.x, int) and isinstance(p.y, int)):
            raise ValueError("canonical enumeration requires integer coordinates")


def _check_cap(fam: RangeFamily, n: int) -> None:
    if n > fam.oracle_cap:
        raise CapExceededError(f"{fam.kind.value} enumeration capped at {fam.oracle_cap} points, got {n}")


def _canonical_halfplanes(pts: Sequence[Point2]) -> list[Halfplane]:
    """Witnesses for every halfplane-induced subset.

    Per ordered pair (p, q): the closed left halfplane of line pq, its strict
    version (thresholds are integers, so +1 excludes the line), and two
    tilted halfplanes through p only.  The tilt magnitude K dominates every
    other point's offset from the line, so tilting changes membership only
    for collinear points, which it splits by their position along the line.
    """
    out: list[Halfplane] = []
    if not pts:
        return [Halfplane(1, 0, 0), Halfplane(1, 0, 1)]
    xs = [p.x for p in pts]
    out.append(Halfplane(1, 0, min(xs) - 1))  # whole set
    out.append(Halfplane(1, 0, max(xs) + 1))  # empty set
    m = len(pts)
    for i in range(m):
        pi = pts[i]
        for j in range(m):
            if i == j:
                continue
            pj = pts[j]
            dx = pj.x - pi.x
            dy = pj.y - pi.y
            if dx == 0 and dy == 0:
                continue
            nx, ny = -dy, dx
            t0 = nx * pi.x + ny * pi.y
            out.append(Halfplane(nx, ny, t0))
            out.append(Halfplane(nx, ny, t0 + 1))
            big = 1 + max(abs(dx * (p.x - pi.x) + dy * (p.y - pi.y)) for p in pts)
            for sx, sy in ((dx, dy), (-dx, -dy)):
                ax = big * nx + sx
                ay = big * ny + sy
                out.append(Halfplane(ax, ay, ax * pi.x + ay * pi.y))
    return out


def _canonical_quadrants(pts: Sequence[Point2]) -> list[Quadrant]:
    xs = sorted({p.x for p in pts} | {p.x + 1 for p in pts}) or [0]
    ys = sorted({p.y for p in pts} | {p.y + 1 for p in pts}) or [0]
    return [Quadrant(x, y) for x in xs for y in ys]


def _canonical_disks(pts: Sequence[Point2]) -> list[Disk]:
    """Disks realizing every disk-induced subset.

    For each point pair the disk boundary is pinned on both points and the
    center swept along their bisector; stopping at each cocircularity event
    and between consecutive events realizes every subset whose minimal disk
    touches two points.  Single-touch and empty subsets come from radius-0
    disks and an off-grid empty disk.
    """
    out: list[Disk] = []
    if not pts:
        return [Disk(0, 0, 0)]
    for p in {(p.x, p.y) for p in pts}:
        out.append(Disk(p[0], p[1], 0))
    far = max(max(abs(p.x), abs(p.y)) for p in pts) + 1
    out.append(Disk(far, far, 0))  # empty
    spread = max((p.x - q.x) ** 2 + (p.y - q.y) ** 2 for p in pts for q in pts)
    out.append(Disk(pts[0].x, pts[0].y, spread))  # whole set
    m = len(pts)
    for i in range(m):
        pi = pts[i]
        for j in range(i + 1, m):
            pj = pts[j]
            dx = pj.x - pi.x
            dy = pj.y - pi.y
            if dx == 0 and dy == 0:
                continue
            midx = Fraction(pi.x + pj.x, 2)
            midy = Fraction(pi.y + pj.y, 2)
            ux, uy = -dy, dx  # bisector direction
            events: list[Fraction] = []
            for p in pts:
                bx = p.x - pi.x
                by = p.y - pi.y
                beta = 2 * (bx * ux + by * uy)
                if beta == 0:
                    continue
                alpha = (p.x * p.x + p.y * p.y - pi.x * pi.x - pi.y * pi.y
                         - 2 * (bx * midx + by * midy))
                events.append(Fraction(alpha, beta))
            ts = sorted(set(events))
            cands: list[Fraction] = [Fraction(0)] if not ts else [ts[0] - 1, ts[-1] + 1]
            cands.extend(ts)
            cands.extend((a + b) / 2 for a, b in zip(ts, ts[1:]))
            for t in cands:
                cx = midx + t * ux
                cy = midy + t * uy
                r2 = (pi.x - cx) ** 2 + (pi.y - cy) ** 2
                out.append(Disk(cx, cy, r2))
    return out


def _pair_slopes(pts: Sequence[Point2]) -> list[Fraction]:
    """The distinct slopes of the non-vertical point pairs, ascending."""
    return sorted({Fraction(q.y - p.y, q.x - p.x)
                   for i, p in enumerate(pts) for q in pts[i + 1:] if q.x != p.x})


def _slope_separators(slopes: Sequence[Fraction]) -> list[Fraction]:
    """One slope inside each gap between consecutive pair slopes
    (``_pair_slopes``) and one beyond each end, in order ([0] if there is
    none): two distinct points tie in y - a*x only at their own pair slope,
    so never at a separator."""
    if not slopes:
        return [Fraction(0)]
    return [slopes[0] - 1, *((a + b) / 2 for a, b in zip(slopes, slopes[1:])), slopes[-1] + 1]


def _slope_candidates(pts: Sequence[Point2]) -> list[Fraction]:
    """Pair slopes plus the separators between them (ties need the exact
    slopes, distinct orders need slopes strictly between)."""
    slopes = _pair_slopes(pts)
    return sorted(set(slopes).union(_slope_separators(slopes)))


def _canonical_slabs(pts: Sequence[Point2]) -> list[Slab]:
    out: list[Slab] = []
    if not pts:
        return [Slab(0, 0, 0)]
    for a in _slope_candidates(pts):
        keys = sorted({p.y - a * p.x for p in pts})
        gaps = [hi - lo for lo, hi in zip(keys, keys[1:]) if hi > lo]
        eps = min(gaps) / 2 if gaps else Fraction(1)
        out.append(Slab(a, keys[0] - 1, keys[0] - 1))  # empty at this slope
        for lo_i in range(len(keys)):
            for hi_i in range(lo_i, len(keys)):
                lo, hi = keys[lo_i], keys[hi_i]
                out.append(Slab(a, lo, hi))
                if lo + eps <= hi:
                    out.append(Slab(a, lo + eps, hi))
                    out.append(Slab(a, lo, hi - eps))
                    if lo + eps <= hi - eps:
                        out.append(Slab(a, lo + eps, hi - eps))
    return out


def _canonical_vintervals(pts: Sequence[Point2]) -> list[tuple[Coord, Coord]]:
    xs = sorted({p.x for p in pts})
    if not xs:
        return [(0, 0)]
    edges = sorted({x for x in xs} | {x + 1 for x in xs} | {xs[0] - 1})
    out = []
    for i, lo in enumerate(edges):
        for hi in edges[i:]:
            out.append((lo, hi))
    return out


def _canonical_vpars(pts: Sequence[Point2]) -> list[VParallelogram]:
    slabs = _canonical_slabs(pts)
    out = []
    for (x1, x2) in _canonical_vintervals(pts):
        for s in slabs:
            out.append(VParallelogram(x1, x2, s.a, s.b1, s.b2))
    return out


def canonical_ranges(fam: RangeFamily, pts: Sequence[Point2]) -> list[RangeDescriptor]:
    """A finite descriptor list realizing every induced subset of ``pts``."""
    _check_cap(fam, len(pts))
    _require_integer_points(pts)
    kind = fam.kind
    if kind is FamilyKind.HALFPLANE:
        return _canonical_halfplanes(pts)
    if kind is FamilyKind.QUADRANT:
        return _canonical_quadrants(pts)
    if kind is FamilyKind.DISK:
        return _canonical_disks(pts)
    if kind is FamilyKind.SLAB:
        return _canonical_slabs(pts)
    if kind is FamilyKind.WEDGE:
        hs = _canonical_halfplanes(pts)
        return [Wedge(h1, h2) for h1 in hs for h2 in hs]
    if kind is FamilyKind.DOUBLE_WEDGE:
        hs = _canonical_halfplanes(pts)
        empty = Halfplane(1, 0, max((p.x for p in pts), default=0) + 1)
        out: list[RangeDescriptor] = [DoubleWedge(h, empty) for h in hs]
        out.extend(DoubleWedge(h1, h2) for h1 in hs for h2 in hs)
        return out
    return _canonical_vpars(pts)


# ---------------------------------------------------------------------------
# Subsystem oracle: the distinct induced subsets, as bitmasks internally and
# sorted index tuples at the API.
# ---------------------------------------------------------------------------


def _mask_of(desc: RangeDescriptor, pts: Sequence[Point2]) -> int:
    mask = 0
    for i, p in enumerate(pts):
        if desc.contains(p):
            mask |= 1 << i
    return mask


def _halfplane_masks(pts: Sequence[Point2]) -> set[int]:
    return {_mask_of(h, pts) for h in _canonical_halfplanes(pts)}


def _vinterval_masks(pts: Sequence[Point2]) -> set[int]:
    out = {0}
    xs = sorted(range(len(pts)), key=lambda i: pts[i].x)
    edges = sorted({pts[i].x for i in xs})
    for lo_i, lo in enumerate(edges):
        mask = 0
        for hi in edges[lo_i:]:
            for i in xs:
                if lo <= pts[i].x <= hi:
                    mask |= 1 << i
            out.add(mask)
    return out


def subsystem_oracle_masks(fam: RangeFamily, pts: Sequence[Point2]) -> set[int]:
    """Distinct induced subsets as bitmasks over point indices."""
    _check_cap(fam, len(pts))
    _require_integer_points(pts)
    full = (1 << len(pts)) - 1
    kind = fam.kind
    if kind in (FamilyKind.HALFPLANE, FamilyKind.QUADRANT, FamilyKind.DISK, FamilyKind.SLAB):
        masks = {_mask_of(d, pts) for d in canonical_ranges(fam, pts)}
    elif kind is FamilyKind.WEDGE:
        hp = sorted(_halfplane_masks(pts))
        masks = {a & b for a in hp for b in hp}
    elif kind is FamilyKind.DOUBLE_WEDGE:
        hp = sorted(_halfplane_masks(pts))
        masks = {a ^ b for a in hp for b in hp}
    else:  # vertical parallelograms: vertical strip AND slab
        slab = sorted(subsystem_oracle_masks(family(FamilyKind.SLAB), pts))
        vint = sorted(_vinterval_masks(pts))
        masks = {a & b for a in vint for b in slab}
    masks.add(0)
    masks.add(full)
    return masks


def subsystem_oracle(fam: RangeFamily, pts: Sequence[Point2]) -> list[tuple[int, ...]]:
    """All distinct subsets {R cap pts : R in family}, as sorted index tuples."""
    masks = subsystem_oracle_masks(fam, pts)
    out = []
    for mask in masks:
        idxs = []
        i = 0
        m = mask
        while m:
            if m & 1:
                idxs.append(i)
            m >>= 1
            i += 1
        out.append(tuple(idxs))
    out.sort()
    return out


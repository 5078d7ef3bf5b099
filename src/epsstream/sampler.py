"""Deterministic construction of weighted epsilon-approximations.

The reduction primitive is a halving step: color the points +1/-1, keep one
sign class, and rescale its weights so the represented mass is preserved
exactly.  Unlike the textbook construction we never trust an a-priori
discrepancy bound; after every halving the worst-case error of the kept
class is measured exactly over all induced ranges.  A reduction halves
until one of three things stops it: the support exceeds the family's
reduce size, an exact lower bound on the next halving's error, read off
one induced singleton range, already exceeds the remaining budget, or a
measured halving overspends the budget and is rolled back.  The
certificate attached to a sample is therefore a sum of exactly measured
quantities.

Halfplane halvings choose among five pairings, in the spirit of the
matchings of low crossing number of Matousek, Welzl and Wernisch: points of
equal weight are paired consecutively along a z-order curve and along the
Hilbert curve in each of its four orientations on the grid, and each pair
gets one +1 and one -1 sign.  Pairs that a range contains whole cancel, so only
pairs straddling its boundary count.  Every other family has two
candidates: a coloring guided by a hyperbolic-cosine potential (method of
conditional expectations) over projection prefixes, the subsets that lines
of a few fixed normals per family cut off, and the z-order pairing.  The
measured error picks the winner.  Each coloring is measured once, not once
per kept class: the error deltas of keeping the -1 class are, point by
point, those of keeping the +1 class negated, so one exact max |range sum|
prices both.  Floats appear only inside the guidance potential, never in a
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceededError, CertificationError, EpsStreamError, StreamParseError
from .ranges import FamilyKind, Point2, RangeFamily, family
from . import rangesums

_COSH_CAP = 700.0

_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class WeightedSample:
    """A finite weighted point multiset certifying an approximation bound.

    ``eps_bound`` certifies that for every induced range the weighted mass
    differs from the represented population's by at most
    ``eps_bound * total_weight``.

    ``scaled_weights`` is the integer weight column: the weights as ints
    over their least common denominator.  The constructor, and with it
    ``sample_from_json`` and the state and snapshot loaders, derives the
    column from the weights.  ``uniform``, ``union``, ``canonical``,
    ``collapse_duplicates`` and ``halve`` build through ``_carrying``, which
    takes the column its builder computed from its inputs' columns.  Both
    paths run the same checks on the column: equal lengths, positive
    weights, and a sum equal to ``total_weight``.
    """

    points: tuple[Point2, ...]
    weights: tuple[Fraction, ...]
    total_weight: Fraction
    eps_bound: Fraction

    def __post_init__(self):
        self._check()

    @classmethod
    def _carrying(cls, points, weights, total_weight, eps_bound,
                  ints: list[int], denom: int) -> "WeightedSample":
        """A sample whose integer column its builder already holds: ints[i]
        is weights[i] * denom, and denom the weights' least common
        denominator.  ``ints`` becomes the sample's own list."""
        sample = cls.__new__(cls)
        vars(sample).update(points=points, weights=weights, total_weight=total_weight,
                            eps_bound=eps_bound, scaled_weights=(ints, denom))
        sample._check()
        return sample

    def _check(self) -> None:
        ints, denom = self.scaled_weights
        if not len(self.points) == len(self.weights) == len(ints):
            raise ValueError("points/weights length mismatch")
        if ints and min(ints) <= 0:
            raise ValueError("weights must be positive")
        total = self.total_weight
        if sum(ints) * total.denominator != total.numerator * denom:
            raise ValueError("weights must sum to total_weight exactly")

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def scaled_weights(self) -> tuple[list[int], int]:
        """The weights as integers over their least common denominator."""
        return _scaled_weights(self.weights)

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """x, y and the scaled integer weights as arrays, for evaluating a
        range on every point at once.  The coordinates are int64 while each
        is an int below 2^30 in absolute value (``rangesums._NP_COORD_LIMIT``)
        and the weights while their sum is below 2^63, so no masked sum
        wraps; otherwise a column holds the exact Python numbers (dtype
        object), in the same arithmetic."""
        xs = [p.x for p in self.points]
        ys = [p.y for p in self.points]
        small = all(isinstance(v, int) and abs(v) < rangesums._NP_COORD_LIMIT
                    for v in xs + ys)
        ints, _ = self.scaled_weights
        coord = np.int64 if small else object
        return (np.array(xs, dtype=coord), np.array(ys, dtype=coord),
                np.array(ints, dtype=np.int64 if sum(ints) < 1 << 63 else object))

    @classmethod
    def uniform(cls, points: Iterable[Point2], eps_bound: Fraction = Fraction(0)) -> "WeightedSample":
        pts = tuple(points)
        if not pts:
            raise ValueError("empty sample")
        return cls._carrying(pts, (_ONE,) * len(pts), Fraction(len(pts)), Fraction(eps_bound),
                             [1] * len(pts), 1)


@dataclass(frozen=True)
class Coloring:
    """One +1/-1 sign per input point; both classes nonempty for >= 2 points."""

    signs: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (-1, 1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        if len(self.signs) >= 2 and len(set(self.signs)) < 2:
            raise ValueError("both sign classes must be nonempty")


_MALFORMED = (KeyError, TypeError, AttributeError, ValueError, ZeroDivisionError, OverflowError)


def _frac_str(f) -> str:
    """The one text form of an exact number in every file and output: "p/q"."""
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def _coord_json(v) -> object:
    if isinstance(v, int):
        return v
    return _frac_str(v)


def _coord_from_json(v) -> object:
    if isinstance(v, int):
        return v
    f = Fraction(v)
    return f.numerator if f.denominator == 1 else f


def sample_to_json(sample: WeightedSample, fam: RangeFamily | None = None) -> dict:
    return {
        "version": 1,
        "family": fam.kind.value if fam is not None else None,
        "eps_bound": _frac_str(sample.eps_bound),
        "total_weight": _frac_str(sample.total_weight),
        "points": [[_coord_json(p.x), _coord_json(p.y), _frac_str(w)]
                   for p, w in zip(sample.points, sample.weights)],
    }


def sample_from_json(obj: dict) -> WeightedSample:
    """Rebuild a sample written by ``sample_to_json``.

    A missing or malformed field or point row raises ``StreamParseError``;
    another version, or a sample that parses but breaks an invariant (a
    non-positive weight, weights not summing to the total), raises
    ``EpsStreamError``: the file is inconsistent, not malformed.
    """
    if not isinstance(obj, dict):
        raise StreamParseError("sample: expected a JSON object")
    if obj.get("version") != 1:
        raise EpsStreamError(f"unsupported sample version {obj.get('version')!r}")
    try:
        rows = [(Point2(_coord_from_json(x), _coord_from_json(y)), Fraction(w))
                for x, y, w in obj["points"]]
        total, bound = Fraction(obj["total_weight"]), Fraction(obj["eps_bound"])
    except _MALFORMED as exc:
        raise StreamParseError(f"sample: {exc}") from exc
    try:
        return WeightedSample(tuple(p for p, _ in rows), tuple(w for _, w in rows), total, bound)
    except ValueError as exc:
        raise EpsStreamError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Greedy low-discrepancy coloring.
# ---------------------------------------------------------------------------


def _as_mask(range_like, n: int) -> int:
    if isinstance(range_like, int):
        return range_like
    mask = 0
    for i in range_like:
        mask |= 1 << i
    return mask


def low_discrepancy_coloring(sample: WeightedSample, ranges: Iterable) -> Coloring:
    """Color points +1/-1 keeping every given range's weighted signed sum
    within sqrt(2*W2*ln(2R)) and the class totals within max-weight of each
    other.

    Points are processed in descending weight order; each sign choice
    minimizes the hyperbolic-cosine potential over the ranges containing the
    point, overridden when the running signed total would make the final
    weight balance unreachable.
    """
    m = len(sample)
    if m < 2:
        raise ValueError("coloring needs at least 2 points")
    masks = [_as_mask(r, m) for r in ranges]
    nr = max(1, len(masks))
    # the entries are 0/1, and nonzero reads a bool row several times faster
    member = rangesums.membership_matrix(masks, m).view(bool)
    ints, denom = sample.scaled_weights  # the weight balance; floats only in the potential
    # sum w^2 and each w, correctly rounded from the integer column as from the weights
    w2 = float(Fraction(sum(g * g for g in ints), denom * denom))
    floats = [g / denom for g in ints]
    lam = math.sqrt(2.0 * math.log(2.0 * nr) / w2) if w2 > 0 else 1.0
    d = np.zeros(len(masks), dtype=np.float64)
    order = sorted(range(m), key=lambda i: (-ints[i], sample.points[i], i))
    signs = [0] * m
    max_w = max(ints)
    total_after = sum(ints)
    running = 0
    step = np.empty((2, 1))  # the +g and -g candidates, one row each
    for i in order:
        w = ints[i]
        total_after -= w
        ids = member[i].nonzero()[0]
        if ids.size:
            cur = d[ids]
            g = floats[i]
            step[0, 0], step[1, 0] = g, -g
            pot = cur + step  # the same operands as lam * (cur + g) and lam * (cur - g)
            pot *= lam
            # np.clip's floats, without its Python wrapper
            np.minimum(np.maximum(pot, -_COSH_CAP, out=pot), _COSH_CAP, out=pot)
            np.cosh(pot, out=pot)
            up, down = pot.sum(axis=1)
            prefer = 1 if up <= down else -1
        else:
            prefer = 1
        limit = total_after + max_w
        sign = prefer
        if abs(running + sign * w) > limit:
            sign = -prefer
            if abs(running + sign * w) > limit:  # unreachable; keep the safe side
                sign = -1 if running > 0 else 1
        signs[i] = sign
        running += sign * w
        if ids.size:
            d[ids] = cur + sign * g
    return Coloring(tuple(signs))


def _grid_columns(sample: WeightedSample) -> tuple[np.ndarray, np.ndarray]:
    """The points on a nonnegative integer grid, one array per axis.

    Coordinates are scaled by the lcm of their denominators and shifted so
    each axis starts at 0.  The arrays are uint64 while every coordinate is
    below 2^32, so each curve key fits in 64 bits; otherwise they hold exact
    Python ints (dtype object).
    """
    xs, ys, _ = sample.columns
    if xs.dtype == object:
        scale = math.lcm(*(v.denominator for v in xs), *(v.denominator for v in ys))
        xs, ys = (np.array([v.numerator * (scale // v.denominator) for v in col], dtype=object)
                  for col in (xs, ys))
    gx, gy = xs - xs.min(), ys - ys.min()
    if max(gx.max(), gy.max()) < 1 << 32:
        return gx.astype(np.uint64), gy.astype(np.uint64)
    return gx, gy


def _bit_length(gx: np.ndarray, gy: np.ndarray) -> int:
    return int(max(gx.max(), gy.max())).bit_length()


def _z_order_keys(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Each grid point's z-order (Morton) key: bit b of x goes to bit 2b of
    the key and bit b of y to bit 2b + 1."""
    key = np.zeros_like(gx)
    for b in range(_bit_length(gx, gy)):
        key |= (((gx >> b) & 1) << (2 * b)) | (((gy >> b) & 1) << (2 * b + 1))
    return key


def _hilbert_keys(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Each grid point's index along the Hilbert curve of the smallest
    2^k x 2^k grid holding them all; consecutive indices are 4-neighbours.

    From the top bit down, the quadrant's two key bits are appended and the
    lower bits are turned into the quadrant's own sub-curve frame.  Arrays
    of any shape are keyed entry by entry, on the one grid holding them all.
    """
    x, y = gx.copy(), gy.copy()
    key = np.zeros_like(gx)
    for b in reversed(range(_bit_length(gx, gy))):
        rx, ry = (x >> b) & 1, (y >> b) & 1
        key |= ((3 * rx) ^ ry) << (2 * b)
        low = (1 << b) - 1
        flip = (rx == 1) & (ry == 0)
        x, y = np.where(flip, x ^ low, x), np.where(flip, y ^ low, y)
        turn = ry == 0
        x, y = np.where(turn, y, x), np.where(turn, x, y)
    return key


def _curve_keys(sample: WeightedSample, kind: FamilyKind) -> list[np.ndarray]:
    """The curve keys whose pairings a halving measures: z-order, then for
    halfplanes the Hilbert curve in each of its four orientations.

    Mirrored across its grid's vertical midline the Hilbert curve is itself
    walked backwards, which pairs the same points; the transposed grid, the
    grid flipped top to bottom, and the grid flipped left to right and then
    transposed give the other three curves.
    """
    gx, gy = _grid_columns(sample)
    if kind is not FamilyKind.HALFPLANE:
        return [_z_order_keys(gx, gy)]
    top = (1 << _bit_length(gx, gy)) - 1  # the last grid line of the 2^k x 2^k grid
    # the four orientations as the rows of one pair of arrays: one pass over the bits
    hilbert = _hilbert_keys(np.stack([gx, gy, gx, gy]), np.stack([gy, gx, top - gy, top - gx]))
    return [_z_order_keys(gx, gy), *hilbert]


def _paired_coloring(sample: WeightedSample, key: np.ndarray) -> Coloring:
    """Pair equal-weight points consecutive in curve-key order (ties by
    index), alternating signs; points left unpaired take signs that keep
    the running weight balance nearest 0, heaviest first.

    Paired points cancel inside any range that contains both, so for
    geometrically local pairs only boundary-straddling pairs contribute.
    Both classes are nonempty for >= 2 points: a pair holds one of each,
    and the first two leftovers take opposite signs.

    The points are stably sorted by key and then by descending weight, so
    each weight's points form one run in key order.  Even places in a run
    take +1 and odd ones -1; an odd run's last point is left over.  The
    pairs balance exactly, so the leftovers, one per weight and heaviest
    first, start from a balance of 0.
    """
    m = len(sample)
    if m < 2:
        raise ValueError("pairing needs at least 2 points")
    ints = sample.columns[2]  # one common denominator keeps every order and sign
    by_key = np.argsort(key, kind="stable")
    order = by_key[np.argsort(-ints[by_key], kind="stable")]
    weight = ints[order]
    place = np.arange(m)
    starts = np.flatnonzero(np.concatenate(([True], weight[1:] != weight[:-1])))
    ends = np.append(starts[1:], m)
    first = np.repeat(starts, ends - starts)
    signs = np.empty(m, dtype=np.int64)
    signs[order] = 1 - 2 * ((place - first) & 1)
    running = 0
    for i in order[ends[(ends - starts) % 2 == 1] - 1].tolist():
        sign = -1 if running > 0 else 1
        signs[i] = sign
        running += sign * int(ints[i])
    return Coloring(tuple(signs.tolist()))


# ---------------------------------------------------------------------------
# Guidance ranges for the coloring.
# ---------------------------------------------------------------------------

_GUIDE_DIRS = ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2),
               (2, -1), (1, -2), (3, 1), (1, 3), (3, -1), (1, -3))


def _prefix_masks(pts: Sequence[Point2], dirs) -> list[int]:
    """Projection-prefix subsets: each is induced by a halfplane."""
    masks: set[int] = set()
    for dx, dy in dirs:
        keyed = sorted(range(len(pts)), key=lambda i: (pts[i].x * dx + pts[i].y * dy, i))
        mask = 0
        prev_key = None
        for i in keyed:
            key = pts[i].x * dx + pts[i].y * dy
            if key != prev_key and mask:
                masks.add(mask)
            mask |= 1 << i
            prev_key = key
        masks.add(mask)
    return sorted(masks)


def _guidance_masks(kind: FamilyKind, pts: Sequence[Point2]) -> list[int]:
    """The coloring's guidance ranges: projection prefixes, at every size.

    Quadrants take axis prefixes; slabs and vertical parallelograms take
    prefixes along normals of pairs of extreme points (and, for the
    latter, along x); every other family takes the 24 ``_GUIDE_DIRS``
    normals and their negations.
    """
    if kind is FamilyKind.QUADRANT:
        return _prefix_masks(pts, ((1, 0), (0, 1), (-1, 0), (0, -1)))
    if kind in (FamilyKind.SLAB, FamilyKind.VPARALLELOGRAM):
        dirs = [(0, 1), (0, -1)]
        for p in pts[:6]:
            for q in pts[-6:]:
                if q.x != p.x:
                    dirs.append((-(q.y - p.y), q.x - p.x))
        if kind is FamilyKind.VPARALLELOGRAM:
            dirs.extend(((1, 0), (-1, 0)))
        return _prefix_masks(pts, dirs)
    return _prefix_masks(pts, _GUIDE_DIRS + tuple((-a, -b) for a, b in _GUIDE_DIRS))


# ---------------------------------------------------------------------------
# Halving with exact error measurement.
# ---------------------------------------------------------------------------


def _scaled_weights(weights: Sequence[Fraction]) -> tuple[list[int], int]:
    denom = math.lcm(*(w.denominator for w in weights))
    return [w.numerator * (denom // w.denominator) for w in weights], denom


def _class_error_deltas(signs, scaled):
    """Integer deltas whose range sums scale the error of either kept class.

    With scaled weights g, T = sum g and M = the mass of the +1 class, the
    per-point delta T*g*[s = +1] - M*g makes max |range sum| / (M*T) the
    exact relative error of the rescaled +1 class.  The -1 class, of mass
    T - M, has deltas T*g*[s = -1] - (T - M)*g, which are these negated
    point by point, so the same max over (T - M)*T is its error.
    """
    total = sum(scaled)
    plus_mass = sum(g for g, s in zip(scaled, signs) if s == 1)
    deltas = [total * g - plus_mass * g if s == 1 else -plus_mass * g
              for g, s in zip(scaled, signs)]
    return deltas, plus_mass, total


def halve(sample: WeightedSample, fam: RangeFamily) -> tuple[WeightedSample, Fraction]:
    """One reduction round: color, keep the better class, rescale weights.

    Halfplanes measure the five curve pairings of ``_curve_keys``; every
    other family measures the cosh-guided coloring and the z-order pairing.
    The least error wins, ties going to the earlier coloring and then to
    the +1 class.

    Returns the kept class (total weight preserved exactly) and the exact
    worst-case relative discrepancy it incurred against the input over all
    ranges the family induces on the input's support.

    Each coloring is measured once: keeping the -1 class errs on every range
    by exactly the +1 class's error deltas, negated (``_class_error_deltas``),
    so one max |range sum| prices both classes.  A coloring with no class of
    admissible size is not measured.
    """
    m = len(sample)
    if m < 2:
        raise ValueError("halve needs at least 2 points")
    if m > fam.oracle_cap:
        raise CapExceededError(f"halve on {m} points exceeds {fam.kind.value} cap {fam.oracle_cap}")
    colorings = [] if fam.kind is FamilyKind.HALFPLANE else [
        low_discrepancy_coloring(sample, _guidance_masks(fam.kind, sample.points))]
    colorings += [_paired_coloring(sample, key) for key in _curve_keys(sample, fam.kind)]
    scaled, denom = sample.scaled_weights
    size_cap = (m + 1) // 2 + 1
    lists = []  # one delta list per measured coloring
    metas = []
    for ci, col in enumerate(colorings):
        plus = col.signs.count(1)
        keeps = [keep for keep, size in ((1, plus), (-1, m - plus)) if 0 < size <= size_cap]
        if not keeps:
            continue
        deltas, plus_mass, total = _class_error_deltas(col.signs, scaled)
        lists.append(deltas)
        metas.append((ci, col, keeps, plus_mass, total))
    maxima = rangesums.max_range_sums(fam.kind, sample.points, lists)
    best = None
    for (ci, col, keeps, plus_mass, total), mx in zip(metas, maxima):
        for keep in keeps:
            kept_mass = plus_mass if keep == 1 else total - plus_mass
            err = Fraction(mx, kept_mass * total)
            key = (err, ci, -keep)
            if best is None or key < best[0]:
                best = (key, keep, kept_mass, col, err)
    _, keep, kept_mass, col, err = best
    # each kept weight g/denom, rescaled by T/kept_mass, is g*T / (kept_mass*denom);
    # the gcd of that denominator and every numerator reduces the kept column
    total, den = sum(scaled), kept_mass * denom
    pts = tuple(p for p, s in zip(sample.points, col.signs) if s == keep)
    nums = [g * total for g, s in zip(scaled, col.signs) if s == keep]
    common = math.gcd(den, *nums)
    out = WeightedSample._carrying(pts, tuple(Fraction(g, den) for g in nums), sample.total_weight,
                                   sample.eps_bound + err, [g // common for g in nums], den // common)
    return out, err


def singleton_error_bound(sample: WeightedSample) -> Fraction:
    """Exact lower bound on the error ``halve(sample, fam)`` reports, any family.

    Let p be the lexicographically largest point, g_p its weight and T the
    total weight.  {p} is an induced range of every family:

    * halfplane: p is a hull vertex; it alone maximizes x + d*y for small
      d > 0, so a closed halfplane cuts it off;
    * wedge: the intersection of that halfplane with itself;
    * dwedge: its symmetric difference with an empty halfplane;
    * quadrant: x >= p.x, y >= p.y (no point has larger x, and none with
      x = p.x has larger y);
    * disk: the radius-0 disk at p;
    * slab: a zero-width slab along a line through p whose slope avoids
      every pair slope; vpar: the same slab inside a strip holding all x.

    A halving keeps one sign class K, both classes nonempty, with
    |K| <= (m+1)//2 + 1, and rescales K's mass M to T.  On {p} it errs by
    g_p/T if p is dropped and by g_p * (1/M - 1/T) if p is kept, where M is
    at most M_max, the smaller of T - w_min and the sum of the (m+1)//2 + 1
    largest weights.  Both are at least T/2, so 1/M_max - 1/T <= 1/T and
    every halving errs by at least g_p * (1/M_max - 1/T).  Coincident
    copies of p could share the range unevenly, so the bound is 0 unless p
    occurs once.
    """
    m = len(sample)
    if m < 2:
        return _ZERO
    top = max(sample.points)
    if sample.points.count(top) > 1:
        return _ZERO
    scaled, _ = sample.scaled_weights  # the bound is scale-free
    g = scaled[sample.points.index(top)]
    total = sum(scaled)
    heaviest = sum(sorted(scaled, reverse=True)[:(m + 1) // 2 + 1])
    kept_max = min(total - min(scaled), heaviest)
    return Fraction(g * (total - kept_max), kept_max * total)


def collapse_duplicates(sample: WeightedSample) -> WeightedSample:
    """Merge coincident points (a zero-error reduction for any family).

    Merged weights are summed on the integer column; only a merged point
    gets a new Fraction weight.  The column is divided by the gcd of the
    sums and the denominator, which is above 1 when merging lowers the
    least common denominator (1/2 + 1/2)."""
    pts = sample.points
    if len(set(pts)) == len(pts):
        return sample
    ints, denom = sample.scaled_weights
    mass: dict[Point2, int] = {}
    only: dict[Point2, int] = {}  # a point's index while it occurs once, else -1
    for i, (p, g) in enumerate(zip(pts, ints)):
        if p in mass:
            mass[p] += g
            only[p] = -1
        else:
            mass[p] = g
            only[p] = i
    keys = sorted(mass)
    sums = [mass[p] for p in keys]
    weights = tuple(sample.weights[only[p]] if only[p] >= 0 else Fraction(g, denom)
                    for p, g in zip(keys, sums))
    common = math.gcd(denom, *sums)
    if common > 1:
        sums, denom = [g // common for g in sums], denom // common
    return WeightedSample._carrying(tuple(keys), weights, sample.total_weight,
                                    sample.eps_bound, sums, denom)


def union(samples: Sequence[WeightedSample], eps_bound: Fraction) -> WeightedSample:
    """The weighted union of samples, in order; weights travel unchanged.

    The union's least common denominator is the lcm of the parts'.  A part
    already over it adds its integer column as it is; any other part's
    column is multiplied once."""
    denom = math.lcm(*(s.scaled_weights[1] for s in samples))
    ints: list[int] = []
    for s in samples:
        part, d = s.scaled_weights
        ints.extend(part if d == denom else [g * (denom // d) for g in part])
    return WeightedSample._carrying(tuple(chain.from_iterable(s.points for s in samples)),
                                    tuple(chain.from_iterable(s.weights for s in samples)),
                                    Fraction(sum(ints), denom), eps_bound, ints, denom)


def canonical(sample: WeightedSample) -> WeightedSample:
    """Coincident points merged and the rest in point order: a form that
    depends only on the weighted multiset, not on the arrival order."""
    order = sorted(range(len(sample)), key=sample.points.__getitem__)
    ints, denom = sample.scaled_weights
    return collapse_duplicates(WeightedSample._carrying(
        tuple(sample.points[i] for i in order), tuple(sample.weights[i] for i in order),
        sample.total_weight, sample.eps_bound, [ints[i] for i in order], denom))


def reduce_with_budget(sample: WeightedSample, fam: RangeFamily,
                       budget: Fraction) -> tuple[WeightedSample, Fraction]:
    """Collapse duplicates, then halve while the measured error fits the budget.

    The reduction stops at the family's reduce size, at the first halving
    whose measured error overspends the budget (rolled back), or before
    computing an attempt whose singleton error bound already exceeds the
    remaining budget: it would be rolled back anyway.
    """
    current = collapse_duplicates(sample)
    spent, left = _ZERO, budget
    while 2 <= len(current) <= fam.reduce_size:
        if singleton_error_bound(current) > left:
            break
        reduced, err = halve(current, fam)
        if err > left:
            break
        current = collapse_duplicates(reduced)
        spent += err
        left = budget - spent
    return current, spent


# ---------------------------------------------------------------------------
# The epsilon-approximation constructors and the exact verifier.
# ---------------------------------------------------------------------------

def static_eps_approx(points: Sequence[Point2], fam: RangeFamily, eps: Fraction) -> WeightedSample:
    """Deterministic eps-approximation of an unweighted point sequence.

    The input is reduced in ``canonical`` form, so the result depends only
    on the multiset of points.  The output's eps_bound is the exact measured
    error, which never exceeds eps.
    """
    return weighted_eps_approx(WeightedSample.uniform(points), fam, eps)


def weighted_eps_approx(sample: WeightedSample, fam: RangeFamily, eps: Fraction) -> WeightedSample:
    """Weighted reduction with the same contract, relative to the input measure."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must be in (0, 1]")
    if eps == 1:
        p = min(sample.points)
        out = WeightedSample((p,), (sample.total_weight,), sample.total_weight,
                             sample.eps_bound + 1)
        return out
    canon = canonical(sample)
    reduced, spent = reduce_with_budget(canon, fam, eps)
    if len(sample) <= fam.verify_size:
        if not verify_approximation(canon, reduced, fam, spent):
            raise CertificationError(
                f"certified error {spent} failed exact verification ({fam.kind.value})")
    return reduced


def verify_approximation(ground: WeightedSample, candidate: WeightedSample,
                         fam: RangeFamily, eps: Fraction) -> bool:
    """Exact check of the weighted approximation inequality on every induced range."""
    pts, (net,) = rangesums._collapse_multi(
        ground.points + candidate.points,
        [[-w for w in ground.weights] + list(candidate.weights)])
    if len(pts) > fam.oracle_cap:
        raise CapExceededError(f"verification on {len(pts)} points exceeds "
                               f"{fam.kind.value} cap {fam.oracle_cap}")
    ints, denom = _scaled_weights(net)
    mx = rangesums.max_range_sum(fam.kind, pts, ints)
    return Fraction(mx, denom) <= Fraction(eps) * ground.total_weight

"""Exact maximum signed range sums, family by family.

Given points with integer coordinates and one signed integer delta per
point, these routines compute ``max over induced ranges R of |sum of deltas
over R|`` exactly.  They back every certification step: halving errors,
sample verification, and the engine's budget accounting all reduce to this
quantity with suitable deltas.

The enumerations follow each family's geometry (rotating sweeps around
apexes for halfplanes, threshold grids for quadrants, bisector sweeps for
disks, slope-sorted windows for slabs) instead of materializing subsets, so
they stay polynomial with small constants.  Floating point appears only in
sort keys and in integer-valued matrix products; every ordering is checked
with exact integer comparisons (and re-sorted on them when a float key
misorders it) and every reported sum is an exact integer.

Halfplanes have one angular order and two measure sweeps.  The order,
``_half_turn``, sorts every point about each apex of a block over half a
turn in numpy, on ``_int_columns`` columns (int64 below 2^30, Python ints
above), with float hints checked exactly and misordered rows re-sorted
exactly one by one.  Tukey and simplicial depth (``stats``) read one row
per probe, and the wedge measures' halfplane subset rows
(``_halfplane_rows``) are built from every apex's groups.  The measure
still has the two sweeps of one meaning that predate it.
``_apex_sweep`` rotates a line about one apex in Python and reads any
exact values; it serves only the measure's fallback,
``_max_halfplane_sums_py``.  The int64 pass ``_max_halfplane_sums_np``
runs every apex's sweep at once, in blocks of
apexes: O(m^2 log m) for m points, a practical form of the topological
sweep of the line arrangement (Edelsbrunner and Guibas, 1989), turning
each line through half a turn and reading the other half as complements.
It takes integer coordinates below 2^30 in magnitude, so raw offsets and
their cross products fit int64, and lists whose sum of |deltas| is below
2^62, the int64 rule every family shares.  It answers a call with the
Python sweep whenever its float-hinted event order fails the exact check.

The other six families measure all k delta lists of a call at once: the
geometry, which does not depend on the deltas, is enumerated once per call,
and the lists are read off one k x m delta matrix.  That matrix is int64
while every list's sum of |deltas| is below 2^62, and holds Python ints
(dtype object) above, in the same code.
- Quadrants {x >= X, y >= Y}: one 2-D suffix sum of the k x X x Y grid of
  deltas over rank-compressed coordinates, in blocks of x-ranks.
- Disks: the bisector events of every point pair are built and sorted
  once per call, over blocks of pairs (``_disk_events``, which LMS location
  reads too), and every list is read off cumulative sums along them.
  Event times alpha/beta are sorted by float key: with x and y spreads
  below 2^25, |alpha| and |beta| stay below 2^53, so both convert exactly,
  the correctly rounded quotient never inverts the exact order, and only
  adjacent events with equal float times are compared exactly, in Python
  ints.  Wider spreads take Python-int columns, whose quotients are
  correctly rounded too.
- Slabs: the distinct pair slopes are reduced (num, den), float sorted and
  checked exactly; the order at the slope separator just below num/den is
  the stable sort of the keys y*den - x*num (``_slope_orders``, which LMS
  regression reads too).  A slab's sum is the difference of two prefix
  sums along an order, taken for all slopes of a block at once.  The
  columns are int64 while |coordinates| are below 2^30, so every key fits.
- Vertical parallelograms: the same orders, with prefix sums split by
  x-rank, so every x-strip's prefix sums are one difference of two tables.
- Wedges and double wedges: the halfplane subsets' membership rows are
  built once (``_halfplane_rows``), and each pair of subsets is one entry
  of a float matrix product, chunked, over the upper triangle of the
  pairs.  Sums stay exact integers below 2^52; larger lists are split into
  26-bit limbs, one exact product each, recombined in int64 below 2^62 and
  in Python ints above.

Disks and slabs have one sweep each, on integer columns (``_int_columns``).
Fraction coordinates are scaled by the lcm of their denominators; scaling
and translating the points keeps every induced disk and slab subset.  The
columns are int64 inside the ranges above and Python ints (dtype object)
outside them, in the same code.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .ranges import FamilyKind, Point2

# float64 holds integers exactly below 2**53; keep margin for sums.
_FLOAT_EXACT_LIMIT = 1 << 52
# Bits per limb of a wedge measure's larger deltas: a limb list's sums stay
# below m * 2^26, exact in float64 for any m below 2^26.
_LIMB_BITS = 26

# The int64 halfplane sweep takes |coordinates| below this (see its docstring),
# and slope columns are int64 below it.
_NP_COORD_LIMIT = 1 << 30
# Events per block of apexes in that sweep and of point pairs in the disk
# sweep (rows of m events), and of slopes in LMS regression (rows of m
# keys).  Halfplane pass, five pairing lists, best of 18 on one CPU, at
# 2^13 / 2^14 / 2^15 / 2^16: m = 384 8.0 / 7.7 / 8.8 / 11.5 ms, m = 1024
# 62 / 55 / 58 / 61 ms.
_BLOCK_EVENTS = 1 << 14
# Disk columns are int64 while their x and y spreads are below this (see
# ``_disk_events``).
_DISK_SPREAD_LIMIT = 1 << 25
# Integer delta matrices, and the int64 halfplane sweep's, are int64 while
# every list's sum of |deltas| is below this; Python ints from it on.
_INT64_SUM_LIMIT = 1 << 62
# Entries per block of the quadrant grid and of the slab and vpar prefix
# tables (whose slope orders are sorted block by block), and per float
# product chunk of the wedge measures.  Three delta lists of uniform points,
# best of 3 on one CPU, at 2^14 / 2^16 / 2^18 / 2^20 cells: slab m = 256
# 0.85 / 0.70 / 0.77 / 0.85 s, vpar m = 48 1.13 / 0.67 / 0.76 / 0.75 s,
# quadrant m = 2048 0.196 / 0.105 / 0.108 / 0.129 s.
_BLOCK_CELLS = 1 << 16
_CHUNK_CELLS = 1 << 22
# Masks per block of a membership matrix.  Each block is transposed while
# it is small: one transposing copy of the whole m x R matrix took 3-4x as
# long at m = 1024-2048.
_UNPACK_MASKS = 256


def _abs_sum(deltas: Sequence[int]) -> int:
    """The sum of |deltas|, the bound on every partial sum of the list."""
    return sum(map(abs, deltas))


def _block_rows(n: int) -> int:
    """Apexes or point pairs per block of ``_BLOCK_EVENTS`` events, n a row."""
    return max(1, _BLOCK_EVENTS // n)


def _collapse_multi(pts: Sequence[Point2], delta_lists: Sequence[Sequence]):
    """Merge coincident points, summing each list; no range can separate them.

    The merged points come back sorted by coordinates, as new lists.  Points
    already strictly increasing, as every canonical sample's are, have
    nothing to merge and come back as they are.
    """
    pts = list(pts)
    if len(set(pts)) == len(pts) and pts == sorted(pts):
        return pts, [list(dl) for dl in delta_lists]
    agg: dict[tuple, list[int]] = {}
    k = len(delta_lists)
    for i, p in enumerate(pts):
        key = (p.x, p.y)
        row = agg.get(key)
        if row is None:
            agg[key] = [dl[i] for dl in delta_lists]
        else:
            for j in range(k):
                row[j] += delta_lists[j][i]
    coords = sorted(agg)
    return ([Point2(x, y) for x, y in coords],
            [[agg[c][j] for c in coords] for j in range(k)])


# ---------------------------------------------------------------------------
# Exact circular direction order.
# ---------------------------------------------------------------------------


def _primitive(dx, dy) -> tuple[int, int]:
    """The primitive integer direction of an exact vector (int or Fraction parts)."""
    if isinstance(dx, Fraction) or isinstance(dy, Fraction):
        fx, fy = Fraction(dx), Fraction(dy)
        mul = math.lcm(fx.denominator, fy.denominator)
        dx, dy = int(fx * mul), int(fy * mul)
    g = math.gcd(abs(dx), abs(dy))
    return dx // g, dy // g


def _dir_half(d: tuple[int, int]) -> int:
    # 0 for angle in [0, pi), 1 for [pi, 2pi)
    return 0 if (d[1] > 0 or (d[1] == 0 and d[0] > 0)) else 1


def _dir_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    ha, hb = _dir_half(a), _dir_half(b)
    if ha != hb:
        return ha < hb
    return a[0] * b[1] - a[1] * b[0] > 0


def _exact_resort(items: list, less) -> None:
    """Re-sort float-keyed ``items`` in place on the exact ``less`` if it
    finds them out of order; the sort is stable, so ties keep their order."""
    if any(less(b, a) for a, b in zip(items, items[1:])):
        items.sort(key=functools.cmp_to_key(lambda a, b: -1 if less(a, b) else int(less(b, a))))


def _sorted_directions(dirs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Angle-sort exact direction vectors: float keys, exact fallback."""
    out = sorted(dirs, key=lambda d: math.atan2(d[1], d[0]) % (2 * math.pi))
    _exact_resort(out, _dir_less)
    return out


# ---------------------------------------------------------------------------
# Halfplanes: rotate a line about every point class.
# ---------------------------------------------------------------------------


def _apex_sweep(pts, values, apex, emit):
    """Rotate a line about ``apex``; ``emit(total)`` sees each halfplane's sum.

    Each emitted total sums ``values`` over one closed halfplane whose
    boundary line passes through ``apex``, and every such halfplane is
    emitted; points coincident with ``apex`` count in every sum.  ``apex``
    need not be one of ``pts``.  The values are only added, so they may be
    ints, Fractions, or disjoint bitmasks (whose sums are unions).
    """
    base = 0
    groups: dict[tuple[int, int], object] = {}
    for p, v in zip(pts, values):
        dx = p.x - apex.x
        dy = p.y - apex.y
        if dx == 0 and dy == 0:
            base += v
        else:
            d = _primitive(dx, dy)
            groups[d] = groups.get(d, 0) + v
    if not groups:
        emit(base)
        return
    # a group leaves the open side at its own direction and enters at
    # the antipode, so both are sweep events
    events = _sorted_directions(list(groups.keys() | {(-d[0], -d[1]) for d in groups}))
    d0 = events[0]
    # left: the apex, the open side left of the event direction, and its ray
    left = base + sum(s for d, s in groups.items()
                      if d0[0] * d[1] - d0[1] * d[0] > 0 or d == d0)
    # past d, the ray at d leaves and the ray at -d joins; that sum is the
    # next event's first (cyclically), so it is not emitted twice
    for d in events:
        anti = groups.get((-d[0], -d[1]), 0)
        emit(left)
        emit(left + anti)
        left += anti - groups.get(d, 0)


def _halfplane_sweep(pts, values, emit):
    """Drive the apex sweep; ``emit(total)`` sees every induced sum.

    Every induced halfplane subset has a representation whose boundary
    touches one of its points, so sweeping the boundary direction around
    each point class and emitting the just-before / on-line-closed /
    just-after positions covers the whole induced family.
    """
    emit(sum(values))
    emit(0)
    for apex in pts:
        _apex_sweep(pts, values, apex, emit)


def _max_halfplane_sums_py(pts, delta_lists) -> list[int]:
    best = []
    for deltas in delta_lists:
        top = 0

        def emit(v):
            nonlocal top
            if v > top:
                top = v
            elif -v > top:
                top = -v

        _halfplane_sweep(pts, deltas, emit)
        best.append(top)
    return best


def _max_halfplane_sums_np(pts, delta_lists) -> list[int]:
    """Every apex sweep at once, in blocks of apexes; int64 throughout.

    Callers guarantee every |coordinate| below 2^30, so offsets stay below
    2^31, the product of two below 2^62 and a cross product below 2^63, and
    every list's sum S of |deltas| below 2^62.  Row a of a block holds m
    events over half a turn, the directions [0, pi): a point whose offset
    v = p_j - a lies in that upper half leaves the open left side at v, one
    in the lower half joins it at -v, and copies of the apex count in every
    sum from the start and are zero events at (1, 0).

    Each row is sorted by a float angle hint, ties by event index, and
    checked exactly: as every event faces [0, pi), the order is right if no
    adjacent pair turns clockwise (cross >= 0).  Equal directions, the
    pairs with cross 0, get bitwise equal hints.  One cumulative sum per
    row and list holds the sum L(d) just past every direction d.  Past
    d + pi the line is the same with its sides swapped, and only the apex's
    copies lie on it, so the sum there is total + base - L(d), with base
    the copies' deltas: a row needs only the max and min of L.  That sum is
    taken as (total - L) + base, the points off the left side plus a part
    of L, so no intermediate exceeds S in magnitude.  L starts at the sum
    of the upper half and the copies, half of total + base less the row's
    last step sum (lower minus upper); twice it is at most 2S < 2^63 in
    magnitude, so an int64 wrap in that sum's intermediates cancels out.
    A closed halfplane whose line holds two or more points is read about
    the line's last point on one side, turned slightly so the others fall
    inside.  If any row fails the check, the Python sweep answers the
    whole call.
    """
    m = len(pts)
    xs, ys = np.array(pts, dtype=np.int64).reshape(m, 2).T
    ds = np.array(delta_lists, dtype=np.int64).reshape(len(delta_lists), m).T
    total = ds.sum(axis=0)
    best = np.abs(total)
    _, copy = np.unique(np.stack([xs, ys]), axis=1, return_inverse=True)
    base = np.zeros_like(ds)  # row g sums the deltas at the g-th distinct point
    np.add.at(base, copy, ds)
    # event j leaves at slot j, joins at slot m + j; slot 2m is a zero event
    step_of = np.concatenate([-ds, ds, np.zeros_like(ds[:1])])
    rows = _block_rows(m)
    shift = (m - 1).bit_length()
    scale = float(1 << (63 - shift))
    for lo in range(0, m, rows):
        dx = xs[None, :] - xs[lo:lo + rows, None]
        dy = ys[None, :] - ys[lo:lo + rows, None]
        at_apex = (dx == 0) & (dy == 0)
        dx[at_apex] = 1
        lower = (dy < 0) | ((dy == 0) & (dx < 0))
        ex, ey = np.where(lower, -dx, dx), np.abs(dy)
        # angle hint in [0, 1), fixed point above the event index; equal
        # directions give equal quotients, so they tie exactly
        key = ((0.5 - ex / (2 * (np.abs(ex) + ey))) * scale).astype(np.int64) << shift
        key |= np.arange(m)
        order = np.sort(key, axis=1) & (1 << shift) - 1
        flat = order + (m * np.arange(len(order)))[:, None]
        ex, ey = np.take(ex, flat), np.take(ey, flat)
        cross = ex[:, :-1] * ey[:, 1:] - ey[:, :-1] * ex[:, 1:]
        if (cross < 0).any():
            return _max_halfplane_sums_py(pts, delta_lists)
        slot = np.where(at_apex, 2 * m, np.arange(m) + m * lower)
        # position x apex x list, so the cumulative sum adds whole rows
        run = np.take(step_of, np.take(slot, flat).T, axis=0)
        np.cumsum(run, axis=0, out=run)
        here = base[copy[lo:lo + rows]]
        left = (total + here - run[-1]) // 2
        # sums are read past each direction, at the last event of its group
        run[:-1][(cross == 0).T] = 0
        reads = left + np.stack([run.max(axis=0), run.min(axis=0)])
        reads = np.concatenate([reads, (total - reads) + here])
        best = np.maximum(best, np.abs(reads).max(axis=(0, 1)))
    return [int(v) for v in best]


def max_halfplane_sums(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    if not pts:
        return [0] * len(delta_lists)
    # Fraction coordinates would be truncated by the int64 arrays
    all_int = all(isinstance(p.x, int) and isinstance(p.y, int) for p in pts)
    max_coord = max(max(abs(p.x), abs(p.y)) for p in pts)
    max_abs_sum = max(map(_abs_sum, delta_lists), default=0)
    if all_int and max_coord < _NP_COORD_LIMIT and max_abs_sum < _INT64_SUM_LIMIT:
        return _max_halfplane_sums_np(pts, delta_lists)
    return _max_halfplane_sums_py(pts, delta_lists)


# ---------------------------------------------------------------------------
# Every apex's points in exact angular order over half a turn, in numpy.
# ---------------------------------------------------------------------------


class _HalfTurn(NamedTuple):
    """The points about each apex of a block, by direction over half a turn.

    Point j's offset v = p_j - a from apex a is folded into [0, pi): v
    itself if it points into [0, pi), and -v (``lower``) if it points into
    [pi, 2 pi).  Copies of the apex (``copy``) take direction (1, 0), so
    they sort into the first group.  Row r lists the points by folded
    direction; ``lower``, ``copy`` and ``end`` follow that order, and
    ``end`` marks the last point of each group of equal folded directions.
    """

    order: np.ndarray  # R x m intp
    lower: np.ndarray  # R x m bool
    copy: np.ndarray   # R x m bool
    end: np.ndarray    # R x m bool


def _half_turn(xs: np.ndarray, ys: np.ndarray, ax: np.ndarray, ay: np.ndarray) -> _HalfTurn:
    """Every point of the columns xs, ys about each apex (ax[r], ay[r]).

    The columns come from ``_int_columns``, the apexes in the same units:
    int64 while every |entry| is below 2^30, so offsets stay below 2^31 and
    the cross product of two below 2^63, and Python ints from there on.
    Each row is sorted stably by a float hint, the correctly rounded
    quotient -ex / (|ex| + ey) of the folded offset (ex, ey)
    (``_quotients``).  It rises with the angle over [0, pi), so equal
    directions tie exactly and a strict order of hints is the exact order.
    Every row is checked exactly: as every direction faces [0, pi), the
    order is right if no adjacent pair turns clockwise (cross >= 0), and a
    pair with cross 0 shares its direction.  A row that fails the check is
    re-sorted on exact cross products on its own (``_exact_resort``).
    """
    dx = xs[None, :] - ax[:, None]
    dy = ys[None, :] - ay[:, None]
    copy = (dx == 0) & (dy == 0)
    lower = (dy < 0) | ((dy == 0) & (dx < 0))
    ex, ey = np.where(lower, -dx, dx), np.abs(dy)
    ex += copy  # a copy's (0, 0) becomes (1, 0)
    order = np.argsort(_quotients(-ex, np.abs(ex) + ey), axis=1, kind="stable")
    flat = order + (order.shape[1] * np.arange(len(order)))[:, None]
    lower, copy, ex, ey = (v.take(flat) for v in (lower, copy, ex, ey))
    cross = ex[:, :-1] * ey[:, 1:] - ey[:, :-1] * ex[:, 1:]
    misordered = (cross < 0).any(axis=1)
    for r in np.flatnonzero(misordered) if misordered.any() else ():
        rx, ry = ex[r].tolist(), ey[r].tolist()
        pos = list(range(len(rx)))
        _exact_resort(pos, lambda a, b: rx[a] * ry[b] - ry[a] * rx[b] > 0)
        for v in (order, lower, copy, ex, ey):
            v[r] = v[r, pos]
        cross[r] = ex[r, :-1] * ey[r, 1:] - ey[r, :-1] * ex[r, 1:]
    end = np.ones(order.shape, dtype=bool)
    end[:, :-1] = cross != 0
    return _HalfTurn(order, lower, copy, end)


def _halfplane_rows(pts: Sequence[Point2]) -> np.ndarray:
    """The R x m 0/1 uint8 membership rows of every halfplane subset of m
    collapsed points (one or more), each subset once, in no set order.

    Every nonempty induced subset is a point b of it and the points on the
    open side of a line through b that passes through no other point: move
    the closed halfplane's boundary inward until it meets the subset, and
    turn it slightly about the last subset point b on it, so the others on
    it fall inside.  About each apex b, with folded groups g ascending
    (``_half_turn``), each having an upper part U_g and a lower part L_g,
    the line turned just short of group g has on its open sides the upper
    parts from g on with the lower parts before g, and the mirror: two
    rows per group, plus the empty set and the whole set.  The apex sweep's
    other sets, with both rays of a line, are such sets about the last
    point on the line.  The rows are built per block of apexes, packed to
    bytes, and duplicates are removed on the packed words.
    """
    m = len(pts)
    xs, ys, _ = _int_columns(pts, _NP_COORD_LIMIT)
    nbytes = (m + 7) // 8
    packed = [np.packbits([[True] * m, [False] * m], axis=1, bitorder="little")]  # whole, empty
    rows = max(1, _BLOCK_CELLS // (m * m))  # apexes of m x m cells
    for lo in range(0, m, rows):
        ht = _half_turn(xs, ys, xs[lo:lo + rows], ys[lo:lo + rows])
        # group index, lower flag and copy flag, back in point order
        gid, lower, copy = (np.empty_like(v) for v in (ht.order, ht.lower, ht.copy))
        np.put_along_axis(gid, ht.order, np.cumsum(ht.end, axis=1) - ht.end, axis=1)
        np.put_along_axis(lower, ht.order, ht.lower, axis=1)
        np.put_along_axis(copy, ht.order, ht.copy, axis=1)
        upper = (~lower & ~copy)[:, None]
        lower, copy, gid = lower[:, None], copy[:, None], gid[:, None]
        from_g = gid >= np.arange(int(gid.max()) + 1)[None, :, None]
        for s in (upper & from_g | lower & ~from_g, lower & from_g | upper & ~from_g):
            packed.append(np.packbits(s | copy, axis=2, bitorder="little").reshape(-1, nbytes))
    # rows padded to whole uint64 words, sorted, and each distinct one kept once
    words = np.zeros((sum(map(len, packed)), -(-m // 64) * 8), dtype=np.uint8)
    words[:, :nbytes] = np.concatenate(packed)
    words = words.view(np.uint64)
    words = words[np.lexsort(words.T)]
    new = np.ones(len(words), dtype=bool)
    new[1:] = (words[1:] != words[:-1]).any(axis=1)
    return np.unpackbits(words[new].view(np.uint8), axis=1, count=m, bitorder="little")


def halfplane_subset_masks(pts: Sequence[Point2]) -> list[int]:
    """All halfplane-induced subsets of ``pts`` as index bitmasks, ascending
    (``_halfplane_rows`` on the collapsed points; a collapsed point holds
    the bits of its copies)."""
    cpts, (bits,) = _collapse_multi(pts, [[1 << i for i in range(len(pts))]])
    if not cpts:
        return [0]
    return sorted({sum(b for b, on in zip(bits, row) if on)
                   for row in _halfplane_rows(cpts).tolist()})


def membership_matrix(masks: Sequence[int], m: int) -> np.ndarray:
    """The C-contiguous m x R 0/1 uint8 matrix of R index bitmasks over m points.

    Row i marks, in increasing order, the masks that hold point i.
    """
    nbytes = (m + 7) // 8
    for mask in masks:
        if mask < 0 or mask.bit_length() > m:
            raise ValueError(f"range mask is not a subset of {m} points (bit length "
                             f"{mask.bit_length()}{', negative' if mask < 0 else ''})")
    packed = np.frombuffer(b"".join(mask.to_bytes(nbytes, "little") for mask in masks),
                           dtype=np.uint8).reshape(len(masks), nbytes)
    member = np.empty((m, len(masks)), dtype=np.uint8)
    for lo in range(0, len(masks), _UNPACK_MASKS):
        member[:, lo:lo + _UNPACK_MASKS] = np.unpackbits(
            packed[lo:lo + _UNPACK_MASKS], axis=1, count=m, bitorder="little").T
    return member


# ---------------------------------------------------------------------------
# The other families measure every delta list of a call at once, on one
# k x m delta matrix.
# ---------------------------------------------------------------------------


def _delta_matrix(delta_lists, m: int) -> np.ndarray:
    """The k x m matrix of the lists: int64 while every list's sum of |deltas|
    is below 2^62, so every partial sum and the difference of two fit, and
    Python ints (dtype object) above, in the same arithmetic."""
    big = max(map(_abs_sum, delta_lists), default=0) >= _INT64_SUM_LIMIT
    return np.array(delta_lists, dtype=object if big else np.int64).reshape(len(delta_lists), m)


def _window(prefix: np.ndarray, axis) -> np.ndarray:
    """Max |sum| over runs between two of the ``prefix`` sums, with 0 among them."""
    return np.maximum(prefix.max(axis=axis), 0) - np.minimum(prefix.min(axis=axis), 0)


def _ranks(values: list, reverse: bool = False) -> np.ndarray:
    """Dense rank of each value among the distinct ones (0 is the smallest,
    or with ``reverse`` the largest)."""
    rank = {v: i for i, v in enumerate(sorted(set(values), reverse=reverse))}
    return np.array([rank[v] for v in values], dtype=np.int64)


# ---------------------------------------------------------------------------
# Quadrants: dominance suffix sums over the compressed grid.
# ---------------------------------------------------------------------------


def max_quadrant_sums(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """Every quadrant {x >= X, y >= Y} at point coordinates X and Y: a 2-D
    suffix sum of the k x X x Y grid of deltas, built in blocks of x-ranks
    (one row carried between blocks) so at most ``_BLOCK_CELLS`` cells are
    held at once."""
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    k = len(delta_lists)
    if not pts or not k:
        return [0] * k
    deltas = _delta_matrix(delta_lists, len(pts))
    # rank 0 is the largest coordinate, so suffix sums are prefix sums of ranks
    xr = _ranks([p.x for p in pts], reverse=True)
    yr = _ranks([p.y for p in pts], reverse=True)
    nx, ny = int(xr.max()) + 1, int(yr.max()) + 1
    rows = max(1, _BLOCK_CELLS // (k * ny))
    carry = np.zeros((k, 1, ny), dtype=deltas.dtype)
    best = np.zeros(k, dtype=deltas.dtype)
    for lo in range(0, nx, rows):
        grid = np.zeros((k, min(rows, nx - lo), ny), dtype=deltas.dtype)
        sel = (xr >= lo) & (xr < lo + rows)
        grid[:, xr[sel] - lo, yr[sel]] = deltas[:, sel]  # merged points have distinct cells
        grid[:, :1] += carry
        np.cumsum(grid, axis=1, out=grid)
        carry = grid[:, -1:].copy()
        np.cumsum(grid, axis=2, out=grid)
        best = np.maximum(best, np.maximum(grid.max(axis=(1, 2)), -grid.min(axis=(1, 2))))
    return [int(v) for v in best]


# ---------------------------------------------------------------------------
# Disks: sweep the center along each pair bisector.
# ---------------------------------------------------------------------------


def _int_columns(pts: Sequence[Point2], limit: int, shift: bool = False):
    """The x and y columns of ``pts`` times s, the lcm of the coordinates'
    denominators (1 for ints), and s; shifted to start at 0 if ``shift``.

    The columns are int64 while every |entry| is below ``limit``, and
    Python ints (dtype object) from it on.
    """
    s = math.lcm(*(c.denominator for p in pts for c in p))
    cols = [[c.numerator * (s // c.denominator) for c in col] for col in zip(*pts)]
    if shift:
        cols = [[v - low for v in col] for col, low in zip(cols, map(min, cols))]
    dtype = np.int64 if max(abs(v) for col in cols for v in col) < limit else object
    return np.array(cols[0], dtype=dtype), np.array(cols[1], dtype=dtype), s


def _disk_columns(pts: Sequence[Point2]):
    """``_int_columns`` for the disk sweep: shifted to start at 0, int64
    while the x and y spreads are below ``_DISK_SPREAD_LIMIT``."""
    return _int_columns(pts, _DISK_SPREAD_LIMIT, shift=True)


class _DiskEvents(NamedTuple):
    """The bisector sweeps of a block of P point pairs over n points.

    Row r is pair (i[r], j[r]).  ``alpha``, ``beta`` and ``start`` are
    indexed by point; ``order`` lists the points by event time, the events
    (beta != 0) first, and the other arrays follow that order.  ``end``
    marks the last event of each group of equal times.
    """

    alpha: np.ndarray   # P x n, (C - A).(C - B), in the columns' dtype
    beta: np.ndarray    # P x n, 2 (C - A).u, in the columns' dtype
    start: np.ndarray   # P x n bool, inside at t = -inf
    order: np.ndarray   # P x n intp
    time: np.ndarray    # P x n float64, alpha/beta; inf past the events
    enters: np.ndarray  # P x n bool, beta > 0
    leaves: np.ndarray  # P x n bool, beta < 0
    end: np.ndarray     # P x n bool


def _quotients(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """Float num/den, inf where den = 0, as sort keys whose strict order is
    the exact order.

    Each is correctly rounded: numpy's on int64 entries that convert to
    float64 exactly, Python's int division on Python ints, where a quotient
    is first clamped to 2^1000 in magnitude so it cannot overflow, and a
    nonzero one that rounds to 0 is lifted to the least float of its sign,
    so every sign is exact.  Rounding, clamping and lifting are monotone, so
    they never invert the exact order.
    """
    out = np.full(num.shape, np.inf)
    if num.dtype != object:
        return np.divide(num, den, out=out, where=den != 0)
    cap = np.abs(den) << 1000
    q = np.divide(np.clip(num, -cap, cap), den, out=out, where=den != 0, casting="unsafe")
    tiny = (q == 0) & (num != 0)
    q[tiny] = np.where((num[tiny] > 0) == (den[tiny] > 0), 5e-324, -5e-324)
    return q


def _disk_events(xs: np.ndarray, ys: np.ndarray, i: np.ndarray, j: np.ndarray) -> _DiskEvents:
    """The bisector sweeps of the disks through A = pts[i[r]] and
    B = pts[j[r]], for every r at once, on columns from ``_disk_columns``.

    With center M + t*u, M the midpoint of AB and u = (A.y - B.y,
    B.x - A.x), the squared radius is |AB|^2 (1/4 + t^2), and point C is
    inside while beta*t >= alpha, for alpha = (C - A).(C - B) and
    beta = 2 (C - A).u (on the line AB, beta = 0, for all t or none).
    Neither depends on the origin, and scaling the points by s multiplies
    both by s^2, so the times do not change.  On int64 columns, x and y
    spreads at most D < 2^25 keep every component of C - A, C - B and u at
    most D in magnitude, so |alpha| <= 2 D^2 < 2^51 and
    |beta| <= 4 D^2 < 2^52 convert to float64 exactly; on Python-int
    columns, Python's int division is correctly rounded as it stands.
    Either way a strict order of the float times (``_quotients``) is the
    exact order.  Each row is sorted stably by float time (inf where
    beta = 0, so those points come last), and only adjacent events with
    bitwise equal times are compared exactly, in Python ints: a run of them
    is re-sorted exactly, and its group ends are where the exact times
    change.  Within a group the order is left as it falls, since every
    consumer reads a group's sums or its set of points.
    """
    ax, ay = xs[i, None], ys[i, None]
    bx, by = xs[j, None], ys[j, None]
    cx, cy = xs - ax, ys - ay
    alpha = cx * (xs - bx) + cy * (ys - by)
    beta = 2 * (cx * (ay - by) + cy * (bx - ax))
    key = _quotients(alpha, beta)
    order = np.argsort(key, axis=1, kind="stable")
    time = np.take_along_axis(key, order, axis=1)
    same = (time[:, 1:] == time[:, :-1]) & np.isfinite(time[:, 1:])
    end = np.isfinite(time)
    end[:, :-1] &= ~same
    rows, cols = np.nonzero(same)
    a = 0
    while a < len(rows):  # runs of equal float times, settled exactly
        r, lo = rows[a], cols[a]
        b = a
        while b + 1 < len(rows) and rows[b + 1] == r and cols[b + 1] == cols[b] + 1:
            b += 1
        hi = cols[b] + 2
        run = sorted((Fraction(int(alpha[r, c]), int(beta[r, c])), c) for c in order[r, lo:hi])
        order[r, lo:hi] = [c for _, c in run]
        end[r, lo:hi - 1] = [t != u for (t, _), (u, _) in zip(run, run[1:])]
        a = b + 1
    sbeta = np.take_along_axis(beta, order, axis=1)
    return _DiskEvents(alpha, beta, (beta < 0) | ((beta == 0) & (alpha <= 0)), order, time,
                       sbeta > 0, sbeta < 0, end)


def _max_disk_sums_np(xs: np.ndarray, ys: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """The sweep's sums: at the start and just past each group."""
    n = deltas.shape[1]
    best = np.maximum(np.abs(deltas).max(axis=1), np.abs(deltas.sum(axis=1)))
    ia, ib = np.triu_indices(n, 1)
    rows = _block_rows(n)
    for lo in range(0, len(ia), rows):
        ev = _disk_events(xs, ys, ia[lo:lo + rows], ib[lo:lo + rows])
        state = (deltas @ ev.start.T.astype(np.int64))[..., None]
        cols = deltas[:, ev.order]
        past = state + np.cumsum(np.where(ev.enters, cols, np.where(ev.leaves, -cols, 0)), axis=2)
        past = np.where(ev.end, past, state)
        best = np.maximum(best, np.maximum(np.abs(past.max(axis=2)),
                                           np.abs(past.min(axis=2))).max(axis=1))
    return best


def max_disk_sum(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """Radius-0 disks, the whole set, and the disks through each pair A, B.

    Every pair's bisector events are sorted once per call, in blocks of
    pairs (``_disk_events``); every list then reads the sum just past each
    group of equal times off one cumulative sum along the sorted events.
    The closed circle of a group (the sum before it plus its entering
    points) needs no read of its own: for the pair of two points adjacent
    on that circle, every other point on it lies on one side of their
    line, so the whole group enters, or leaves, at once, and the closed
    circle's sum is the sum just past the group or just before it.  The
    columns and the delta matrix are each int64 or Python ints
    (``_disk_columns``, ``_delta_matrix``), in the same sweep.
    """
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    k = len(delta_lists)
    if not pts or not k:
        return [0] * k
    xs, ys, _ = _disk_columns(pts)
    return [int(v) for v in _max_disk_sums_np(xs, ys, _delta_matrix(delta_lists, len(pts)))]


# ---------------------------------------------------------------------------
# Slabs and vertical parallelograms: per canonical slope, windows over the
# projection order.
# ---------------------------------------------------------------------------


def _slope_orders_np(xs: np.ndarray, ys: np.ndarray,
                     rows: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """``_slope_orders`` on columns from ``_int_columns``.

    The points are taken in (x, y) order, so the pair slopes are reduced
    (num, den) with den > 0.  On int64 columns, with |coordinate| below
    2^30, |num| and den are below 2^31: they convert to float64 exactly, a
    strict order of the float slopes (``_quotients``) is the exact order,
    and the cross products that settle equal floats stay below 2^62.
    Every key y*den - x*num stays below 2^62 in magnitude, and at the top
    row, num + den over den, below 2^63.  Python-int columns take the same
    steps in Python ints.
    """
    m = len(xs)
    by_x = np.lexsort((ys, xs))
    xs, ys = xs[by_x], ys[by_x]
    i, j = np.triu_indices(m, 1)
    dx, dy = xs[j] - xs[i], ys[j] - ys[i]
    off = dx != 0
    dx, dy = dx[off], dy[off]
    g = np.gcd(dy, dx)
    num, den = dy // g, dx // g
    pick = np.lexsort((den, num, _quotients(num, den)))
    num, den = num[pick], den[pick]
    new = np.ones(len(num), dtype=bool)
    new[1:] = (num[1:] != num[:-1]) | (den[1:] != den[:-1])
    num, den = num[new], den[new]
    if (num[1:] * den[:-1] < num[:-1] * den[1:]).any():  # equal floats, misordered
        exact = sorted(zip(num.tolist(), den.tolist()), key=lambda s: Fraction(*s))
        num, den = (np.array(v, dtype=xs.dtype) for v in zip(*exact))
    slopes = np.stack([num, den], axis=1)
    seps = (np.concatenate([slopes, [[num[-1] + den[-1], den[-1]]]]) if len(slopes)
            else np.array([[0, 1]], dtype=xs.dtype))

    def blocks():
        for lo in range(0, len(seps), rows):
            r = seps[lo:lo + rows]
            yield by_x[np.argsort(ys * r[:, 1:] - xs * r[:, :1], axis=1, kind="stable")]

    return slopes, blocks()


def _slope_orders(pts: Sequence[Point2], rows: int) -> tuple[np.ndarray, Iterator[np.ndarray]]:
    """The distinct pair slopes of collapsed points, and their slab orders.

    Returns the S x 2 array of the non-vertical pair slopes as reduced
    (num, den), ascending, and the (S + 1) x m orders of the points, as
    consecutive blocks of at most ``rows`` orders, each sorted when it is
    reached, so a consumer holds one block at a time: order s < S is the
    order at the slope separator just below slope s, the last the order
    above every slope ([0] is the one separator if S = 0).
    No two keys tie at a separator.  Keys tie only at a pair slope, and
    every run of key groups there is a run of the order just below it; so
    every slab subset is a run of one of these orders.

    Just below num/den, the keys y*den - x*num of points tied at num/den
    order by ascending x: so that order is the stable sort of the keys at
    num/den over the points in (x, y) order, which is ``_collapse_multi``'s.
    The keys are read on ``_int_columns``, scaled by a positive integer,
    which keeps every slope and order; they are int64 while every |scaled
    coordinate| is below ``_NP_COORD_LIMIT``, and Python ints from it on.
    """
    xs, ys, _ = _int_columns(pts, _NP_COORD_LIMIT)
    return _slope_orders_np(xs, ys, rows)


def max_slab_sum(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """A slab's points are a run of one slope order, so its sum is the
    difference of two prefix sums along that order."""
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    k = len(delta_lists)
    if not pts or not k:
        return [0] * k
    m = len(pts)
    deltas = _delta_matrix(delta_lists, m)
    _, blocks = _slope_orders(pts, max(1, _BLOCK_CELLS // (k * m)))
    best = np.zeros(k, dtype=deltas.dtype)
    for order in blocks:
        prefix = np.cumsum(deltas[:, order], axis=2)
        best = np.maximum(best, _window(prefix, 2).max(axis=1))
    return [int(v) for v in best]


def max_vpar_sum(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """Slab windows restricted to x-strips.

    C[list, slope, g, j] sums the deltas of the first g + 1 points in the
    slope's order whose x-rank is below j, so strip [lo, hi] of x-ranks has
    prefix sums C[..., hi + 1] - C[..., lo] along the order; a point outside
    the strip repeats the prefix before it.
    """
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    k = len(delta_lists)
    if not pts or not k:
        return [0] * k
    m = len(pts)
    deltas = _delta_matrix(delta_lists, m)
    xr = _ranks([p.x for p in pts])
    nx = int(xr.max()) + 1
    below = xr[:, None] < np.arange(nx + 1)  # m x (X + 1)
    _, blocks = _slope_orders(pts, max(1, _BLOCK_CELLS // (k * m * (nx + 1))))
    best = np.zeros(k, dtype=deltas.dtype)
    for order in blocks:
        table = deltas[:, order, None] * below[order]
        np.cumsum(table, axis=2, out=table)
        for lo in range(nx):
            strips = table[..., lo + 1:] - table[..., lo:lo + 1]
            best = np.maximum(best, _window(strips, 2).max(axis=(1, 2)))
    return [int(v) for v in best]


# ---------------------------------------------------------------------------
# Wedges and double wedges: integer-valued float products over the
# halfplane subset matrix.
# ---------------------------------------------------------------------------


def _pair_extremes(pts: Sequence[Point2], delta_lists, signed: bool) -> list[tuple[int, int]]:
    """Per delta list d, the least and greatest sum_i d_i r_a(i) r_b(i) over
    every pair a, b of halfplane subsets, where r_a(i) is 1 for i in a and
    0 (or -1 if ``signed``) outside it.

    The sums are float matrix products over the R x m rows, chunked so a
    product holds at most ``_CHUNK_CELLS`` entries.  Both sums are symmetric
    in a and b, so each chunk of rows meets only the subsets from its first
    one on.  Every partial sum is bounded by the list's sum S of |deltas|,
    so while every S is below 2^52 each float is an exact integer.  Larger
    lists are split by sign and magnitude into 26-bit limbs,
    d = sum_l d_l 2^(26 l): a limb list's sums stay below m 2^26, so its
    products are exact, and each entry is recombined from its limbs before
    the min and max are taken, in chunks of ``_BLOCK_CELLS``.  Every partial
    recombination is bounded by S, so it is int64 while every S is below
    2^62, and Python ints from there on.
    """
    m, k = len(pts), len(delta_lists)
    rows = _halfplane_rows(pts).astype(np.float64)
    if signed:
        rows = 2 * rows - 1
    bound = max(map(_abs_sum, delta_lists))
    if bound < _FLOAT_EXACT_LIMIT:
        limbs, dtype, cells = [np.array(delta_lists, dtype=np.float64)], np.float64, _CHUNK_CELLS
    else:
        deltas = np.array(delta_lists, dtype=object).reshape(k, m)
        mags, neg = np.abs(deltas), deltas < 0
        limbs = []
        for shift in range(0, int(mags.max()).bit_length(), _LIMB_BITS):
            limb = ((mags >> shift) & ((1 << _LIMB_BITS) - 1)).astype(np.int64)
            limbs.append(np.where(neg, -limb, limb).astype(np.float64))
        dtype = np.int64 if bound < _INT64_SUM_LIMIT else object
        cells = _BLOCK_CELLS
    sigmas = [limb.reshape(k, 1, m) for limb in limbs]
    least = most = None
    chunk = max(1, cells // (k * len(rows)))
    for lo in range(0, len(rows), chunk):
        prod = None
        for i, sigma in enumerate(sigmas):
            part = ((rows[lo:lo + chunk] * sigma).reshape(-1, m) @ rows[lo:].T).reshape(k, -1)
            if dtype is not np.float64:
                part = part.astype(np.int64).astype(dtype) << (i * _LIMB_BITS)
            prod = part if prod is None else prod + part
        low, high = prod.min(axis=1), prod.max(axis=1)
        least = low if least is None else np.minimum(least, low)
        most = high if most is None else np.maximum(most, high)
        del prod, part  # before the next chunk's product is allocated
    return [(int(a), int(b)) for a, b in zip(least, most)]


def max_wedge_sum(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """A wedge's points are the intersection a & b of two halfplane subsets."""
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    if not pts or not delta_lists:
        return [0] * len(delta_lists)
    return [max(-least, most) for least, most in _pair_extremes(pts, delta_lists, False)]


def max_dwedge_sum(pts: Sequence[Point2], delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """A double wedge's points are the symmetric difference of two halfplane
    subsets a and b.  With r = +-1 membership, 1 - r_a(i) r_b(i) is 2 for i
    in exactly one of them and 0 otherwise, so its sum is (S - P) / 2 for the
    list's total S and P = sum_i d_i r_a(i) r_b(i)."""
    pts, delta_lists = _collapse_multi(pts, delta_lists)
    if not pts or not delta_lists:
        return [0] * len(delta_lists)
    extremes = _pair_extremes(pts, delta_lists, True)
    return [max(abs(sum(dl) - least), abs(sum(dl) - most)) // 2
            for dl, (least, most) in zip(delta_lists, extremes)]


# ---------------------------------------------------------------------------
# Dispatch.
# ---------------------------------------------------------------------------


def max_range_sums(kind: FamilyKind, pts: Sequence[Point2],
                   delta_lists: Sequence[Sequence[int]]) -> list[int]:
    """Exact max |signed range sum| for each delta assignment."""
    measure = {  # looked up per call, so a wrapped module global is the one called
        FamilyKind.HALFPLANE: max_halfplane_sums,
        FamilyKind.QUADRANT: max_quadrant_sums,
        FamilyKind.DISK: max_disk_sum,
        FamilyKind.SLAB: max_slab_sum,
        FamilyKind.WEDGE: max_wedge_sum,
        FamilyKind.DOUBLE_WEDGE: max_dwedge_sum,
        FamilyKind.VPARALLELOGRAM: max_vpar_sum,
    }[kind]
    return measure(pts, delta_lists)


def max_range_sum(kind: FamilyKind, pts: Sequence[Point2], deltas: Sequence[int]) -> int:
    return max_range_sums(kind, pts, [deltas])[0]

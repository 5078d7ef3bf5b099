"""Exact range-sum measurement must agree with independent references.

``max_halfplane_sums`` hands inputs whose coordinates are all integers of
magnitude below 2^30 to the vectorized sweep, and larger or Fraction ones to
the pure-Python sweep; the two must report the same maxima wherever the fast
one is allowed to run.  The fast one sorts each apex's events by a float
hint and checks the order exactly; where the check fails, the Python sweep
answers, and the tests pin which one did.  The numpy half-turn order
behind Tukey depth and the wedge measures must sort every row exactly,
re-sorting the rows its float hints misorder, and the halfplane subset
rows built on it must be exactly the subsets of the independent oracle and
of a restated bitmask sweep, at any scale and on Fractions.

The other six families measure every delta list of a call at once.  Their
maxima must equal brute force over the oracle's induced subsets on small
tie-rich grids, and the single-list measures they replaced (restated below)
at up to each family's ``verify_size``; past 2^62 they must stay exact on
Python ints, and the float wedge measures must stay exact past 2^52 by
splitting deltas into limbs.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epsstream import FamilyKind, Point2, family
from epsstream import rangesums
from epsstream.ranges import (_pair_slopes, _slope_candidates, _slope_separators,
                              subsystem_oracle_masks)
from epsstream.rangesums import (
    _dir_less,
    _exact_resort,
    _max_halfplane_sums_np,
    _max_halfplane_sums_py,
    _sorted_directions,
    halfplane_subset_masks,
    max_halfplane_sums,
    max_range_sums,
    membership_matrix,
)

LIM = (1 << 30) - 1
_SPREAD = 1 << 20  # largest offset the line and antipode strategies add


def _point_sets():
    """Points near the 2^30 limit, rich in collinear triples, duplicates and
    pairs in antipodal directions from a shared apex."""
    coord = st.one_of(st.integers(-LIM, LIM), st.sampled_from((-LIM, 0, LIM)))
    anchor = st.integers(-LIM + _SPREAD, LIM - _SPREAD)
    step = st.integers(-(1 << 16), 1 << 16)
    free = st.builds(lambda x, y: [Point2(x, y)], coord, coord)
    # a + t*(dx, dy) for several t: collinear, and antipodal around a
    line = st.builds(lambda ax, ay, dx, dy, ts: [Point2(ax + t * dx, ay + t * dy) for t in ts],
                     anchor, anchor, step, step,
                     st.lists(st.integers(-16, 16), min_size=2, max_size=5))
    antipodal = st.builds(lambda ax, ay, dx, dy: [Point2(ax, ay), Point2(ax + dx, ay + dy),
                                                  Point2(ax - dx, ay - dy)],
                          anchor, anchor, step, step)

    def build(groups, dup_picks):
        pts = [p for g in groups for p in g]
        return pts + [pts[i % len(pts)] for i in dup_picks]

    return st.builds(build, st.lists(st.one_of(free, line, antipodal), min_size=1, max_size=6),
                     st.lists(st.integers(0, 99), max_size=4))


@st.composite
def _inputs(draw):
    pts = draw(_point_sets())
    delta = st.integers(-(1 << 20), 1 << 20)
    k = draw(st.integers(1, 4))
    dls = [draw(st.lists(delta, min_size=len(pts), max_size=len(pts))) for _ in range(k)]
    return pts, dls


@settings(max_examples=150, deadline=None)
@given(inp=_inputs())
def test_fast_sweep_matches_python_sweep(inp):
    pts, dls = inp
    assert _max_halfplane_sums_np(pts, dls) == _max_halfplane_sums_py(pts, dls)


def _refuse(*_args):
    raise AssertionError("wrong halfplane sweep")


_BOUNDARY = [Point2(-3, 5), Point2(7, -2), Point2(0, 0), Point2(4, 4)]
_DELTAS = [[3, -1, 2, -5], [1, 1, -1, 1]]


@pytest.mark.parametrize("x,y", [(LIM, 0), (0, -LIM), (-LIM, LIM)])
def test_int64_sweep_up_to_two_to_the_thirty_minus_one(monkeypatch, x, y):
    pts = _BOUNDARY + [Point2(x, y)]
    dls = [d + [7] for d in _DELTAS]
    expected = _max_halfplane_sums_py(pts, dls)
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert max_halfplane_sums(pts, dls) == expected


def test_int64_sweep_takes_sums_up_to_two_to_the_sixty_two(monkeypatch):
    """A halfplane sum, and the sum of two partial sums, stays within twice
    a list's sum of |deltas|, so lists from 2^52 to 2^62 - 1 fit int64."""
    big, top = (1 << 60) + 5, (1 << 61) - 1
    pts = _BOUNDARY + [Point2(LIM, 0)]
    dls = [[big, -3, -big, big // 2, 7], [top, -top, 0, 0, 1], [-top, 0, 3, -top + 4, 0]]
    for dl in dls:
        assert 1 << 52 < sum(abs(d) for d in dl) < 1 << 62
    expected = _max_halfplane_sums_py(pts, dls)
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert max_halfplane_sums(pts, dls) == expected


@pytest.mark.parametrize("x,y", [(1 << 30, 0), (0, -(1 << 30)), (-(1 << 30), 1)])
def test_python_sweep_from_two_to_the_thirty(monkeypatch, x, y):
    pts = _BOUNDARY + [Point2(x, y)]
    dls = [d + [7] for d in _DELTAS]
    expected = _max_halfplane_sums_py(pts, dls)
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_np", _refuse)
    assert max_halfplane_sums(pts, dls) == expected


def test_fraction_coordinates_take_the_exact_sweep():
    """The int64 arrays would truncate 1/2 and 1/3 to 0; the Python sweep
    reads Fraction coordinates exactly and agrees with the scaled points."""
    pts = [Point2(Fraction(1, 2), 0), Point2(Fraction(1, 3), 0), Point2(0, 1)]
    deltas = [[5, -7, 1]]
    scaled = [Point2(6 * p.x, 6 * p.y) for p in pts]
    assert max_halfplane_sums(pts, deltas) == max_halfplane_sums(scaled, deltas) == [7]


def _blocked_case():
    """About 230 points: free points near the 2^30 limit, collinear runs,
    points in antipodal pairs about a shared middle point, and duplicates."""
    rng = random.Random(2024)
    pts = [Point2(rng.randrange(-LIM, LIM + 1), rng.randrange(-LIM, LIM + 1)) for _ in range(100)]
    for _ in range(10):  # 9 collinear points each, spread through a wide square
        ax, ay = (rng.randrange(-LIM + _SPREAD, LIM - _SPREAD) for _ in "xy")
        dx, dy = (rng.randrange(-(1 << 16), 1 << 16) for _ in "xy")
        pts += [Point2(ax + t * dx, ay + t * dy) for t in range(-4, 5)]
    for _ in range(10):  # each middle point sees the other two in opposite directions
        ax, ay = (rng.randrange(-LIM + _SPREAD, LIM - _SPREAD) for _ in "xy")
        dx, dy = (rng.randrange(-(1 << 16), 1 << 16) for _ in "xy")
        pts += [Point2(ax - dx, ay - dy), Point2(ax, ay), Point2(ax + dx, ay + dy)]
    pts += [pts[rng.randrange(len(pts))] for _ in range(12)]
    dls = [[rng.randrange(-(1 << 20), 1 << 20) for _ in pts] for _ in range(3)]
    return pts, dls


def test_blocked_sweep_across_blocks_matches_python_sweep(monkeypatch):
    pts, dls = _blocked_case()
    m = len(pts)
    rows = rangesums._block_rows(m)
    assert m >= 3 * rows, "the case should span at least 3 blocks of apexes"
    expected = _max_halfplane_sums_py(pts, dls)
    # the int64 pass itself must answer: its order check may not reject any row
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert _max_halfplane_sums_np(pts, dls) == expected
    assert max_halfplane_sums(pts, dls) == expected


def test_complement_reading_counts_every_copy_of_the_apex(monkeypatch):
    """Past d + pi the sum is total + base - L(d), where base sums every copy
    of the apex, not only the apex's own delta: here the two copies cancel,
    so every halfplane sums to 0."""
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert _max_halfplane_sums_np([Point2(0, 0), Point2(0, 0)], [[1, -1]]) == [0]


@st.composite
def _net_inputs(draw):
    """Tie-rich small grids with duplicates, and delta lists whose sums are
    not 0, like the net lists of ``verify_approximation`` (a halving's
    lists always sum to 0)."""
    pts = draw(st.lists(st.builds(Point2, st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=1, max_size=14))
    pts += [pts[i % len(pts)] for i in draw(st.lists(st.integers(0, 99), max_size=6))]
    dls = []
    for _ in range(draw(st.integers(1, 3))):
        dl = draw(st.lists(st.integers(-9, 9), min_size=len(pts), max_size=len(pts)))
        dls.append(dl if sum(dl) else [dl[0] + 1] + dl[1:])
    return pts, dls


@settings(max_examples=100, deadline=None)
@given(inp=_net_inputs(), block=st.sampled_from((1, 5, 16)))
def test_blocked_sweep_with_copies_and_nonzero_sums(inp, block):
    """Apex copies fall in different blocks of a few apexes each, and the
    complement readings carry each list's nonzero total."""
    pts, dls = inp
    assert all(sum(dl) for dl in dls)
    expected = _max_halfplane_sums_py(pts, dls)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rangesums, "_BLOCK_EVENTS", block)
        mp.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
        assert _max_halfplane_sums_np(pts, dls) == expected


def test_complement_reading_near_two_to_the_sixty_two(monkeypatch):
    """The subset holding only (1, 0) (two copies) is cut out only by
    halfplanes whose inward normal lies within pi/4 of +x, so the sweep
    about (1, 0) reads it only past some d + pi, as a complement.  Its sum
    is the maximum, and the list's sum of |deltas| is 2^62 - 1."""
    big = (1 << 62) - 3
    pts = [Point2(0, 1), Point2(1, 0), Point2(1, 0), Point2(0, -1)]
    dls = [[-1, big - 7, 7, -1], [1, -7, -(big - 7), 1]]
    assert all(sum(abs(d) for d in dl) == (1 << 62) - 1 for dl in dls)
    assert _max_halfplane_sums_py(pts, dls) == [big, big]
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert _max_halfplane_sums_np(pts, dls) == [big, big]


# From (0, 0) the middle two points lie in directions less than 2^-60 apart,
# which one float (atan2 or the pass's own angle hint) cannot tell apart.
_COLLIDING = [Point2(0, 0), Point2(LIM, LIM - 1), Point2(LIM - 1, LIM - 2), Point2(-5, 7)]
_COLLIDING_DELTAS = [[3, -5, 4, 1], [-2, 7, -6, 2]]


def test_float_collision_in_input_order_falls_back_to_python_sweep(monkeypatch):
    """Tied hints keep input order, which puts (2^30-1, 2^30-2) before the
    direction clockwise of it; the exact check rejects that row."""
    expected = _max_halfplane_sums_py(_COLLIDING, _COLLIDING_DELTAS)
    calls = []

    def spy(*args):
        calls.append(args)
        return _max_halfplane_sums_py(*args)

    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", spy)
    assert _max_halfplane_sums_np(_COLLIDING, _COLLIDING_DELTAS) == expected
    assert len(calls) == 1


def test_float_collision_in_sorted_order_stays_on_the_int64_pass(monkeypatch):
    """Merged points come back sorted by coordinates, so tied hints keep the
    true angular order, the check passes, and the int64 pass answers."""
    expected = _max_halfplane_sums_py(_COLLIDING, _COLLIDING_DELTAS)
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert max_halfplane_sums(_COLLIDING, _COLLIDING_DELTAS) == expected


@pytest.mark.parametrize("flip", [False, True])
def test_float_colliding_directions_sort_exactly(flip):
    """atan2 ties (2^30-1, 2^30-2) and (2^30-2, 2^30-3), so one input order
    leaves them misordered; the exact re-sort gives one order for both."""
    dirs = [(1, 0), (LIM, LIM - 1), (LIM - 1, LIM - 2), (-5, 7), (0, -1)]
    if flip:
        dirs[1], dirs[2] = dirs[2], dirs[1]
    out = _sorted_directions(dirs)
    assert out == [(1, 0), (LIM - 1, LIM - 2), (LIM, LIM - 1), (-5, 7), (0, -1)]
    assert all(_dir_less(a, b) for a, b in zip(out, out[1:]))
    # three points in general position: every subset is a halfplane's
    assert len(halfplane_subset_masks(_COLLIDING[:3])) == 8


def test_exact_resort_keeps_ties_in_order():
    """Tagged directions: the first two tie as float angles and are
    misordered; the last ties the first exactly."""
    steep, shallow = (LIM, LIM - 1), (LIM - 1, LIM - 2)
    assert math.atan2(steep[1], steep[0]) == math.atan2(shallow[1], shallow[0])
    items = [(steep, 0), (shallow, 1), (steep, 2)]
    _exact_resort(items, lambda a, b: _dir_less(a[0], b[0]))
    assert items == [(shallow, 1), (steep, 0), (steep, 2)]


@st.composite
def _grid_points(draw):
    """At most 12 points on a 7x7 integer grid, with duplicates and
    collinear runs (a zero step repeats a point)."""
    c = st.integers(-3, 3)
    free = st.builds(lambda x, y: [Point2(x, y)], c, c)
    run = st.builds(lambda x, y, dx, dy, n: [Point2(x + t * dx, y + t * dy) for t in range(n)],
                    c, c, st.integers(-1, 1), st.integers(-1, 1), st.integers(2, 4))
    groups = draw(st.lists(st.one_of(free, run), max_size=6))
    return [p for g in groups for p in g][:12]


@settings(max_examples=400, deadline=None)
@given(pts=_grid_points())
def test_subset_masks_match_the_oracle(pts):
    """The bitmask sweep finds exactly the subsets the independent oracle's
    canonical halfplanes cut out."""
    assert set(halfplane_subset_masks(pts)) == subsystem_oracle_masks(
        family(FamilyKind.HALFPLANE), pts)


# -- the numpy half-turn order ----------------------------------------------------


def _exact_direction_key(dx: int, dy: int) -> tuple:
    """A sort key of the full-turn angle of (dx, dy), in exact numbers: the
    half, then the pseudo-angle of the direction folded into [0, pi)."""
    if dy > 0 or (dy == 0 and dx > 0):
        return 0, Fraction(-dx, abs(dx) + dy)
    return 1, Fraction(dx, abs(dx) - dy)


def _ref_apex_sums(pts, values, apex) -> list:
    """Every closed and half-closed halfplane sum about ``apex`` that the
    apex sweep emits, restated on exact keys: the sum past each event
    direction d (the open left side and the ray at d), and that sum with
    the ray at -d.  Copies of the apex count in every sum."""
    base, groups = 0, {}
    for p, v in zip(pts, values):
        dx, dy = Fraction(p.x - apex.x), Fraction(p.y - apex.y)
        if dx == dy == 0:
            base += v
            continue
        s = math.lcm(dx.denominator, dy.denominator)
        ix, iy = int(dx * s), int(dy * s)
        g = math.gcd(ix, iy)
        d = (ix // g, iy // g)
        groups[d] = groups.get(d, 0) + v
    if not groups:
        return [base]
    events = sorted(groups.keys() | {(-x, -y) for x, y in groups},
                    key=lambda d: _exact_direction_key(*d))
    d0 = events[0]
    left = base + sum(v for d, v in groups.items() if d0[0] * d[1] - d0[1] * d[0] > 0 or d == d0)
    out = []
    for d in events:
        anti = groups.get((-d[0], -d[1]), 0)
        out += [left, left + anti]
        left += anti - groups.get(d, 0)
    return out


def _ref_subset_masks(pts) -> set:
    """The bitmask sweep: point i carries 2^i, so each emitted sum is the
    bitmask of the subset it sums over."""
    bits = [1 << i for i in range(len(pts))]
    masks = {0, sum(bits)}
    for apex in pts:
        masks.update(_ref_apex_sums(pts, bits, apex))
    return masks


def _row_masks(pts) -> set:
    return {int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in rangesums._halfplane_rows(pts)}


_SCALES = st.sampled_from([1, 1 << 10, 1 << 40, 1 << 64, Fraction(1, 3), Fraction(7, 1 << 40)])


@settings(max_examples=300, deadline=None)
@given(pts=_grid_points(), scale=_SCALES)
def test_halfplane_rows_match_the_oracle_and_the_bitmask_sweep(pts, scale):
    """Scaling keeps every halfplane subset, so the rows of scaled, far or
    Fraction points are the oracle's subsets of the grid points, and the
    bitmask sweep's on the scaled points; no row repeats."""
    cpts, _ = rangesums._collapse_multi(pts, [])
    assume(cpts)
    scaled = [Point2(p.x * scale, p.y * scale) for p in cpts]
    rows = rangesums._halfplane_rows(scaled)
    assert len(rows) == len(_row_masks(scaled))
    assert _row_masks(scaled) == subsystem_oracle_masks(family(FamilyKind.HALFPLANE), cpts)
    assert _row_masks(scaled) == _ref_subset_masks(scaled)


def _turn_directions(xs, ys, ax, ay):
    """Per row of ``_half_turn``, the exact folded offsets in its order and
    its group ends."""
    ht = rangesums._half_turn(xs, ys, ax, ay)
    out = []
    for r in range(len(ht.order)):
        dirs = []
        for j, low, cp in zip(ht.order[r].tolist(), ht.lower[r].tolist(), ht.copy[r].tolist()):
            dx, dy = int(xs[j]) - int(ax[r]), int(ys[j]) - int(ay[r])
            assert cp == (dx == dy == 0)
            assert low == (not cp and _exact_direction_key(dx, dy)[0] == 1)
            dirs.append((1, 0) if cp else (-dx, -dy) if low else (dx, dy))
        out.append((dirs, ht.end[r].tolist()))
    return out


def _assert_exact_turns(turns):
    for dirs, end in turns:
        keys = [_exact_direction_key(*d)[1] for d in dirs]
        assert keys == sorted(keys)
        assert end == [a != b for a, b in zip(keys, keys[1:])] + [True]


def test_half_turn_resorts_a_float_collision_exactly():
    """From (0, 0), (2^30-1, 2^30-2) turns clockwise of (2^30-2, 2^30-3)
    though their hints tie, and the tie keeps input order: the rows that
    fail the check are re-sorted on exact cross products."""
    xs, ys, _ = rangesums._int_columns(_COLLIDING, rangesums._NP_COORD_LIMIT)
    resorted = []
    real = rangesums._exact_resort
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rangesums, "_exact_resort", lambda items, less: (resorted.append(1),
                                                                    real(items, less)))
        turns = _turn_directions(xs, ys, xs, ys)
    _assert_exact_turns(turns)
    assert turns[0][0][1:3] == [(LIM - 1, LIM - 2), (LIM, LIM - 1)]
    assert 0 < len(resorted) < len(_COLLIDING)


@settings(max_examples=100, deadline=None)
@given(pts=_grid_points(), scale=st.sampled_from([1, 1 << 40]))
def test_half_turn_with_every_hint_tied_resorts_every_row(pts, scale):
    """With every float hint 0, each row keeps input order and fails the
    check unless it was sorted; re-sorted exactly, the rows, the subsets
    and the probe depths are the ones the true hints give."""
    cpts, _ = rangesums._collapse_multi(pts, [])
    assume(len(cpts) >= 2)
    scaled = [Point2(p.x * scale, p.y * scale) for p in cpts]
    xs, ys, _ = rangesums._int_columns(scaled, rangesums._NP_COORD_LIMIT)
    want_turns, want_rows = _turn_directions(xs, ys, xs, ys), _row_masks(scaled)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rangesums, "_quotients", lambda num, den: np.zeros(num.shape))
        turns = _turn_directions(xs, ys, xs, ys)
        assert _row_masks(scaled) == want_rows
    _assert_exact_turns(turns)
    assert [end for _, end in turns] == [end for _, end in want_turns]


# ---------------------------------------------------------------------------
# The six families measured on all delta lists at once.
# ---------------------------------------------------------------------------

_MULTI = (FamilyKind.QUADRANT, FamilyKind.DISK, FamilyKind.SLAB, FamilyKind.WEDGE,
          FamilyKind.DOUBLE_WEDGE, FamilyKind.VPARALLELOGRAM)
_FLOAT_MEASURED = (FamilyKind.WEDGE, FamilyKind.DOUBLE_WEDGE)
# Largest oracle inputs: the slab and vpar oracles take about 1 s at 10 points.
_ORACLE_SIZE = {FamilyKind.QUADRANT: 12, FamilyKind.DISK: 10, FamilyKind.SLAB: 8,
                FamilyKind.WEDGE: 12, FamilyKind.DOUBLE_WEDGE: 12, FamilyKind.VPARALLELOGRAM: 8}


def _brute(kind, pts, dls):
    masks = subsystem_oracle_masks(family(kind), pts)
    return [max(abs(sum(d for i, d in enumerate(dl) if mask >> i & 1)) for mask in masks)
            for dl in dls]


@st.composite
def _tie_rich(draw, max_size):
    """Small integer points: free ones, collinear runs, shared-x columns and
    duplicates of earlier points, with 1-4 delta lists."""
    c = st.integers(-3, 3)
    free = st.builds(lambda x, y: [Point2(x, y)], c, c)
    run = st.builds(lambda x, y, dx, dy, n: [Point2(x + t * dx, y + t * dy) for t in range(n)],
                    c, c, st.integers(-1, 1), st.integers(-1, 1), st.integers(2, 4))
    column = st.builds(lambda x, ys: [Point2(x, y) for y in ys], c, st.lists(c, min_size=2, max_size=4))
    groups = draw(st.lists(st.one_of(free, run, column), min_size=1, max_size=5))
    pts = [p for g in groups for p in g]
    pts += [pts[i % len(pts)] for i in draw(st.lists(st.integers(0, 99), max_size=3))]
    pts = pts[:max_size]
    k = draw(st.integers(1, 4))
    dls = [draw(st.lists(st.integers(-6, 6), min_size=len(pts), max_size=len(pts)))
           for _ in range(k)]
    return pts, dls


@pytest.mark.parametrize("kind", _MULTI, ids=lambda k: k.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_all_lists_match_the_oracle(kind, data):
    """Also with one x-rank, slope or subset row per block, so results
    carried from block to block count."""
    pts, dls = data.draw(_tie_rich(_ORACLE_SIZE[kind]))
    expected = _brute(kind, pts, dls)
    assert max_range_sums(kind, pts, dls) == expected
    with mock.patch.multiple(rangesums, _BLOCK_CELLS=1, _CHUNK_CELLS=1):
        assert max_range_sums(kind, pts, dls) == expected


def test_disk_reads_whole_groups_of_equal_times():
    """Sweeping the center up the bisector of (-1, 0) and (1, 0), (0, -1)
    leaves as (0, 1) enters, both at the unit circle; a disk holding both
    x-axis points holds one of them, so the pair alone (sum 10) is no
    disk's."""
    pts = [Point2(-1, 0), Point2(1, 0), Point2(0, -1), Point2(0, 1)]
    dls = [[5, 5, -5, -5]]
    assert max_range_sums(FamilyKind.DISK, pts, dls) == _brute(FamilyKind.DISK, pts, dls) == [5]


# -- the single-list measures the shared ones replaced ----------------------


def _ref_quadrant(pts, deltas):
    ys = sorted({p.y for p in pts})
    yidx = {y: i for i, y in enumerate(ys)}
    order = sorted(range(len(pts)), key=lambda i: -pts[i].x)
    suff = [0] * len(ys)
    best = i = 0
    while i < len(order):
        x = pts[order[i]].x
        while i < len(order) and pts[order[i]].x == x:
            for r in range(yidx[pts[order[i]].y] + 1):
                suff[r] += deltas[order[i]]
            i += 1
        best = max([best] + [abs(v) for v in suff])
    return best


def _ref_disk(pts, deltas):
    best = max([abs(d) for d in deltas] + [abs(sum(deltas))])
    for i, A in enumerate(pts):
        for B in pts[i + 1:]:
            ux, uy = A.y - B.y, B.x - A.x
            events, state = [], 0
            for C, d in zip(pts, deltas):
                bx, by = C.x - A.x, C.y - A.y
                beta = 2 * (bx * ux + by * uy)
                alpha = (C.x * C.x + C.y * C.y - A.x * A.x - A.y * A.y
                         - bx * (A.x + B.x) - by * (A.y + B.y))
                if beta == 0:
                    state += d if alpha <= 0 else 0
                    continue
                if beta < 0:
                    state += d
                events.append((Fraction(alpha, beta), beta, d))
            best = max(best, abs(state))
            events.sort(key=lambda e: e[0])
            idx = 0
            while idx < len(events):
                stop = idx
                while stop < len(events) and events[stop][0] == events[idx][0]:
                    stop += 1
                enter = sum(d for _, be, d in events[idx:stop] if be > 0)
                leave = sum(d for _, be, d in events[idx:stop] if be < 0)
                best = max(best, abs(state), abs(state + enter))
                state += enter - leave
                best = max(best, abs(state))
                idx = stop
    return best


def _ref_window(keyed):
    keyed.sort(key=lambda t: t[0])
    prefix = lo = hi = 0
    for i, (key, d) in enumerate(keyed):
        prefix += d
        if i + 1 == len(keyed) or keyed[i + 1][0] != key:
            lo, hi = min(lo, prefix), max(hi, prefix)
    return hi - lo


def _ref_slab(pts, deltas):
    return max(_ref_window([(p.y * a.denominator - p.x * a.numerator, d)
                            for p, d in zip(pts, deltas)])
               for a in _slope_candidates(pts))


def _ref_vpar(pts, deltas):
    xs = sorted({p.x for p in pts})
    return max(_ref_window([(p.y * a.denominator - p.x * a.numerator, d)
                            for p, d in zip(pts, deltas) if lo <= p.x <= hi])
               for a in _slope_candidates(pts)
               for i, lo in enumerate(xs) for hi in xs[i:])


def _ref_wedges(pts, deltas, double):
    rows = membership_matrix(halfplane_subset_masks(pts), len(pts)).T.astype(float)
    weighted = rows * [float(d) for d in deltas]
    inter = weighted @ rows.T
    if double:
        sums = weighted.sum(axis=1)
        inter = sums[:, None] + sums[None, :] - 2 * inter
    return int(round(abs(inter).max()))


_REFERENCE = {
    FamilyKind.QUADRANT: _ref_quadrant,
    FamilyKind.DISK: _ref_disk,
    FamilyKind.SLAB: _ref_slab,
    FamilyKind.VPARALLELOGRAM: _ref_vpar,
    FamilyKind.WEDGE: lambda pts, deltas: _ref_wedges(pts, deltas, False),
    FamilyKind.DOUBLE_WEDGE: lambda pts, deltas: _ref_wedges(pts, deltas, True),
}


def _reference(kind, pts, dls):
    cpts, cdls = rangesums._collapse_multi(pts, dls)
    return [_REFERENCE[kind](cpts, dl) for dl in cdls]


def _verify_case(kind, m, seed):
    """m points with ties: half on a coarse grid (shared x, collinear runs,
    duplicates), half spread wide; k delta lists of mixed scale."""
    rng = random.Random(seed)
    coarse = [Point2(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(m // 2)]
    wide = [Point2(rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6))
            for _ in range(m - m // 2)]
    pts = coarse + wide
    rng.shuffle(pts)
    dls = [[rng.randint(-2, 2) for _ in pts], [rng.randint(-10 ** 9, 10 ** 9) for _ in pts]]
    return pts, dls


@pytest.mark.parametrize("kind", _MULTI, ids=lambda k: k.value)
@pytest.mark.parametrize("seed", [1, 2])
def test_all_lists_match_single_list_measures_up_to_verify_size(kind, seed):
    m = family(kind).verify_size if seed == 1 else family(kind).verify_size // 2 + 1
    pts, dls = _verify_case(kind, m, seed)
    assert max_range_sums(kind, pts, dls) == _reference(kind, pts, dls)



def _reference_collapse(pts, delta_lists):
    """``_collapse_multi`` as first written: every point through a dict."""
    agg = {}
    for i, p in enumerate(pts):
        row = agg.setdefault((p.x, p.y), [0] * len(delta_lists))
        for j, dl in enumerate(delta_lists):
            row[j] += dl[i]
    coords = sorted(agg)
    return ([Point2(x, y) for x, y in coords],
            [[agg[c][j] for c in coords] for j in range(len(delta_lists))])


@settings(max_examples=150, deadline=None)
@given(case=_tie_rich(12), form=st.sampled_from(("as drawn", "sorted", "strictly increasing")),
       fraction=st.booleans())
def test_collapse_multi_matches_the_dict_path(case, form, fraction):
    """Duplicates and unsorted inputs merge as the dict path merges them;
    strictly increasing inputs, which skip the dict, come back equal."""
    pts, dls = case
    if fraction:
        pts = [Point2(Fraction(p.x, 3), p.y) for p in pts]
    if form != "as drawn":
        order = sorted(range(len(pts)), key=pts.__getitem__)
        if form == "strictly increasing":
            order = [i for a, i in enumerate(order) if a == 0 or pts[order[a - 1]] != pts[i]]
        pts, dls = [pts[i] for i in order], [[dl[i] for i in order] for dl in dls]
    got = rangesums._collapse_multi(pts, dls)
    assert got == _reference_collapse(pts, dls)
    assert got[0] is not pts and all(a is not b for a, b in zip(got[1], dls))

# -- exactness past int64 and the float limit ----------------------------------


_HUGE = [Point2(0, 0), Point2(1, 2), Point2(2, 1), Point2(1, 1), Point2(3, 3), Point2(0, 3),
         Point2(1, 2)]


@pytest.mark.parametrize("kind", _MULTI, ids=lambda k: k.value)
def test_sums_past_two_to_the_sixty_three(kind, monkeypatch):
    """Lists whose partial sums pass 2^63 would wrap in int64; the delta
    matrix holds Python ints instead and every maximum stays exact.  The
    float wedge measures recombine their limbs in Python ints."""
    big = 1 << 62
    dls = [[big + 5, big - 3, big, -7, big + 1, 2, big], [3, -1, 2, -5, 1, 1, 4]]
    assert sum(abs(d) for d in dls[0]) > 1 << 64
    if kind in _FLOAT_MEASURED:
        assert max_range_sums(kind, _HUGE, dls) == _brute(kind, _HUGE, dls)
        return
    dtypes = []
    real = rangesums._delta_matrix

    def spy(*args):
        out = real(*args)
        dtypes.append(out.dtype)
        return out

    monkeypatch.setattr(rangesums, "_delta_matrix", spy)
    assert max_range_sums(kind, _HUGE, dls) == _brute(kind, _HUGE, dls)
    assert dtypes == [object]


@pytest.mark.parametrize("kind", _FLOAT_MEASURED, ids=lambda k: k.value)
def test_wedge_measures_answer_sums_from_two_to_the_fifty_two(kind):
    """Below 2^52 one float product per list is exact; from 2^52 on, and
    past 2^62, the 26-bit limbs recombine to the same exact answers."""
    half = 1 << 51
    below = [[half, 2 - half, -1, 0, 0, 0, 0]]
    assert sum(abs(d) for d in below[0]) == (1 << 52) - 1
    assert max_range_sums(kind, _HUGE, below) == _brute(kind, _HUGE, below)
    at = [[half, -half, 0, 0, 0, 0, 0], [half + 3, 1 - half, -(1 << 40) - 5, 7, -9, 1, (1 << 30) + 1]]
    assert max_range_sums(kind, _HUGE, at) == _brute(kind, _HUGE, at)
    past = [[(1 << 61) + 11, -(1 << 61) + 3, -(1 << 60) - 1, 5, 1 << 59, -3, 2],
            [-(1 << 100) - 1, (1 << 99) + 7, 13, -(1 << 98), 1, 1 << 97, -5]]
    assert max_range_sums(kind, _HUGE, past) == _brute(kind, _HUGE, past)



@pytest.mark.parametrize("kind", _FLOAT_MEASURED, ids=lambda k: k.value)
@settings(max_examples=30, deadline=None)
@given(case=_tie_rich(8), bits=st.integers(20, 130), data=st.data())
def test_wedge_limbs_match_brute_force(kind, case, bits, data):
    """Deltas d * 2^bits + e, with e up to 2^40: their sums cross 2^52 and
    2^62 at different bits, and every limb recombines exactly."""
    pts, dls = case
    noise = st.lists(st.integers(-(1 << 40), 1 << 40), min_size=len(pts), max_size=len(pts))
    big = [[(d << bits) + e for d, e in zip(dl, data.draw(noise))] for dl in dls]
    assert max_range_sums(kind, pts, big) == _brute(kind, pts, big)

# -- one geometry per call -------------------------------------------------------


@pytest.mark.parametrize("kind,name", [
    (FamilyKind.WEDGE, "_halfplane_rows"),
    (FamilyKind.DOUBLE_WEDGE, "_halfplane_rows"),
    (FamilyKind.SLAB, "_slope_orders"),
    (FamilyKind.VPARALLELOGRAM, "_slope_orders"),
], ids=lambda v: getattr(v, "value", v))
def test_four_lists_share_one_geometry(kind, name, monkeypatch):
    """The delta-independent enumeration runs once per call, not per list.
    The reference is taken first: the wedge references read the subset
    masks, which are built on the same rows."""
    pts, dls = _verify_case(kind, 12, 3)
    dls += [[-d for d in dls[0]], [1] * len(pts)]
    assert len(dls) == 4
    want = _reference(kind, pts, dls)
    calls = []
    real = getattr(rangesums, name)

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rangesums, name, counted)
    assert max_range_sums(kind, pts, dls) == want
    assert len(calls) == 1


# -- the batched disk and slope sweeps -------------------------------------------

_CIRCLE25 = [Point2(x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25]


@st.composite
def _sweep_points(draw, coord=st.integers(-6, 6)):
    """Cocircular lattice points (the 12 of x^2 + y^2 = 25), collinear runs,
    free points and duplicates, before collapse."""
    circle = st.lists(st.sampled_from(_CIRCLE25), min_size=1, max_size=8)
    run = st.builds(lambda x, y, dx, dy, n: [Point2(x + t * dx, y + t * dy) for t in range(n)],
                    coord, coord, st.integers(-2, 2), st.integers(-2, 2), st.integers(2, 5))
    free = st.lists(st.builds(Point2, coord, coord), min_size=1, max_size=4)
    groups = draw(st.lists(st.one_of(circle, run, free), min_size=1, max_size=4))
    pts = [p for g in groups for p in g]
    return pts + [pts[i % len(pts)] for i in draw(st.lists(st.integers(0, 99), max_size=3))]


def _reference_groups(pts, i, j):
    """The start set and the ordered group sets of the disks through
    A = pts[i] and B = pts[j], centered at M + t*u: point C is inside while
    beta*t >= alpha.  The events are sorted by exact time alpha/beta."""
    A, B = pts[i], pts[j]
    ux, uy = A.y - B.y, B.x - A.x
    start, groups = set(), {}
    for c, C in enumerate(pts):
        alpha = (C.x - A.x) * (C.x - B.x) + (C.y - A.y) * (C.y - B.y)
        beta = 2 * ((C.x - A.x) * ux + (C.y - A.y) * uy)
        if beta < 0 or (beta == 0 and alpha <= 0):
            start.add(c)
        if beta:
            groups.setdefault(Fraction(alpha, beta), set()).add(c)
    return start, [groups[t] for t in sorted(groups)]


def _batched_groups(pts):
    """Per pair (i, j): the start set and the ordered group sets of the
    batched sweep."""
    xs, ys, _ = rangesums._disk_columns(pts)
    ia, ib = np.triu_indices(len(pts), 1)
    rows = rangesums._block_rows(len(pts))
    out = {}
    for lo in range(0, len(ia), rows):
        ev = rangesums._disk_events(xs, ys, ia[lo:lo + rows], ib[lo:lo + rows])
        for r, order in enumerate(ev.order.tolist()):
            groups, first = [], 0
            for e in np.flatnonzero(ev.end[r]).tolist():
                groups.append(set(order[first:e + 1]))
                first = e + 1
            assert np.isinf(ev.time[r, first:]).all()  # no event after the last group
            out[int(ia[lo + r]), int(ib[lo + r])] = (set(np.flatnonzero(ev.start[r]).tolist()),
                                                     groups)
    return out


def _coarse_times(real):
    """A monotone coarsening of the float times: it never inverts the exact
    order, so the exact settling of equal floats must restore every group.
    Non-events keep their infinite time."""

    def coarse(alpha, beta):
        times = real(alpha, beta)
        return np.where(np.isinf(times), times, np.sign(times))

    return coarse


@pytest.mark.parametrize("patch", ["none", "block", "coarse"])
@settings(max_examples=60, deadline=None)
@given(pts=_sweep_points())
def test_batched_disk_events_match_the_per_pair_sweep(patch, pts):
    """Same groups in the same order, same index set per group, same start set;
    with one pair per block, and with float times that tie far more often."""
    pts, _ = rangesums._collapse_multi(pts, [])
    assume(len(pts) >= 2)
    with pytest.MonkeyPatch.context() as mp:
        if patch == "block":
            mp.setattr(rangesums, "_BLOCK_EVENTS", 1)
        elif patch == "coarse":
            mp.setattr(rangesums, "_quotients", _coarse_times(rangesums._quotients))
        batched = _batched_groups(pts)
    assert batched == {(i, j): _reference_groups(pts, i, j)
                       for i in range(len(pts)) for j in range(i + 1, len(pts))}


def test_batched_disk_events_at_the_spread_limit():
    """Spreads of 2^25 - 1 keep |alpha| < 2^51 and |beta| < 2^52."""
    top = (1 << 25) - 1
    pts, _ = rangesums._collapse_multi([Point2(0, 0), Point2(top, 0), Point2(0, top),
                                        Point2(top, top), Point2(top // 2, top // 3),
                                        Point2(1, top - 1), Point2(top - 1, 1)], [])
    assert rangesums._disk_columns(pts)[0].dtype == np.int64
    assert _batched_groups(pts) == {(i, j): _reference_groups(pts, i, j)
                                    for i in range(len(pts)) for j in range(i + 1, len(pts))}


@settings(max_examples=30, deadline=None)
@given(pts=_sweep_points())
def test_disk_events_on_python_int_columns(pts):
    """Scaled by 2^40 and shifted by 2^60, the columns pass the int64
    spread and hold Python ints; every group is unchanged."""
    pts, _ = rangesums._collapse_multi(pts, [])
    assume(len(pts) >= 2)
    far = [Point2((p.x << 40) + (1 << 60), (p.y << 40) - (1 << 60)) for p in pts]
    assert rangesums._disk_columns(far)[0].dtype == object
    assert _batched_groups(far) == {(i, j): _reference_groups(pts, i, j)
                                    for i in range(len(pts)) for j in range(i + 1, len(pts))}


def test_disk_times_past_the_float_range():
    """A point nearly on the line AB, 2^600 away, has event time about
    -2^1201: clamped, its float time keeps its place."""
    big = 1 << 600
    pts = [Point2(0, 0), Point2(big, big - 1), Point2(-big - 1, -big), Point2(3, 5),
           Point2(big // 2, 7)]
    dls = [[1, -2, 3, -1, 2], [2, 2, -3, 1, -1]]
    assert rangesums.max_disk_sum(pts, dls) == _brute(FamilyKind.DISK, pts, dls)


def test_quotients_below_the_float_range_keep_their_signs():
    """Python-int quotients that round to 0.0 become the least float of
    their sign; exact zeros stay 0."""
    big = 1 << 1200
    num = np.array([-1, 1, 0, 1, 0, 3], dtype=object)
    den = np.array([big, big, big, -big, -big, 0], dtype=object)
    q = rangesums._quotients(num, den)
    assert np.array_equal(np.sign(q), [-1, 1, 0, -1, 0, 1])
    assert np.abs(q[[0, 1, 3]]).tolist() == [5e-324] * 3 and q[5] == np.inf


def _reference_slope_orders(pts):
    """The orders at the Fraction slope separators, sorted in Python."""
    slopes = _pair_slopes(pts)
    return np.array([sorted(range(len(pts)), key=lambda i: pts[i].y - a * pts[i].x)
                     for a in _slope_separators(slopes)], dtype=np.intp)


@settings(max_examples=200, deadline=None)
@given(pts=st.one_of(_sweep_points(), _point_sets()))
def test_slope_orders_match_the_fraction_separators(pts):
    """Integer pair slopes equal ``ranges._pair_slopes``, and the orders equal
    the Fraction separators' on tie-rich grids and near the 2^30 limit, on
    int64 and on Python-int columns."""
    pts, _ = rangesums._collapse_multi(pts, [])
    slopes, blocks = rangesums._slope_orders(pts, 2)
    orders = np.concatenate(list(blocks))
    assert slopes.dtype == np.int64
    assert [Fraction(int(num), int(den)) for num, den in slopes] == _pair_slopes(pts)
    assert orders.tolist() == _reference_slope_orders(pts).tolist()
    far = [Point2((p.x << 31) + (1 << 80), p.y << 31) for p in pts]
    far_slopes, far_blocks = rangesums._slope_orders(far, 2)
    assert far_slopes.dtype == object and far_slopes.tolist() == slopes.tolist()
    assert np.concatenate(list(far_blocks)).tolist() == orders.tolist()


@pytest.mark.parametrize("kind", [FamilyKind.DISK, FamilyKind.SLAB, FamilyKind.VPARALLELOGRAM],
                         ids=lambda k: k.value)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_batched_measures_match_the_oracle_on_cocircular_points(kind, data):
    pts = data.draw(_sweep_points(st.integers(-3, 3)))[:_ORACLE_SIZE[kind]]
    dls = [data.draw(st.lists(st.integers(-6, 6), min_size=len(pts), max_size=len(pts)))
           for _ in range(data.draw(st.integers(1, 3)))]
    expected = _brute(kind, pts, dls)
    assert max_range_sums(kind, pts, dls) == expected
    with mock.patch.multiple(rangesums, _BLOCK_EVENTS=1, _BLOCK_CELLS=1):
        assert max_range_sums(kind, pts, dls) == expected


# -- which columns ------------------------------------------------------------------


def _spy_columns(monkeypatch) -> list:
    """Record the dtype of every column pair ``_int_columns`` builds."""
    dtypes = []
    real = rangesums._int_columns

    def spy(*args, **kwargs):
        xs, ys, s = real(*args, **kwargs)
        dtypes.append(xs.dtype)
        return xs, ys, s

    monkeypatch.setattr(rangesums, "_int_columns", spy)
    return dtypes


def _benchmark_range_case(seed=7, m=40):
    """Integer points with |c| <= 2^21, as the benchmark draws them, with
    cocircular and collinear ties mixed in."""
    rng = random.Random(seed)
    c = 1 << 21
    pts = [Point2(rng.randint(-c, c), rng.randint(-c, c)) for _ in range(m)]
    pts += [Point2(c - 5 + p.x, p.y) for p in _CIRCLE25] + [Point2(-c, -c + 3 * t) for t in range(4)]
    dls = [[rng.randint(-9, 9) for _ in pts] for _ in range(3)]
    return pts, dls


@pytest.mark.parametrize("measure", ["max_disk_sum", "max_slab_sum", "max_vpar_sum"])
def test_benchmark_coordinates_take_int64_columns(measure, monkeypatch):
    pts, dls = _benchmark_range_case(m=40 if measure != "max_vpar_sum" else 8)
    dtypes = _spy_columns(monkeypatch)
    getattr(rangesums, measure)(pts, dls)
    assert dtypes == [np.int64]


_TIES = [Point2(x, y) for x, y in [(0, 0), (3, 4), (4, 3), (-5, 0), (0, 5), (1, 1), (2, 2),
                                   (3, 3), (-3, 1), (5, 0), (0, -5), (3, 4)]]


@pytest.mark.parametrize("scale", [Fraction(1, 3), 1 << 23, 1 << 28, 1 << 40])
def test_far_or_fraction_coordinates_give_the_unscaled_answers(scale, monkeypatch):
    """Scaling the points scales every disk, slab and vertical
    parallelogram, so each measure must give the unscaled answer.  Disk
    columns hold Python ints from a spread of 2^25 and slope columns from
    |c| = 2^30 (at 2^40 their products pass 2^63); Fraction coordinates are
    scaled back to integers."""
    dls = [[(-1) ** i * (i + 1) for i in range(len(_TIES))], [1, -2] * (len(_TIES) // 2)]
    measures = (rangesums.max_disk_sum, rangesums.max_slab_sum, rangesums.max_vpar_sum)
    expected = {fn: fn(_TIES, dls) for fn in measures}
    scaled = [Point2(p.x * scale, p.y * scale) for p in _TIES]
    dtypes = _spy_columns(monkeypatch)
    for fn, want in expected.items():
        assert fn(scaled, dls) == want
    disk, slope = {Fraction(1, 3): (np.int64, np.int64), 1 << 23: (object, np.int64)}.get(
        scale, (object, object))
    assert dtypes == [disk, slope, slope]

"""The int64 halfplane sweep must agree with the exact Python sweep.

``max_halfplane_sums`` hands inputs whose coordinates are all integers of
magnitude below 2^30 to the vectorized sweep, and larger or Fraction ones to
the pure-Python sweep; the two must report the same maxima wherever the fast
one is allowed to run.  The fast one sorts each apex's events by a float
hint and checks the order exactly; where the check fails, the Python sweep
answers, and the tests pin which one did.  The same Python sweep, fed one
bit per point, must find exactly the halfplane subsets of the independent
oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsstream import FamilyKind, Point2, family
from epsstream import rangesums
from epsstream.ranges import subsystem_oracle_masks
from epsstream.rangesums import (
    _dir_less,
    _exact_resort,
    _max_halfplane_sums_np,
    _max_halfplane_sums_py,
    _sorted_directions,
    _t_less,
    halfplane_subset_masks,
    max_halfplane_sums,
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
    """About 200 points: free points near the 2^30 limit, collinear runs,
    points in antipodal pairs about a shared middle point, and duplicates."""
    rng = random.Random(2024)
    pts = [Point2(rng.randrange(-LIM, LIM + 1), rng.randrange(-LIM, LIM + 1)) for _ in range(80)]
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
    rows = max(1, rangesums._BLOCK_EVENTS // (2 * m))
    assert m >= 3 * rows, "the case should span at least 3 blocks of apexes"
    expected = _max_halfplane_sums_py(pts, dls)
    # the int64 pass itself must answer: its order check may not reject any row
    monkeypatch.setattr(rangesums, "_max_halfplane_sums_py", _refuse)
    assert _max_halfplane_sums_np(pts, dls) == expected
    assert max_halfplane_sums(pts, dls) == expected


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
    """Disk sweep events (alpha, beta, idx) at times alpha/beta: the first
    two tie as floats and are misordered; the last ties the second exactly."""
    big = 10 ** 18
    events = [(big + 3, 3, 0), (big, 3, 1), (2 * big, 6, 2)]
    assert (big + 3) / 3 == big / 3
    _exact_resort(events, _t_less)
    assert events == [(big, 3, 1), (2 * big, 6, 2), (big + 3, 3, 0)]


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

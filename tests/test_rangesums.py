"""The int64 halfplane sweep must agree with the exact Python sweep.

``max_halfplane_sums`` hands inputs whose coordinates are all integers of
magnitude below 2^30 to the vectorized sweep, and larger or Fraction ones to
the pure-Python sweep; the two must report the same maxima wherever the fast
one is allowed to run.  The same Python sweep, fed one bit per point, must
find exactly the halfplane subsets of the independent oracle.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsstream import FamilyKind, Point2, family
from epsstream import rangesums
from epsstream.ranges import subsystem_oracle_masks
from epsstream.rangesums import (
    _max_halfplane_sums_np,
    _max_halfplane_sums_py,
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

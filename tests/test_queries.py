from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epsstream import (
    FamilyKind,
    Point2,
    StreamState,
    Verdict,
    WeightedSample,
    approx_count,
    eps_net,
    iceberg_query,
    make_config,
    parse_descriptor,
)
from epsstream.engine import Snapshot, snapshot_of_exact
from epsstream.errors import FamilyMismatchError
from epsstream.oracles import PrefixMirror, exact_count
from epsstream.queries import _fits_int64
from epsstream.ranges import (
    Disk,
    DoubleWedge,
    Halfplane,
    Quadrant,
    Slab,
    VParallelogram,
    Wedge,
    descriptor_values,
)
from streams import make_stream


def snap_of(pts, eps=Fraction(1, 4), fam="quadrant"):
    return StreamState(make_config(eps, fam)).extend(pts).snapshot()


def test_all_covering_range_counts_n():
    pts = make_stream("uniform", 64, seed=1)
    snap = snap_of(pts)
    lo = min(min(p.x for p in pts), min(p.y for p in pts)) - 1
    est = approx_count(snap, Quadrant(lo, lo))
    assert est.estimate == 64
    assert est.additive_bound == Fraction(1, 4) * 64


def test_empty_range_counts_zero():
    pts = make_stream("uniform", 32, seed=2)
    snap = snap_of(pts, fam="slab")
    below = min(p.y for p in pts) - 5
    est = approx_count(snap, Slab(0, below, below))
    assert est.estimate == 0


def test_grid_quadrant_within_bound():
    pts = [Point2(x, y) for x in (0, 1, 2, 3) for y in (0, 1)]
    snap = snap_of(pts, eps=Fraction(1, 4))
    desc = Quadrant(2, 1)
    est = approx_count(snap, desc)
    exact = exact_count(PrefixMirror(pts), desc)
    assert abs(est.estimate - exact) <= Fraction(1, 4) * 8


def test_family_mismatch_raises():
    snap = snap_of(make_stream("uniform", 8, seed=3))
    with pytest.raises(FamilyMismatchError):
        approx_count(snap, Halfplane(1, 0, 0))


def test_iceberg_trivials():
    pts = make_stream("uniform", 32, seed=4)
    snap = snap_of(pts, eps=Fraction(1, 4))
    lo = min(min(p.x for p in pts), min(p.y for p in pts)) - 1
    hi = max(max(p.x for p in pts), max(p.y for p in pts)) + 1
    assert iceberg_query(snap, Quadrant(lo, lo), Fraction(1, 2)) is Verdict.ABOVE
    assert iceberg_query(snap, Quadrant(hi, hi), Fraction(1, 2)) is Verdict.BELOW


def test_iceberg_exact_boundary_is_uncertain():
    pts = [Point2(0, 0), Point2(10, 10)]
    snap = snapshot_of_exact(pts, make_config(Fraction(1, 8), "quadrant"))
    # true fraction exactly 1/2
    assert iceberg_query(snap, Quadrant(5, 5), Fraction(1, 2)) is Verdict.UNCERTAIN


def test_iceberg_soundness_random_streams():
    for style in ("uniform", "duplicates"):
        pts = make_stream(style, 96, seed=5)
        snap = snap_of(pts, eps=Fraction(1, 4))
        mirror = PrefixMirror(pts)
        xs = sorted(p.x for p in pts)
        ys = sorted(p.y for p in pts)
        for i in range(0, 96, 7):
            desc = Quadrant(xs[i], ys[(i * 3) % 96])
            frac = Fraction(exact_count(mirror, desc), len(pts))
            verdict = iceberg_query(snap, desc, Fraction(1, 2))
            if verdict is Verdict.ABOVE:
                assert frac >= Fraction(1, 2)
            elif verdict is Verdict.BELOW:
                assert frac <= Fraction(1, 2)


def test_eps_net_hits_heavy_ranges():
    pts = make_stream("clustered", 128, seed=6)
    eps = Fraction(1, 2)
    snap = snap_of(pts, eps=eps)
    net = set(eps_net(snap))
    mirror = PrefixMirror(pts)
    xs = sorted({p.x for p in pts})
    ys = sorted({p.y for p in pts})
    for x in xs[::9]:
        for y in ys[::9]:
            desc = Quadrant(x, y)
            if exact_count(mirror, desc) > eps * len(pts):
                assert any(desc.contains(p) for p in net), (x, y)


def test_net_of_singleton():
    snap = snap_of([Point2(3, 4)])
    assert eps_net(snap) == (Point2(3, 4),)


def test_descriptor_text_queries_match_api():
    pts = [Point2(x, 0) for x in range(10)]
    snap = snap_of(pts, eps=Fraction(1, 2))
    desc = parse_descriptor("quadrant:5,0", scale=1)
    assert approx_count(snap, desc).estimate == approx_count(snap, Quadrant(5, 0)).estimate


def _fraction_count(snap, desc):
    """Counting as one Fraction addition per contained point."""
    total = Fraction(0)
    for p, w in zip(snap.sample.points, snap.sample.weights):
        if desc.contains(p):
            total += w
    return min(max(total, Fraction(0)), Fraction(snap.n))


def _near(e_lo, e_hi, d_lo, d_hi):
    """Ints +-(2^e + d), e in [e_lo, e_hi], d in [d_lo, d_hi]."""
    return st.builds(lambda s, e, d: s * ((1 << e) + d), st.sampled_from((-1, 1)),
                     st.integers(e_lo, e_hi), st.integers(d_lo, d_hi))


# Coordinates: small ints, ints just inside +-2^30 (int64 columns either
# way), ints on both sides of it (dtype object), and Fractions (a snapshot
# file may carry them); one style per sample.
_small = st.integers(-6, 6)
_coord_styles = (_small, st.one_of(_small, _near(30, 30, -3, -1)),
                 st.one_of(_small, _near(30, 30, -3, 2)),
                 st.one_of(_small, st.fractions(min_value=-6, max_value=6, max_denominator=4)))
# Descriptor parameters: small ints, small Fractions, or small ints mixed
# with large ones: 2^32 to 2^62, which fit int64 but whose products with
# coordinates near 2^30 do not, or 2^70 and above (the CLI reads
# halfplane:1e400,0,0).
_param_styles = (st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=6),
                 st.one_of(_near(32, 62, -3, 3), st.integers(-9, 9)),
                 st.one_of(_near(70, 1400, -3, 3), st.integers(-9, 9)))
# Weights: small denominators, or with large ones mixed in, so that the
# scaled integer weights sum past 2^63.
_plain_weights = st.fractions(min_value=Fraction(1, 30), max_value=12, max_denominator=30)
_weight_styles = (_plain_weights,
                  st.one_of(_plain_weights,
                            st.builds(Fraction, st.integers(1, 1 << 40),
                                      st.sampled_from(((1 << 31) - 1, (1 << 61) - 1, 3 ** 40)))))


def _descriptor(draw, kind, v, pivot):
    """A ``kind`` descriptor with parameters drawn from ``v``; every boundary
    it draws passes through ``pivot`` unless that is None."""
    def offset(a):  # b with pivot on the line y = a*x + b
        return pivot.y - a * pivot.x if pivot is not None else draw(v)

    def halfplane():
        a, b = draw(st.tuples(v, v).filter(any))
        return Halfplane(a, b, a * pivot.x + b * pivot.y if pivot is not None else draw(v))

    def slab_params():
        a, b, w = draw(v), offset(draw(v)), abs(draw(v))
        return (a, b, b + w) if draw(st.booleans()) else (a, b - w, b)

    if kind is FamilyKind.HALFPLANE:
        return halfplane()
    if kind is FamilyKind.WEDGE:
        return Wedge(halfplane(), halfplane())
    if kind is FamilyKind.DOUBLE_WEDGE:
        return DoubleWedge(halfplane(), halfplane())
    if kind is FamilyKind.QUADRANT:
        return Quadrant(*(pivot if pivot is not None else (draw(v), draw(v))))
    if kind is FamilyKind.DISK:
        cx, cy = draw(v), draw(v)
        if pivot is not None:
            return Disk(cx, cy, (pivot.x - cx) ** 2 + (pivot.y - cy) ** 2)
        return Disk(cx, cy, draw(v) ** 2 + abs(draw(v)))
    if kind is FamilyKind.SLAB:
        return Slab(*slab_params())
    x1 = pivot.x if pivot is not None else draw(v)
    return VParallelogram(x1, x1 + abs(draw(v)), *slab_params())


def _snapshot(kind, pts, ws, n, eps=Fraction(1, 4)):
    return Snapshot(WeightedSample(tuple(pts), tuple(ws), sum(ws, Fraction(0)), Fraction(0)), n,
                    make_config(eps, kind))


@st.composite
def _weighted_queries(draw):
    kind = draw(st.sampled_from(list(FamilyKind)))
    c = draw(st.sampled_from(_coord_styles))
    pts = draw(st.lists(st.builds(Point2, c, c), min_size=1, max_size=24))
    ws = draw(st.lists(draw(st.sampled_from(_weight_styles)),
                       min_size=len(pts), max_size=len(pts)))
    total = sum(ws, Fraction(0))
    # n below, at and above the represented mass, so the clamp is exercised
    n = draw(st.integers(1, int(total) + 3))
    eps = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))))
    snap = _snapshot(kind, pts, ws, n, eps)
    theta = draw(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                              max_denominator=100))
    pivot = draw(st.one_of(st.none(), st.sampled_from(pts)))
    return snap, _descriptor(draw, kind, draw(st.sampled_from(_param_styles)), pivot), theta


# The largest coordinate an int64 column holds; products with parameters
# that fit int64 may still not.
_EDGE = (1 << 30) - 1


@settings(max_examples=500, deadline=None)
@given(query=_weighted_queries())
@example(query=(_snapshot(FamilyKind.HALFPLANE, [Point2(_EDGE, 0), Point2(5, 5)], [1, 1], 2),
                Halfplane((1 << 40) + 1, 0, 0), Fraction(1, 2)))
@example(query=(_snapshot(FamilyKind.DISK, [Point2(-_EDGE, 0), Point2(5, 5)], [1, 1], 2),
                Disk(1 << 31, 0, 1 << 62), Fraction(1, 2)))
@example(query=(_snapshot(FamilyKind.QUADRANT, [Point2(0, 0), Point2(1, 1)],
                          [Fraction(1, (1 << 61) - 1), Fraction(1, 3 ** 40)], 1),
                Quadrant(1, 1), Fraction(1, 2)))
def test_integer_weight_counts_match_fraction_sums(query):
    """Counts summed as integers over one denominator, on int64 or exact
    object columns, and the iceberg verdicts read off them, equal the
    per-point Fraction sums."""
    snap, desc, theta = query
    xs, ys, ws = snap.sample.columns
    if all(isinstance(v, int) and abs(v) < 1 << 30 for p in snap.sample.points for v in p):
        assert xs.dtype == ys.dtype == np.int64
        if all(isinstance(v, int) and abs(v) < 1 << 20 for v in descriptor_values(desc)):
            assert _fits_int64(desc)
    assert (ws.dtype == np.int64) is (sum(snap.sample.scaled_weights[0]) < 1 << 63)
    expected = _fraction_count(snap, desc)
    assert approx_count(snap, desc).estimate == expected
    frac = expected / snap.n
    verdict = (Verdict.ABOVE if frac >= theta + snap.eps
               else Verdict.BELOW if frac <= theta - snap.eps else Verdict.UNCERTAIN)
    assert iceberg_query(snap, desc, theta) is verdict

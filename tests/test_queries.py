from fractions import Fraction

import pytest
from hypothesis import given, settings
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
from epsstream.ranges import (
    Disk,
    DoubleWedge,
    Halfplane,
    Quadrant,
    Slab,
    VParallelogram,
    Wedge,
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


_q = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_halfplanes = st.builds(lambda normal, t: Halfplane(*normal, t), st.tuples(_q, _q).filter(any), _q)


_DESCRIPTORS = {
    FamilyKind.HALFPLANE: _halfplanes,
    FamilyKind.QUADRANT: st.builds(Quadrant, _q, _q),
    FamilyKind.WEDGE: st.builds(Wedge, _halfplanes, _halfplanes),
    FamilyKind.DOUBLE_WEDGE: st.builds(DoubleWedge, _halfplanes, _halfplanes),
    FamilyKind.DISK: st.builds(Disk, _q, _q, st.fractions(min_value=0, max_value=60,
                                                           max_denominator=6)),
    FamilyKind.SLAB: st.builds(lambda a, b: Slab(a, *sorted(b)), _q, st.tuples(_q, _q)),
    FamilyKind.VPARALLELOGRAM: st.builds(lambda x, a, b: VParallelogram(*sorted(x), a, *sorted(b)),
                                         st.tuples(_q, _q), _q, st.tuples(_q, _q)),
}


@st.composite
def _weighted_queries(draw):
    kind = draw(st.sampled_from(list(_DESCRIPTORS)))
    c = st.integers(-6, 6)
    pts = draw(st.lists(st.builds(Point2, c, c), min_size=1, max_size=24))
    ws = draw(st.lists(st.fractions(min_value=Fraction(1, 30), max_value=12, max_denominator=30),
                       min_size=len(pts), max_size=len(pts)))
    total = sum(ws, Fraction(0))
    # n below, at and above the represented mass, so the clamp is exercised
    n = draw(st.integers(1, int(total) + 3))
    eps = draw(st.sampled_from((Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))))
    snap = Snapshot(WeightedSample(tuple(pts), tuple(ws), total, Fraction(0)), n,
                    make_config(eps, kind))
    theta = draw(st.fractions(min_value=Fraction(1, 100), max_value=Fraction(99, 100),
                              max_denominator=100))
    return snap, draw(_DESCRIPTORS[kind]), theta


@settings(max_examples=300, deadline=None)
@given(query=_weighted_queries())
def test_integer_weight_counts_match_fraction_sums(query):
    """Counts summed as integers over one denominator, and the iceberg
    verdicts read off them, equal the per-point Fraction sums."""
    snap, desc, theta = query
    expected = _fraction_count(snap, desc)
    assert approx_count(snap, desc).estimate == expected
    frac = expected / snap.n
    verdict = (Verdict.ABOVE if frac >= theta + snap.eps
               else Verdict.BELOW if frac <= theta - snap.eps else Verdict.UNCERTAIN)
    assert iceberg_query(snap, desc, theta) is verdict

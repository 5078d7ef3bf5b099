import random
from fractions import Fraction

import pytest

from epsstream import FamilyKind, Point2, WeightedSample, family
from epsstream.errors import CapExceededError
from epsstream import oracles
from epsstream.oracles import (
    PrefixMirror,
    exact_count,
    exact_discrepancy,
    exact_lms_disk,
    exact_lms_slab,
    exact_regression_depth,
    exact_simplicial_depth,
    exact_slope_rank,
    exact_tukey_depth,
)
from epsstream.ranges import Halfplane, Quadrant, subsystem_oracle_masks
from streams import make_stream

HP = family(FamilyKind.HALFPLANE)
QUAD = family(FamilyKind.QUADRANT)


def test_exact_count_basics():
    assert exact_count(PrefixMirror([]), Quadrant(0, 0)) == 0
    pts = [Point2(x, y) for x in range(3) for y in range(3)]
    m = PrefixMirror(pts)
    assert exact_count(m, Quadrant(-5, -5)) == 9
    assert exact_count(m, Quadrant(1, 1)) == 4


def test_count_complement_consistency():
    pts = make_stream("uniform", 60, seed=1)
    m = PrefixMirror(pts)
    for t in (-100, 0, 500):
        a = exact_count(m, Halfplane(1, 0, t))
        b = exact_count(m, Halfplane(-1, 0, -t + 1))
        assert a + b == len(pts)


def test_tukey_depth_examples():
    square = PrefixMirror([Point2(1, 1), Point2(-1, 1), Point2(1, -1), Point2(-1, -1)])
    assert exact_tukey_depth(square, Point2(0, 0)) == Fraction(1, 2)
    tri = PrefixMirror([Point2(0, 0), Point2(3, 0), Point2(0, 3)])
    assert exact_tukey_depth(tri, Point2(1, 1)) == Fraction(1, 3)
    assert exact_tukey_depth(tri, Point2(9, 9)) == 0
    one = PrefixMirror([Point2(5, 5)])
    assert exact_tukey_depth(one, Point2(5, 5)) == 1


def test_tukey_depth_brute_force_agreement():
    # reference: minimize over halfplanes whose boundary passes through q and
    # one other point, evaluated by direct membership counting
    rng = random.Random(2)
    for _ in range(25):
        n = rng.randint(1, 12)
        pts = [Point2(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(n)]
        q = Point2(rng.randint(-6, 6), rng.randint(-6, 6))
        m = PrefixMirror(pts)
        got = exact_tukey_depth(m, q)
        best = None
        masks = subsystem_oracle_masks(HP, pts + [q])
        for mask in masks:
            if mask >> n & 1:  # halfplane contains q
                cnt = sum(1 for i in range(n) if mask >> i & 1)
                best = cnt if best is None else min(best, cnt)
        assert got == Fraction(best, n) if n else got == 1


def test_simplicial_examples():
    tri = PrefixMirror([Point2(0, 0), Point2(4, 0), Point2(0, 4)])
    assert exact_simplicial_depth(tri, Point2(1, 1)) == 1
    assert exact_simplicial_depth(tri, Point2(9, 9)) == 0
    with pytest.raises(ValueError):
        exact_simplicial_depth(PrefixMirror([Point2(0, 0)]), Point2(0, 0))


def test_simplicial_cap():
    pts = make_stream("uniform", 26, seed=3)
    with pytest.raises(CapExceededError):
        exact_simplicial_depth(PrefixMirror(pts), Point2(0, 0))


def test_regression_depth_examples():
    pts = PrefixMirror([Point2(0, 0), Point2(1, 1), Point2(2, 0), Point2(3, 1)])
    assert exact_regression_depth(pts, Fraction(0), Fraction(1, 2)) == Fraction(1, 4)
    above = PrefixMirror([Point2(0, 5), Point2(1, 6), Point2(2, 7)])
    assert exact_regression_depth(above, Fraction(0), Fraction(0)) == 0
    # points on the line must be swept through, except at the pivot column
    two = PrefixMirror([Point2(0, 0), Point2(2, 2)])
    assert exact_regression_depth(two, Fraction(1), Fraction(0)) == Fraction(1, 2)
    coll = PrefixMirror([Point2(i, i) for i in range(6)])
    assert exact_regression_depth(coll, Fraction(1), Fraction(0)) == Fraction(5, 6)


def test_slope_rank_examples():
    m = PrefixMirror([Point2(0, 1), Point2(1, 3), Point2(2, 5)])
    assert exact_slope_rank(m, Fraction(3)) == 1
    assert exact_slope_rank(m, Fraction(1)) == 0
    assert exact_slope_rank(m, Fraction(2)) == Fraction(1, 2)


def test_slope_rank_skips_coincident_pairs():
    m = PrefixMirror([Point2(0, 0), Point2(0, 0), Point2(1, 5)])
    # only the two pairs with distinct coordinates count
    assert exact_slope_rank(m, Fraction(10)) == 1


def test_lms_disk_examples():
    m = PrefixMirror([Point2(0, 0), Point2(1, 0), Point2(10, 0), Point2(11, 0)])
    (cx, cy), r2 = exact_lms_disk(m, Fraction(1, 2))
    assert r2 == Fraction(1, 4) and cy == 0 and cx in (Fraction(1, 2), Fraction(21, 2))
    (_, _), r2 = exact_lms_disk(m, Fraction(3, 4))
    assert r2 == 25
    one = PrefixMirror([Point2(7, 7)])
    (cx, cy), r2 = exact_lms_disk(one, Fraction(1))
    assert (cx, cy, r2) == (7, 7, 0)


def test_lms_slab_examples():
    pts = [Point2(0, 0), Point2(1, 1), Point2(2, 2), Point2(10, 50), Point2(11, -60)]
    a, b1, b2 = exact_lms_slab(PrefixMirror(pts), Fraction(3, 5))
    assert a == 1 and b1 == b2 == 0
    flat = [Point2(x, y) for x in (0, 1) for y in (0, 5)]
    a, b1, b2 = exact_lms_slab(PrefixMirror(flat), Fraction(1, 2))
    assert b2 - b1 == 0


def test_discrepancy_basics():
    g = WeightedSample.uniform([Point2(0, 0), Point2(1, 0)])
    assert exact_discrepancy(g, g, HP) == 0
    c = WeightedSample((Point2(0, 0),), (Fraction(2),), Fraction(2), Fraction(1))
    assert exact_discrepancy(g, c, HP) == Fraction(1, 2)


def test_discrepancy_matches_mask_enumeration():
    rng = random.Random(4)
    for fam in (HP, QUAD):
        for _ in range(12):
            n = rng.randint(2, 10)
            pts = [Point2(rng.randint(-8, 8), rng.randint(-8, 8)) for _ in range(n)]
            gw = [Fraction(rng.randint(1, 3)) for _ in range(n)]
            keep = rng.sample(range(n), max(1, n // 2))
            cw = [Fraction(rng.randint(1, 5)) for _ in keep]
            g = WeightedSample(tuple(pts), tuple(gw), sum(gw, Fraction(0)), Fraction(0))
            csum = sum(cw, Fraction(0))
            c = WeightedSample(tuple(pts[i] for i in keep), tuple(cw), csum, Fraction(1))
            got = exact_discrepancy(g, c, fam)
            # reference: enumerate induced subsets on the union support
            union = {}
            for p, w in zip(g.points, g.weights):
                union[p] = union.get(p, Fraction(0)) - w
            for p, w in zip(c.points, c.weights):
                union[p] = union.get(p, Fraction(0)) + w
            coords = sorted(union)
            want = Fraction(0)
            for mask in subsystem_oracle_masks(fam, coords):
                sval = sum(union[coords[i]] for i in range(len(coords)) if mask >> i & 1)
                want = max(want, abs(sval))
            assert got == want / g.total_weight


def _wide_points(rng, n):
    """n points near (+-2^29, +-2^29), some on shared lines, and some at the
    2^30 coordinate bound, where differences come within 2 of 2^31."""
    edge = (1 << 30) - 1
    pts = []
    while len(pts) < n:
        kind = rng.randrange(4)
        if kind == 3:
            pts.append(Point2(rng.choice((-edge, edge)), rng.randint(-edge, edge)))
        elif kind == 2 and pts:  # a collinear run through an earlier point
            base, t = rng.choice(pts), rng.randint(1, 3)
            dx, dy = rng.randint(-4, 4), rng.randint(-4, 4)
            cand = Point2(base.x + t * dx, base.y + t * dy)
            if max(abs(cand.x), abs(cand.y)) <= edge:
                pts.append(cand)
        else:
            pts.append(Point2(rng.choice((-1, 1)) * ((1 << 29) + rng.randint(-999, 999)),
                              rng.choice((-1, 1)) * ((1 << 29) + rng.randint(-999, 999))))
    return pts


def test_tukey_depth_int64_branch_matches_python_loop_near_2_29(monkeypatch):
    rng = random.Random(6)
    cases = []
    for _ in range(40):
        pts = _wide_points(rng, rng.randint(1, 12))
        q = rng.choice(pts + _wide_points(rng, 1))
        cases.append((PrefixMirror(pts), q, exact_tukey_depth(PrefixMirror(pts), q)))
    monkeypatch.setattr(oracles, "_TUKEY_NP_COMPONENT_BOUND", 0)  # the Python loop only
    for mirror, q, got in cases:
        assert exact_tukey_depth(mirror, q) == got


def test_halfplane_discrepancy_near_2_29_matches_mask_enumeration():
    rng = random.Random(7)
    for _ in range(12):
        pts = sorted(set(_wide_points(rng, rng.randint(3, 12))))
        ints = [rng.choice((-1, 1)) * rng.randint(1, 1 << 40) for _ in pts]
        want = 0
        for mask in subsystem_oracle_masks(HP, pts):
            want = max(want, abs(sum(d for i, d in enumerate(ints) if mask >> i & 1)))
        assert oracles._halfplane_discrepancy_scaled(pts, ints) == want
    with pytest.raises(CapExceededError):
        oracles._halfplane_discrepancy_scaled([Point2(0, 0), Point2(1 << 30, 0)], [1, -1])


def test_mirror_append():
    m = PrefixMirror()
    m.append(Point2(1, 2))
    assert len(m) == 1 and m.points[0] == Point2(1, 2)

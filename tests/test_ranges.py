import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsstream import (
    FamilyKind,
    Point2,
    Turn,
    canonical_ranges,
    contains,
    family,
    orient,
    parse_descriptor,
    parse_point,
    subsystem_oracle,
)
from epsstream.errors import FamilyMismatchError, StreamParseError
from epsstream.ranges import (
    Disk,
    DoubleWedge,
    Halfplane,
    Quadrant,
    Slab,
    VParallelogram,
    Wedge,
    format_descriptor,
    format_point,
    subsystem_oracle_masks,
)


def test_orient_examples():
    assert orient(Point2(0, 0), Point2(1, 0), Point2(0, 1)) is Turn.CCW
    assert orient(Point2(0, 0), Point2(1, 1), Point2(2, 2)) is Turn.COLLINEAR
    assert orient(Point2(0, 0), Point2(0, 1), Point2(1, 0)) is Turn.CW


def test_orient_matches_fraction_recomputation():
    rng = random.Random(1)
    for _ in range(200):
        p, q, r = (Point2(rng.randint(-10**9, 10**9), rng.randint(-10**9, 10**9))
                   for _ in range(3))
        exact = (Fraction(q.x - p.x) * (r.y - p.y)) - (Fraction(q.y - p.y) * (r.x - p.x))
        assert int(orient(p, q, r)) == (exact > 0) - (exact < 0)


def test_contains_examples():
    quad = family(FamilyKind.QUADRANT)
    assert contains(quad, Quadrant(0, 0), Point2(1, 1))
    hp = family(FamilyKind.HALFPLANE)
    assert contains(hp, Halfplane(1, 0, 0), Point2(0, 5))  # closed boundary
    disk = family(FamilyKind.DISK)
    assert not contains(disk, Disk(0, 0, 1), Point2(1, 1))


def test_contains_kind_mismatch():
    with pytest.raises(FamilyMismatchError):
        contains(family(FamilyKind.DISK), Halfplane(1, 0, 0), Point2(0, 0))


def test_halfplane_oracle_small_examples():
    hp = family(FamilyKind.HALFPLANE)
    general = [Point2(0, 0), Point2(4, 0), Point2(1, 3)]
    assert len(subsystem_oracle(hp, general)) == 8
    collinear = [Point2(0, 0), Point2(1, 1), Point2(2, 2)]
    got = subsystem_oracle(hp, collinear)
    # neither the middle point alone nor the outer pair is inducible
    assert (0, 2) not in got and (1,) not in got
    assert len(got) == 6


def test_quadrant_oracle_dominated_point():
    quad = family(FamilyKind.QUADRANT)
    got = subsystem_oracle(quad, [Point2(0, 0), Point2(1, 1)])
    assert set(got) == {(), (1,), (0, 1)}


def test_oracle_includes_empty_and_full():
    rng = random.Random(2)
    for kind in FamilyKind:
        pts = [Point2(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(5)]
        masks = subsystem_oracle_masks(family(kind), pts)
        assert 0 in masks and (1 << 5) - 1 in masks


@pytest.mark.parametrize("kind,max_m", [
    (FamilyKind.HALFPLANE, 12),
    (FamilyKind.QUADRANT, 12),
    (FamilyKind.DISK, 8),
    (FamilyKind.SLAB, 7),
    (FamilyKind.WEDGE, 7),
    (FamilyKind.DOUBLE_WEDGE, 7),
    (FamilyKind.VPARALLELOGRAM, 6),
])
def test_oracle_equals_canonical_dedupe(kind, max_m):
    """The oracle must equal deduplicated membership over canonical ranges."""
    fam = family(kind)
    rng = random.Random(hash(kind.value) & 0xFFFF)
    for trial in range(6):
        m = rng.randint(1, max_m)
        pts = [Point2(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(m)]
        via_canonical = set()
        for desc in canonical_ranges(fam, pts):
            mask = 0
            for i, p in enumerate(pts):
                if desc.contains(p):
                    mask |= 1 << i
            via_canonical.add(mask)
        via_canonical.add(0)
        via_canonical.add((1 << m) - 1)
        assert subsystem_oracle_masks(fam, pts) == via_canonical


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_oracle_monotone_consistency(kind):
    fam = family(kind)
    rng = random.Random(hash(kind.value) & 0xFF)
    for trial in range(4):
        m = rng.randint(2, 6)
        pts = [Point2(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(m)]
        keep = sorted(rng.sample(range(m), rng.randint(1, m)))
        sub = [pts[i] for i in keep]
        big = subsystem_oracle_masks(fam, pts)
        restricted = set()
        for mask in big:
            r = 0
            for new_i, old_i in enumerate(keep):
                if mask >> old_i & 1:
                    r |= 1 << new_i
            restricted.add(r)
        assert subsystem_oracle_masks(fam, sub) <= restricted


def test_halfplane_shatter_growth():
    hp = family(FamilyKind.HALFPLANE)
    rng = random.Random(7)
    for m in range(4, 13):
        # general position via random perturbation retries
        while True:
            pts = [Point2(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(m)]
            if len({(p.x, p.y) for p in pts}) == m:
                break
        assert len(subsystem_oracle_masks(hp, pts)) <= 2 * m * m


def test_point_parsing_and_scaling():
    p = parse_point("0.5,-2", scale=1 << 20)
    assert p == Point2(1 << 19, -(1 << 21))
    assert format_point(p, 1 << 20) == "1/2,-2"
    with pytest.raises(StreamParseError):
        parse_point("nope", 1 << 20)
    with pytest.raises(StreamParseError):
        parse_point("1;2", 1 << 20)


def test_descriptor_round_trip():
    for text, kind in [
        ("halfplane:1,-2,3", FamilyKind.HALFPLANE),
        ("quadrant:1/2,0", FamilyKind.QUADRANT),
        ("disk:0,0,25", FamilyKind.DISK),
        ("slab:1,-1,1", FamilyKind.SLAB),
        ("vpar:0,4,1/2,-1,1", FamilyKind.VPARALLELOGRAM),
        ("wedge:1,0,0,0,1,0", FamilyKind.WEDGE),
        ("dwedge:1,0,0,0,1,0", FamilyKind.DOUBLE_WEDGE),
    ]:
        desc = parse_descriptor(text, scale=1)
        assert desc.kind is kind
        assert parse_descriptor(format_descriptor(desc), scale=1) == desc


def test_descriptor_scaling():
    d = parse_descriptor("quadrant:1,2", scale=4)
    assert d == Quadrant(4, 8)
    s = parse_descriptor("slab:3,-1,1", scale=4)
    assert s == Slab(3, -4, 4)
    k = parse_descriptor("disk:0,0,2", scale=4)
    assert k.r2 == 32


def test_descriptor_validation():
    with pytest.raises(ValueError):
        Slab(1, 2, 1)
    with pytest.raises(ValueError):
        Disk(0, 0, -1)
    with pytest.raises(StreamParseError):
        parse_descriptor("blob:1,2", 1)


# Tokens for near-miss text: numbers, broken numbers, separators and junk.
_TOKENS = st.sampled_from(("0", "1", "-3", "1/2", "0.25", "1e3", "-1e-2", "1/0", "0/0", "abc",
                           "", " ", "--1", "1/", "/2", "1.2.3", "nan", "inf", "1_000", "\u0661",
                           "x", ":", ";", "\n"))
_KINDS = st.sampled_from([k.value for k in FamilyKind] + ["", "blob", "HALFPLANE", " disk"])


def _rejects_only_as_parse_errors(parse, text):
    try:
        parse(text)
    except StreamParseError:
        pass


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(max_size=40),
                      st.lists(_TOKENS, max_size=4).map(",".join)))
def test_malformed_point_raises_only_parse_errors(text):
    _rejects_only_as_parse_errors(lambda t: parse_point(t, 1 << 20), text)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(max_size=40),
    st.builds(lambda kind, sep, vals: kind + sep + ",".join(vals),
              _KINDS, st.sampled_from((":", "", "::", " : ")), st.lists(_TOKENS, max_size=7))))
def test_malformed_descriptor_raises_only_parse_errors(text):
    _rejects_only_as_parse_errors(lambda t: parse_descriptor(t, 3), text)


@settings(max_examples=200, deadline=None)
@given(x=st.integers(-(1 << 70), 1 << 70), y=st.integers(-(1 << 70), 1 << 70),
       scale=st.sampled_from((1, 2, 3, 10, 1 << 20)))
def test_point_format_parse_round_trip(x, y, scale):
    p = Point2(x, y)
    assert parse_point(format_point(p, scale), scale) == p


_VALUES = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(min_value=-1000, max_value=1000, max_denominator=50))


def _exact(v):
    return v.numerator if isinstance(v, Fraction) and v.denominator == 1 else v


def _halfplanes():
    return st.tuples(_VALUES, _VALUES, _VALUES).filter(lambda v: v[0] or v[1]).map(
        lambda v: Halfplane(*map(_exact, v)))


@st.composite
def _descriptors(draw):
    v = lambda: _exact(draw(_VALUES))  # noqa: E731
    lo_hi = lambda: tuple(sorted((v(), v())))  # noqa: E731
    kind = draw(st.sampled_from(list(FamilyKind)))
    if kind is FamilyKind.HALFPLANE:
        return draw(_halfplanes())
    if kind is FamilyKind.QUADRANT:
        return Quadrant(v(), v())
    if kind is FamilyKind.DISK:
        return Disk(v(), v(), abs(v()))
    if kind is FamilyKind.SLAB:
        return Slab(v(), *lo_hi())
    if kind is FamilyKind.VPARALLELOGRAM:
        (x1, x2), a, (b1, b2) = lo_hi(), v(), lo_hi()
        return VParallelogram(x1, x2, a, b1, b2)
    pair = (draw(_halfplanes()), draw(_halfplanes()))
    return Wedge(*pair) if kind is FamilyKind.WEDGE else DoubleWedge(*pair)


@settings(max_examples=200, deadline=None)
@given(desc=_descriptors())
def test_descriptor_format_parse_round_trip(desc):
    assert parse_descriptor(format_descriptor(desc), scale=1) == desc

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsstream import (
    FamilyKind,
    Point2,
    WeightedSample,
    family,
    halve,
    low_discrepancy_coloring,
    static_eps_approx,
    verify_approximation,
    weighted_eps_approx,
)
from epsstream import rangesums
from epsstream.rangesums import halfplane_subset_masks, membership_matrix
from epsstream import sampler
from epsstream.sampler import (
    _COSH_CAP,
    _class_error_deltas,
    _grid_columns,
    _guidance_masks,
    _hilbert_keys,
    _paired_coloring,
    collapse_duplicates,
    sample_from_json,
    sample_to_json,
    singleton_error_bound,
)
from streams import STYLES, make_stream

HP = family(FamilyKind.HALFPLANE)
QUAD = family(FamilyKind.QUADRANT)


def uniform(points):
    return WeightedSample.uniform(sorted(points))


def _potential_bound(sample, n_ranges):
    """The conditional-expectations guarantee sqrt(2 * W2 * ln(2R)) that
    ``low_discrepancy_coloring`` documents."""
    w2 = float(sum(w * w for w in sample.weights))
    return math.sqrt(2.0 * w2 * math.log(2.0 * max(2, n_ranges)))


class TestColoring:
    def test_two_points_pair_up(self):
        s = WeightedSample.uniform([Point2(0, 0), Point2(5, 5)])
        col = low_discrepancy_coloring(s, [(0, 1)])
        assert sorted(col.signs) == [-1, 1]

    def test_collinear_prefixes_within_two(self):
        pts = [Point2(i, 0) for i in range(4)]
        s = WeightedSample.uniform(pts)
        masks = halfplane_subset_masks(pts)
        col = low_discrepancy_coloring(s, masks)
        worst = max(abs(sum(col.signs[i] for i in range(4) if m >> i & 1)) for m in masks)
        assert worst <= 2

    def test_weight_balance_with_heavy_point(self):
        pts = tuple(Point2(i, i * i) for i in range(6))
        s = WeightedSample(pts, (Fraction(1),) * 5 + (Fraction(5),), Fraction(10), Fraction(0))
        col = low_discrepancy_coloring(s, halfplane_subset_masks(pts))
        balance = sum(w if sg == 1 else -w for w, sg in zip(s.weights, col.signs))
        assert abs(balance) <= 5

    def test_potential_bound_holds(self):
        rng = random.Random(4)
        for _ in range(12):
            m = rng.randint(2, 14)
            pts = [Point2(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(m)]
            ws = tuple(Fraction(rng.randint(1, 6)) for _ in range(m))
            s = WeightedSample(tuple(pts), ws, sum(ws, Fraction(0)), Fraction(0))
            masks = halfplane_subset_masks(pts)
            col = low_discrepancy_coloring(s, masks)
            bound = _potential_bound(s, len(masks))
            for mask in masks:
                signed = sum(col.signs[i] * ws[i] for i in range(m) if mask >> i & 1)
                assert abs(float(signed)) <= bound + 1e-9

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            low_discrepancy_coloring(WeightedSample.uniform([Point2(0, 0)]), [])


def _reference_coloring(sample, ranges):
    """The coloring as first written, decoding each range mask bit by bit."""
    m = len(sample)
    masks = []
    for r in ranges:
        mask = r if isinstance(r, int) else sum(1 << i for i in set(r))
        masks.append(mask)
    point_ranges = [[] for _ in range(m)]
    for rid, mask in enumerate(masks):
        i = 0
        while mask:
            if mask & 1:
                point_ranges[i].append(rid)
            mask >>= 1
            i += 1
    w2 = float(sum(w * w for w in sample.weights))
    lam = math.sqrt(2.0 * math.log(2.0 * max(1, len(masks))) / w2)
    d = np.zeros(len(masks), dtype=np.float64)
    order = sorted(range(m), key=lambda i: (-sample.weights[i], sample.points[i], i))
    signs = [0] * m
    max_w = max(sample.weights)
    total_after = sum(sample.weights, Fraction(0))
    running = Fraction(0)
    for i in order:
        w = sample.weights[i]
        total_after -= w
        ids = point_ranges[i]
        prefer = 1
        if ids:
            cur = d[ids]
            up = np.cosh(np.clip(lam * (cur + float(w)), -_COSH_CAP, _COSH_CAP)).sum()
            down = np.cosh(np.clip(lam * (cur - float(w)), -_COSH_CAP, _COSH_CAP)).sum()
            prefer = 1 if up <= down else -1
        limit = total_after + max_w
        sign = prefer
        if abs(running + sign * w) > limit:
            sign = -prefer
            if abs(running + sign * w) > limit:
                sign = -1 if running > 0 else 1
        signs[i] = sign
        running += sign * w
        if ids:
            d[ids] += sign * float(w)
    return tuple(signs)


def _fraction_coloring(sample, ranges):
    """The coloring loop as it read the weights as Fractions: W2 summed over
    Fraction squares, one float per weight per point, and np.clip."""
    m = len(sample)
    masks = [r if isinstance(r, int) else sum(1 << i for i in set(r)) for r in ranges]
    member = membership_matrix(masks, m).view(bool)
    w2 = float(sum(w * w for w in sample.weights))
    lam = math.sqrt(2.0 * math.log(2.0 * max(1, len(masks))) / w2) if w2 > 0 else 1.0
    d = np.zeros(len(masks), dtype=np.float64)
    ints, _ = sample.scaled_weights
    order = sorted(range(m), key=lambda i: (-ints[i], sample.points[i], i))
    signs = [0] * m
    max_w, total_after, running = max(ints), sum(ints), 0
    step = np.empty((2, 1))
    for i in order:
        w = ints[i]
        total_after -= w
        ids = member[i].nonzero()[0]
        prefer = 1
        if ids.size:
            cur = d[ids]
            g = float(sample.weights[i])
            step[0, 0], step[1, 0] = g, -g
            pot = cur + step
            pot *= lam
            np.clip(pot, -_COSH_CAP, _COSH_CAP, out=pot)
            np.cosh(pot, out=pot)
            up, down = pot.sum(axis=1)
            prefer = 1 if up <= down else -1
        limit = total_after + max_w
        sign = prefer
        if abs(running + sign * w) > limit:
            sign = -prefer
            if abs(running + sign * w) > limit:
                sign = -1 if running > 0 else 1
        signs[i] = sign
        running += sign * w
        if ids.size:
            d[ids] = cur + sign * g
    return tuple(signs)


_MIXED_WEIGHTS = st.one_of(
    st.fractions(min_value=Fraction(1, 97), max_value=40, max_denominator=97),
    st.sampled_from([Fraction(1, (1 << 61) - 1), Fraction(5, 3), Fraction(10 ** 30, 7),
                     Fraction(2, 10 ** 20 + 39), Fraction(1)]))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(2, 40))
def test_coloring_reads_the_integer_column_like_the_fraction_loop(data, m):
    """Mixed Fraction weights, some with far denominators or numerators:
    W2 and each weight's float, taken from the integer column, and the
    np.maximum/np.minimum clamp give the same signs."""
    pts = tuple(Point2(data.draw(st.integers(-6, 6)), data.draw(st.integers(-6, 6)))
                for _ in range(m))
    ws = tuple(data.draw(st.lists(_MIXED_WEIGHTS, min_size=m, max_size=m)))
    sample = WeightedSample(pts, ws, sum(ws, Fraction(0)), Fraction(0))
    ranges = halfplane_subset_masks(pts)
    assert low_discrepancy_coloring(sample, ranges).signs == _fraction_coloring(sample, ranges)


@st.composite
def _colorings(draw):
    """A weighted sample of m points and ranges over it: random masks, the
    empty and the full mask, and index iterables of several kinds."""
    m = draw(st.integers(2, 90))
    pts = tuple(Point2(draw(st.integers(-5, 5)), draw(st.integers(-5, 5))) for _ in range(m))
    ws = tuple(Fraction(draw(st.integers(1, 6)), draw(st.integers(1, 3))) for _ in range(m))
    sample = WeightedSample(pts, ws, sum(ws, Fraction(0)), Fraction(0))
    mask = st.integers(0, (1 << m) - 1)
    index_set = st.sets(st.integers(0, m - 1), max_size=m)
    as_iterable = st.sampled_from((list, tuple, set, lambda ix: sorted(ix, reverse=True)))
    ranges = draw(st.lists(st.one_of(mask, st.builds(lambda f, ix: f(ix), as_iterable, index_set)),
                           max_size=40))
    ranges += [0, (1 << m) - 1, range(m // 2)]
    draw(st.randoms()).shuffle(ranges)
    return sample, ranges


class TestColoringDecode:
    @settings(max_examples=150, deadline=None)
    @given(case=_colorings())
    def test_matches_bit_by_bit_reference(self, case):
        sample, ranges = case
        assert low_discrepancy_coloring(sample, ranges).signs == _reference_coloring(sample, ranges)

    @pytest.mark.parametrize("style", STYLES)
    def test_matches_reference_on_prefix_guidance(self, style):
        s = uniform(make_stream(style, 100, seed=5))
        for kind in FamilyKind:
            masks = _guidance_masks(kind, s.points)
            assert low_discrepancy_coloring(s, masks).signs == _reference_coloring(s, masks)

    @pytest.mark.parametrize("style", STYLES)
    def test_matches_reference_on_weighted_prefix_guidance(self, style):
        # non-dyadic weights, and rows of far more than numpy's 128-element
        # pairwise-sum block, so every cosh sum takes the blocked path
        pts = sorted(make_stream(style, 300, seed=5))
        ws = tuple(Fraction(1, 3) if i % 3 else Fraction(2, 7) for i in range(len(pts)))
        s = WeightedSample(tuple(pts), ws, sum(ws, Fraction(0)), Fraction(0))
        for kind in FamilyKind:
            masks = _guidance_masks(kind, s.points)
            assert low_discrepancy_coloring(s, masks).signs == _reference_coloring(s, masks)

    def test_membership_rows_are_contiguous(self):
        # each coloring step reads one row; a strided row would be copied
        member = membership_matrix([0b1011, 0b0110, 0b1111], 4)
        assert member.shape == (4, 3) and member.flags.c_contiguous
        assert member.tolist() == [[1, 0, 1], [1, 1, 1], [0, 1, 1], [1, 0, 1]]

    @pytest.mark.parametrize("bad", [1 << 10, (1 << 11) - 1, [3, 10], -1])
    def test_rejects_range_outside_the_points(self, bad):
        s = WeightedSample.uniform([Point2(i, i * i) for i in range(10)])
        with pytest.raises(ValueError):
            low_discrepancy_coloring(s, [1, bad])


class TestHalve:
    def test_duplicate_pair_is_free(self):
        s = WeightedSample.uniform([Point2(3, 3), Point2(3, 3)])
        out, err = halve(s, HP)
        assert len(out) == 1 and out.weights[0] == 2 and err == 0

    def test_four_collinear(self):
        s = WeightedSample.uniform([Point2(0, 0), Point2(1, 0), Point2(2, 0), Point2(3, 0)])
        out, err = halve(s, HP)
        assert err <= Fraction(1, 4)
        assert out.total_weight == 4
        assert len(out) <= 3

    def test_error_composes_into_eps_bound(self):
        s = WeightedSample.uniform([Point2(i, i % 3) for i in range(8)])
        base = WeightedSample(s.points, s.weights, s.total_weight, Fraction(1, 10))
        out, err = halve(base, HP)
        assert out.eps_bound == Fraction(1, 10) + err

    def test_size_cap(self):
        rng = random.Random(8)
        for m in (5, 9, 16):
            pts = [Point2(rng.randint(-40, 40), rng.randint(-40, 40)) for _ in range(m)]
            out, _ = halve(WeightedSample.uniform(pts), HP)
            assert len(out) <= (m + 1) // 2 + 1

    def test_weight_conservation_exact(self):
        rng = random.Random(9)
        pts = [Point2(rng.randint(-99, 99), rng.randint(-99, 99)) for _ in range(11)]
        ws = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(11))
        s = WeightedSample(tuple(pts), ws, sum(ws, Fraction(0)), Fraction(0))
        out, _ = halve(s, HP)
        assert out.total_weight == s.total_weight
        assert sum(out.weights, Fraction(0)) == s.total_weight


def _reference_class_deltas(signs, scaled, keep_sign):
    """The kept-class error deltas as first written, one list per kept class."""
    total = sum(scaled)
    kept_mass = sum(g for g, s in zip(scaled, signs) if s == keep_sign)
    deltas = [total * g - kept_mass * g if s == keep_sign else -kept_mass * g
              for g, s in zip(scaled, signs)]
    return deltas, kept_mass, total


def _reference_morton(x, y):
    """z-order key as first written: interleave bits, x's bit b at 2b."""
    out = 0
    bit = 0
    while x or y:
        out |= (x & 1) << (2 * bit)
        out |= (y & 1) << (2 * bit + 1)
        x >>= 1
        y >>= 1
        bit += 1
    return out


def _reference_hilbert(order, x, y):
    """Hilbert index of (x, y) on the 2^order grid: the textbook xy2d loop."""
    n = 1 << order
    d = 0
    s = n >> 1
    while s:
        rx = 1 if x & s else 0
        ry = 1 if y & s else 0
        d += s * s * ((3 * rx) ^ ry)
        if ry == 0:
            if rx == 1:
                x, y = n - 1 - x, n - 1 - y
            x, y = y, x
        s >>= 1
    return d


def _reference_curve_keys(sample, kind):
    """Each curve's keys, point by point: coordinates scaled by the lcm of
    their denominators and shifted to start at 0."""
    scale = math.lcm(*(Fraction(c).denominator for p in sample.points for c in p))
    xs = [int(p.x * scale) for p in sample.points]
    ys = [int(p.y * scale) for p in sample.points]
    x0, y0 = min(xs), min(ys)
    gx = [x - x0 for x in xs]
    gy = [y - y0 for y in ys]
    keys = [[_reference_morton(x, y) for x, y in zip(gx, gy)]]
    if kind is FamilyKind.HALFPLANE:
        order = max(gx + gy).bit_length()
        top = (1 << order) - 1
        for frame in (lambda x, y: (x, y), lambda x, y: (y, x),
                      lambda x, y: (x, top - y), lambda x, y: (y, top - x)):
            keys.append([_reference_hilbert(order, *frame(x, y)) for x, y in zip(gx, gy)])
    return [np.array(k, dtype=object) for k in keys]


def _reference_halve(sample, fam):
    """``halve`` as first written: one measured delta list per coloring and
    admissible kept class.  Halfplanes take the z-order pairing and the
    Hilbert pairings in the curve's four orientations; every other family
    the cosh-guided coloring and the z-order pairing."""
    m = len(sample)
    colorings = [_paired_coloring(sample, key) for key in _reference_curve_keys(sample, fam.kind)]
    if fam.kind is not FamilyKind.HALFPLANE:
        colorings.insert(0, low_discrepancy_coloring(sample, _guidance_masks(fam.kind, sample.points)))
    scaled, _ = sample.scaled_weights
    size_cap = (m + 1) // 2 + 1
    candidates, metas = [], []
    for ci, col in enumerate(colorings):
        for keep in (1, -1):
            size = sum(1 for s in col.signs if s == keep)
            if size == 0 or size > size_cap:
                continue
            deltas, kept_mass, total = _reference_class_deltas(col.signs, scaled, keep)
            candidates.append(deltas)
            metas.append((ci, keep, kept_mass, total, col))
    maxima = rangesums.max_range_sums(fam.kind, sample.points, candidates)
    best = None
    for (ci, keep, kept_mass, total, col), mx in zip(metas, maxima):
        err = Fraction(mx, kept_mass * total)
        key = (err, ci, -keep)
        if best is None or key < best[0]:
            best = (key, keep, kept_mass, col, err)
    _, keep, kept_mass, col, err = best
    factor = Fraction(sum(scaled), kept_mass)
    pts = tuple(p for p, s in zip(sample.points, col.signs) if s == keep)
    ws = tuple(w * factor for w, s in zip(sample.weights, col.signs) if s == keep)
    return WeightedSample(pts, ws, sample.total_weight, sample.eps_bound + err), err


def _halve_cases():
    """Samples for comparing ``halve`` with its reference: unit and
    non-dyadic weights, coincident points, and a heavy point that leaves
    only one class of admissible size."""
    cases = {}
    for style in ("uniform", "duplicates"):
        pts = tuple(make_stream(style, 20, seed=3))
        cases[f"{style}-unit"] = WeightedSample.uniform(pts, Fraction(1, 50))
        ws = tuple(Fraction(1, 3) if i % 2 else Fraction(2, 7) for i in range(len(pts)))
        cases[f"{style}-weighted"] = WeightedSample(pts, ws, sum(ws, Fraction(0)), Fraction(0))
    pts = tuple(Point2(5 * i, (i * i) % 11) for i in range(9))
    ws = (Fraction(40),) + (Fraction(1, 3),) * 8
    cases["heavy"] = WeightedSample(pts, ws, sum(ws, Fraction(0)), Fraction(0))
    cases["pair"] = WeightedSample((Point2(0, 0), Point2(1, 1)), (Fraction(1), Fraction(3)),
                                   Fraction(4), Fraction(0))
    return cases


_HALVE_CASES = _halve_cases()


class TestOneMeasurementPerColoring:
    @settings(max_examples=200, deadline=None)
    @given(signs=st.lists(st.sampled_from((1, -1)), min_size=1, max_size=30),
           weights=st.lists(st.integers(1, 10 ** 6), min_size=30, max_size=30))
    def test_minus_class_deltas_are_the_plus_deltas_negated(self, signs, weights):
        scaled = weights[:len(signs)]
        plus, plus_mass, total = _reference_class_deltas(signs, scaled, 1)
        minus, minus_mass, _ = _reference_class_deltas(signs, scaled, -1)
        assert minus == [-v for v in plus]
        assert minus_mass == total - plus_mass
        assert _class_error_deltas(signs, scaled) == (plus, plus_mass, total)

    def test_heavy_case_has_one_admissible_class(self):
        s = _HALVE_CASES["heavy"]
        col = low_discrepancy_coloring(s, _guidance_masks(FamilyKind.HALFPLANE, s.points))
        sizes = sorted((col.signs.count(1), col.signs.count(-1)))
        assert sizes[1] > (len(s) + 1) // 2 + 1

    @pytest.mark.parametrize("kind", list(FamilyKind))
    @pytest.mark.parametrize("case", sorted(_HALVE_CASES))
    def test_halve_equals_four_list_reference(self, kind, case, monkeypatch):
        sample, fam = _HALVE_CASES[case], family(kind)
        want = _reference_halve(sample, fam)
        measured = []
        real = rangesums.max_range_sums

        def counting(kind_, pts, lists):
            measured.append(len(lists))
            return real(kind_, pts, lists)

        monkeypatch.setattr(rangesums, "max_range_sums", counting)
        got = halve(sample, fam)
        assert got == want
        assert got[0].eps_bound == sample.eps_bound + got[1]
        assert measured == [5 if kind is FamilyKind.HALFPLANE else 2]


@st.composite
def _grids(draw):
    """Every point of a 2^k x 2^k grid, in shuffled order, as uint64 or as
    Python-int columns."""
    k = draw(st.integers(0, 6))
    cells = [(x, y) for x in range(1 << k) for y in range(1 << k)]
    draw(st.randoms()).shuffle(cells)
    dtype = draw(st.sampled_from((np.uint64, object)))
    return k, np.array([x for x, _ in cells], dtype=dtype), np.array([y for _, y in cells], dtype=dtype)


@st.composite
def _curve_samples(draw):
    """Points with coordinates up to 2^bits over a small denominator: int64
    columns (bits <= 29), wide and huge Python ints, and Fractions."""
    bits = draw(st.sampled_from((3, 29, 31, 40, 90)))
    den = draw(st.integers(1, 3))
    coord = st.integers(-(1 << bits), 1 << bits).map(lambda v: Fraction(v, den)).map(
        lambda f: f.numerator if f.denominator == 1 else f)
    pts = draw(st.lists(st.builds(Point2, coord, coord), min_size=2, max_size=12))
    return WeightedSample.uniform(pts)


class TestCurveKeys:
    @settings(max_examples=60, deadline=None)
    @given(grid=_grids())
    def test_hilbert_key_walks_the_grid_by_unit_steps(self, grid):
        k, gx, gy = grid
        keys = [int(v) for v in _hilbert_keys(gx, gy)]
        assert sorted(keys) == list(range(1 << 2 * k))
        walk = sorted(zip(keys, gx.tolist(), gy.tolist()))
        for (_, x0, y0), (_, x1, y1) in zip(walk, walk[1:]):
            assert abs(x1 - x0) + abs(y1 - y0) == 1

    @settings(max_examples=100, deadline=None)
    @given(sample=_curve_samples())
    def test_keys_match_the_scalar_references(self, sample):
        got = sampler._curve_keys(sample, FamilyKind.HALFPLANE)
        want = _reference_curve_keys(sample, FamilyKind.HALFPLANE)
        assert [[int(v) for v in k] for k in got] == [k.tolist() for k in want]

    def test_int64_columns_key_in_uint64(self):
        lim = rangesums._NP_COORD_LIMIT - 1
        sample = WeightedSample.uniform([Point2(-lim, lim), Point2(lim, -lim), Point2(0, 0)])
        gx, gy = _grid_columns(sample)
        assert gx.dtype == gy.dtype == np.uint64
        assert all(int(k.max()) < 1 << 64 for k in sampler._curve_keys(sample, FamilyKind.HALFPLANE))


def _halfplane_pairing_cases():
    """Halfplane samples that stress the pairings: a heavy point, all-distinct
    geometric weights (every point a leftover), duplicates, Fraction
    coordinates and coordinates near 2^29."""
    pts = tuple(Point2(7 * i, (i * i) % 13) for i in range(12))
    near = 1 << 29
    return {
        "heavy": _HALVE_CASES["heavy"],
        "geometric": WeightedSample(pts, tuple(Fraction(1, 2 ** i) for i in range(12)),
                                    Fraction(2 ** 12 - 1, 2 ** 11), Fraction(0)),
        "duplicates": WeightedSample.uniform(pts[:5] * 3),
        "fractions": WeightedSample.uniform(
            [Point2(Fraction(i, 3), Fraction(i * i % 7, 5)) for i in range(10)]
            + [Point2(Fraction(1, 2), 2), Point2(4, Fraction(-9, 4))]),
        "near-2^29": WeightedSample.uniform(
            [Point2(near - 1 - 3 * i, -near + 1 + (i * i) % 17) for i in range(10)]
            + [Point2(-near + 1, near - 1)]),
    }


class TestHalfplanePairings:
    @pytest.mark.parametrize("case", sorted(_halfplane_pairing_cases()))
    def test_halving_without_the_cosh_coloring(self, case, monkeypatch):
        sample = _halfplane_pairing_cases()[case]

        def forbidden(*args, **kwargs):
            raise AssertionError("the halfplane path ran the cosh coloring")

        monkeypatch.setattr(sampler, "low_discrepancy_coloring", forbidden)
        monkeypatch.setattr(sampler, "_guidance_masks", forbidden)
        out, err = halve(sample, HP)
        m = len(sample)
        assert 0 < len(out) <= (m + 1) // 2 + 1
        assert set(out.points) <= set(sample.points)
        assert out.total_weight == sample.total_weight == sum(out.weights, Fraction(0))
        assert out.eps_bound == sample.eps_bound + err
        assert verify_approximation(sample, out, HP, err)


def _weighted_samples():
    """Small weighted samples rich in ties: a coarse grid (tied x and y)
    or a line (collinear), unequal Fraction weights, duplicates collapsed."""
    grid = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    line = st.builds(lambda t, a: (t, a * t + 1), st.integers(-4, 4), st.sampled_from((0, 1, -2)))
    weight = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    point = st.one_of(grid, line)

    def build(rows):
        pts = tuple(Point2(x, y) for (x, y), _ in rows)
        ws = tuple(w for _, w in rows)
        return collapse_duplicates(WeightedSample(pts, ws, sum(ws, Fraction(0)), Fraction(0)))

    return st.lists(st.tuples(point, weight), min_size=2, max_size=9).map(build).filter(
        lambda s: len(s) >= 2)


class TestSingletonErrorBound:
    @pytest.mark.parametrize("kind", list(FamilyKind))
    @settings(max_examples=100, deadline=None)
    @given(sample=_weighted_samples())
    def test_bound_below_measured_halving_error(self, kind, sample):
        bound = singleton_error_bound(sample)
        assert 0 < bound <= halve(sample, family(kind))[1]

    def test_equal_weights_near_one_over_m(self):
        s = WeightedSample.uniform([Point2(i, (i * i) % 5) for i in range(8)])
        # T = 8, M_max = min(7, 5) = 5: 1/5 - 1/8 = 3/40
        assert singleton_error_bound(s) == Fraction(3, 40)

    def test_tight_on_two_points(self):
        s = WeightedSample((Point2(0, 0), Point2(1, 1)), (Fraction(1), Fraction(3)),
                           Fraction(4), Fraction(0))
        # keep (1, 1) at weight 4: it errs by 1/4 on either singleton
        for kind in FamilyKind:
            assert singleton_error_bound(s) == halve(s, family(kind))[1] == Fraction(1, 4)

    def test_coincident_top_point_gives_no_bound(self):
        # the pair splits its own singleton range evenly, so halving is free
        s = WeightedSample.uniform([Point2(3, 3), Point2(3, 3)])
        assert singleton_error_bound(s) == 0
        assert halve(s, HP)[1] == 0


class TestApprox:
    def test_eps_one_single_point(self):
        pts = [Point2(9, 9), Point2(1, 2), Point2(3, 4)]
        a = static_eps_approx(pts, HP, Fraction(1))
        assert len(a) == 1 and a.total_weight == 3

    def test_eps_zero_rejected(self):
        with pytest.raises(ValueError):
            static_eps_approx([Point2(0, 0)], HP, Fraction(0))

    def test_eight_on_a_line(self):
        pts = [Point2(i, 0) for i in range(8)]
        a = static_eps_approx(pts, HP, Fraction(1, 4))
        assert verify_approximation(uniform(pts), a, HP, Fraction(1, 4))
        assert a.eps_bound <= Fraction(1, 4)

    @pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
    @pytest.mark.parametrize("style", STYLES)
    def test_certified_grid(self, eps, style):
        for fam in (HP, QUAD):
            pts = make_stream(style, 48, seed=3)
            a = static_eps_approx(pts, fam, eps)
            assert verify_approximation(uniform(pts), a, fam, eps)

    def test_composition(self):
        pts = make_stream("uniform", 32, seed=5)
        first = static_eps_approx(pts, HP, Fraction(1, 4))
        second = weighted_eps_approx(first, HP, Fraction(1, 4))
        assert verify_approximation(uniform(pts), second, HP,
                                    first.eps_bound + (second.eps_bound - first.eps_bound))
        assert verify_approximation(uniform(pts), second, HP, Fraction(1, 2))

    def test_singleton_weighted_exact(self):
        s = WeightedSample((Point2(1, 1),), (Fraction(100),), Fraction(100), Fraction(0))
        out = weighted_eps_approx(s, HP, Fraction(1, 10))
        assert out.points == s.points and out.weights == s.weights and out.eps_bound == 0

    def test_uniform_weights_agree_with_static(self):
        pts = make_stream("uniform", 24, seed=6)
        a = static_eps_approx(pts, HP, Fraction(1, 2))
        b = weighted_eps_approx(uniform(pts), HP, Fraction(1, 2))
        assert a == b

    def test_order_insensitive_determinism(self):
        pts = make_stream("clustered", 40, seed=7)
        rng = random.Random(0)
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert static_eps_approx(pts, HP, Fraction(1, 4)) == \
            static_eps_approx(shuffled, HP, Fraction(1, 4))

    def test_size_bound_fitted_constant(self):
        # documented build constant: size <= C * eps^-2 * lg(1/eps + 2), C = 4
        C = 4
        import math
        for style in STYLES:
            pts = make_stream(style, 64, seed=11)
            for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                a = static_eps_approx(pts, HP, eps)
                cap = C / float(eps) ** 2 * math.log2(1 / float(eps) + 2)
                assert len(a) <= cap, (style, eps, len(a), cap)


class TestVerify:
    def test_identity(self):
        s = uniform(make_stream("uniform", 12, seed=1))
        assert verify_approximation(s, s, HP, Fraction(0))

    def test_two_point_example(self):
        g = uniform([Point2(0, 0), Point2(1, 0)])
        c = WeightedSample((Point2(0, 0),), (Fraction(2),), Fraction(2), Fraction(1, 2))
        assert verify_approximation(g, c, HP, Fraction(1, 2))
        assert not verify_approximation(g, c, HP, Fraction(2, 5))

    def test_missing_mass_fails(self):
        g = uniform([Point2(0, 0), Point2(5, 5)])
        c = WeightedSample((Point2(0, 0),), (Fraction(1),), Fraction(1), Fraction(1))
        assert not verify_approximation(g, c, HP, Fraction(1, 4))


def test_collapse_duplicates_merges_mass():
    s = WeightedSample((Point2(1, 1), Point2(1, 1), Point2(2, 2)),
                       (Fraction(1), Fraction(2), Fraction(1)), Fraction(4), Fraction(0))
    out = collapse_duplicates(s)
    assert len(out) == 2 and out.total_weight == 4
    assert dict(zip(out.points, out.weights))[Point2(1, 1)] == 3


@pytest.mark.parametrize("weights,total,message", [
    ((Fraction(1, 3),), Fraction(1, 3), "length mismatch"),
    ((Fraction(1, 3), Fraction(0)), Fraction(1, 3), "must be positive"),
    ((Fraction(2, 3), Fraction(-1, 6)), Fraction(1, 2), "must be positive"),
    ((Fraction(1, 3), Fraction(1, 6)), Fraction(1, 3), "sum to total_weight"),
], ids=["length", "zero-weight", "negative-weight", "wrong-total"])
def test_sample_rejects_broken_invariants(weights, total, message):
    pts = (Point2(0, 0), Point2(1, 1))
    with pytest.raises(ValueError, match=message):
        WeightedSample(pts, weights, total, Fraction(0))


def test_sample_json_round_trip():
    s = WeightedSample((Point2(1, 2), Point2(-3, 4)), (Fraction(1, 3), Fraction(8, 3)),
                       Fraction(3), Fraction(1, 7))
    blob = sample_to_json(s, HP)
    assert blob["family"] == "halfplane"
    assert sample_from_json(blob) == s


class TestAllFamiliesCertified:
    @pytest.mark.parametrize("fam_name,n", [
        ("halfplane", 32), ("quadrant", 32), ("disk", 20), ("slab", 20),
        ("wedge", 16), ("dwedge", 16), ("vpar", 12),
    ])
    def test_static_certifies_everywhere(self, fam_name, n):
        fam = family(FamilyKind(fam_name))
        pts = make_stream("uniform", n, seed=21)
        for eps in (Fraction(1), Fraction(1, 2), Fraction(1, 4)):
            a = static_eps_approx(pts, fam, eps)
            assert a.eps_bound <= eps
            assert verify_approximation(uniform(pts), a, fam, eps)


class TestCaps:
    def test_halve_cap(self):
        from epsstream.errors import CapExceededError
        fam = family(FamilyKind.VPARALLELOGRAM)
        pts = make_stream("uniform", fam.oracle_cap + 1, seed=22)
        with pytest.raises(CapExceededError):
            halve(WeightedSample.uniform(pts), fam)

    def test_verify_cap(self):
        from epsstream.errors import CapExceededError
        fam = family(FamilyKind.WEDGE)
        pts = make_stream("uniform", fam.oracle_cap + 8, seed=23)
        g = uniform(pts)
        with pytest.raises(CapExceededError):
            verify_approximation(g, g, fam, Fraction(1))

    def test_oracle_cap(self):
        from epsstream.errors import CapExceededError
        from epsstream import subsystem_oracle
        fam = family(FamilyKind.VPARALLELOGRAM)
        pts = make_stream("uniform", fam.oracle_cap + 1, seed=24)
        with pytest.raises(CapExceededError):
            subsystem_oracle(fam, pts)

    @pytest.mark.parametrize("kind", list(FamilyKind), ids=lambda k: k.value)
    def test_reduce_and_verify_sizes_fit_oracle_cap(self, kind):
        # reduce_with_budget stops at the threshold alone: halve() and the
        # exact verifier reject more points than the family's oracle cap
        fam = family(kind)
        assert fam.reduce_size <= fam.oracle_cap
        assert fam.verify_size <= fam.oracle_cap


def test_weighted_reduction_mixed_weights_certified():
    pts = tuple(Point2(3 * i, (i * i) % 7) for i in range(10))
    ws = tuple(Fraction(i + 1) for i in range(10))
    s = WeightedSample(pts, ws, Fraction(55), Fraction(0))
    out = weighted_eps_approx(s, HP, Fraction(3, 10))
    assert out.total_weight == 55
    assert verify_approximation(s, out, HP, Fraction(3, 10))


# -- pairings in numpy -----------------------------------------------------------


def _reference_paired_coloring(sample, key):
    """``_paired_coloring`` as first written: a dict of index lists per
    weight, one sign per point, then the leftovers heaviest first."""
    m = len(sample)
    ints, _ = sample.scaled_weights
    by_weight = {}
    for i in np.argsort(key, kind="stable").tolist():
        by_weight.setdefault(ints[i], []).append(i)
    signs = [0] * m
    leftovers = []
    for w in sorted(by_weight, reverse=True):
        idxs = by_weight[w]
        for a in range(0, len(idxs) - 1, 2):
            signs[idxs[a]] = 1
            signs[idxs[a + 1]] = -1
        if len(idxs) % 2:
            leftovers.append(idxs[-1])
    running = sum(g * s for g, s in zip(ints, signs))
    leftovers.sort(key=lambda i: (-ints[i], i))
    for i in leftovers:
        sign = -1 if running > 0 else 1
        signs[i] = sign
        running += sign * ints[i]
    return tuple(signs)


@st.composite
def _pairing_inputs(draw):
    """Mixed Fraction weights from a few values (odd and even class sizes),
    sometimes one weight near 2^64 so the column holds Python ints, and
    curve keys with many ties, as uint64 or Python ints."""
    m = draw(st.integers(2, 40))
    values = draw(st.lists(st.builds(Fraction, st.integers(1, 6), st.integers(1, 4)),
                           min_size=1, max_size=4))
    ws = [draw(st.sampled_from(values)) for _ in range(m)]
    if draw(st.booleans()):
        ws[draw(st.integers(0, m - 1))] = Fraction((1 << 64) + 1, 3)
    pts = tuple(Point2(i, (i * i) % 11) for i in range(m))
    sample = WeightedSample(pts, tuple(ws), sum(ws, Fraction(0)), Fraction(0))
    keys = draw(st.lists(st.integers(0, draw(st.sampled_from((1, 3, 50)))), min_size=m, max_size=m))
    if draw(st.booleans()):
        return sample, np.array(keys, dtype=np.uint64)
    return sample, np.array([k << 70 for k in keys], dtype=object)


@settings(max_examples=200, deadline=None)
@given(case=_pairing_inputs())
def test_paired_coloring_matches_the_loop(case):
    sample, key = case
    assert _paired_coloring(sample, key).signs == _reference_paired_coloring(sample, key)


@pytest.mark.parametrize("case", sorted(_halfplane_pairing_cases()))
def test_paired_coloring_matches_the_loop_on_curve_keys(case):
    sample = _halfplane_pairing_cases()[case]
    for key in sampler._curve_keys(sample, FamilyKind.HALFPLANE):
        assert _paired_coloring(sample, key).signs == _reference_paired_coloring(sample, key)


# -- the carried integer weight column -------------------------------------------


def _derived(sample):
    return sampler._scaled_weights(sample.weights)


@st.composite
def _columned_samples(draw):
    """Samples over a few points with weights of mixed denominators: copies
    of a point whose weights sum to a smaller denominator (1/2 + 1/2,
    1/6 + 1/3), built by the constructor or by ``uniform``."""
    if draw(st.integers(0, 4)) == 0:
        pts = draw(st.lists(st.builds(Point2, st.integers(0, 3), st.integers(0, 3)), min_size=1,
                            max_size=8))
        return WeightedSample.uniform(pts)
    pair = st.sampled_from(((Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 6), Fraction(1, 3)),
                            (Fraction(3, 4), Fraction(5, 4)), (Fraction(2, 9), Fraction(7, 9))))
    single = st.builds(Fraction, st.integers(1, 12), st.sampled_from((1, 2, 3, 4, 5, 6, 7, 12)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        p = Point2(draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        if draw(st.booleans()):
            rows += [(p, w) for w in draw(pair)]
        else:
            rows.append((p, draw(single)))
    draw(st.randoms()).shuffle(rows)
    ws = tuple(w for _, w in rows)
    return WeightedSample(tuple(p for p, _ in rows), ws, sum(ws, Fraction(0)),
                          draw(st.sampled_from((Fraction(0), Fraction(1, 7)))))


def _assert_column(sample):
    assert sample.scaled_weights == _derived(sample)
    rebuilt = WeightedSample(sample.points, sample.weights, sample.total_weight, sample.eps_bound)
    assert rebuilt == sample and rebuilt.scaled_weights == sample.scaled_weights


class TestCarriedColumn:
    @settings(max_examples=150, deadline=None)
    @given(parts=st.lists(_columned_samples(), min_size=1, max_size=4))
    def test_every_builder_carries_the_derived_column(self, parts):
        merged = sampler.union(parts, Fraction(1, 9))
        _assert_column(merged)
        assert merged.total_weight == sum((s.total_weight for s in parts), Fraction(0))
        assert merged.points == tuple(p for s in parts for p in s.points)
        canon = sampler.canonical(merged)
        _assert_column(canon)
        for s in (*parts, merged):
            _assert_column(collapse_duplicates(s))
        if len(canon) >= 2:
            for kind in (FamilyKind.HALFPLANE, FamilyKind.QUADRANT):
                out, _ = halve(canon, family(kind))
                _assert_column(out)

    def test_merging_lowers_the_denominator(self):
        pts = (Point2(0, 0), Point2(1, 1), Point2(0, 0))
        s = WeightedSample(pts, (Fraction(1, 2), Fraction(1), Fraction(1, 2)), Fraction(2),
                           Fraction(0))
        assert s.scaled_weights == ([1, 2, 1], 2)
        out = collapse_duplicates(s)
        assert out.weights == (Fraction(1), Fraction(1)) and out.scaled_weights == ([1, 1], 1)

    def test_union_columns_are_new_lists(self):
        a = WeightedSample.uniform([Point2(0, 0), Point2(1, 1)])
        b = WeightedSample.uniform([Point2(2, 2)])
        merged = sampler.union((a,), Fraction(0))
        assert merged.scaled_weights[0] == a.scaled_weights[0]
        assert merged.scaled_weights[0] is not a.scaled_weights[0]
        both = sampler.union((a, b), Fraction(0))
        both.scaled_weights[0].append(5)
        assert a.scaled_weights == ([1, 1], 1) and b.scaled_weights == ([1], 1)

    @pytest.mark.parametrize("weights,ints,denom,total,message", [
        ((Fraction(1, 3),), [1], 3, Fraction(1, 3), "length mismatch"),
        ((Fraction(1, 3), Fraction(2, 3)), [1], 3, Fraction(1), "length mismatch"),
        ((Fraction(1, 3), Fraction(0)), [1, 0], 3, Fraction(1, 3), "must be positive"),
        ((Fraction(2, 3), Fraction(-1, 6)), [4, -1], 6, Fraction(1, 2), "must be positive"),
        ((Fraction(1, 3), Fraction(1, 6)), [2, 1], 6, Fraction(1, 3), "sum to total_weight"),
    ], ids=["weights-length", "column-length", "zero-weight", "negative-weight", "wrong-total"])
    def test_carrying_path_rejects_broken_invariants(self, weights, ints, denom, total, message):
        pts = (Point2(0, 0), Point2(1, 1))
        with pytest.raises(ValueError, match=message):
            WeightedSample._carrying(pts, weights, total, Fraction(0), ints, denom)

    def test_builders_check_the_carried_column(self):
        def broken(ints, denom):
            s = WeightedSample.uniform([Point2(1, 1), Point2(0, 0), Point2(1, 1)])
            vars(s)["scaled_weights"] = (ints, denom)
            return s

        with pytest.raises(ValueError, match="length mismatch"):
            sampler.union((broken([1, 1], 1),), Fraction(0))
        with pytest.raises(ValueError, match="must be positive"):
            sampler.union((broken([1, 0, 1], 1),), Fraction(0))
        with pytest.raises(ValueError, match="must be positive"):
            sampler.canonical(broken([2, 0, 1], 1))
        with pytest.raises(ValueError, match="sum to total_weight"):
            sampler.canonical(broken([1, 1, 2], 1))
        with pytest.raises(ValueError, match="sum to total_weight"):
            collapse_duplicates(broken([1, 1, 2], 1))

    @pytest.mark.parametrize("style", ["uniform", "duplicates"])
    def test_ingest_derives_no_column_from_fractions(self, style, monkeypatch):
        from epsstream import StreamState, make_config

        calls = []
        real = sampler._scaled_weights

        def counted(weights):
            calls.append(len(weights))
            return real(weights)

        monkeypatch.setattr(sampler, "_scaled_weights", counted)
        state = StreamState(make_config(Fraction(1, 4), "halfplane"))
        state.extend(make_stream(style, 1024, seed=31))
        snap = state.snapshot()
        assert calls == []
        for s in (*state.slots.values(), snap.sample):
            assert s.scaled_weights == real(s.weights)


@pytest.mark.parametrize("kind", [FamilyKind.WEDGE, FamilyKind.DOUBLE_WEDGE], ids=lambda k: k.value)
def test_wedge_halving_with_wide_weights(kind):
    """Weights 1/p for six primes near 10^6: the scaled weights' lcm has
    about 120 bits, so the measured sums pass 2^62 and take the limbs."""
    primes = (999983, 999979, 999961, 999959, 999953, 999931)
    pts = make_stream("uniform", 24, seed=7)
    ws = tuple(Fraction(1, primes[i % 6]) for i in range(len(pts)))
    s = WeightedSample(tuple(pts), ws, sum(ws, Fraction(0)), Fraction(0))
    assert sum(s.scaled_weights[0]) ** 2 > 1 << 200
    out, err = halve(s, family(kind))
    assert 0 < err <= 1 and out.total_weight == s.total_weight
    assert verify_approximation(s, out, family(kind), err)
    assert not verify_approximation(s, out, family(kind), err - Fraction(1, 10 ** 40))

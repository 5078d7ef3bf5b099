import json
from fractions import Fraction

import pytest

from epsstream import (
    FamilyKind,
    Point2,
    StreamState,
    WeightedSample,
    error_budget,
    family,
    make_config,
    verify_approximation,
)
from epsstream import sampler
from epsstream.engine import Snapshot, budget_prefix, snapshot_of_exact
from epsstream.errors import EpsStreamError
from streams import STYLES, make_stream

HP = family(FamilyKind.HALFPLANE)


def test_error_budget_values():
    cfg = make_config(Fraction(1, 10), "halfplane")
    b1 = error_budget(1, cfg)
    assert abs(float(b1) - 0.030396) < 1e-5
    assert float(b1) <= 0.05 / 1.6449340668482264  # never above the exact value
    assert error_budget(2, cfg) == b1 / 4
    assert error_budget(3, cfg) == b1 / 9


def test_budgets_telescope_under_half_eps():
    cfg = make_config(Fraction(1, 4), "halfplane")
    assert budget_prefix(60, cfg) < cfg.eps / 2


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2), Fraction(3, 7), Fraction(99, 100)])
def test_cached_budgets_equal_the_formula(eps):
    """The memoised budgets and the running prefix sums are exactly the
    closed form, asked for deep levels first and then again from level 1."""
    cfg = make_config(eps, "halfplane")
    w = Fraction(16449340668482265, 10 ** 16)
    formula = [cfg.eps / 2 * Fraction(1, k * k) / w for k in range(1, 65)]
    for k in (64, 7, *range(1, 65)):
        assert error_budget(k, cfg) == formula[k - 1]
        assert budget_prefix(k, cfg) == sum(formula[:k], Fraction(0))
    assert budget_prefix(0, cfg) == 0
    with pytest.raises(ValueError):
        error_budget(0, cfg)


def test_slots_follow_binary_representation():
    st = StreamState(make_config(Fraction(1, 2), "halfplane"))
    pts = make_stream("uniform", 40, seed=2)
    for i, p in enumerate(pts, start=1):
        st.insert(p)
        assert sorted(st.slots) == [k for k in range(8) if i >> k & 1]
        assert sum(s.total_weight for s in st.slots.values()) == i
    assert st.memory_footprint().levels_occupied == bin(40).count("1")


def test_single_insert_and_snapshot():
    st = StreamState(make_config(Fraction(1, 2), "halfplane"))
    st.insert(Point2(7, 8))
    snap = st.snapshot()
    assert snap.n == 1
    assert snap.sample.points == (Point2(7, 8),)
    assert snap.sample.weights == (Fraction(1),)


def test_empty_snapshot_rejected():
    with pytest.raises(EpsStreamError):
        StreamState(make_config(Fraction(1, 2), "halfplane")).snapshot()


def test_eight_points_level_three_budget():
    cfg = make_config(Fraction(1, 2), "halfplane")
    st = StreamState(cfg)
    st.extend(make_stream("uniform", 8, seed=3))
    (level,) = st.slots
    assert level == 3
    assert st.slots[3].eps_bound <= budget_prefix(3, cfg) < Fraction(1, 4)


@pytest.mark.parametrize("style", STYLES)
def test_snapshot_certificate_verified_small(style):
    cfg = make_config(Fraction(1, 2), "halfplane")
    pts = make_stream(style, 48, seed=4)
    snap = StreamState(cfg).extend(pts).snapshot()
    assert snap.certified_error <= cfg.eps
    ground = WeightedSample.uniform(sorted(pts))
    assert verify_approximation(ground, snap.sample, HP, snap.certified_error)


def test_anytime_snapshots():
    cfg = make_config(Fraction(1, 2), "quadrant")
    st = StreamState(cfg)
    pts = make_stream("duplicates", 24, seed=5)
    for i, p in enumerate(pts, start=1):
        st.insert(p)
        snap = st.snapshot()
        assert snap.n == i
        assert snap.sample.total_weight == i
        assert snap.certified_error <= cfg.eps


def test_snapshot_deterministic_and_reproducible():
    cfg = make_config(Fraction(1, 4), "halfplane")
    pts = make_stream("clustered", 96, seed=6)
    s1 = StreamState(cfg).extend(pts)
    s2 = StreamState(cfg).extend(pts)
    a = s1.snapshot()
    b = s1.snapshot()
    c = s2.snapshot()
    assert a.sample == b.sample == c.sample


def test_state_round_trip_and_resume():
    cfg = make_config(Fraction(1, 4), "quadrant")
    pts = make_stream("sorted", 80, seed=7)
    full = StreamState(cfg).extend(pts)
    part = StreamState(cfg).extend(pts[:33])
    blob = part.to_json_str()
    resumed = StreamState.from_json(json.loads(blob)).extend(pts[33:])
    assert resumed.to_json_str() == full.to_json_str()
    assert resumed.snapshot().sample == full.snapshot().sample
    snap = full.snapshot()
    assert Snapshot.from_json(json.loads(snap.to_json_str())) == snap


def test_footprint_counts_slots():
    cfg = make_config(Fraction(1, 2), "halfplane")
    st = StreamState(cfg).extend(make_stream("uniform", 33, seed=8))
    foot = st.memory_footprint()
    assert foot.points_stored == sum(len(s) for s in st.slots.values())
    assert foot.levels_occupied == 2  # 33 = 100001b


def test_duplicate_streams_collapse_storage():
    cfg = make_config(Fraction(1, 4), "halfplane")
    pts = make_stream("duplicates", 128, seed=9)
    st = StreamState(cfg).extend(pts)
    # every level-k summary collapses coincident points, so storage stays
    # well below the raw prefix for duplicate-heavy streams
    assert st.memory_footprint().points_stored < 128


def test_snapshot_of_exact_helper():
    pts = [Point2(0, 0), Point2(1, 1), Point2(1, 1)]
    snap = snapshot_of_exact(pts, make_config(Fraction(1, 4), "wedge"))
    assert snap.n == 3
    assert snap.sample.total_weight == 3
    assert snap.certified_error == 0


def test_budget_accounting_tracked_per_level():
    cfg = make_config(Fraction(1, 2), "halfplane")
    pts = make_stream("uniform", 64, seed=10)
    st = StreamState(cfg).extend(pts)
    for lvl, sample in st.slots.items():
        assert sample.total_weight == 2 ** lvl
        if lvl >= 1:
            assert sample.eps_bound <= budget_prefix(lvl, cfg)
        else:
            assert sample.eps_bound == 0


def test_module_level_op_aliases():
    from epsstream import insert, snapshot, memory_footprint
    st = StreamState(make_config(Fraction(1, 2), "halfplane"))
    insert(st, Point2(1, 2))
    insert(st, Point2(3, 4))
    snap = snapshot(st)
    assert snap.n == 2
    assert memory_footprint(st).levels_occupied == 1


def test_ingest_skips_futile_halvings(monkeypatch):
    calls = []
    real_halve = sampler.halve

    def counting_halve(*args, **kwargs):
        calls.append(args[0])
        return real_halve(*args, **kwargs)

    monkeypatch.setattr(sampler, "halve", counting_halve)
    eps = Fraction(1, 4)
    state = StreamState(make_config(eps, "halfplane")).extend(make_stream("uniform", 512, seed=41))
    assert calls == []
    snap = state.snapshot()
    assert calls
    assert len(snap.sample) < 512
    assert snap.certified_error <= eps

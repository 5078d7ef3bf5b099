"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The suite exercises the
full pipeline: streams are generated in four styles (uniform, sorted,
clustered, 50%-duplicates), summarized by the engine, and every guarantee is
checked against exact brute-force oracles at the stated tolerances.

Known desk-scale limits, by design: the asymptotic running-time constants
and the textbook reduction's internal size constants are not reproduced;
certification is by exact measurement instead.  The space lower bound for
non-iceberg counting is a pure impossibility result and has no test.
"""

import itertools
import math
from fractions import Fraction

import pytest

from epsstream import (
    Point2,
    StreamState,
    WeightedSample,
    family,
    make_config,
)
from epsstream.engine import budget_prefix, snapshot_of_exact
from epsstream.oracles import (
    PrefixMirror,
    exact_discrepancy,
    exact_lms_disk,
    exact_lms_slab,
    exact_regression_depth,
    exact_simplicial_depth,
    exact_slope_rank,
    exact_tukey_depth,
)
from epsstream.stats import (
    SIMPLICIAL_K,
    SLOPE_RANK_K,
    FitLine,
    lms_location,
    lms_regression,
    regression_depth,
    simplicial_depth_estimate,
    slope_rank_estimate,
    theil_sen_fit,
    tukey_depth,
    tukey_median,
)
from streams import SPAN, STYLES, make_stream

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

EQ1_COMBOS = [
    (64, "halfplane", HALF),
    (256, "halfplane", QUARTER),
    (256, "quadrant", HALF),
    (512, "quadrant", QUARTER),
    (512, "halfplane", HALF),
]


def _report(name: str, violations: list) -> None:
    status = "PASS" if not violations else "FAIL"
    print(f"\nACCEPTANCE {name}: {status}")
    for v in violations[:8]:
        print(f"  violation: {v}")
    assert not violations, f"{name}: {len(violations)} violations"


@pytest.fixture(scope="module")
def eq1_runs():
    """The 20-stream grid shared by the Eq.(1) and budget criteria."""
    runs = []
    for seed, style in enumerate(STYLES):
        for n, fam_name, eps in EQ1_COMBOS:
            pts = make_stream(style, n, seed=seed)
            cfg = make_config(eps, fam_name)
            state = StreamState(cfg).extend(pts)
            snap = state.snapshot()
            runs.append((style, n, fam_name, eps, pts, state, snap))
    return runs


def test_eq1_end_to_end(eq1_runs):
    """Every induced range count within eps*n of truth, on all 20 streams."""
    violations = []
    for style, n, fam_name, eps, pts, state, snap in eq1_runs:
        fam = family(fam_name)
        ground = WeightedSample.uniform(sorted(pts))
        disc = exact_discrepancy(ground, snap.sample, fam)
        if disc > eps:
            violations.append(f"{style} n={n} {fam_name} eps={eps}: discrepancy {disc}")
        if snap.certified_error > eps or disc > snap.certified_error:
            violations.append(f"{style} n={n} {fam_name}: certificate {snap.certified_error} "
                              f"vs measured {disc}")
    _report("eq1-end-to-end", violations)


def test_budget_telescoping(eq1_runs):
    """Each level summary's measured error is within the telescoped budget."""
    violations = []
    for style, n, fam_name, eps, pts, state, snap in eq1_runs:
        fam = family(fam_name)
        offset = 0
        for level in sorted(state.slots, reverse=True):
            sample = state.slots[level]
            block = pts[offset:offset + (1 << level)]
            offset += 1 << level
            ground = WeightedSample.uniform(sorted(block))
            measured = exact_discrepancy(ground, sample, fam)
            if level >= 1 and measured > budget_prefix(level, state.config):
                violations.append(f"{style} n={n} {fam_name} level {level}: "
                                  f"{measured} > budget")
            if measured > sample.eps_bound and level >= 1:
                violations.append(f"{style} n={n} {fam_name} level {level}: "
                                  f"measured {measured} > tracked {sample.eps_bound}")
            if level == 0 and measured != 0:
                violations.append(f"{style} level-0 summary not exact")
        if offset != n:
            violations.append(f"{style} n={n}: blocks cover {offset}")
    _report("budget-telescoping", violations)


def test_space_growth():
    """points_stored(4096) / points_stored(64) <= 2 * (lg4096/lg64)^5."""
    violations = []
    pts = make_stream("uniform", 4096, seed=99)
    cfg = make_config(QUARTER, "halfplane")
    state = StreamState(cfg)
    state.extend(pts[:64])
    stored_64 = state.memory_footprint().points_stored
    state.extend(pts[64:])
    stored_4096 = state.memory_footprint().points_stored
    limit = 2.0 * (math.log2(4096) / math.log2(64)) ** 5
    ratio = stored_4096 / stored_64
    print(f"\n  space: stored(64)={stored_64} stored(4096)={stored_4096} "
          f"ratio={ratio:.2f} limit={limit:.2f}")
    if ratio > limit:
        violations.append(f"ratio {ratio:.3f} > {limit:.3f}")
    _report("space-growth", violations)


# Halfplane snapshot sizes on the grid below, recorded from the code
# before halfplane halvings moved to three curve pairings (cosh-guided
# coloring and z-order pairing then), per (style, eps): one (seed 31,
# seed 5) pair per n in GRID_SIZES.
GRID_SIZES = (48, 96, 256, 512, 1024)
GRID_SEEDS = (31, 5)
PARENT_GRID_SNAPSHOT_SIZES = {
    ("uniform", "1/4"): ((24, 24), (48, 48), (64, 64), (64, 128), (128, 128)),
    ("uniform", "1/2"): ((12, 24), (24, 24), (32, 16), (32, 32), (32, 32)),
    ("sorted", "1/4"): ((24, 24), (48, 48), (64, 64), (64, 64), (128, 128)),
    ("sorted", "1/2"): ((12, 12), (24, 24), (32, 32), (32, 32), (32, 32)),
    ("clustered", "1/4"): ((24, 24), (24, 48), (64, 64), (64, 64), (64, 64)),
    ("clustered", "1/2"): ((12, 12), (12, 24), (32, 32), (32, 32), (32, 32)),
    ("duplicates", "1/4"): ((12, 24), (24, 24), (64, 32), (64, 64), (128, 64)),
    ("duplicates", "1/2"): ((12, 12), (12, 12), (32, 16), (32, 32), (32, 32)),
}


def test_halfplane_snapshot_sizes_against_recorded_grid():
    """80 halfplane snapshots certify at most eps, hold no more points in
    all than the recorded sizes sum to, and no more of them grow than shrink."""
    violations = []
    total = recorded_total = grew = shrank = 0
    for (style, eps), rows in PARENT_GRID_SNAPSHOT_SIZES.items():
        for n, recorded in zip(GRID_SIZES, rows):
            for seed, before in zip(GRID_SEEDS, recorded):
                snap = StreamState(make_config(Fraction(eps), "halfplane")).extend(
                    make_stream(style, n, seed=seed)).snapshot()
                size = len(snap.sample)
                if snap.certified_error > Fraction(eps):
                    violations.append(f"{style} n={n} seed={seed} eps={eps}: "
                                      f"certificate {snap.certified_error}")
                total += size
                recorded_total += before
                grew += size > before
                shrank += size < before
    print(f"\n  grid: {total} snapshot points (recorded {recorded_total}), "
          f"{grew} grew, {shrank} shrank")
    if total > recorded_total:
        violations.append(f"{total} snapshot points > recorded {recorded_total}")
    if grew > shrank:
        violations.append(f"{grew} snapshots grew, {shrank} shrank")
    _report("halfplane-size-grid", violations)


def test_tukey_depth_and_median():
    """Probe depths within eps; median within eps of the best probe depth
    and at least 1/3 - eps."""
    violations = []
    eps = QUARTER
    grid = [Point2(int((gx - 4.5) * SPAN / 4.5), int((gy - 4.5) * SPAN / 4.5))
            for gx in range(10) for gy in range(10)]
    for i in range(10):
        style = STYLES[i % 4]
        pts = make_stream(style, 300, seed=100 + i)
        snap = StreamState(make_config(eps, "halfplane")).extend(pts).snapshot()
        mirror = PrefixMirror(pts)
        best_exact = Fraction(0)
        for q in grid:
            approx = tukey_depth(snap, q).value
            exact = exact_tukey_depth(mirror, q)
            best_exact = max(best_exact, exact)
            if abs(approx - exact) > eps:
                violations.append(f"{style}#{i} probe {q}: |{approx} - {exact}| > eps")
        _, dv = tukey_median(snap)
        if dv.value < best_exact - eps:
            violations.append(f"{style}#{i} median {dv.value} < max {best_exact} - eps")
        if dv.value < Fraction(1, 3) - eps:
            violations.append(f"{style}#{i} median below 1/3 - eps")
    _report("tukey-depth", violations)


def test_simplicial_depth():
    """|estimate - exact| <= K*sqrt(eps) on exact samples, fitted K <= 5."""
    violations = []
    worst_ratio = 0.0
    eps_grid = [Fraction(1, 16), Fraction(1, 64), Fraction(1, 256)]
    for i, style in enumerate(STYLES):
        for n in (12, 18, 25):
            pts = make_stream(style, n, seed=200 + i)
            mirror = PrefixMirror(pts)
            probes = [Point2(0, 0),
                      Point2(sum(p.x for p in pts) // n, sum(p.y for p in pts) // n),
                      pts[0]]
            for eps in eps_grid:
                snap = snapshot_of_exact(pts, make_config(eps, "wedge"))
                for q in probes:
                    est = simplicial_depth_estimate(snap, q).value
                    exact = exact_simplicial_depth(mirror, q)
                    err = abs(est - exact)
                    root = math.sqrt(float(eps))
                    worst_ratio = max(worst_ratio, float(err) / root)
                    if float(err) > SIMPLICIAL_K * root:
                        violations.append(f"{style} n={n} eps={eps} q={q}: err {float(err):.4f}")
    print(f"\n  simplicial fitted K = {worst_ratio:.2f} (documented bound {SIMPLICIAL_K})")
    _report("simplicial-depth", violations)


def test_regression_depth():
    """Estimator within eps of the rotation-definition oracle, 10 lines/stream."""
    violations = []
    eps = QUARTER
    import random
    rng = random.Random(77)
    for i, style in enumerate(STYLES):
        n = 60 if style in ("uniform", "duplicates") else 48
        pts = make_stream(style, n, seed=300 + i)
        snap = StreamState(make_config(eps, "dwedge")).extend(pts).snapshot()
        mirror = PrefixMirror(pts)
        for _ in range(10):
            slope = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
            anchor = pts[rng.randrange(n)]
            inter = anchor.y - slope * anchor.x + Fraction(rng.randint(-SPAN, SPAN), 7)
            approx = regression_depth(snap, FitLine(slope, inter)).value
            exact = exact_regression_depth(mirror, slope, inter)
            if abs(approx - exact) > eps:
                violations.append(f"{style} slope={slope}: |{approx} - {exact}| > eps")
    _report("regression-depth", violations)


def test_theil_sen():
    """Slope rank within K*eps^(1/3); the fit bisects the prefix within eps*n."""
    violations = []
    worst_ratio = 0.0
    import random
    rng = random.Random(88)
    cases = [("uniform", 200, QUARTER), ("clustered", 200, QUARTER),
             ("sorted", 150, Fraction(1, 8)), ("duplicates", 200, QUARTER),
             ("uniform", 24, Fraction(1, 64)), ("clustered", 24, Fraction(1, 64)),
             ("uniform", 24, HALF)]  # large eps so the vpar reduction engages
    for i, (style, n, eps) in enumerate(cases):
        pts = make_stream(style, n, seed=400 + i)
        snap = StreamState(make_config(eps, "vpar")).extend(pts).snapshot()
        mirror = PrefixMirror(pts)
        cube = float(eps) ** (1 / 3)
        for _ in range(5):
            s = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            est = slope_rank_estimate(snap, s)
            exact = exact_slope_rank(mirror, s)
            err = abs(est - exact)
            worst_ratio = max(worst_ratio, float(err) / cube)
            if float(err) > SLOPE_RANK_K * cube:
                violations.append(f"{style} n={n} s={s}: err {float(err):.4f}")
        try:
            fit = theil_sen_fit(snap)
        except Exception as exc:  # degenerate support must not occur here
            violations.append(f"{style} n={n}: fit failed {exc}")
            continue
        above = sum(1 for p in pts if p.y > fit.slope * p.x + fit.intercept)
        below = sum(1 for p in pts if p.y < fit.slope * p.x + fit.intercept)
        if abs(above - below) > eps * n:
            violations.append(f"{style} n={n}: bisection off by {abs(above - below)}")
    print(f"\n  slope-rank fitted K = {worst_ratio:.3f} (documented bound {SLOPE_RANK_K})")
    _report("theil-sen", violations)


def test_lms():
    """Returned disk/slab covers >= n/2 of the exact prefix; size within the
    oracle optimum at fraction 1/2 + 2*eps."""
    violations = []
    cases = list(itertools.product(STYLES, (Fraction(1, 8), QUARTER), (32,)))
    cases += [("uniform", Fraction(1, 8), 48), ("duplicates", QUARTER, 48)]
    for i, (style, eps, n) in enumerate(cases):
        pts = make_stream(style, n, seed=500 + i)
        mirror = PrefixMirror(pts)
        frac = min(Fraction(1), HALF + 2 * eps)

        snap_d = StreamState(make_config(eps, "disk")).extend(pts).snapshot()
        disk = lms_location(snap_d)
        inside = sum(1 for p in pts
                     if (p.x - disk.center[0]) ** 2 + (p.y - disk.center[1]) ** 2 <= disk.radius2)
        if Fraction(inside) < Fraction(n, 2):
            violations.append(f"{style} eps={eps} n={n}: disk covers {inside} < n/2")
        _, oracle_r2 = exact_lms_disk(mirror, frac)
        if disk.radius2 > oracle_r2:
            violations.append(f"{style} eps={eps} n={n}: disk r2 {disk.radius2} > {oracle_r2}")

        snap_s = StreamState(make_config(eps, "slab")).extend(pts).snapshot()
        fit, width = lms_regression(snap_s)
        half = width / 2
        covered = sum(1 for p in pts if abs(p.y - (fit.slope * p.x + fit.intercept)) <= half)
        if Fraction(covered) < Fraction(n, 2):
            violations.append(f"{style} eps={eps} n={n}: slab covers {covered} < n/2")
        _, b1, b2 = exact_lms_slab(mirror, frac)
        if width > b2 - b1:
            violations.append(f"{style} eps={eps} n={n}: width {width} > {b2 - b1}")
    _report("lms", violations)


def test_determinism():
    """Independent runs and resumed runs produce byte-identical artifacts."""
    import json
    violations = []
    pts = make_stream("clustered", 256, seed=600)
    cfg = make_config(QUARTER, "quadrant")
    s1 = StreamState(cfg).extend(pts)
    s2 = StreamState(cfg).extend(pts)
    if s1.to_json_str() != s2.to_json_str():
        violations.append("two runs: states differ")
    from epsstream.sampler import sample_to_json
    a = json.dumps(sample_to_json(s1.snapshot().sample), sort_keys=True)
    b = json.dumps(sample_to_json(s2.snapshot().sample), sort_keys=True)
    c = json.dumps(sample_to_json(s1.snapshot().sample), sort_keys=True)
    if not (a == b == c):
        violations.append("snapshots differ between runs")
    part = StreamState(cfg).extend(pts[:101])
    resumed = StreamState.from_json(json.loads(part.to_json_str())).extend(pts[101:])
    if resumed.to_json_str() != s1.to_json_str():
        violations.append("resume differs from uninterrupted run")
    _report("determinism", violations)

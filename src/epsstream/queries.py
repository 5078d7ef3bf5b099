"""Query layer over snapshots: approximate counts, iceberg tests, nets.

Counts carry an additive guarantee of eps * n inherited from the snapshot
certificate; iceberg verdicts are sound in both directions because the
decision band is exactly the guarantee band.

A query evaluates its range on every support point at once: the
descriptor's ``contains`` runs on the sample's cached coordinate columns
(``WeightedSample.columns``) and the mask it returns selects the scaled
integer weights to sum.  The columns are int64 while the coordinates are
ints below 2^30 in absolute value and the descriptor's parameters are ints
whose ``peak`` keeps every product and sum below 2^63; otherwise the same
expression runs on columns of exact Python numbers (dtype object).  The
count is one Fraction of the clamped masked sum, and an iceberg verdict
compares integers cross-multiplied, so no answer depends on the dtype.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .engine import Snapshot
from .errors import FamilyMismatchError
from .rangesums import _NP_COORD_LIMIT
from .ranges import Point2, RangeDescriptor, descriptor_values

# int64 arithmetic wraps silently, so a range is evaluated on int64
# columns only while its ``peak`` over coordinates below _NP_COORD_LIMIT is
# below this.
_INT64_LIMIT = 1 << 63


@dataclass(frozen=True)
class CountEstimate:
    estimate: Fraction
    additive_bound: Fraction
    n: int


class Verdict(enum.Enum):
    ABOVE = "above"
    BELOW = "below"
    UNCERTAIN = "uncertain"


def _check_kind(snap: Snapshot, desc: RangeDescriptor) -> None:
    if desc.kind is not snap.family.kind:
        raise FamilyMismatchError(
            f"{desc.kind.value} query against a {snap.family.kind.value} snapshot")


def _fits_int64(desc: RangeDescriptor) -> bool:
    return (all(isinstance(v, int) for v in descriptor_values(desc))
            and desc.peak(_NP_COORD_LIMIT) < _INT64_LIMIT)


def _range_mass(snap: Snapshot, desc: RangeDescriptor) -> tuple[int, int]:
    """The support's scaled weight inside the range, clamped to
    [0, n * denom], and denom, the denominator of ``scaled_weights``."""
    _check_kind(snap, desc)
    xs, ys, ws = snap.sample.columns
    if xs.dtype != object and not _fits_int64(desc):
        xs, ys = xs.astype(object), ys.astype(object)
    _, denom = snap.sample.scaled_weights
    mass = int(ws[desc.contains(Point2(xs, ys))].sum())
    return min(max(mass, 0), snap.n * denom), denom


def approx_count(snap: Snapshot, desc: RangeDescriptor) -> CountEstimate:
    """Weighted mass of the range in the snapshot, clamped to [0, n]."""
    mass, denom = _range_mass(snap, desc)
    return CountEstimate(Fraction(mass, denom), snap.additive_bound, snap.n)


def iceberg_query(snap: Snapshot, desc: RangeDescriptor, theta: Fraction) -> Verdict:
    """Sound threshold test: ABOVE implies true fraction >= theta, BELOW <= theta."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    mass, denom = _range_mass(snap, desc)
    # With theta = r/s and eps * n = p/q, the estimate mass/denom is at
    # least theta * n + eps * n iff mass * s * q >= (r * n * q + p * s) * denom,
    # and at most theta * n - eps * n iff the same holds with <= and -.
    band = snap.additive_bound
    scaled = mass * theta.denominator * band.denominator
    mid = theta.numerator * snap.n * band.denominator
    half = band.numerator * theta.denominator
    if scaled >= (mid + half) * denom:
        return Verdict.ABOVE
    if scaled <= (mid - half) * denom:
        return Verdict.BELOW
    return Verdict.UNCERTAIN


def eps_net(snap: Snapshot) -> tuple[Point2, ...]:
    """Support of the snapshot: hits every range with true count > eps * n."""
    return tuple(snap.sample.points)

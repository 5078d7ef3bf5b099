"""Query layer over snapshots: approximate counts, iceberg tests, nets.

Counts carry an additive guarantee of eps * n inherited from the snapshot
certificate; iceberg verdicts are sound in both directions because the
decision band is exactly the guarantee band.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .engine import Snapshot
from .errors import FamilyMismatchError
from .ranges import Point2, RangeDescriptor


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


def approx_count(snap: Snapshot, desc: RangeDescriptor) -> CountEstimate:
    """Weighted mass of the range in the snapshot, clamped to [0, n]."""
    _check_kind(snap, desc)
    ints, denom = snap.sample.scaled_weights
    total = Fraction(sum(g for p, g in zip(snap.sample.points, ints) if desc.contains(p)), denom)
    total = min(max(total, Fraction(0)), Fraction(snap.n))
    return CountEstimate(total, snap.eps * snap.n, snap.n)


def iceberg_query(snap: Snapshot, desc: RangeDescriptor, theta: Fraction) -> Verdict:
    """Sound threshold test: ABOVE implies true fraction >= theta, BELOW <= theta."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be in (0, 1)")
    est = approx_count(snap, desc)
    frac = est.estimate / snap.n
    if frac >= theta + snap.eps:
        return Verdict.ABOVE
    if frac <= theta - snap.eps:
        return Verdict.BELOW
    return Verdict.UNCERTAIN


def eps_net(snap: Snapshot) -> tuple[Point2, ...]:
    """Support of the snapshot: hits every range with true count > eps * n."""
    return tuple(snap.sample.points)

"""Streaming merge-reduce engine over canonical stream blocks.

The stream is tiled by blocks of 2^k consecutive elements.  The engine keeps
one weighted summary per maximal available block (the occupied levels always
spell n in binary), merging sibling summaries when a block completes and
reducing the merge under a per-level error budget

    delta_k = (eps/2) * w_k / W,   w_k = k^(-1-c),  W = sum of all w_u,

so the deltas telescope below eps/2 no matter how deep the hierarchy grows.
A snapshot unions the live summaries (a weighted merge; weights travel
unchanged) and applies one more weighted reduction with budget eps/2,
yielding a sample whose exactly measured certificate never exceeds eps.

W is evaluated as a rational upper bound and the w_k as rational lower
bounds, so every budget is conservative and the telescoping sum stays below
eps/2 by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import EpsStreamError, FamilyMismatchError, StreamParseError
from .ranges import ALL_FAMILIES, DEFAULT_SCALE, Point2, RangeFamily, family
from .sampler import (
    _MALFORMED,
    WeightedSample,
    _frac_str,
    canonical,
    collapse_duplicates,
    reduce_with_budget,
    sample_from_json,
    sample_to_json,
    union,
)

# pi^2/6 = 1.6449340668482264... ; any rational above it is a safe W for c=1
_ZETA2_UPPER = Fraction(16449340668482265, 10 ** 16)

_W_TRUNCATION = 4096
_ROOT_PRECISION_BITS = 30

# State files record the reduce thresholds the summaries were built under;
# only the built-in table is accepted back.
_THRESHOLD_ROWS = tuple(sorted((fam.kind.value, fam.reduce_size) for fam in ALL_FAMILIES))


def _integer_root(n: int, q: int) -> int:
    """floor(n ** (1/q)) for nonnegative integer n."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // q))
    while True:
        y = ((q - 1) * x + n // x ** (q - 1)) // q
        if y >= x:
            return x
        x = y


def schedule_weight(k: int, c: Fraction) -> Fraction:
    """w_k = k^(-1-c); exact for integer c, else a close rational lower bound."""
    if k < 1:
        raise ValueError("k must be >= 1")
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be > 0")
    if c.denominator == 1:
        return Fraction(1, k ** (1 + c.numerator))
    p, q = c.numerator, c.denominator
    scale = 1 << _ROOT_PRECISION_BITS
    # upper bound on k^(1+c) at ~2^-30 relative precision
    t = _integer_root(k ** (q + p) * scale ** q, q) + 1
    return Fraction(scale, t)


def _schedule_weight_upper(k: int, c: Fraction) -> Fraction:
    if c.denominator == 1:
        return Fraction(1, k ** (1 + c.numerator))
    p, q = c.numerator, c.denominator
    scale = 1 << _ROOT_PRECISION_BITS
    t = max(1, _integer_root(k ** (q + p) * scale ** q, q))
    return Fraction(scale, t)


@lru_cache(maxsize=None)
def _w_total_upper(c: Fraction) -> Fraction:
    """Rational upper bound on W = sum of u^(-1-c)."""
    if c == 1:
        return _ZETA2_UPPER
    total = Fraction(0)
    for u in range(1, _W_TRUNCATION + 1):
        total += _schedule_weight_upper(u, c)
    # integral tail: sum_{u>N} u^(-1-c) <= N^(-c)/c = N * w_N / c
    total += Fraction(_W_TRUNCATION) * _schedule_weight_upper(_W_TRUNCATION, c) / c
    return total


@dataclass(frozen=True)
class EngineConfig:
    eps: Fraction
    family: RangeFamily
    c: Fraction = Fraction(1)
    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if self.c <= 0:
            raise ValueError("c must be > 0")


def make_config(eps, fam, c=Fraction(1), scale=DEFAULT_SCALE) -> EngineConfig:
    if not isinstance(fam, RangeFamily):
        fam = family(fam)
    return EngineConfig(Fraction(eps), fam, Fraction(c), scale)


def error_budget(k: int, cfg: EngineConfig) -> Fraction:
    """Reduction budget delta_k = (eps/2) * w_k / W at level k (conservative)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return cfg.eps / 2 * schedule_weight(k, cfg.c) / _w_total_upper(cfg.c)


def budget_prefix(k: int, cfg: EngineConfig) -> Fraction:
    return sum((error_budget(u, cfg) for u in range(1, k + 1)), Fraction(0))


def _parse_fields(what: str, read):
    """``read()``, which parses every field of a file before the caller checks
    any, with a missing or malformed field raised as ``StreamParseError``."""
    try:
        return read()
    except StreamParseError as exc:  # a sample, as sample_from_json reports it
        raise StreamParseError(f"not a {what} file (malformed {exc})") from exc
    except _MALFORMED as exc:
        raise StreamParseError(f"not a {what} file (missing or malformed {exc})") from exc


def config_json(cfg: EngineConfig) -> dict:
    """The config fields that state and snapshot headers share."""
    return {"eps": _frac_str(cfg.eps), "c": _frac_str(cfg.c),
            "family": cfg.family.kind.value, "scale": cfg.scale}


def _config_fields(meta) -> tuple:
    """Parse ``config_json``'s fields into ``make_config``'s arguments, checking none."""
    return Fraction(meta["eps"]), meta["family"], Fraction(meta["c"]), int(meta["scale"])


def _check_family(owner: str, raw: dict, fam: RangeFamily) -> None:
    """A stored sample names its family, which must be its header's."""
    if raw.get("family") != fam.kind.value:
        raise FamilyMismatchError(f"{owner} sample family {raw.get('family')!r} "
                                  f"differs from its header's {fam.kind.value!r}")


@dataclass
class LevelSummary:
    """Summary of one canonical block of 2^level stream elements."""

    level: int
    sample: WeightedSample

    def __post_init__(self):
        if self.sample.total_weight != Fraction(2 ** self.level):
            raise ValueError("level summary must represent 2^level mass")

    @property
    def delta(self) -> Fraction:
        """The level's certificate, which its sample carries."""
        return self.sample.eps_bound


@dataclass(frozen=True)
class MemoryFootprint:
    points_stored: int
    levels_occupied: int


@dataclass(frozen=True)
class Snapshot:
    """Immutable stream output: a weighted sample certifying the full prefix."""

    sample: WeightedSample
    n: int
    config: EngineConfig

    @property
    def eps(self) -> Fraction:
        return self.config.eps

    @property
    def certified_error(self) -> Fraction:
        return self.sample.eps_bound

    @property
    def family(self) -> RangeFamily:
        return self.config.family

    def to_json(self) -> dict:
        return {
            "snapshot": {**config_json(self.config), "n": self.n,
                         "certified_error": _frac_str(self.certified_error)},
            "sample": sample_to_json(self.sample, self.family),
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)

    @classmethod
    def from_json(cls, obj) -> "Snapshot":
        """``StreamState.from_json``'s checks, and a header n or certificate
        its sample does not carry, or one above eps, raises EpsStreamError."""
        def read():
            meta, raw = obj["snapshot"], obj["sample"]
            return (_config_fields(meta), int(meta["n"]), Fraction(meta["certified_error"]),
                    raw, sample_from_json(raw))

        config, n, claimed, raw, sample = _parse_fields("snapshot", read)
        cfg = make_config(*config)
        _check_family("snapshot", raw, cfg.family)
        if sample.total_weight != n:
            raise EpsStreamError(f"snapshot header has n={n} but its sample weighs "
                                 f"{_frac_str(sample.total_weight)}")
        if claimed != sample.eps_bound:
            raise EpsStreamError(f"snapshot header certifies {_frac_str(claimed)} but its "
                                 f"sample carries {_frac_str(sample.eps_bound)}")
        if sample.eps_bound > cfg.eps:
            raise EpsStreamError(f"snapshot certificate {_frac_str(sample.eps_bound)} exceeds "
                                 f"eps {_frac_str(cfg.eps)}")
        return cls(sample, n, cfg)


class StreamState:
    """Single-writer stream engine; snapshots are immutable values."""

    def __init__(self, config: EngineConfig):
        self.config = config
        self.n = 0
        self.slots: dict[int, LevelSummary] = {}

    def insert(self, p: Point2) -> "StreamState":
        """Consume one stream element, restoring the binary slot invariant."""
        pending = LevelSummary(0, WeightedSample((p,), (Fraction(1),), Fraction(1), Fraction(0)))
        level = 0
        while level in self.slots:
            left = self.slots.pop(level)
            pending = self._merge_reduce(left, pending, level + 1)
            level += 1
        self.slots[level] = pending
        self.n += 1
        return self

    def extend(self, points) -> "StreamState":
        for p in points:
            self.insert(p)
        return self

    def _merge_reduce(self, left: LevelSummary, right: LevelSummary, k: int) -> LevelSummary:
        # halve adds each accepted error to the sample's certificate
        merged = union((left.sample, right.sample), (left.delta + right.delta) / 2)
        reduced, _ = reduce_with_budget(merged, self.config.family, error_budget(k, self.config))
        return LevelSummary(k, reduced)

    def snapshot(self) -> Snapshot:
        """Union the live summaries and apply the final eps/2 reduction."""
        if self.n < 1:
            raise EpsStreamError("empty stream has no snapshot")
        levels = [self.slots[level] for level in sorted(self.slots, reverse=True)]
        base_err = sum((s.delta * s.sample.total_weight for s in levels), Fraction(0)) / self.n
        merged = canonical(union([s.sample for s in levels], base_err))
        reduced, _ = reduce_with_budget(merged, self.config.family, self.config.eps / 2)
        return Snapshot(reduced, self.n, self.config)

    def memory_footprint(self) -> MemoryFootprint:
        return MemoryFootprint(sum(len(s.sample) for s in self.slots.values()), len(self.slots))

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.config
        return {
            "version": 1,
            "config": {**config_json(cfg), "reduce_thresholds": list(_THRESHOLD_ROWS)},
            "n": self.n,
            "slots": [
                {
                    "level": lvl,
                    "delta": _frac_str(s.delta),
                    "sample": sample_to_json(s.sample, cfg.family),
                }
                for lvl, s in sorted(self.slots.items())
            ],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, obj) -> "StreamState":
        """Rebuild a state written by ``to_json``, checking what it claims.

        Every field is parsed before any is checked: a missing or malformed
        one raises ``StreamParseError``.  A slot sample of another family
        raises ``FamilyMismatchError``.  Slots that do not spell n, or whose
        delta differs from their sample's certificate or exceeds the level's
        budget prefix, and reduce thresholds other than the built-in ones,
        raise ``EpsStreamError``; an out-of-range config, ``ValueError``.
        """
        if not isinstance(obj, dict):
            raise StreamParseError("not a state file (expected a JSON object)")
        if obj.get("version") != 1:
            raise EpsStreamError(f"unsupported state version {obj.get('version')!r}")

        def read():
            meta = obj["config"]
            head = (_config_fields(meta), tuple(tuple(t) for t in meta["reduce_thresholds"]),
                    int(obj["n"]))
            rows = [(int(slot["level"]), Fraction(slot["delta"]), slot["sample"])
                    for slot in obj["slots"]]
            return (*head, [(*row, sample_from_json(row[2])) for row in rows])

        config, thresholds, n, slots = _parse_fields("state", read)
        cfg = make_config(*config)
        if thresholds != _THRESHOLD_ROWS:
            raise EpsStreamError(f"state was built under reduce thresholds {list(thresholds)}, "
                                 f"not the built-in {list(_THRESHOLD_ROWS)}")
        state = cls(cfg)
        state.n = n
        for level, delta, raw, sample in slots:
            if level in state.slots:
                raise EpsStreamError(f"two slots at level {level}")
            _check_family(f"slot {level}", raw, cfg.family)
            if delta != sample.eps_bound:
                raise EpsStreamError(f"slot {level} has delta {delta} but its sample "
                                     f"certifies {sample.eps_bound}")
            budget = budget_prefix(level, cfg)
            if delta > budget:
                raise EpsStreamError(f"slot {level} delta {delta} exceeds its budget {budget}")
            state.slots[level] = LevelSummary(level, sample)
        if sorted(state.slots) != [k for k in range(n.bit_length()) if n >> k & 1]:
            raise EpsStreamError("slot levels do not match n")
        return state


def insert(state: StreamState, p: Point2) -> StreamState:
    return state.insert(p)


def snapshot(state: StreamState) -> Snapshot:
    return state.snapshot()


def memory_footprint(state: StreamState) -> MemoryFootprint:
    return state.memory_footprint()


def snapshot_of_exact(points, cfg: EngineConfig) -> Snapshot:
    """A snapshot that is exactly the given multiset (weight-1 points).

    Useful for evaluating estimators on unreduced data; the certificate is 0.
    """
    pts = tuple(sorted(points))
    if not pts:
        raise EpsStreamError("empty stream has no snapshot")
    sample = collapse_duplicates(WeightedSample.uniform(pts))
    return Snapshot(sample, len(pts), cfg)

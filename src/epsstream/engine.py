"""Streaming merge-reduce engine over canonical stream blocks.

The stream is tiled by blocks of 2^k consecutive elements.  The engine keeps
one weighted sample per maximal available block (the occupied levels always
spell n in binary), merging sibling samples when a block completes and
reducing the merge under a per-level error budget

    delta_k = (eps/2) * k^-2 / W,   W = pi^2/6 = sum of all u^-2,

so the deltas telescope below eps/2 no matter how deep the hierarchy grows.
A snapshot unions the live samples (a weighted merge; weights travel
unchanged) and applies one more weighted reduction with budget eps/2,
yielding a sample whose exactly measured certificate never exceeds eps.

W is taken as a rational upper bound on pi^2/6, so every budget is
conservative and the telescoping sum stays below eps/2 by construction.

A level merge that does not halve is bookkeeping: a union, a duplicate
check and the singleton error bound, all on the integer weight columns
(``WeightedSample.scaled_weights``) that each merge carries over from its
parts.  One ingest of 1536 uniform halfplane points at eps 1/4, where no
merge halves, takes 9-12 us per insert on either CPU of a 2-vCPU Xeon
host (``tools/ingest_timing.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import EpsStreamError, FamilyMismatchError, StreamParseError
from .ranges import ALL_FAMILIES, DEFAULT_SCALE, Point2, RangeFamily, family
from .sampler import (
    _MALFORMED,
    _ONE,
    _ZERO,
    WeightedSample,
    _frac_str,
    canonical,
    collapse_duplicates,
    reduce_with_budget,
    sample_from_json,
    sample_to_json,
    union,
)

# pi^2/6 = 1.6449340668482264... ; any rational above it is a safe W
_ZETA2_UPPER = Fraction(16449340668482265, 10 ** 16)

STATE_VERSION = 2

# The weights of a fresh stream element, shared by every insert.
_UNIT = (_ONE,)

# State files record the reduce thresholds the summaries were built under;
# only the built-in table is accepted back.
_THRESHOLD_ROWS = tuple(sorted((fam.kind.value, fam.reduce_size) for fam in ALL_FAMILIES))


@dataclass(frozen=True)
class EngineConfig:
    eps: Fraction
    family: RangeFamily
    scale: int = DEFAULT_SCALE

    def __post_init__(self):
        if not 0 < self.eps < 1:
            raise ValueError("eps must be in (0, 1)")
        if self.scale < 1:
            raise ValueError(f"scale must be a positive integer, got {self.scale}")


def make_config(eps, fam, scale=DEFAULT_SCALE) -> EngineConfig:
    if not isinstance(fam, RangeFamily):
        fam = family(fam)
    return EngineConfig(Fraction(eps), fam, scale)


def error_budget(k: int, cfg: EngineConfig) -> Fraction:
    """Reduction budget delta_k = (eps/2) * k^-2 / W at level k (conservative)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    eps = cfg.eps
    return _level_budget(k, eps.numerator, eps.denominator)


@lru_cache(maxsize=4096)
def _level_budget(k: int, eps_num: int, eps_den: int) -> Fraction:
    """``error_budget``, built once per (k, eps): a level merge runs about once
    per insert.  Keyed on eps's integer terms, which hash faster than a Fraction."""
    return Fraction(eps_num, 2 * eps_den) * Fraction(1, k * k) / _ZETA2_UPPER


# eps -> [budget_prefix(0), budget_prefix(1), ...], grown as deeper levels are asked for
_PREFIXES: dict[Fraction, list[Fraction]] = {}


def budget_prefix(k: int, cfg: EngineConfig) -> Fraction:
    """delta_1 + ... + delta_k, the most a level-k sample may certify (0 for k < 1)."""
    sums = _PREFIXES.setdefault(cfg.eps, [Fraction(0)])
    while len(sums) <= k:
        sums.append(sums[-1] + error_budget(len(sums), cfg))
    return sums[max(k, 0)]


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
    return {"eps": _frac_str(cfg.eps), "family": cfg.family.kind.value, "scale": cfg.scale}


def _config_fields(meta) -> tuple:
    """Parse ``config_json``'s fields into ``make_config``'s arguments, checking none."""
    return Fraction(meta["eps"]), meta["family"], int(meta["scale"])


def _check_family(owner: str, raw: dict, fam: RangeFamily) -> None:
    """A stored sample names its family, which must be its header's."""
    if raw.get("family") != fam.kind.value:
        raise FamilyMismatchError(f"{owner} sample family {raw.get('family')!r} "
                                  f"differs from its header's {fam.kind.value!r}")


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

    @cached_property
    def additive_bound(self) -> Fraction:
        """eps * n, the additive error of every count the snapshot answers."""
        return self.eps * self.n

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
    """Single-writer stream engine; snapshots are immutable values.

    ``slots`` maps each occupied level k to the sample of one block of 2^k
    stream elements, which weighs 2^k and certifies at most
    ``budget_prefix(k)``.
    """

    def __init__(self, config: EngineConfig):
        self.config = config
        self.n = 0
        self.slots: dict[int, WeightedSample] = {}

    def insert(self, p: Point2) -> "StreamState":
        """Consume one stream element, restoring the binary slot invariant:
        each completed level-k block is the union of its two halves, reduced
        under ``error_budget(k)``.  halve adds each accepted error to the
        sample's certificate."""
        pending = WeightedSample._carrying((p,), _UNIT, _ONE, _ZERO, [1], 1)
        level = 0
        while level in self.slots:
            left = self.slots.pop(level)
            level += 1
            a, b = left.eps_bound, pending.eps_bound
            merged = union((left, pending), (a + b) / 2 if a or b else _ZERO)
            pending, _ = reduce_with_budget(merged, self.config.family,
                                            error_budget(level, self.config))
        self.slots[level] = pending
        self.n += 1
        return self

    def extend(self, points) -> "StreamState":
        for p in points:
            self.insert(p)
        return self

    def snapshot(self) -> Snapshot:
        """Union the live samples and apply the final eps/2 reduction."""
        if self.n < 1:
            raise EpsStreamError("empty stream has no snapshot")
        levels = [self.slots[level] for level in sorted(self.slots, reverse=True)]
        base_err = sum((s.eps_bound * s.total_weight for s in levels), Fraction(0)) / self.n
        merged = canonical(union(levels, base_err))
        reduced, _ = reduce_with_budget(merged, self.config.family, self.config.eps / 2)
        return Snapshot(reduced, self.n, self.config)

    def memory_footprint(self) -> MemoryFootprint:
        return MemoryFootprint(sum(len(s) for s in self.slots.values()), len(self.slots))

    # -- persistence --------------------------------------------------------

    def to_json(self) -> dict:
        cfg = self.config
        return {
            "version": STATE_VERSION,
            "config": {**config_json(cfg), "reduce_thresholds": list(_THRESHOLD_ROWS)},
            "n": self.n,
            "slots": [{"level": lvl, "sample": sample_to_json(s, cfg.family)}
                      for lvl, s in sorted(self.slots.items())],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, obj) -> "StreamState":
        """Rebuild a state written by ``to_json``, checking what it claims.

        A file of another version raises ``EpsStreamError``.  Every field is
        parsed before any is checked: a missing or malformed one raises
        ``StreamParseError``.  A slot sample of another family raises
        ``FamilyMismatchError``.  Slot levels that do not spell n, a level-k
        sample that does not weigh 2^k or certifies more than
        ``budget_prefix(k)``, and reduce thresholds other than the built-in
        ones raise ``EpsStreamError``; an out-of-range config, ``ValueError``.
        """
        if not isinstance(obj, dict):
            raise StreamParseError("not a state file (expected a JSON object)")
        if obj.get("version") != STATE_VERSION:
            raise EpsStreamError(f"unsupported state version {obj.get('version')!r} "
                                 f"(this build reads version {STATE_VERSION})")

        def read():
            meta = obj["config"]
            head = (_config_fields(meta), tuple(tuple(t) for t in meta["reduce_thresholds"]),
                    int(obj["n"]))
            rows = [(int(slot["level"]), slot["sample"]) for slot in obj["slots"]]
            return (*head, [(level, raw, sample_from_json(raw)) for level, raw in rows])

        config, thresholds, n, slots = _parse_fields("state", read)
        cfg = make_config(*config)
        if thresholds != _THRESHOLD_ROWS:
            raise EpsStreamError(f"state was built under reduce thresholds {list(thresholds)}, "
                                 f"not the built-in {list(_THRESHOLD_ROWS)}")
        # checked first, so that no level below exceeds n's bit length
        levels = sorted(level for level, _, _ in slots)
        if n < 0 or levels != [k for k in range(n.bit_length()) if n >> k & 1]:
            raise EpsStreamError("slot levels do not match n")
        state = cls(cfg)
        state.n = n
        for level, raw, sample in slots:
            _check_family(f"slot {level}", raw, cfg.family)
            if sample.total_weight != 2 ** level:
                raise EpsStreamError(f"slot {level} sample weighs "
                                     f"{_frac_str(sample.total_weight)}, not 2^{level}")
            budget = budget_prefix(level, cfg)
            if sample.eps_bound > budget:
                raise EpsStreamError(f"slot {level} certificate {sample.eps_bound} exceeds "
                                     f"its budget {budget}")
            state.slots[level] = sample
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

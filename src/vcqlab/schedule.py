"""Position-dependent codebook-size schedules and their information budgets.

A schedule maps token position t to a codebook size K_t that grows
monotonically from k_min to k_max:

    K_t = k_min + (k_max - k_min) * f(t / (L - 1)),   f(0) = 0, f(1) = 1

with f chosen per family (linear, cosine, power).  The cumulative capacity
I(t) = sum_{i<t} log2 K_i measures how many bits the first t positions can
carry, and t* is the position at which a dataset of N samples exhausts that
budget (I(t) >= log2 N), found exactly as the first t with
K_0 * ... * K_{t-1} >= N.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from numbers import Integral, Real
from pathlib import Path

from .corpus import atomic_write

__all__ = [
    "Family",
    "Schedule",
    "CapacityReport",
    "SCHEDULE_PRESETS",
    "codebook_size_at",
    "codebook_sizes",
    "check_corpus",
    "tstar_uniform",
    "data_threshold",
    "tstar_vcq",
    "capacity_report",
    "schedule_from_json",
    "schedule_to_json",
    "write_capacity_csv",
    "capacity_summary",
    "config_int",
    "check_arg",
    "at_least",
    "check_fields",
    "SCHEDULE_FIELDS",
    "SCHEDULE_REQUIRED",
    "SCHEDULE_RANGES",
]


class Family(str, Enum):
    """Growth-curve family of a schedule."""

    CONSTANT = "constant"
    LINEAR = "linear"
    COSINE = "cosine"
    POWER = "power"


def config_int(value, name: str) -> int:
    """An integer config field: an int, or a float with an integral value.

    Bools (a JSON ``true`` is not 1), other floats and non-numbers raise
    ``ValueError`` naming the field; nothing is truncated.
    """
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_arg(value, name: str, kind: str, rule=None):
    """One argument, checked as :func:`check_fields` checks a field: its type ``kind``, then ``rule``.

    A rule is a (test, text) pair such as ``(lambda v: v > 0, "> 0")``;
    each stage states the ranges of its options once, as rules its own
    check and :func:`check_fields` (for the config loader) both apply.
    Raises ``ValueError`` naming ``name``; returns ints as ``int`` and
    floats as ``float``.
    """
    value = _check_value(value, kind, name)
    if rule is not None:
        test, text = rule
        if not test(value):
            raise ValueError(f"{name} must be {text}, got {value}")
    return value


def at_least(bound):
    """The range rule ``value >= bound``."""
    return (lambda v: v >= bound, f">= {bound}")


@dataclass(frozen=True)
class Schedule:
    """Codebook-size schedule over a token sequence of ``length`` positions.

    ``alpha`` is the exponent of the power family and is ignored by the
    other families.  The constant family returns ``k_max`` at every
    position regardless of ``k_min``.
    """

    family: Family
    k_min: int
    k_max: int
    length: int
    alpha: float | None = None

    def __post_init__(self) -> None:
        # a None field is absent: alpha may be, the required ones may not
        given = {name: getattr(self, name) for name in SCHEDULE_FIELDS if getattr(self, name) is not None}
        checked = check_fields(given, "schedule", SCHEDULE_FIELDS, SCHEDULE_REQUIRED, SCHEDULE_RANGES)
        checked["family"] = Family(checked["family"])
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.k_max < self.k_min:
            raise ValueError(
                f"k_max must be >= k_min, got k_min={self.k_min} k_max={self.k_max}"
            )
        if self.family is not Family.CONSTANT and self.length < 2:
            raise ValueError(
                f"{self.family.value} schedule needs length >= 2 to satisfy "
                f"its boundary conditions, got {self.length}"
            )
        if self.family is Family.POWER and (self.alpha is None or self.alpha <= 0):
            raise ValueError(f"power schedule requires a positive alpha, got {self.alpha}")


def _fraction(schedule: Schedule, tau: float) -> float:
    if schedule.family is Family.LINEAR:
        return tau
    if schedule.family is Family.COSINE:
        return 1.0 - math.cos(math.pi * tau / 2.0)
    if schedule.family is Family.POWER:
        return tau ** schedule.alpha
    raise AssertionError(f"unexpected family {schedule.family}")


def codebook_size_at(schedule: Schedule, t: int) -> int:
    """Codebook size K_t at position ``t`` (0-based).

    The continuous value k_min + (k_max - k_min) * f(t/(L-1)) is rounded
    half-up to the nearest integer and clamped to [k_min, k_max].
    """
    if not 0 <= t < schedule.length:
        raise IndexError(f"position {t} out of range [0, {schedule.length})")
    if schedule.family is Family.CONSTANT:
        return schedule.k_max
    tau = t / (schedule.length - 1)
    value = schedule.k_min + (schedule.k_max - schedule.k_min) * _fraction(schedule, tau)
    rounded = math.floor(value + 0.5)
    return max(schedule.k_min, min(schedule.k_max, rounded))


def codebook_sizes(schedule: Schedule) -> list[int]:
    """All K_t for t = 0 .. L-1."""
    return [codebook_size_at(schedule, t) for t in range(schedule.length)]


def check_corpus(corpus, schedule: Schedule):
    """K_t of every position and the largest token a corpus holds there.

    Returns ``(sizes, top)``.  Raises ``ValueError`` unless the corpus has the
    schedule's length and every token at position t lies below K_t: a corpus
    that breaks either was produced under a different schedule.
    """
    if corpus.length != schedule.length:
        raise ValueError(
            f"corpus length {corpus.length} does not match schedule length {schedule.length}"
        )
    sizes = codebook_sizes(schedule)
    top = corpus.tokens.max(axis=0)
    for t, (high, k_t) in enumerate(zip(top.tolist(), sizes)):
        if high >= k_t:
            raise ValueError(
                f"position {t}: token {high} >= K_t {k_t}; corpus does not match this schedule"
            )
    return sizes, top


def _tstar(sizes: list[int], n_samples: int) -> int:
    """Smallest t with K_0 * ... * K_{t-1} >= N (that is, I(t) >= log2 N) in exact integers; L+1 if none."""
    products = itertools.accumulate(sizes, operator.mul, initial=1)
    return next((t for t, p in enumerate(products) if p >= n_samples), len(sizes) + 1)


def _remaining_bits(sizes: list[int], n_samples: int, estimates) -> list[float]:
    """``max(0, log2 N - log2(K_0 * ... * K_{t-1}))`` per t, signed exactly, from float ``estimates``.

    Float rounding can leave an estimate above 0 where the product already
    reaches N, or at or below 0 where it falls short (``math.log2`` of an int
    above 2**53 rounds it first).  The result is 0.0 exactly from t* on and
    positive before it; an estimate whose sign is right keeps its bits.
    """
    tstar = _tstar(sizes, n_samples)
    out = []
    for t, bits in enumerate(estimates):
        if t >= tstar:
            bits = 0.0
        elif bits <= 0.0:
            # log2(N / P) from the exact gap N - P, at least the least positive float
            p = math.prod(sizes[:t])
            bits = max(math.log1p((n_samples - p) / p) / math.log(2), math.ulp(0.0))
        out.append(bits)
    return out


def tstar_uniform(n_samples: int, k: int) -> int:
    """Smallest t with t * log2 K >= log2 N, i.e. ceil(log2 N / log2 K).

    Computed in exact integer arithmetic (smallest t with K**t >= N), so
    boundary cases at exact powers of K are never off by a float ulp.
    Returns 0 for a single-sample dataset.
    """
    n_samples = check_arg(n_samples, "n_samples", "int", at_least(1))
    k = check_arg(k, "k", "int", (lambda v: v >= 2, ">= 2 (log2 K vanishes at K=1)"))
    # K**t >= 2**t > N at t = N.bit_length()
    return _tstar([k] * n_samples.bit_length(), n_samples)


def data_threshold(k: int, m: int) -> int:
    """Largest dataset size K**(m-1) whose uniform-codebook t* is m - 1.

    One sample more takes t* to m: ``tstar_uniform(K**(m-1) + 1, K) == m``.

    Exact arbitrary-precision integer; K**4 already overflows 32-bit and
    brushes against 64-bit for large K.
    """
    k = check_arg(k, "k", "int", at_least(1))
    m = check_arg(m, "m", "int", at_least(1))
    return k ** (m - 1)


def tstar_vcq(schedule: Schedule, n_samples: int) -> int:
    """Smallest t with I(t) >= log2 N; L+1 if the budget outlasts the sequence."""
    return capacity_report(schedule, n_samples).tstar_vcq


@dataclass(frozen=True)
class CapacityReport:
    """Per-position capacity breakdown of one schedule.

    ``cumulative`` has L+1 entries with cumulative[t] = I(t), so
    cumulative[0] = 0 and cumulative[L] is the total bit budget.
    ``remaining_budget[t]`` = max(0, log2 N - I(t)), the unspent bits before
    position t is consumed: 0.0 exactly when K_0 * ... * K_{t-1} >= N, that
    is from t* on, and positive before.
    """

    sizes: list[int]
    bits_per_position: list[float]
    cumulative: list[float]
    remaining_budget: list[float]
    mean_codebook: float
    bpp: float
    tstar_vcq: int
    n_samples: int
    pixel_count: int


def capacity_report(
    schedule: Schedule, n_samples: int, pixel_count: int = 65536
) -> CapacityReport:
    """Evaluate sizes, bit budget, mean codebook size, BPP and t* in one pass."""
    pixel_count = check_arg(pixel_count, "pixel_count", "int", at_least(1))
    n_samples = check_arg(n_samples, "n_samples", "int", at_least(1))
    sizes = codebook_sizes(schedule)
    bits = [math.log2(k) for k in sizes]
    # I(t), the one capacity curve: analyze reads it from here
    cumulative = [0.0]
    for b in bits:
        cumulative.append(cumulative[-1] + b)
    log_n = math.log2(n_samples)
    remaining = _remaining_bits(sizes, n_samples, [log_n - c for c in cumulative[:-1]])
    return CapacityReport(
        sizes=sizes,
        bits_per_position=bits,
        cumulative=cumulative,
        remaining_budget=remaining,
        mean_codebook=sum(sizes) / len(sizes),
        bpp=cumulative[-1] / pixel_count,
        tstar_vcq=_tstar(sizes, n_samples),
        n_samples=n_samples,
        pixel_count=pixel_count,
    )


def schedule_to_json(schedule: Schedule) -> dict:
    """JSON-ready dict: {"family", "k_min", "k_max", "length", "alpha"?}."""
    out = {
        "family": schedule.family.value,
        "k_min": schedule.k_min,
        "k_max": schedule.k_max,
        "length": schedule.length,
    }
    if schedule.alpha is not None:
        out["alpha"] = schedule.alpha
    return out


# Each declared field type beyond the numbers: its Python type, and what the
# error says a value must be
_JSON_KINDS = {
    "bool": (bool, "true or false"),
    "str": (str, "a string"),
    "dict": (dict, "a JSON object"),
    "list": (list, "a JSON list"),
}


def _check_value(value, kind: str, name: str):
    """``value`` of a field declared ``kind``; ``ValueError`` naming ``name`` if not."""
    if kind == "int":
        return config_int(value, name)
    if kind == "float":
        # bool is an int subclass; a JSON true must not read as 1.0
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        return float(value)
    python_type, noun = _JSON_KINDS[kind]
    if not isinstance(value, python_type):
        raise ValueError(f"{name} must be {noun}, got {value!r}")
    return value


def check_fields(data, section: str, types: dict[str, str], required=(), ranges=None) -> dict:
    """Config section ``data`` checked against its declared field types and ranges.

    ``types`` maps every allowed key to one of "int", "float", "bool",
    "str", "dict" or "list".  An unknown key, a missing ``required`` key, a
    value of the wrong type (a bool or string as a number, a non-integral
    integer, a non-finite float) or a value outside its rule in ``ranges``
    (see :func:`check_arg`) raises ``ValueError`` naming ``section.key``.
    Returns the given keys only, ints as ``int`` and floats as ``float``, so
    absent keys keep the defaults of whatever the section is passed to.
    """
    _check_value(data, "dict", section)
    for key in data:
        if key not in types:
            raise ValueError(f"unknown {section} field {key!r}")
    for key in required:
        if key not in data:
            raise ValueError(f"missing field {section}.{key}")
    checked = {key: _check_value(value, types[key], f"{section}.{key}") for key, value in data.items()}
    for key, rule in (ranges or {}).items():
        if key in checked:
            check_arg(checked[key], f"{section}.{key}", types[key], rule)
    return checked


# Field types of a schedule object, the fields it must have and their ranges
SCHEDULE_FIELDS = {"family": "str", "k_min": "int", "k_max": "int", "length": "int", "alpha": "float"}
SCHEDULE_REQUIRED = ("family", "k_min", "k_max", "length")
_FAMILIES = tuple(f.value for f in Family)
SCHEDULE_RANGES = {
    "family": (lambda v: v in _FAMILIES, f"one of {_FAMILIES}"),
    "k_min": at_least(1),
    "length": at_least(1),
}


# The six standard parameterizations (sequence length 256, 256x256 pixels).
SCHEDULE_PRESETS: dict[str, Schedule] = {
    "constant16k": Schedule(Family.CONSTANT, 16384, 16384, 256),
    "constant8k": Schedule(Family.CONSTANT, 8192, 8192, 256),
    "linear": Schedule(Family.LINEAR, 2, 16384, 256),
    "cosine": Schedule(Family.COSINE, 2, 16384, 256),
    "power2.5": Schedule(Family.POWER, 2, 16384, 256, alpha=2.5),
    "cosine-l": Schedule(Family.COSINE, 2, 11264, 256),
}


def schedule_from_json(data: dict) -> Schedule:
    """Inverse of :func:`schedule_to_json`, with field validation."""
    return Schedule(**check_fields(data, "schedule", SCHEDULE_FIELDS, SCHEDULE_REQUIRED))


def write_capacity_csv(report: CapacityReport, path: str | Path) -> None:
    """Per-position curve as CSV: t, K_t, bits, cumulative_bits, remaining_budget."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "K_t", "bits", "cumulative_bits", "remaining_budget"])
    for t, k in enumerate(report.sizes):
        writer.writerow(
            [
                t,
                k,
                f"{report.bits_per_position[t]:.12g}",
                f"{report.cumulative[t + 1]:.12g}",
                f"{report.remaining_budget[t]:.12g}",
            ]
        )
    atomic_write(path, [buf.getvalue().encode()])


def capacity_summary(report: CapacityReport) -> dict:
    """JSON summary of a capacity report (scalars only)."""
    return {
        "mean_codebook": report.mean_codebook,
        "bpp": report.bpp,
        "total_bits": report.cumulative[-1],
        "tstar_vcq": report.tstar_vcq,
        "n_samples": report.n_samples,
        "pixel_count": report.pixel_count,
        "length": len(report.sizes),
        "k_first": report.sizes[0],
        "k_last": report.sizes[-1],
    }

"""Exact empirical per-position conditional entropy of token corpora.

All quantities are measured by exact counting over the corpus (no
estimator bias correction) in bits.  Sequences are grouped by prefix; the
conditional entropy at position t is the group-size-weighted entropy of the
next-token distribution within each prefix group:

    H(x_t | x_<t) = sum_p (n_p / N) * H(counts of x_t within group p)

One refinement pass serves every measurement.  At position t it regroups
the rows of each surviving prefix group by their next token, keyed by the
1-D integer ``group_id * width + token`` with ``width`` one more than the
largest token at t (sorted, that is (group, token) order).  Groups that
become singletons contribute zero to every later position and are
dropped, which keeps full-corpus analysis fast beyond the entropy cliff.
Each position yields H(x_t | x_<t) and the prefix-joint entropy
H(x_<t+1), which gives the exact bound; after the last position the
surviving groups plus one count per dropped singleton are the full-row
multiplicities, whose entropy is ``joint_bits``.  :func:`analyze` runs the
pass once; :func:`joint_entropy` and :func:`chain_rule_check`
keep an independent full-row ``np.unique`` as the oracle.

Exactness: every term ``(c/n) * log2(c/n)`` uses ``math.log2`` (evaluated
once per distinct ratio), and every sum is exactly rounded: ``math.fsum``,
a single IEEE add for a group of at most two children, or a single IEEE
product ``m * x`` for a group of m children with one count.  So results are
independent of grouping order and equal the naive definitions bit for bit,
signed zeros included: a one-child group gives -0.0, and the joint entropy
of identical rows is -0.0.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import TokenCorpus, atomic_write
from .quantizer import utilization_profile
from .schedule import Schedule, capacity_report, check_fields, check_range, codebook_sizes

__all__ = [
    "EntropyProfile",
    "Prop1Bounds",
    "conditional_entropy_profile",
    "joint_entropy",
    "prop1_bounds",
    "cliff_position",
    "chain_rule_check",
    "analyze",
    "write_profile_csv",
    "profile_summary",
    "THRESHOLD_RANGE",
    "ANALYZE_FIELDS",
    "ANALYZE_RANGES",
]

# Range of a cliff threshold in bits, checked by cliff_position; with its
# type, checked by analyze and by the config loader for cliff_threshold
THRESHOLD_RANGE = (lambda v: 0 < v < math.inf, "finite and > 0")
ANALYZE_FIELDS = {"cliff_threshold": "float"}
ANALYZE_RANGES = {"cliff_threshold": THRESHOLD_RANGE}

_INT64_MAX = int(np.iinfo(np.int64).max)


def entropy_from_counts(counts) -> float:
    """Entropy in bits of the empirical distribution given positive integer counts.

    Every term is ``(c/n) * math.log2(c/n)`` with ``n`` the exact integer
    total, and ``math.fsum`` rounds the sum exactly, so the result does not
    depend on the order of the counts.  Raises ``ValueError`` naming the bad
    count for an empty input, a count below 1, a count that is not an
    integer and a count beyond int64; nothing is truncated or wrapped.
    """
    counts = np.asarray(counts)
    if counts.ndim != 1 or not counts.size:
        raise ValueError(f"counts must be a non-empty 1-D sequence, got shape {counts.shape}")
    if counts.dtype.kind == "O":
        # numpy keeps ints beyond int64 as Python objects
        for index, c in enumerate(counts.tolist()):
            if type(c) is not int:
                raise ValueError(f"counts must be integers, got {c!r} (dtype object)")
            if c < 1:
                raise ValueError(f"counts must be >= 1, got {c} at index {index}")
            if c > _INT64_MAX:
                raise ValueError(f"counts must fit in int64, got {c} at index {index}")
        counts = counts.astype(np.int64)
    elif counts.dtype.kind not in "iu":
        values = counts.tolist()
        bad = next((c for c in values if not (isinstance(c, float) and c.is_integer())), None)
        high = int(counts.argmax())
        if bad is None and values[high] > _INT64_MAX:
            # numpy stores int64 and uint64 values beyond int64 together as floats
            raise ValueError(f"counts must fit in int64, got {values[high]!r} at index {high}")
        bad = values[0] if bad is None else bad
        raise ValueError(f"counts must be integers, got {bad!r} (dtype {counts.dtype})")
    low, high = int(counts.argmin()), int(counts.argmax())
    if counts[low] < 1:
        raise ValueError(f"counts must be >= 1, got {counts[low]} at index {low}")
    if counts[high] > _INT64_MAX:
        raise ValueError(f"counts must fit in int64, got {counts[high]} at index {high}")
    counts = counts.astype(np.int64, copy=False)
    if counts[high] > _INT64_MAX // counts.size and sum(counts.tolist()) > _INT64_MAX:
        raise ValueError(f"counts must sum to at most {_INT64_MAX}")
    return -math.fsum(_xlog2x(counts / int(counts.sum())).tolist())


def refine_groups(gids: np.ndarray, column: np.ndarray, k: int):
    """One prefix-refinement step: regroup rows by (group id, next token).

    Rows are keyed by the 1-D integer ``gids * k + column`` (``column`` in
    [0, k)), which sorts in (group id, token) order.  The key is composed in
    int64 whatever the dtypes of ``gids`` and ``column`` (token columns are
    narrow unsigned).  Returns ``np.unique``'s sorted keys, the new group id
    of every row (the rank of its key) and the size of every new group.

    When every key is below the number of rows, the keys are counted in
    place (``np.bincount``) instead of sorted: the same three arrays in
    O(rows) time and memory.
    """
    row_keys = np.asarray(gids, dtype=np.int64) * k + column
    if row_keys.size and row_keys.max() < row_keys.size:
        dense = np.bincount(row_keys)
        present = dense > 0
        keys = np.flatnonzero(present)
        return keys, (np.cumsum(present) - 1)[row_keys], dense[keys]
    keys, inverse, counts = np.unique(row_keys, return_inverse=True, return_counts=True)
    return keys, inverse.reshape(-1), counts  # numpy 2.0.0 shaped inverse (n, 1)


def _xlog2x(ratios: np.ndarray) -> np.ndarray:
    """``r * math.log2(r)`` for every ratio, calling math.log2 once per distinct r."""
    distinct, inverse = np.unique(ratios, return_inverse=True)
    logs = np.array([math.log2(r) for r in distinct.tolist()], dtype=np.float64)
    return ratios * logs[inverse.reshape(-1)]


def _group_sums(inner, counts, starts, n_children) -> np.ndarray:
    """Exactly rounded sum of ``inner`` over each group of children.

    Group g holds the ``n_children[g]`` children from ``starts[g]``; the
    term of a child of count c in a group of T rows is ``(c/T) log2(c/T)``.
    A group of one or two children is one IEEE add.  A group whose m
    children share one count has m equal terms x: the exact sum is m·x, and
    the IEEE product ``m * x`` rounds it correctly, as ``math.fsum`` of the
    m copies does, so the two are equal bit for bit.  Only the remaining
    groups, whose counts differ, run ``math.fsum``.
    """
    sums = np.add.reduceat(inner, starts)
    wide = n_children > 2
    if not wide.any():
        return sums
    equal = wide & (np.minimum.reduceat(counts, starts) == np.maximum.reduceat(counts, starts))
    sums[equal] = n_children[equal] * inner[starts[equal]]
    for g in np.flatnonzero(wide & ~equal).tolist():
        sums[g] = math.fsum(inner[starts[g] : starts[g] + n_children[g]].tolist())
    return sums


@dataclass(frozen=True)
class _Sweep:
    """What one refinement pass measures; see :func:`_refinement_pass`."""

    conditional: list[float]  # H(x_t | x_<t) for t = 0 .. L-1
    prefix_joint: list[float]  # H(x_<t) for t = 0 .. L
    joint: float  # H(x_1..L), from the full-row count multiset


def _refinement_pass(tokens: np.ndarray) -> _Sweep:
    """Group rows by prefix, one position at a time, and measure each step.

    At position t the rows of every surviving prefix group are split by
    their token (:func:`refine_groups`).  Rows whose group became a
    singleton contribute no conditional entropy at any later position and
    are dropped; they are counted in ``n_singletons``.  After the last
    position the child counts plus ``n_singletons`` ones are the multiset
    of full-row multiplicities, which gives the joint entropy.  Each group's
    sum of child terms is exactly rounded (:func:`_group_sums`).
    """
    n, length = tokens.shape
    rows = np.arange(n)
    gids = np.zeros(n, dtype=np.int64)
    n_singletons = 0
    conditional: list[float] = []
    prefix_joint = [0.0]
    for t in range(length):
        singleton_term = n_singletons * ((1.0 / n) * math.log2(n)) if n_singletons else 0.0
        if not rows.size:
            conditional.append(0.0)
            prefix_joint.append(singleton_term)
            continue
        column = tokens[rows, t]
        # keys composed with the column's own width keep (group, token) order
        # and stay small enough for refine_groups to count them in place
        width = int(column.max()) + 1
        keys, inverse, counts = refine_groups(gids, column, width)
        parents = keys // width
        starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
        totals = np.add.reduceat(counts, starts)
        n_children = np.diff(np.append(starts, counts.size))
        # (c/T) log2(c/T) of every child c of a group of T rows
        inner = _xlog2x(counts / np.repeat(totals, n_children))
        group_sums = _group_sums(inner, counts, starts, n_children)
        conditional.append(math.fsum(((totals / n) * -group_sums).tolist()))
        terms = _xlog2x(counts / n)  # (c/n) log2(c/n)
        prefix_joint.append(math.fsum((-terms).tolist()) + singleton_term)
        keep = counts[inverse] > 1
        n_singletons += rows.size - int(np.count_nonzero(keep))
        rows = rows[keep]
        gids = inverse[keep]
    # full-row multiplicities: every surviving group, and one per singleton
    _, full_rows = np.unique(gids, return_counts=True)
    joint = entropy_from_counts(np.concatenate((full_rows, np.ones(n_singletons, np.int64))))
    return _Sweep(conditional, prefix_joint, joint)


def conditional_entropy_profile(corpus: TokenCorpus) -> list[float]:
    """H(x_t | x_<t) for every position, in bits, by exact counting."""
    return _refinement_pass(corpus.tokens).conditional


def joint_entropy(corpus: TokenCorpus) -> float:
    """Entropy in bits of the empirical distribution over whole sequences."""
    _, counts = np.unique(corpus.tokens, axis=0, return_counts=True)
    return entropy_from_counts(counts)


def chain_rule_check(corpus: TokenCorpus) -> tuple[float, float, float]:
    """(sum of conditional entropies, joint entropy, absolute difference).

    Exact counting makes the chain rule an identity; the difference is pure
    float rounding and stays below 1e-9 bits.
    """
    total = math.fsum(conditional_entropy_profile(corpus))
    joint = joint_entropy(corpus)
    return total, joint, abs(total - joint)


@dataclass(frozen=True)
class Prop1Bounds:
    """The uniform-codebook entropy bound and its unconditional refinement.

    ``prop1[i]`` = max(0, log2 N - i * log2 K) for 0-based index i (the
    bound's 1-based position t is i+1).  It presumes earlier positions
    saturate their capacity; a corpus with a constant early position can
    exceed it.  ``exact[i]`` = min(log2 K_i, log2 N - H(x_<i)) uses the
    measured prefix entropy and always dominates the measurement.
    ``approximate_uniform`` flags that K was taken as the k_max of a
    non-constant schedule.
    """

    prop1: list[float]
    exact: list[float] | None
    uniform_k: int
    approximate_uniform: bool


def prop1_bounds(
    corpus: TokenCorpus | None = None,
    schedule: Schedule | None = None,
    n_samples: int | None = None,
) -> Prop1Bounds:
    """Per-position entropy bounds; the exact bound requires a corpus.

    Callable with a corpus alone (treated as uniform at its k_max), with a
    corpus plus schedule, or with (schedule, n_samples) for the uniform
    bound only.
    """
    return _bounds(corpus, schedule, n_samples, None)


def _bounds(
    corpus: TokenCorpus | None,
    schedule: Schedule | None,
    n_samples: int | None,
    sweep: _Sweep | None,
) -> Prop1Bounds:
    """:func:`prop1_bounds`, reading H(x_<t) from ``sweep`` when one is given."""
    if corpus is None and (schedule is None or n_samples is None):
        raise ValueError("need a corpus, or both a schedule and n_samples")
    n = corpus.n_samples if corpus is not None else int(n_samples)
    if schedule is None:
        schedule = Schedule("constant", corpus.k_max, corpus.k_max, corpus.length)
    length = schedule.length
    if corpus is not None and corpus.length != length:
        raise ValueError(
            f"corpus length {corpus.length} does not match schedule length {length}"
        )
    k_uniform = schedule.k_max
    approximate = schedule.family.value != "constant"
    sizes = codebook_sizes(schedule)
    log_n = math.log2(n)
    log_k = math.log2(k_uniform)
    prop1 = [max(0.0, log_n - i * log_k) for i in range(length)]
    exact = None
    if corpus is not None:
        if sweep is None:
            sweep = _refinement_pass(corpus.tokens)
        prefix = sweep.prefix_joint
        exact = [
            min(math.log2(sizes[i]), log_n - prefix[i]) for i in range(length)
        ]
    return Prop1Bounds(
        prop1=prop1, exact=exact, uniform_k=k_uniform, approximate_uniform=approximate
    )


def cliff_position(profile: list[float], threshold: float = 1.0) -> int:
    """Smallest t with every later conditional entropy below ``threshold``.

    Returns len(profile) when the entropy never settles below the
    threshold, and 0 when it is always below.
    """
    check_range(threshold, "threshold", THRESHOLD_RANGE)
    last = -1
    for i, h in enumerate(profile):
        if h >= threshold:
            last = i
    return last + 1


@dataclass(frozen=True)
class EntropyProfile:
    """Complete per-position entropy analysis of one corpus."""

    conditional_bits: list[float]
    joint_bits: float
    remaining_budget: list[float]
    prop1_bound: list[float]
    exact_bound: list[float]
    cliff_position: int
    utilization: list[float]
    cliff_threshold: float
    n_samples: int
    prop1_uniform_k: int
    prop1_approximate: bool


def analyze(
    corpus: TokenCorpus,
    schedule: Schedule | None = None,
    cliff_threshold: float = 1.0,
) -> EntropyProfile:
    """Measure a corpus: conditional entropies, bounds, cliff, utilization.

    Without a schedule the corpus is treated as uniformly quantized at its
    own k_max.
    """
    # the options and the corpus are checked before the pass, not after it
    cliff_threshold = check_fields(
        {"cliff_threshold": cliff_threshold}, "analyze", ANALYZE_FIELDS, ranges=ANALYZE_RANGES
    )["cliff_threshold"]
    if schedule is None:
        schedule = Schedule("constant", corpus.k_max, corpus.k_max, corpus.length)
    utilization = utilization_profile(corpus, schedule)
    sweep = _refinement_pass(corpus.tokens)
    bounds = _bounds(corpus, schedule, None, sweep)
    return EntropyProfile(
        conditional_bits=sweep.conditional,
        joint_bits=sweep.joint,
        remaining_budget=capacity_report(schedule, corpus.n_samples).remaining_budget,
        prop1_bound=bounds.prop1,
        exact_bound=bounds.exact,
        cliff_position=cliff_position(sweep.conditional, cliff_threshold),
        utilization=utilization,
        cliff_threshold=cliff_threshold,
        n_samples=corpus.n_samples,
        prop1_uniform_k=bounds.uniform_k,
        prop1_approximate=bounds.approximate_uniform,
    )


def write_profile_csv(profile: EntropyProfile, path: str | Path) -> None:
    """CSV columns: t, H_bits, remaining_budget, prop1_bound, exact_bound, utilization."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["t", "H_bits", "remaining_budget", "prop1_bound", "exact_bound", "utilization"]
    )
    for t in range(len(profile.conditional_bits)):
        writer.writerow(
            [
                t,
                f"{profile.conditional_bits[t]:.12g}",
                f"{profile.remaining_budget[t]:.12g}",
                f"{profile.prop1_bound[t]:.12g}",
                f"{profile.exact_bound[t]:.12g}",
                f"{profile.utilization[t]:.12g}",
            ]
        )
    atomic_write(path, [buf.getvalue().encode()])


def profile_summary(profile: EntropyProfile) -> dict:
    """JSON summary with the scalar measurements."""
    return {
        "joint_bits": profile.joint_bits,
        "cliff_position": profile.cliff_position,
        "cliff_threshold": profile.cliff_threshold,
        "n_samples": profile.n_samples,
        "length": len(profile.conditional_bits),
        "sum_conditional_bits": math.fsum(profile.conditional_bits),
        "prop1_uniform_k": profile.prop1_uniform_k,
        "prop1_approximate": profile.prop1_approximate,
    }


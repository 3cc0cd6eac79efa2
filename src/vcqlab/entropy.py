"""Exact empirical per-position conditional entropy of token corpora.

All quantities are measured by exact counting over the corpus (no
estimator bias correction) in bits.  Sequences are grouped by prefix; the
conditional entropy at position t is the group-size-weighted entropy of the
next-token distribution within each prefix group:

    H(x_t | x_<t) = sum_p (n_p / N) * H(counts of x_t within group p)

One refinement pass serves every entropy measurement.  At position t it
regroups the rows of each surviving prefix group by their next token, keyed
by the 1-D integer ``group_id * width + token`` with ``width`` one more
than the largest token at t (sorted, that is (group, token) order).  Groups
that become singletons contribute zero to every later position and are
dropped, which keeps full-corpus analysis fast beyond the entropy cliff.
Each position yields H(x_t | x_<t) and the prefix-joint entropy
H(x_<t+1), which gives the exact bound; after the last position the
surviving groups plus one count per dropped singleton are the full-row
multiplicities, whose entropy is ``joint_bits``.  :func:`analyze` runs the
pass once and takes Proposition 1's data-free bound from
:func:`prop1_bounds`; :func:`joint_entropy` keeps an independent full-row
``np.unique`` as the oracle.  Utilization is the one separate scan of the
corpus, and the one that stops at saturation: :func:`utilization_profile`
marks the ids seen at each position one row block at a time, and stops
counting a position once all K_t of its ids have been seen.

Exactness: every term ``(c/n) * log2(c/n)`` uses ``math.log2`` (evaluated
once per distinct ratio), and every sum is exactly rounded: ``math.fsum``,
a single IEEE add for a group of at most two children, an int64 sum of a
wider group's terms on the grid of its smallest exponent, or
:func:`_exact_sum` of each distinct term times its repeats.  So results are
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
from .schedule import (
    Family, Schedule, _remaining_bits, at_least, capacity_report, check_arg, check_corpus,
    check_fields,
)

__all__ = [
    "EntropyProfile",
    "conditional_entropy_profile",
    "joint_entropy",
    "prop1_bounds",
    "cliff_position",
    "utilization_profile",
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
# Index cells that utilization_profile marks per row block: a block holds
# this many ids, so its one reused index buffer takes 8 MB at most
_UTILIZATION_CELLS = 1 << 20


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


def _exact_sum(values: list[float], repeats: list[int]) -> float:
    """Correctly rounded sum of ``repeats[i]`` copies of every finite ``values[i]``.

    Each float is a binary fraction p / q with q a power of two
    (``as_integer_ratio``), so over the largest q the Python integer sum of
    m·p·(Q/q) is the exact sum, and one integer true division rounds it
    correctly.  ``math.fsum`` of the list with every value repeated rounds
    the same exact sum correctly, so the two are equal bit for bit, in time
    that grows with the number of values and not with the repeats.  Every
    repeat must be >= 1; at an exact zero the result is ``math.fsum``'s own
    zero, whose sign follows the values' signs, not their repeats.
    """
    fractions = [x.as_integer_ratio() for x in values]
    scale = max((q for _, q in fractions), default=1)
    total = sum(m * p * (scale // q) for (p, q), m in zip(fractions, repeats))
    if total:
        return total / scale
    return 0.0 if any(values) else math.fsum(values)


def _counts_entropy(counts, repeats, n: int) -> float:
    """Entropy in bits of ``repeats[i]`` copies of each ``counts[i]``, which sum to ``n``.

    ``-sum m * (c/n) log2(c/n)``, exactly rounded (:func:`_exact_sum`), so
    neither the order of the counts nor whether they repeat moves a bit.
    The repeats reach the sum as Python ints, which cannot overflow.
    """
    return -_exact_sum(_xlog2x(np.asarray(counts) / n).tolist(), np.asarray(repeats).tolist())


def _group_sums(inner, starts, n_children) -> np.ndarray:
    """Exactly rounded sum of ``inner`` over each group of children.

    Group g holds the ``n_children[g]`` children from ``starts[g]``; the
    term of a child of count c in a group of T rows is ``(c/T) log2(c/T)``.
    A group of one or two children is one IEEE add.  A wider group has
    only negative terms (every c < T), each f·2**(e-53) with f an integer
    below 2**53 in magnitude (``np.frexp``): on the grid of the group's
    smallest e the terms are the integers f·2**shift, and while
    ``n_children << max(shift)`` is at most 2**10 their sum is exact in
    int64.  Converting it to float64 rounds it once, correctly, as
    ``math.fsum`` does, and the power-of-two scale is exact (the sum is at
    least one term, far from the subnormal range).  The few groups spread
    wider run ``math.fsum``.
    """
    sums = np.add.reduceat(inner, starts)
    wide = n_children > 2
    if not wide.any():
        return sums
    groups = np.flatnonzero(wide)
    size = n_children[groups]
    first = np.cumsum(size) - size
    fraction, exponent = np.frexp(inner[np.repeat(wide, n_children)])
    low = np.minimum.reduceat(exponent, first)
    shift = np.minimum(exponent - np.repeat(low, size), 11)
    fits = (size << np.maximum.reduceat(shift, first)) <= 1 << 10
    exact = np.add.reduceat(np.ldexp(fraction, 53).astype(np.int64) << shift, first)
    sums[groups[fits]] = np.ldexp(exact[fits].astype(np.float64), low[fits] - 53)
    for g in groups[~fits].tolist():
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
    of full-row multiplicities, which gives the joint entropy.

    Work beyond the grouping follows the distinct counts, not the rows:
    the children are deduplicated by (group size T, count c), so each term
    ``(c/T) log2(c/T)`` is evaluated once per distinct pair and each
    ``(c/n) log2(c/n)`` once per distinct c; each group's sum of child
    terms is exactly rounded (:func:`_group_sums`), and the prefix-joint
    and joint sums are :func:`_counts_entropy` of the distinct counts with
    their repeats.  Each position gathers its column of the surviving rows
    directly from ``tokens``.
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
        # a 1-D gather from the column's strided view beats the 2-D index tokens[rows, t]
        column = tokens[:, t][rows]
        # keys composed with the column's own width keep (group, token) order
        # and stay small enough for refine_groups to count them in place
        width = int(column.max()) + 1
        keys, inverse, counts = refine_groups(gids, column, width)
        parents = keys // width
        starts = np.flatnonzero(np.concatenate(([True], parents[1:] != parents[:-1])))
        totals = np.add.reduceat(counts, starts)
        n_children = np.diff(np.append(starts, counts.size))
        # the distinct (T, c) pairs of the children, each child's pair and its repeats
        pair_width = int(counts.max()) + 1
        pairs, pair_of_child, repeats = refine_groups(
            np.repeat(totals, n_children), counts, pair_width
        )
        sizes = pairs % pair_width
        # (c/T) log2(c/T) of every child c of a group of T rows
        inner = _xlog2x(sizes / (pairs // pair_width))[pair_of_child]
        group_sums = _group_sums(inner, starts, n_children)
        conditional.append(math.fsum(((totals / n) * -group_sums).tolist()))
        prefix_joint.append(_counts_entropy(sizes, repeats, n) + singleton_term)
        # a child of count 1 is one row that became a singleton
        dropped = int(np.count_nonzero(counts == 1))
        gids = inverse
        if dropped:
            n_singletons += dropped
            keep = (counts > 1)[inverse]
            rows, gids = rows[keep], gids[keep]
    # full-row multiplicities: every group alive after the last position,
    # and one per singleton
    alive = sizes > 1
    full_rows, full_repeats = sizes[alive].tolist(), repeats[alive].tolist()
    if n_singletons:
        full_rows.append(1)
        full_repeats.append(n_singletons)
    return _Sweep(conditional, prefix_joint, _counts_entropy(full_rows, full_repeats, n))


def conditional_entropy_profile(corpus: TokenCorpus) -> list[float]:
    """H(x_t | x_<t) for every position, in bits, by exact counting."""
    return _refinement_pass(corpus.tokens).conditional


def joint_entropy(corpus: TokenCorpus) -> float:
    """Entropy in bits of the empirical distribution over whole sequences."""
    _, counts = np.unique(corpus.tokens, axis=0, return_counts=True)
    distinct, repeats = np.unique(counts, return_counts=True)
    return _counts_entropy(distinct, repeats, corpus.n_samples)


def prop1_bounds(schedule: Schedule, n_samples: int) -> list[float]:
    """Proposition 1's data-free bound ``max(0, log2 N - i * log2 k_max)``.

    One value per 0-based index i (the bound's 1-based position t is i+1),
    with K taken as the schedule's k_max; 0.0 exactly when K**i >= N.  The
    bound presumes that earlier positions saturate their capacity, so a
    corpus with a constant early position can exceed it; :func:`analyze`
    pairs it with the exact bound, which never can.
    """
    n_samples = check_arg(n_samples, "n_samples", "int", at_least(1))
    log_n = math.log2(n_samples)
    log_k = math.log2(schedule.k_max)
    sizes = [schedule.k_max] * schedule.length
    return _remaining_bits(sizes, n_samples, [log_n - i * log_k for i in range(schedule.length)])


def cliff_position(profile: list[float], threshold: float = 1.0) -> int:
    """Smallest t with every later conditional entropy below ``threshold``.

    Returns len(profile) when the entropy never settles below the
    threshold, and 0 when it is always below.
    """
    threshold = check_arg(threshold, "threshold", "float", THRESHOLD_RANGE)
    last = -1
    for i, h in enumerate(profile):
        if h >= threshold:
            last = i
    return last + 1


def utilization_profile(corpus: TokenCorpus, schedule: Schedule) -> list[float]:
    """Fraction of the K_t candidate set observed at each position.

    Raises if any observed token id reaches K_t: that means the corpus was
    produced under a different schedule.  Every token is range-checked
    (:func:`check_corpus`) before any is counted.

    A position stops being counted once all K_t of its ids have been seen:
    its fraction is then exactly 1.0 whatever the later rows hold.  After
    every row block the positions still active are recounted, those that
    have reached K_t are dropped, and the next block marks only the span
    from the first to the last of the rest.
    """
    sizes, top = check_corpus(corpus, schedule)
    tokens = corpus.tokens
    n, length = tokens.shape
    # mark every observed (t, token) in one mask with top[t] + 1 <= K_t cells
    # for position t, starting at offsets[t], so the mask is bounded by the
    # ids present, not by k_max
    widths = top.astype(np.int64) + 1
    offsets = np.concatenate(([0], np.cumsum(widths[:-1])))
    seen = np.zeros(int(widths.sum()), dtype=bool)
    block = max(1, _UTILIZATION_CELLS // length)
    index = np.empty(block * length, dtype=np.intp)
    counts = [0] * length
    active = list(range(length))  # positions short of K_t ids
    for start in range(0, n, block):
        # re-marking a saturated position changes nothing, so the span is
        # marked as a view even where it holds saturated positions
        span = slice(active[0], active[-1] + 1)
        rows = tokens[start : start + block, span]
        seen[np.add(rows, offsets[span], out=index[: rows.size].reshape(rows.shape))] = True
        # counted per position: a reduceat with an int64 total casts the whole mask
        for t in active:
            counts[t] = int(np.count_nonzero(seen[offsets[t] : offsets[t] + widths[t]]))
        active = [t for t in active if counts[t] < sizes[t]]
        if not active:
            break
    return [count / k_t for count, k_t in zip(counts, sizes)]


@dataclass(frozen=True)
class EntropyProfile:
    """Complete per-position entropy analysis of one corpus.

    ``prop1_bound`` is :func:`prop1_bounds` at K = ``prop1_uniform_k``, the
    schedule's k_max (``prop1_approximate`` flags a non-constant schedule),
    and a corpus whose early positions do not saturate can exceed it.
    ``exact_bound[i]`` = min(log2 K_i, log2 N - H(x_<i)) uses the measured
    prefix entropy; as H(x_<i+1) <= log2 N it always dominates the measurement.
    """

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
    capacity = capacity_report(schedule, corpus.n_samples)
    log_n = math.log2(corpus.n_samples)
    return EntropyProfile(
        conditional_bits=sweep.conditional,
        joint_bits=sweep.joint,
        remaining_budget=capacity.remaining_budget,
        prop1_bound=prop1_bounds(schedule, corpus.n_samples),
        exact_bound=[
            min(bits, log_n - prefix)
            for bits, prefix in zip(capacity.bits_per_position, sweep.prefix_joint)
        ],
        cliff_position=cliff_position(sweep.conditional, cliff_threshold),
        utilization=utilization,
        cliff_threshold=cliff_threshold,
        n_samples=corpus.n_samples,
        prop1_uniform_k=schedule.k_max,
        prop1_approximate=schedule.family is not Family.CONSTANT,
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


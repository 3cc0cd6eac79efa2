"""Count-based class-conditional autoregressive model over scheduled tokens,
with size-aware classifier-free guidance.

The model stores exact prefix -> next-token counts up to a maximum context
order, per class and pooled over classes, as arrays: for each position and
order, the sorted keys of the contexts seen in training and the sorted
(context, scope, token) triples seen, scope being a class or the pool,
with their counts (see ``CountTable``).  Logits are base-2 log
probabilities of the back-off smoothed distribution

    P0(x)   = (C0(x) + a) / (N0 + a * K_t)            position-t unigram
    Po(x)   = (Co(ctx, x) + a * P(o-1)(x)) / (No(ctx) + a)

interpolating each context order with the next shorter one; an unseen
context passes the shorter-order distribution through unchanged.  Only the
first K_t entries are valid at position t; the rest carry a -inf mask
sentinel and are excluded from softmax.

Guidance combines conditional and unconditional logits as
(1 + s_t) * cond - s_t * uncond, where s_t scales the base strength by the
position's excess log-capacity:

    s_t = s * ramp(t) * (log2 K_t - log2 K_min) / (log2 K_max - log2 K_min)

so the smallest codebook gets no guidance and the largest gets the full
base scale.  On a constant schedule the size factor is identically 1 and
the combination reduces to standard CFG.

A probability that underflows to 0 is a -inf logit, which guidance treats
as masked.

Sampling does each lookup once: at every position the rows' contexts are
looked up once per order (their ranks and seen flags depend on the prefix,
not the scope) and both guidance passes, class and pooled, read them;
order 0, which depends on the scope alone, is built once per distinct
scope; and each higher order is interpolated in place with the same IEEE
operations as the formula above, so the results are its bits.

Sampling is deterministic: ``sample_corpus`` draws all rows together, one
position at a time, and sample i takes its uniforms from its own
``numpy.random.default_rng((seed, i))``, one ``random()`` per position, turned
into a token by inverse CDF (the draw ``Generator.choice(K_t, p=p)`` makes).
Temperature 0 takes the argmax and draws nothing.  A sample therefore does
not depend on how many others are drawn with it.  Every sample has a class
label; the pooled (label None) distributions are read through ``logits``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .corpus import TokenCorpus, token_dtype
from .entropy import refine_groups
from .schedule import (
    Schedule, at_least, check_corpus, check_fields, codebook_size_at, codebook_sizes
)

__all__ = [
    "GuidancePolicy",
    "CountModel",
    "CountTable",
    "MASK",
    "size_aware_scale",
    "apply_guidance",
    "fit_counts",
    "logits",
    "sample_corpus",
    "memorization_report",
    "policy_from_json",
    "POLICY_FIELDS",
    "POLICY_RANGES",
    "MODEL_FIELDS",
    "MODEL_RANGES",
    "SAMPLE_FIELDS",
    "SAMPLE_RANGES",
]

MASK = float("-inf")

_RAMPS = ("none", "cosine")

# Types and ranges of fit_counts' and sample_corpus' options, checked by
# those functions and by the config loader for the model and generation
# sections
MODEL_FIELDS = {"max_order": "int", "smoothing": "float"}
MODEL_RANGES = {
    "max_order": at_least(0),
    "smoothing": (lambda v: 0 < v < math.inf, "finite and > 0"),
}
SAMPLE_FIELDS = {"n_samples": "int", "seed": "int"}
SAMPLE_RANGES = {"n_samples": at_least(1), "seed": at_least(0)}


@dataclass(frozen=True)
class GuidancePolicy:
    """Guidance configuration: base scale, ramp, size-awareness, temperature."""

    schedule: Schedule
    scale: float = 0.0
    ramp: str = "none"
    power: float = 1.5
    size_aware: bool = True
    temperature: float = 1.0

    def __post_init__(self) -> None:
        own = {name: getattr(self, name) for name in POLICY_FIELDS}
        for name, value in check_fields(own, "policy", POLICY_FIELDS, ranges=POLICY_RANGES).items():
            object.__setattr__(self, name, value)


# Field types and ranges of a policy config object: every GuidancePolicy
# field but the schedule
POLICY_FIELDS = {f.name: f.type for f in fields(GuidancePolicy) if f.name != "schedule"}
POLICY_RANGES = {
    "scale": at_least(0),
    "ramp": (lambda v: v in _RAMPS, f"one of {_RAMPS}"),
    "power": (lambda v: v > 0, "> 0"),
    "temperature": at_least(0),
}


def size_aware_scale(policy: GuidancePolicy, t: int) -> float:
    """Guidance scale s_t at position t.

    s_t = scale * ramp(t) * size_factor(t); the size factor is the excess
    log-capacity of K_t relative to [K_min, K_max] (1 when size_aware is
    off or the schedule is degenerate).  The cosine ramp is
    (1 - cos(pi * (t/(L-1))**power)) / 2.
    """
    sched = policy.schedule
    if not 0 <= t < sched.length:
        raise IndexError(f"position {t} out of range [0, {sched.length})")
    value = policy.scale
    if policy.ramp == "cosine":
        tau = t / (sched.length - 1) if sched.length > 1 else 1.0
        value *= (1.0 - math.cos(math.pi * tau ** policy.power)) / 2.0
    if policy.size_aware and sched.k_max > sched.k_min:
        lo = math.log2(sched.k_min)
        hi = math.log2(sched.k_max)
        value *= (math.log2(codebook_size_at(sched, t)) - lo) / (hi - lo)
    return value


def apply_guidance(
    logits_cond: np.ndarray, logits_uncond: np.ndarray, s_t: float
) -> np.ndarray:
    """(1 + s_t) * cond - s_t * uncond, preserving -inf mask entries.

    Entries masked in either input stay masked; all other entries must be
    finite.
    """
    c = np.asarray(logits_cond, dtype=np.float64)
    u = np.asarray(logits_uncond, dtype=np.float64)
    if c.shape != u.shape:
        raise ValueError(f"logit shapes differ: {c.shape} vs {u.shape}")
    masked = np.isneginf(c) | np.isneginf(u)
    if not (np.all(np.isfinite(c) | masked) and np.all(np.isfinite(u) | masked)):
        raise ValueError("unmasked logits must be finite")
    # a masked entry may compute inf - inf; it is overwritten, and every
    # unmasked entry is finite, so only masked entries can be invalid
    with np.errstate(invalid="ignore"):
        out = (1.0 + s_t) * c
        out -= s_t * u
    out[masked] = MASK
    return out


@dataclass(frozen=True)
class CountTable:
    """Next-token counts after every context of one order at one position.

    A context of order o is identified by its rank: the index of its key in
    ``keys``, where the key of (x[t-o], ..., x[t-1]) is
    ``rank_{o-1} * k_max + x[t-o]`` and rank_{o-1} is the rank of the
    context one token shorter (0 for the empty context, whose table holds
    the single key 0).  Keys compose dense ranks, never raw powers of k_max,
    so they stay below N * k_max for N training rows.

    Counts are kept per scope: scope c < len(classes) is class c's rows,
    scope len(classes) is all rows pooled.  ``pairs`` lists, sorted and
    distinct, ``base + token`` for every next token seen after a context in
    a scope, where ``base = (rank * (len(classes) + 1) + scope) * K_t``, and
    ``counts`` how often each occurred.  The tokens seen after one context
    in one scope are therefore the run of pairs in [base, base + K_t), and
    their total is the sum of that run's counts.
    """

    keys: np.ndarray
    pairs: np.ndarray
    counts: np.ndarray


@dataclass
class CountModel:
    """Exact prefix -> next-token count tables for one schedule.

    ``tables[t][o]`` is the :class:`CountTable` of order-o contexts ending
    at position t, for o = 0 .. min(max_order, t); the pooled scope's
    counts are the sum of the per-class counts.
    """

    schedule: Schedule
    k_max: int
    length: int
    max_order: int
    smoothing: float
    classes: list[int]
    tables: list[list[CountTable]] = field(repr=False)


def _find(sorted_keys: np.ndarray, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query in ``sorted_keys`` and whether it is present there."""
    pos = np.searchsorted(sorted_keys, queries)
    found = pos < len(sorted_keys)
    found[found] = sorted_keys[pos[found]] == queries[found]
    return pos, found


def fit_counts(
    corpus: TokenCorpus,
    schedule: Schedule,
    max_order: int = 4,
    smoothing: float = 0.1,
) -> CountModel:
    """Count every (class, context, next-token) occurrence up to max_order.

    The corpus must carry labels and respect the schedule's per-position
    sizes, the schedule's k_max must not exceed the corpus's, and
    n_samples * (classes + 1) * k_max must fit in int64, the range of the
    tables' pairs.  Deterministic: counting is pure.
    """
    if corpus.labels is None:
        raise ValueError("fit_counts requires a labelled corpus")
    max_order, smoothing = check_fields(
        {"max_order": max_order, "smoothing": smoothing}, "model", MODEL_FIELDS, ranges=MODEL_RANGES
    ).values()
    # context keys are composed with corpus.k_max, so a sampled prefix token
    # at or above it would collide with another context's key
    if schedule.k_max > corpus.k_max:
        raise ValueError(f"schedule k_max {schedule.k_max} exceeds corpus k_max {corpus.k_max}")
    sizes, _ = check_corpus(corpus, schedule)
    tokens, n = corpus.tokens, corpus.n_samples
    classes, class_index = np.unique(corpus.labels, return_inverse=True)
    n_scopes = len(classes) + 1
    # ranks lie below n, so every pair lies below n * n_scopes * k_max
    if n * n_scopes * corpus.k_max > np.iinfo(np.int64).max:
        raise ValueError(
            f"{n} rows x {n_scopes} scopes x k_max {corpus.k_max} overflows int64 pair keys"
        )
    # every row counts twice: in its class scope and in the pooled scope
    scope = np.concatenate([class_index, np.full(n, len(classes))])
    tables = []
    for t, k_t in enumerate(sizes):
        nxt = np.tile(tokens[:, t], 2)
        keys = np.zeros(1, dtype=np.int64)
        rank = np.zeros(n, dtype=np.int64)
        per_order = []
        for order in range(min(max_order, t) + 1):
            if order:
                keys, rank, _ = refine_groups(rank, tokens[:, t - order], corpus.k_max)
            pairs = (np.tile(rank, 2) * n_scopes + scope) * k_t + nxt
            per_order.append(CountTable(keys, *np.unique(pairs, return_counts=True)))
        tables.append(per_order)
    return CountModel(
        schedule=schedule,
        k_max=corpus.k_max,
        length=corpus.length,
        max_order=max_order,
        smoothing=smoothing,
        classes=classes.tolist(),
        tables=tables,
    )


def _contexts(model: CountModel, prefix: np.ndarray, t: int) -> list[tuple[np.ndarray, ...]]:
    """(rank, seen) of every row's context at position t, for orders 1, 2, ...

    Row i's order-o context is ``prefix[i, t-o:t]``; ``rank`` indexes its key
    in the order's table and ``seen`` says whether it and every shorter
    context were found there.  Neither depends on the row's scope, so one
    lookup serves the class and the pooled distributions.
    """
    n = len(prefix)
    rank = np.zeros(n, dtype=np.int64)
    seen = np.ones(n, dtype=bool)
    contexts = []
    for order, table in enumerate(model.tables[t][1:], start=1):
        rank, found = _find(table.keys, rank * model.k_max + prefix[:, t - order])
        seen = seen & found
        contexts.append((rank, seen))
    return contexts


def _runs(table: CountTable, owners: np.ndarray, base: np.ndarray, k_t: int):
    """(owner, token, count) of every pair in the runs [base[i], base[i] + K_t)
    of ``table``, owned by ``owners[i]``; each (owner, token) occurs once."""
    # one search finds each run's start and end
    first, end = np.searchsorted(table.pairs, np.concatenate((base, base + k_t))).reshape(2, -1)
    width = end - first
    # the runs, concatenated
    entries = np.arange(width.sum()) + np.repeat(first - np.cumsum(width) + width, width)
    tokens = table.pairs[entries] - np.repeat(base, width)
    return np.repeat(owners, width), tokens, table.counts[entries]


def _probs(
    model: CountModel,
    scope: np.ndarray,
    contexts: list[tuple[np.ndarray, ...]],
    t: int,
    k_t: int,
) -> np.ndarray:
    """Back-off distributions (n, K_t) at position t for n rows.

    Row i reads the counts of scope ``scope[i]`` after its contexts, as
    :func:`_contexts` looked them up.
    """
    alpha = model.smoothing
    n = len(scope)
    n_scopes = len(model.classes) + 1
    tables = model.tables[t]
    # the position-t unigram with per-outcome Laplace mass over the K_t
    # support depends on the scope alone: build one row per distinct scope
    # and gather it to every row of that scope
    scopes, inverse = np.unique(scope, return_inverse=True)
    owner, token, counts = _runs(tables[0], np.arange(len(scopes)), scopes * k_t, k_t)
    unigram = np.full((len(scopes), k_t), alpha)
    unigram[owner, token] += counts
    unigram /= (np.bincount(owner, weights=counts, minlength=len(scopes)) + alpha * k_t)[:, None]
    probs = unigram[inverse]
    scaled = np.empty_like(probs)
    for table, (rank, seen) in zip(tables[1:], contexts):
        rows = np.flatnonzero(seen)
        base = (rank[rows] * n_scopes + scope[rows]) * k_t
        owner, token, counts = _runs(table, rows, base, k_t)
        # each total sums its run exactly, as every count and total is an
        # integer below 2**53, and is 0 exactly where the row's context is
        # unseen in its scope
        total = np.bincount(owner, weights=counts, minlength=n)
        # interpolate, (counts + alpha * probs) / (total + alpha), in place:
        # fl(count + fl(alpha * p)) is the same sum however it is ordered
        np.multiply(probs, alpha, out=scaled)
        scaled[owner, token] += counts
        scaled /= (total + alpha)[:, None]
        # an unseen context passes the distribution through unchanged
        # (computing it with total 0 would round differently)
        unseen = total == 0
        scaled[unseen] = probs[unseen]
        probs, scaled = scaled, probs
    return probs


def _check_integers(values, name: str) -> None:
    """Refuse bools and non-integers, which would otherwise read as equal ints."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"{name} must be integers, got {value!r}")


def _scopes(model: CountModel, labels) -> np.ndarray:
    """Table scope of each label: its class index, or the pooled scope for None."""
    _check_integers([label for label in labels if label is not None], "class ids")
    index = {label: i for i, label in enumerate(model.classes)}
    index[None] = len(model.classes)
    unknown = sorted({repr(label) for label in labels if label not in index})
    if unknown:
        raise ValueError(
            f"unknown class id {', '.join(unknown)}; known: {model.classes}"
        )
    return np.array([index[label] for label in labels], dtype=np.int64)


def logits(model: CountModel, label: int | None, prefix, t: int) -> np.ndarray:
    """Base-2 log probabilities over all k_max tokens at position t.

    ``prefix`` must hold exactly t tokens.  Entries at or beyond K_t are
    masked with -inf.  ``label`` None selects the pooled (unconditional)
    counts.
    """
    if not 0 <= t < model.length:
        raise IndexError(f"position {t} out of range [0, {model.length})")
    prefix = list(prefix)
    if len(prefix) != t:
        raise ValueError(f"prefix must hold exactly {t} tokens, got {len(prefix)}")
    _check_integers(prefix, "prefix tokens")
    if any(not 0 <= p < model.k_max for p in prefix):
        raise ValueError(f"prefix tokens must lie in [0, {model.k_max})")
    scope = _scopes(model, [label])
    k_t = codebook_size_at(model.schedule, t)
    out = np.full(model.k_max, MASK, dtype=np.float64)
    rows = np.array([prefix], dtype=np.int64)
    out[:k_t] = _log2(_probs(model, scope, _contexts(model, rows, t), t, k_t))[0]
    return out


def _log2(probs: np.ndarray) -> np.ndarray:
    """Base-2 logits of ``probs``, in place; a probability that underflowed to 0 is -inf."""
    with np.errstate(divide="ignore"):
        return np.log2(probs, out=probs)


def _softmax_base2(values: np.ndarray) -> np.ndarray:
    weights = values - values.max(axis=-1, keepdims=True)
    np.exp2(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


# Generator.choice's tolerance on the sum of a float64 probability vector
_SUM_ATOL = math.sqrt(np.finfo(np.float64).eps)


def _sample_rows(
    model: CountModel,
    policy: GuidancePolicy,
    scope: np.ndarray,
    uniforms: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """Sample row i of ``out`` for entry i of ``scope``, all rows one position at a time.

    ``uniforms[i, t]`` is row i's draw at position t (None at temperature 0,
    which takes the argmax).  Drawing by inverse CDF consumes exactly what
    ``Generator.choice(K_t, p=p)`` would, and picks the same token.  Each
    column of ``out`` is written in place before any later one is read, so
    ``out`` may start uninitialized.
    """
    sizes = codebook_sizes(model.schedule)
    pooled = np.full(len(scope), len(model.classes))
    for t, k_t in enumerate(sizes):
        s_t = size_aware_scale(policy, t)
        # one context lookup serves the class and the pooled distributions
        contexts = _contexts(model, out, t)
        guided = _log2(_probs(model, scope, contexts, t, k_t))
        if s_t:
            # (1 + 0) * cond - 0 * uncond is cond exactly, so s_t = 0 skips it
            uncond = _log2(_probs(model, pooled, contexts, t, k_t))
            guided = apply_guidance(guided, uncond, s_t)
        if policy.temperature == 0.0:
            out[:, t] = np.argmax(guided, axis=1)
            continue
        guided /= policy.temperature
        p = _softmax_base2(guided)
        if not (np.all(p >= 0) and np.all(np.abs(p.sum(axis=1) - 1.0) <= _SUM_ATOL)):
            raise ValueError(f"position {t}: probabilities are negative or do not sum to 1")
        cdf = np.cumsum(p, axis=1)
        cdf = cdf / cdf[:, -1:]
        # searchsorted(cdf, u, side="right") of each row; cdf is non-decreasing
        out[:, t] = np.count_nonzero(cdf <= uniforms[:, t, None], axis=1)


# rows sampled together are capped so one (rows, k_max) float array stays
# near 8 MB however large the codebook
_BLOCK_ELEMENTS = 1 << 20


def sample_corpus(
    model: CountModel,
    policy: GuidancePolicy,
    n_samples: int = 200,
    seed: int = 0,
    labels=None,
) -> TokenCorpus:
    """Draw a corpus of sequences; sample i uses generator seed (seed, i).

    ``labels`` defaults to cycling through the model's classes; an unknown
    label is rejected before sampling starts.  Each sample draws one
    uniform per position from its own generator, so results are
    independent of how rows are batched.
    """
    n_samples, seed = check_fields(
        {"n_samples": n_samples, "seed": seed}, "generation", SAMPLE_FIELDS, ranges=SAMPLE_RANGES
    ).values()
    # a policy on another schedule would take its s_t from the wrong K_t
    if policy.schedule != model.schedule:
        raise ValueError(
            f"policy schedule {policy.schedule} does not match model schedule {model.schedule}"
        )
    if labels is None:
        classes = model.classes or [0]
        labels = [classes[i % len(classes)] for i in range(n_samples)]
    labels = list(labels)
    if len(labels) != n_samples:
        raise ValueError(f"need {n_samples} labels, got {len(labels)}")
    if None in labels:
        raise ValueError("sample_corpus labels must be class ids, got None")
    scope = _scopes(model, labels)
    uniforms = None
    if policy.temperature != 0.0:
        uniforms = np.stack(
            [np.random.default_rng((seed, i)).random(model.length) for i in range(n_samples)]
        )
    block = max(1, _BLOCK_ELEMENTS // model.k_max)
    rows = np.empty((n_samples, model.length), dtype=token_dtype(model.k_max))
    for lo in range(0, n_samples, block):
        _sample_rows(
            model,
            policy,
            scope[lo : lo + block],
            None if uniforms is None else uniforms[lo : lo + block],
            rows[lo : lo + block],
        )
    return TokenCorpus(tokens=rows, k_max=model.k_max, labels=np.asarray(labels))


def memorization_report(
    generated: TokenCorpus, training: TokenCorpus
) -> tuple[float, float]:
    """(exact_match_rate, mean_longest_prefix) of generated vs training rows.

    exact_match_rate is the fraction of generated rows appearing verbatim
    in the training corpus; mean_longest_prefix averages, over generated
    rows, the longest prefix length shared with any training row.
    """
    if generated.length != training.length:
        raise ValueError(
            f"sequence lengths differ: generated {generated.length}, "
            f"training {training.length}"
        )
    # group generated and training rows together by prefix; a generated
    # row's prefix of length t+1 occurs in training while its group holds a
    # training row, and groups without both kinds of row are dropped
    n = generated.n_samples
    k = max(generated.k_max, training.k_max)
    # the wider of the two unsigned token dtypes, which holds every id below k
    tokens = np.concatenate((generated.tokens, training.tokens))
    rows = np.arange(tokens.shape[0])
    gids = np.zeros(rows.size, dtype=np.int64)
    prefix_total = 0
    matched = n
    for t in range(training.length):
        keys, inverse, _ = refine_groups(gids, tokens[:, t][rows], k)
        is_generated = rows < n
        has_generated = np.zeros(keys.size, dtype=bool)
        has_generated[inverse[is_generated]] = True
        has_training = np.zeros(keys.size, dtype=bool)
        has_training[inverse[~is_generated]] = True
        keep = (has_generated & has_training)[inverse]
        rows = rows[keep]
        gids = inverse[keep]
        matched = int(np.count_nonzero(rows < n))  # generated rows matching t+1 tokens
        prefix_total += matched
        if not matched:
            break
    return matched / n, prefix_total / n


def policy_from_json(data: dict, schedule: Schedule) -> GuidancePolicy:
    """Build a policy from {"scale", "ramp", "power", "size_aware", "temperature"}."""
    return GuidancePolicy(schedule=schedule, **check_fields(data, "policy", POLICY_FIELDS))

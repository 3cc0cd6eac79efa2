import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcqlab
import vcqlab.generation
from vcqlab.corpus import TokenCorpus
from vcqlab.generation import (
    MASK,
    POLICY_FIELDS,
    CountTable,
    GuidancePolicy,
    apply_guidance,
    fit_counts,
    logits,
    memorization_report,
    policy_from_json,
    sample_corpus,
    size_aware_scale,
)
from vcqlab.schedule import Family, Schedule, codebook_sizes

CONSTANT8 = Schedule(Family.CONSTANT, 8, 8, 4)


def make_corpus(tokens, k_max, labels):
    return TokenCorpus(tokens=np.asarray(tokens), k_max=k_max, labels=np.asarray(labels))


def decode_tables(model):
    """``model.tables`` as dicts: {(label, t, ctx): {token: count}} per class
    and {(t, ctx): {token: count}} pooled, ctx being the tuple of context tokens."""
    class_counts, pooled_counts = {}, {}
    pooled = len(model.classes)
    for t, (per_order, k_t) in enumerate(zip(model.tables, codebook_sizes(model.schedule))):
        contexts = [()]  # context tuple of each rank, one order shorter
        for order, table in enumerate(per_order):
            if order:
                contexts = [
                    (key % model.k_max,) + contexts[key // model.k_max]
                    for key in table.keys.tolist()
                ]
            assert np.all(np.diff(table.pairs) > 0) and np.all(table.counts > 0)
            for pair, count in zip(table.pairs.tolist(), table.counts.tolist()):
                run, token = divmod(pair, k_t)
                rank, scope = divmod(run, pooled + 1)
                if scope == pooled:
                    bucket = pooled_counts.setdefault((t, contexts[rank]), {})
                else:
                    bucket = class_counts.setdefault((model.classes[scope], t, contexts[rank]), {})
                bucket[token] = count
    return class_counts, pooled_counts


# -- reference: the dict-backed count model and one-row-at-a-time sampling
# loop that the array engine replaced, which it must match token for token


def reference_fit(corpus, max_order):
    class_counts, pooled_counts = {}, {}
    for row, label in zip(corpus.tokens.tolist(), corpus.labels.tolist()):
        for t in range(corpus.length):
            for order in range(min(max_order, t) + 1):
                ctx = tuple(row[t - order : t])
                for table, key in ((pooled_counts, (t, ctx)), (class_counts, (label, t, ctx))):
                    bucket = table.setdefault(key, {})
                    bucket[row[t]] = bucket.get(row[t], 0) + 1
    return class_counts, pooled_counts


def reference_probs(tables, max_order, alpha, label, prefix, t, k_t):
    class_counts, pooled_counts = tables
    if label is None:
        lookup = lambda ctx: pooled_counts.get((t, ctx))
    else:
        lookup = lambda ctx: class_counts.get((label, t, ctx))
    probs = np.full(k_t, alpha, dtype=np.float64)
    base = lookup(())
    total = 0
    if base:
        for token, count in base.items():
            probs[token] += count
            total += count
    probs /= total + alpha * k_t
    for order in range(1, min(max_order, t) + 1):
        bucket = lookup(tuple(prefix[t - order : t]))
        if not bucket:
            continue
        vec = np.zeros(k_t, dtype=np.float64)
        total = 0
        for token, count in bucket.items():
            vec[token] += count
            total += count
        probs = (vec + alpha * probs) / (total + alpha)
    return probs


def reference_logits(tables, corpus, schedule, max_order, alpha, label, prefix, t):
    k_t = codebook_sizes(schedule)[t]
    out = np.full(corpus.k_max, MASK, dtype=np.float64)
    with np.errstate(divide="ignore"):  # a probability that underflowed to 0 is -inf
        out[:k_t] = np.log2(reference_probs(tables, max_order, alpha, label, prefix, t, k_t))
    return out


def reference_sample_corpus(corpus, policy, max_order, alpha, n_samples, seed, labels):
    tables = reference_fit(corpus, max_order)
    sizes = codebook_sizes(policy.schedule)
    rows = []
    for i, label in enumerate(labels):
        rng = np.random.default_rng((seed, i))
        prefix = []
        for t in range(corpus.length):
            args = (tables, corpus, policy.schedule, max_order, alpha)
            cond = reference_logits(*args, label, prefix, t)
            uncond = reference_logits(*args, None, prefix, t)
            valid = apply_guidance(cond, uncond, size_aware_scale(policy, t))[: sizes[t]]
            if policy.temperature == 0.0:
                token = int(np.argmax(valid))
            else:
                shifted = valid / policy.temperature
                weights = np.exp2(shifted - shifted.max())
                token = int(rng.choice(sizes[t], p=weights / weights.sum()))
            prefix.append(token)
        rows.append(prefix)
    return np.array(rows, dtype=np.int64)


class TestSizeAwareScale:
    # linear 2 -> 32 over 31 positions: K_6 = 8, the log2 midpoint of [2, 32]
    SCHED = Schedule(Family.LINEAR, 2, 32, 31)

    def test_zero_at_k_min(self):
        policy = GuidancePolicy(schedule=self.SCHED, scale=10.0, size_aware=True)
        assert size_aware_scale(policy, 0) == 0.0

    def test_full_scale_at_k_max(self):
        policy = GuidancePolicy(schedule=self.SCHED, scale=10.0, size_aware=True)
        assert size_aware_scale(policy, 30) == 10.0

    def test_half_scale_at_log_midpoint(self):
        policy = GuidancePolicy(schedule=self.SCHED, scale=10.0, size_aware=True)
        assert size_aware_scale(policy, 6) == pytest.approx(5.0, abs=1e-12)

    def test_constant_schedule_factor_is_one(self):
        sched = Schedule(Family.CONSTANT, 2, 64, 8)
        policy = GuidancePolicy(schedule=sched, scale=3.0, size_aware=True)
        for t in range(8):
            assert size_aware_scale(policy, t) == 3.0

    def test_degenerate_k_min_equals_k_max(self):
        sched = Schedule(Family.CONSTANT, 16, 16, 8)
        policy = GuidancePolicy(schedule=sched, scale=2.0, size_aware=True)
        assert size_aware_scale(policy, 3) == 2.0

    def test_cosine_ramp_endpoints(self):
        policy = GuidancePolicy(
            schedule=self.SCHED, scale=4.0, ramp="cosine", power=1.5, size_aware=False
        )
        assert size_aware_scale(policy, 0) == 0.0  # ramp(0) = 0
        assert size_aware_scale(policy, 30) == pytest.approx(4.0)  # ramp(1) = 1

    def test_size_aware_off(self):
        policy = GuidancePolicy(schedule=self.SCHED, scale=7.0, size_aware=False)
        for t in range(31):
            assert size_aware_scale(policy, t) == 7.0

    def test_range_error_names_policy_field(self):
        with pytest.raises(ValueError, match=re.escape("policy.power must be > 0")):
            GuidancePolicy(self.SCHED, power=0)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            GuidancePolicy(schedule=self.SCHED, scale=-1.0)
        with pytest.raises(ValueError):
            GuidancePolicy(schedule=self.SCHED, ramp="step")
        with pytest.raises(ValueError):
            GuidancePolicy(schedule=self.SCHED, power=0.0)

    @pytest.mark.parametrize("field", ["scale", "power", "temperature", "smoothing"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        if field == "smoothing":  # the count model's, not the policy's
            sched = Schedule(Family.CONSTANT, 4, 4, 2)
            with pytest.raises(ValueError, match="smoothing must be finite"):
                fit_counts(make_corpus([[0, 1]], 4, [0]), sched, smoothing=value)
            return
        with pytest.raises(ValueError, match=field):
            GuidancePolicy(schedule=self.SCHED, **{field: value})
        with pytest.raises(ValueError, match=field):
            policy_from_json({field: value}, self.SCHED)

    @pytest.mark.parametrize("field", ["scale", "power", "temperature"])
    @pytest.mark.parametrize("value", ["3", True, False, None, [1.0]])
    def test_policy_numbers_must_be_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            policy_from_json({field: value}, self.SCHED)

    @pytest.mark.parametrize("value", [1, None, True, ["cosine"]])
    def test_ramp_must_be_string(self, value):
        with pytest.raises(ValueError, match="ramp must be a string"):
            policy_from_json({"ramp": value}, self.SCHED)

    def test_integral_numbers_accepted(self):
        policy = policy_from_json({"scale": 3, "power": 2, "temperature": 1}, self.SCHED)
        assert (policy.scale, policy.power, policy.temperature) == (3.0, 2.0, 1.0)

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    def test_size_aware_must_be_bool(self, value):
        with pytest.raises(ValueError, match="size_aware"):
            policy_from_json({"size_aware": value}, self.SCHED)
        with pytest.raises(ValueError, match="size_aware"):
            GuidancePolicy(schedule=self.SCHED, size_aware=value)


class TestApplyGuidance:
    def test_zero_scale_is_identity(self, rng):
        c, u = rng.normal(size=12), rng.normal(size=12)
        assert np.array_equal(apply_guidance(c, u, 0.0), c)

    def test_hand_arithmetic(self):
        out = apply_guidance(np.array([2.0, 0.0]), np.array([1.0, 1.0]), 1.0)
        assert np.array_equal(out, [3.0, -1.0])

    def test_mask_propagates_from_either_side(self):
        c = np.array([1.0, MASK, 2.0])
        u = np.array([0.0, 0.0, MASK])
        out = apply_guidance(c, u, 0.5)
        assert out[1] == MASK and out[2] == MASK
        assert math.isfinite(out[0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            apply_guidance(np.zeros(3), np.zeros(4), 1.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            apply_guidance(np.array([np.nan]), np.array([0.0]), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["cond", "uncond"])
    def test_unmasked_nan_and_inf_rejected_on_either_side(self, bad, side):
        # one bad entry in a (2, 3) batch, next to a masked one
        c = np.array([[0.5, MASK, 1.0], [2.0, 0.0, -1.0]])
        u = np.array([[0.0, 0.0, 1.0], [1.0, MASK, 3.0]])
        (c if side == "cond" else u)[1, 2] = bad
        with pytest.raises(ValueError, match="unmasked logits must be finite"):
            apply_guidance(c, u, 2.0)

    def test_inf_under_the_other_sides_mask_stays_masked(self):
        out = apply_guidance(np.array([np.inf, 1.0]), np.array([MASK, 0.0]), 2.0)
        assert out.tolist() == [MASK, 3.0]
        out = apply_guidance(np.array([MASK, 1.0]), np.array([np.nan, 0.0]), 2.0)
        assert out.tolist() == [MASK, 3.0]

    def test_batch_without_masks_is_the_formula(self, rng):
        c, u = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        out = apply_guidance(c, u, 1.5)
        assert np.array_equal(out, 2.5 * c - 1.5 * u)
        assert out is not c and not np.shares_memory(out, c)

    def test_shared_shift_adds_constant(self, rng):
        c, u = rng.normal(size=8), rng.normal(size=8)
        base = apply_guidance(c, u, 2.0)
        shifted = apply_guidance(c + 5.0, u + 5.0, 2.0)
        assert np.allclose(shifted, base + 5.0, atol=1e-12)

    def test_affine_in_scale(self, rng):
        c, u = rng.normal(size=8), rng.normal(size=8)
        s0 = apply_guidance(c, u, 0.0)
        s1 = apply_guidance(c, u, 1.0)
        s2 = apply_guidance(c, u, 2.0)
        assert np.allclose(s2 - s1, s1 - s0, atol=1e-12)


class TestFitCounts:
    def test_requires_labels(self):
        corpus = TokenCorpus(tokens=np.zeros((2, 4), dtype=int), k_max=8)
        with pytest.raises(ValueError, match="label"):
            fit_counts(corpus, CONSTANT8)

    def test_schedule_violation_rejected(self):
        corpus = make_corpus([[7, 0]], 8, [0])
        sched = Schedule(Family.LINEAR, 2, 8, 2)  # K_0 = 2 but token 7 observed
        with pytest.raises(ValueError, match="does not match this schedule"):
            fit_counts(corpus, sched)

    def test_schedule_wider_than_corpus_rejected(self):
        # contexts are keyed with the corpus's k_max: a sampled token at or
        # above it would collide with another context's key
        corpus = make_corpus([[0, 1, 2], [3, 2, 1]], 4, [0, 1])
        with pytest.raises(ValueError, match="schedule k_max 8 exceeds corpus k_max 4"):
            fit_counts(corpus, Schedule(Family.CONSTANT, 8, 8, 3), smoothing=50)

    def test_pooled_is_sum_over_classes(self):
        corpus = make_corpus([[0, 1], [0, 2], [1, 1]], 8, [0, 1, 0])
        model = fit_counts(corpus, Schedule(Family.CONSTANT, 8, 8, 2))
        class_counts, pooled_counts = decode_tables(model)
        for (t, ctx), bucket in pooled_counts.items():
            by_class = {}
            for label in model.classes:
                for token, count in class_counts.get((label, t, ctx), {}).items():
                    by_class[token] = by_class.get(token, 0) + count
            assert by_class == bucket

    def test_table_fields(self):
        assert [f.name for f in dataclasses.fields(CountTable)] == ["keys", "pairs", "counts"]

    def test_pair_overflow_refused_before_counting(self, monkeypatch):
        # n * (n_classes + 1) * k_max is 46341 * 46342 * 2**32 > 2**63 - 1
        n, k_max = 46341, 2**32
        corpus = make_corpus(np.zeros((n, 1), dtype=np.uint32), k_max, np.arange(n))
        sched = Schedule(Family.CONSTANT, k_max, k_max, 1)

        def no_counting(*args, **kwargs):
            raise AssertionError("counting started")

        monkeypatch.setattr(vcqlab.generation, "CountTable", no_counting)
        with pytest.raises(ValueError, match="46341 rows x 46342 scopes x k_max 4294967296"):
            fit_counts(corpus, sched, max_order=0)

    def test_largest_pair_below_int64_bound(self):
        # 46340 * 46341 * 2**32 <= 2**63 - 1: accepted, and the pooled
        # scope's pair at the largest token is exact
        n, k_max = 46340, 2**32
        corpus = make_corpus(np.full((n, 1), k_max - 1, dtype=np.uint32), k_max, np.arange(n))
        model = fit_counts(corpus, Schedule(Family.CONSTANT, k_max, k_max, 1), max_order=0)
        table = model.tables[0][0]
        assert table.pairs[-1] == n * k_max + k_max - 1  # rank 0, pooled scope n
        assert table.counts[-1] == n and table.pairs[0] == k_max - 1

    def test_deterministic(self):
        corpus = make_corpus([[0, 1], [1, 2], [2, 3]], 8, [0, 1, 0])
        sched = Schedule(Family.CONSTANT, 8, 8, 2)
        m1 = fit_counts(corpus, sched, max_order=2)
        m2 = fit_counts(corpus, sched, max_order=2)
        assert m1.classes == m2.classes
        for per_order1, per_order2 in zip(m1.tables, m2.tables, strict=True):
            for a, b in zip(per_order1, per_order2, strict=True):
                for f in dataclasses.fields(CountTable):
                    assert np.array_equal(getattr(a, f.name), getattr(b, f.name))

    @pytest.mark.parametrize("max_order", [0, 1, 2, 4])
    def test_tables_equal_dict_counts(self, max_order):
        sched = Schedule(Family.COSINE, 2, 16, 7)
        rng = np.random.default_rng(11)
        rows = np.stack([rng.integers(0, k, size=40) for k in codebook_sizes(sched)], axis=1)
        corpus = make_corpus(rows, 16, rng.choice([3, 7, 9], size=40))
        model = fit_counts(corpus, sched, max_order=max_order)
        assert model.classes == [3, 7, 9]
        assert decode_tables(model) == reference_fit(corpus, max_order)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_fit_counts_memory_is_bounded():
    """fit_counts(max_order=4) on a labelled 6,000 x 256 corpus of the cosine
    preset (10 classes, uniform ids below K_t), in a fresh process: its peak
    RSS grows by under 350 MB.  Past the cliff nearly every context is
    unique, so each of the 1,270 tables holds about 2n (context, scope,
    token) pairs and their counts (about 240 MB in all); the CSR tables of
    six arrays this layout replaced peaked near 500 MB.  The peak is the
    process's VmHWM, as a child's ru_maxrss starts at its parent's."""
    script = (
        "import numpy as np\n"
        "from vcqlab.corpus import TokenCorpus\n"
        "from vcqlab.generation import fit_counts\n"
        "from vcqlab.schedule import SCHEDULE_PRESETS, codebook_sizes\n"
        "def peak_kb():\n"
        "    status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "    return int(status.split()[0])\n"
        "sched = SCHEDULE_PRESETS['cosine']\n"
        "rng = np.random.default_rng(0)\n"
        "ids = [rng.integers(0, k, size=6000, dtype=np.uint16) for k in codebook_sizes(sched)]\n"
        "labels = rng.integers(0, 10, size=6000)\n"
        "corpus = TokenCorpus(tokens=np.stack(ids, axis=1), k_max=sched.k_max, labels=labels)\n"
        "del ids\n"
        "base = peak_kb()\n"
        "fit_counts(corpus, sched, max_order=4)\n"
        "print((peak_kb() - base) / 1024)\n"
    )
    src = str(Path(vcqlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
        check=True,
    )
    growth_mb = float(done.stdout)
    assert growth_mb < 350, f"fit_counts grew peak RSS by {growth_mb:.1f} MB"


class TestLogits:
    def test_unseen_context_backs_off_to_unigram(self):
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        model = fit_counts(
            make_corpus([[0, 1]], 4, [0]), sched, max_order=1, smoothing=0.1
        )
        # context (3,) was never observed: distribution falls through to the
        # position-1 unigram
        out = logits(model, None, [3], 1)
        unigram = (np.array([0.0, 1.0, 0.0, 0.0]) + 0.1) / (1 + 4 * 0.1)
        assert np.allclose(np.exp2(out), unigram, atol=1e-12)

    def test_uniform_when_counts_empty(self):
        # order-0 smoothing over exactly K_t outcomes: logit = -log2 K_t
        corpus = make_corpus([[0, 1]], 4, [0])
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        model = fit_counts(corpus, sched, max_order=0, smoothing=0.5)
        # empty tables simulate a fully untrained position
        none = np.zeros(0, dtype=np.int64)
        empty = CountTable(none, none, none)
        model.tables = [[empty] for _ in model.tables]
        out = logits(model, None, [0], 1)
        assert np.allclose(out[:4], -2.0, atol=1e-12)

    def test_support_restricted_to_k_t(self):
        sched = Schedule(Family.LINEAR, 2, 8, 4)
        rows = [[0, 2, 3, 7], [1, 0, 4, 5]]
        corpus = make_corpus(rows, 8, [0, 1])
        model = fit_counts(corpus, sched)
        out = logits(model, None, [], 0)
        assert np.isfinite(out[:2]).all()
        assert np.isneginf(out[2:]).all()

    def test_hand_computed_three_sequence_corpus(self):
        corpus = make_corpus([[0, 1], [0, 1], [1, 0]], 2, [0, 0, 1])
        sched = Schedule(Family.CONSTANT, 2, 2, 2)
        alpha = 0.1
        model = fit_counts(corpus, sched, max_order=4, smoothing=alpha)
        # pooled position 0: counts {0: 2, 1: 1}
        p0 = (np.array([2.0, 1.0]) + alpha) / (3 + 2 * alpha)
        assert np.allclose(np.exp2(logits(model, None, [], 0)), p0, atol=1e-12)
        # class 0, position 1, prefix [0]: unigram {1: 2}, order-1 ctx (0,): {1: 2}
        base = (np.array([0.0, 2.0]) + alpha) / (2 + 2 * alpha)
        interp = (np.array([0.0, 2.0]) + alpha * base) / (2 + alpha)
        assert np.allclose(np.exp2(logits(model, 0, [0], 1)), interp, atol=1e-12)

    def test_disjoint_classes_rank_own_tokens_higher(self):
        rows = [[0, 1], [1, 0], [2, 3], [3, 2]]
        corpus = make_corpus(rows, 4, [0, 0, 1, 1])
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        model = fit_counts(corpus, sched)
        cond = logits(model, 0, [], 0)
        uncond = logits(model, None, [], 0)
        for token in (0, 1):
            assert cond[token] > uncond[token]
        for token in (2, 3):
            assert cond[token] < uncond[token]

    def test_prefix_length_must_match(self):
        corpus = make_corpus([[0, 1]], 8, [0])
        model = fit_counts(corpus, Schedule(Family.CONSTANT, 8, 8, 2))
        with pytest.raises(ValueError, match="prefix"):
            logits(model, None, [0, 0], 1)

    @pytest.mark.parametrize("label", [1.0, True, np.float64(1.0), np.bool_(True)])
    def test_non_integer_label_refused(self, label):
        corpus = make_corpus([[0, 1], [1, 0]], 4, [0, 1])
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        model = fit_counts(corpus, sched)
        with pytest.raises(ValueError, match=re.escape(f"class ids must be integers, got {label!r}")):
            logits(model, label, [0], 1)
        with pytest.raises(ValueError, match=re.escape(f"class ids must be integers, got {label!r}")):
            sample_corpus(model, GuidancePolicy(schedule=sched), n_samples=1, seed=0, labels=[label])

    @pytest.mark.parametrize("token", [1.7, 1.0, True, np.float64(1.0)])
    def test_non_integer_prefix_token_refused(self, token):
        corpus = make_corpus([[0, 1], [1, 0]], 4, [0, 1])
        model = fit_counts(corpus, Schedule(Family.CONSTANT, 4, 4, 2))
        with pytest.raises(ValueError, match=re.escape(f"prefix tokens must be integers, got {token!r}")):
            logits(model, 0, [token], 1)

    def test_integer_like_prefix_and_label_accepted(self):
        corpus = make_corpus([[0, 1], [1, 0]], 4, [0, 1])
        model = fit_counts(corpus, Schedule(Family.CONSTANT, 4, 4, 2))
        expected = logits(model, 1, [1], 1)
        assert np.array_equal(logits(model, np.int64(1), np.array([1], dtype=np.uint8), 1), expected)

    def test_unknown_class_rejected(self):
        corpus = make_corpus([[0, 1]], 8, [0])
        model = fit_counts(corpus, Schedule(Family.CONSTANT, 8, 8, 2))
        with pytest.raises(ValueError, match="class"):
            logits(model, 5, [], 0)


class TestSampling:
    def test_memorizes_single_sequence_at_zero_temperature(self):
        row = [3, 1, 4, 1, 5]
        sched = Schedule(Family.CONSTANT, 8, 8, 5)
        corpus = make_corpus([row], 8, [0])
        model = fit_counts(corpus, sched)
        policy = GuidancePolicy(schedule=sched, scale=0.0, temperature=0.0)
        out = sample_corpus(model, policy, n_samples=1, seed=0, labels=[0]).tokens[0]
        assert list(out) == row

    def test_support_restriction_all_positions(self):
        sched = Schedule(Family.COSINE, 2, 16, 12)
        sizes = codebook_sizes(sched)
        rng = np.random.default_rng(5)
        rows = np.stack([rng.integers(0, k, size=30) for k in sizes], axis=1)
        corpus = TokenCorpus(tokens=rows, k_max=16, labels=rng.integers(0, 3, size=30))
        model = fit_counts(corpus, sched)
        policy = GuidancePolicy(schedule=sched, scale=2.0, size_aware=True, temperature=1.3)
        for seed in range(10):
            out = sample_corpus(model, policy, n_samples=1, seed=seed, labels=[0]).tokens[0]
            assert all(out[t] < sizes[t] for t in range(12))

    def test_deterministic_given_seed(self):
        sched = Schedule(Family.LINEAR, 2, 8, 6)
        rng = np.random.default_rng(6)
        sizes = codebook_sizes(sched)
        rows = np.stack([rng.integers(0, k, size=20) for k in sizes], axis=1)
        corpus = TokenCorpus(tokens=rows, k_max=8, labels=rng.integers(0, 2, size=20))
        model = fit_counts(corpus, sched)
        policy = GuidancePolicy(schedule=sched, scale=1.0, temperature=0.9)
        a = sample_corpus(model, policy, n_samples=7, seed=42)
        b = sample_corpus(model, policy, n_samples=7, seed=42)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)

    def test_constant_schedule_size_aware_equals_plain_cfg(self):
        # on uniform codebooks the size factor is 1, so size-aware guidance
        # must reduce to standard CFG exactly
        sched = Schedule(Family.CONSTANT, 2, 8, 6)
        rng = np.random.default_rng(7)
        rows = rng.integers(0, 8, size=(25, 6))
        corpus = TokenCorpus(tokens=rows, k_max=8, labels=rng.integers(0, 3, size=25))
        model = fit_counts(corpus, sched)
        aware = GuidancePolicy(schedule=sched, scale=4.0, size_aware=True)
        plain = GuidancePolicy(schedule=sched, scale=4.0, size_aware=False)
        prefix = [2, 0]
        cond = logits(model, 1, prefix, 2)
        uncond = logits(model, None, prefix, 2)
        g_aware = apply_guidance(cond, uncond, size_aware_scale(aware, 2))
        g_plain = apply_guidance(cond, uncond, size_aware_scale(plain, 2))
        assert np.array_equal(g_aware, g_plain)

    def test_unknown_label_rejected_before_sampling(self, monkeypatch):
        corpus = make_corpus([[0, 1], [1, 0]], 4, [0, 1])
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        model = fit_counts(corpus, sched)
        policy = GuidancePolicy(schedule=sched)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampling started")

        monkeypatch.setattr(vcqlab.generation, "_probs", no_sampling)
        with pytest.raises(ValueError, match="unknown class id 5, 8"):
            sample_corpus(model, policy, n_samples=4, seed=0, labels=[0, 5, 1, 8])
        with pytest.raises(ValueError, match="None"):
            sample_corpus(model, policy, n_samples=2, seed=0, labels=[0, None])
        for bad in (1.0, True):
            with pytest.raises(ValueError, match=f"class ids must be integers, got {bad!r}"):
                sample_corpus(model, policy, n_samples=2, seed=0, labels=[0, bad])

    def test_policy_on_another_schedule_refused(self):
        # same length, other K_t: s_t would come from the wrong schedule
        fitted, other = Schedule(Family.COSINE, 2, 16, 8), Schedule(Family.CONSTANT, 16, 16, 8)
        sizes = codebook_sizes(fitted)
        rows = np.stack([np.arange(10) % k for k in sizes], axis=1)
        model = fit_counts(make_corpus(rows, 16, np.arange(10) % 2), fitted)
        policy = GuidancePolicy(schedule=other, scale=3.0)
        with pytest.raises(ValueError, match="does not match model schedule"):
            sample_corpus(model, policy, n_samples=4, seed=0)
        with pytest.raises(ValueError, match="does not match model schedule"):
            sample_corpus(model, policy, n_samples=1, seed=0, labels=[0])
        sample_corpus(model, dataclasses.replace(policy, schedule=fitted), n_samples=4, seed=0)

    def test_first_token_distribution_chi_squared(self):
        # sampler correctness: first tokens follow the class-conditional
        # smoothed distribution (s=0, temperature 1)
        sched = Schedule(Family.CONSTANT, 4, 4, 1)
        rng = np.random.default_rng(8)
        rows = rng.choice(4, size=(500, 1), p=[0.45, 0.3, 0.2, 0.05])
        corpus = TokenCorpus(tokens=rows, k_max=4, labels=np.zeros(500, dtype=int))
        model = fit_counts(corpus, sched)
        expected = np.exp2(logits(model, 0, [], 0))
        policy = GuidancePolicy(schedule=sched, scale=0.0, temperature=1.0)
        draws = 4000
        sample = sample_corpus(model, policy, n_samples=draws, seed=99)
        observed = np.bincount(sample.tokens[:, 0], minlength=4)
        chi2 = float(np.sum((observed - draws * expected) ** 2 / (draws * expected)))
        assert chi2 < 16.27  # chi-squared 99.9% critical value, 3 dof


ORACLE_CASES = {
    # name: (schedule, k_max, max_order, policy fields, labels)
    "constant-s0": (Schedule(Family.CONSTANT, 8, 8, 7), 8, 4, {}, None),
    "constant-s3": (Schedule(Family.CONSTANT, 8, 8, 7), 8, 4, {"scale": 3.0}, None),
    "cosine-s0": (Schedule(Family.COSINE, 2, 16, 7), 16, 4, {}, None),
    "cosine-ramp-s3": (
        Schedule(Family.COSINE, 2, 16, 7), 16, 4, {"scale": 3.0, "ramp": "cosine"}, None,
    ),
    "cosine-s3-plain": (
        Schedule(Family.COSINE, 2, 16, 7), 16, 3,
        {"scale": 3.0, "ramp": "cosine", "size_aware": False}, None,
    ),
    "temperature-0": (
        Schedule(Family.COSINE, 2, 16, 7), 16, 4,
        {"scale": 3.0, "ramp": "cosine", "temperature": 0.0}, None,
    ),
    "temperature-0.7": (
        Schedule(Family.LINEAR, 2, 16, 7), 16, 2, {"scale": 1.5, "temperature": 0.7}, None,
    ),
    "order-0": (Schedule(Family.COSINE, 2, 16, 7), 16, 0, {"scale": 3.0}, None),
    "order-1": (Schedule(Family.COSINE, 2, 16, 7), 16, 1, {"scale": 3.0}, None),
    "explicit-labels": (
        Schedule(Family.COSINE, 2, 16, 7), 16, 4,
        {"scale": 3.0, "ramp": "cosine"}, [7, 7, 3, 9, 3, 3, 9, 7, 9, 3],
    ),
    # raw keys of four context tokens and the next one (16384**5) overflow int64
    "kmax-16384": (
        Schedule(Family.COSINE, 2, 16384, 6), 16384, 4, {"scale": 3.0, "ramp": "cosine"}, None,
    ),
    # smoothing 1e-300 underflows alpha * p to 0 past order 0, so many
    # probabilities are exactly 0 in both scopes: -inf logits, masked by guidance
    "smoothing-1e-300": (
        Schedule(Family.COSINE, 2, 16, 7), 16, 4, {"scale": 2.0}, None, {"smoothing": 1e-300},
    ),
    # k_max 16384 samples 64 rows per block: 70 rows take two blocks, with
    # about 23 rows of each class
    "two-blocks": (
        Schedule(Family.COSINE, 2, 16384, 6), 16384, 4, {"scale": 3.0, "ramp": "cosine"}, None,
        {"n": 70},
    ),
}


class TestSamplerOracle:
    # the sampler's -inf logits are intended, so any warning is an error
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", list(ORACLE_CASES))
    def test_tokens_equal_dict_reference(self, case):
        sched, k_max, max_order, fields, labels, *options = ORACLE_CASES[case]
        # smoothing well above 0.1 makes samples leave the training rows; not a power
        # of two, so a skipped pass-through would change the bits
        options = {"smoothing": 0.7, "n": 10, **(options[0] if options else {})}
        alpha, n = options["smoothing"], options["n"]
        rng = np.random.default_rng(list(ORACLE_CASES).index(case))
        # few training rows over many contexts: samples walk into unseen contexts
        rows = np.stack([rng.integers(0, k, size=30) for k in codebook_sizes(sched)], axis=1)
        corpus = make_corpus(rows, k_max, rng.choice([3, 7, 9], size=30))
        model = fit_counts(corpus, sched, max_order=max_order, smoothing=alpha)
        policy = GuidancePolicy(schedule=sched, **fields)
        seed = 5
        expected_labels = labels or [[3, 7, 9][i % 3] for i in range(n)]
        expected = reference_sample_corpus(
            corpus, policy, max_order, alpha, n, seed, expected_labels
        )
        sample = sample_corpus(model, policy, n_samples=n, seed=seed, labels=labels)
        assert np.array_equal(sample.tokens, expected)
        assert sample.labels.tolist() == expected_labels
        tables = reference_fit(corpus, max_order)
        if max_order >= 2 and policy.temperature:
            # some sample backs off from a context no training row has, unless
            # smoothing is so small that every unseen continuation has probability 0
            pooled = tables[1]
            backs_off = any(
                (t, tuple(row[t - min(max_order, t) : t])) not in pooled
                for row in expected.tolist()
                for t in range(1, sched.length)
            )
            assert backs_off == (alpha > 1e-200)
        zeros = {label: 0 for label in (*expected_labels, None)}  # -inf logits per scope
        for i, label in enumerate(expected_labels):
            row = expected[i]
            for t in range(sched.length):
                for cls in (label, None):
                    ref = reference_logits(
                        tables, corpus, sched, max_order, alpha, cls, row[:t].tolist(), t
                    )
                    got = logits(model, cls, row[:t], t)
                    assert np.array_equal(got, ref)
                    zeros[cls] += int(np.count_nonzero(np.isneginf(got[: codebook_sizes(sched)[t]])))
        if alpha < 1e-200:
            assert all(zeros.values()), zeros
        else:
            assert not any(zeros.values()), zeros

    def test_apply_guidance_called_once_per_guided_position(self, monkeypatch):
        sched = Schedule(Family.COSINE, 2, 16, 7)
        rng = np.random.default_rng(0)
        rows = np.stack([rng.integers(0, k, size=30) for k in codebook_sizes(sched)], axis=1)
        model = fit_counts(make_corpus(rows, 16, rng.choice([3, 7, 9], size=30)), sched)
        policy = GuidancePolicy(schedule=sched, scale=3.0, ramp="cosine")
        guided = [t for t in range(sched.length) if size_aware_scale(policy, t)]
        assert 0 < len(guided) < sched.length
        expected = sample_corpus(model, policy, n_samples=40, seed=1)
        calls = []

        def counting(cond, uncond, s_t):
            calls.append((cond.shape, s_t))
            return apply_guidance(cond, uncond, s_t)

        # the sampler calls it through the module attribute, which perfbench counts
        monkeypatch.setattr(vcqlab.generation, "apply_guidance", counting)
        sample = sample_corpus(model, policy, n_samples=40, seed=1)
        assert np.array_equal(sample.tokens, expected.tokens)
        assert calls == [((40, codebook_sizes(sched)[t]), size_aware_scale(policy, t)) for t in guided]


class TestMemorizationReport:
    def test_identical_corpora(self):
        corpus = make_corpus([[0, 1, 2], [3, 4, 5]], 8, [0, 1])
        exact, longest = memorization_report(corpus, corpus)
        assert exact == 1.0 and longest == 3.0

    def test_disjoint_alphabets(self):
        train = TokenCorpus(tokens=np.array([[0, 1], [1, 0]]), k_max=8)
        gen = TokenCorpus(tokens=np.array([[4, 5], [5, 4]]), k_max=8)
        exact, longest = memorization_report(gen, train)
        assert exact == 0.0 and longest == 0.0

    def test_partial_prefix(self):
        train = TokenCorpus(tokens=np.array([[1, 2, 3, 4]]), k_max=8)
        gen = TokenCorpus(tokens=np.array([[1, 2, 7, 7], [7, 7, 7, 7]]), k_max=8)
        exact, longest = memorization_report(gen, train)
        assert exact == 0.0
        assert longest == (2 + 0) / 2

    def test_length_mismatch(self):
        a = TokenCorpus(tokens=np.zeros((1, 3), dtype=int), k_max=2)
        b = TokenCorpus(tokens=np.zeros((1, 4), dtype=int), k_max=2)
        with pytest.raises(ValueError, match="length"):
            memorization_report(a, b)


class TestPolicyJson:
    def test_roundtrip(self):
        sched = Schedule(Family.COSINE, 2, 16, 8)
        policy = GuidancePolicy(
            schedule=sched, scale=10.0, ramp="cosine", power=1.5,
            size_aware=True, temperature=0.85,
        )
        data = {"scale": 10.0, "ramp": "cosine", "power": 1.5, "size_aware": True, "temperature": 0.85}
        assert {name: getattr(policy, name) for name in POLICY_FIELDS} == data
        assert policy_from_json(data, sched) == policy

    def test_unknown_fields_rejected(self):
        sched = Schedule(Family.CONSTANT, 4, 4, 2)
        with pytest.raises(ValueError, match="unknown"):
            policy_from_json({"scale": 1.0, "cfg_start": 0}, sched)


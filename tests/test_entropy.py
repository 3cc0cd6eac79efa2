import itertools
import math
import operator
from collections import Counter

import numpy as np
import pytest

import vcqlab.entropy
from vcqlab.corpus import TokenCorpus
from vcqlab.entropy import (
    analyze,
    chain_rule_check,
    cliff_position,
    conditional_entropy_profile,
    joint_entropy,
    profile_summary,
    prop1_bounds,
    refine_groups,
    write_profile_csv,
)
from vcqlab.generation import memorization_report
from vcqlab.schedule import SCHEDULE_PRESETS, Family, Schedule, capacity_report, codebook_sizes

from conftest import random_corpus


def oracle_entropy(counts):
    n = float(sum(counts))
    return -math.fsum((c / n) * math.log2(c / n) for c in counts)


def counts_entropy_both_ways(counts):
    """``_counts_entropy`` of ``counts`` deduplicated, and raw with repeats of 1."""
    n = sum(counts)
    distinct, repeats = np.unique(counts, return_counts=True)
    return [
        vcqlab.entropy._counts_entropy(distinct, repeats, n),
        vcqlab.entropy._counts_entropy(counts, [1] * len(counts), n),
    ]


def oracle_conditional_profile(tokens):
    """Quadratic-time oracle: group prefixes by pairwise comparison."""
    n, length = tokens.shape
    out = []
    for t in range(length):
        done = [False] * n
        terms = []
        for i in range(n):
            if done[i]:
                continue
            members = [
                j
                for j in range(n)
                if list(tokens[j, :t]) == list(tokens[i, :t])
            ]
            for j in members:
                done[j] = True
            counts = Counter(int(tokens[j, t]) for j in members)
            terms.append((len(members) / n) * oracle_entropy(list(counts.values())))
        out.append(math.fsum(terms))
    return out


class TestConditionalEntropy:
    def test_identical_sequences_zero(self):
        corpus = TokenCorpus(tokens=np.tile([3, 1, 2], (10, 1)), k_max=4)
        assert conditional_entropy_profile(corpus) == [0.0, 0.0, 0.0]

    def test_four_distinct_first_tokens(self):
        tokens = np.array([[0, 1], [1, 1], [2, 0], [3, 1]])
        corpus = TokenCorpus(tokens=tokens, k_max=4)
        assert conditional_entropy_profile(corpus) == [2.0, 0.0]

    def test_matches_quadratic_oracle_exactly(self):
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 64))
            length = int(rng.integers(1, 8))
            k = int(rng.integers(2, 5))
            corpus = random_corpus((seed, 1), n, length, k)
            fast = conditional_entropy_profile(corpus)
            slow = oracle_conditional_profile(corpus.tokens)
            assert fast == slow  # bit-exact: both sums are exactly rounded

    def test_ceiling_log2_kmax(self):
        for seed in range(5):
            corpus = random_corpus(seed, 100, 10, 8)
            for h in conditional_entropy_profile(corpus):
                assert 0.0 <= h <= math.log2(8) + 1e-12

    def test_permutation_invariance(self, rng):
        corpus = random_corpus(99, 50, 6, 4)
        shuffled = corpus.tokens[rng.permutation(50)]
        assert conditional_entropy_profile(corpus) == conditional_entropy_profile(
            TokenCorpus(tokens=shuffled, k_max=4)
        )


class TestJointEntropy:
    def test_identical_rows(self):
        corpus = TokenCorpus(tokens=np.tile([1, 2], (8, 1)), k_max=4)
        assert joint_entropy(corpus) == 0.0

    def test_all_distinct_is_log2_n(self):
        tokens = np.array([[0, 0], [0, 1], [1, 0], [1, 1], [0, 2], [2, 0]])
        corpus = TokenCorpus(tokens=tokens, k_max=3)
        assert joint_entropy(corpus) == pytest.approx(math.log2(6), abs=1e-12)

    def test_multiplicities_2_1_1(self):
        tokens = np.array([[0, 0], [0, 0], [1, 0], [0, 1]])
        corpus = TokenCorpus(tokens=tokens, k_max=2)
        assert joint_entropy(corpus) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log2_n(self):
        for seed in range(10):
            corpus = random_corpus(seed, 40, 5, 3)
            assert joint_entropy(corpus) <= math.log2(40) + 1e-12


class TestChainRule:
    def test_holds_on_random_corpora(self):
        for seed in range(25):
            rng = np.random.default_rng((seed, 7))
            corpus = random_corpus(
                (seed, 7), int(rng.integers(2, 1000)), int(rng.integers(1, 16)), int(rng.integers(2, 32))
            )
            total, joint, diff = chain_rule_check(corpus)
            assert diff < 1e-9

    def test_all_distinct_equals_log2_n(self):
        tokens = np.arange(16).reshape(16, 1)
        corpus = TokenCorpus(tokens=tokens, k_max=16)
        total, joint, diff = chain_rule_check(corpus)
        assert total == pytest.approx(4.0, abs=1e-12)
        assert joint == pytest.approx(4.0, abs=1e-12)


class TestRemainingBudget:
    def test_constant_16k_cifar(self):
        sched = Schedule(Family.CONSTANT, 16384, 16384, 8)
        budget = capacity_report(sched, 50_000).remaining_budget
        log_n = math.log2(50_000)
        assert budget[0] == pytest.approx(log_n)          # ~15.6
        assert budget[1] == pytest.approx(log_n - 14.0)   # ~1.6
        assert budget[2] == 0.0
        assert all(b == 0.0 for b in budget[2:])

    def test_position_zero_is_log2_n(self):
        sched = Schedule(Family.COSINE, 2, 64, 16)
        assert capacity_report(sched, 1000).remaining_budget[0] == pytest.approx(math.log2(1000))

    def test_linear_imagenet_hits_zero_at_four(self):
        sched = Schedule(Family.LINEAR, 2, 16384, 256)
        budget = capacity_report(sched, 1_281_167).remaining_budget
        assert budget[3] > 0.0
        assert budget[4] == 0.0


class TestProp1Bounds:
    def test_uniform_bound_values(self):
        sched = Schedule(Family.CONSTANT, 16384, 16384, 4)
        bound = prop1_bounds(sched, 50_000)
        log_n = math.log2(50_000)
        assert len(bound) == 4
        assert bound[0] == pytest.approx(log_n)  # paper's t=1
        assert bound[1] == pytest.approx(log_n - 14.0)
        assert bound[2] == 0.0                   # paper's t=3

    def test_non_constant_schedule_flagged(self, rng):
        sched = Schedule(Family.COSINE, 2, 64, 8)
        tokens = rng.integers(0, codebook_sizes(sched), size=(100, 8))
        profile = analyze(TokenCorpus(tokens=tokens, k_max=64), sched)
        assert profile.prop1_approximate
        assert profile.prop1_uniform_k == 64
        assert profile.prop1_bound == prop1_bounds(sched, 100)
        uniform = analyze(TokenCorpus(tokens=tokens, k_max=64))
        assert not uniform.prop1_approximate
        assert uniform.prop1_bound == prop1_bounds(Schedule(Family.CONSTANT, 64, 64, 8), 100)

    def test_adversarial_corpus_violates_prop1_not_exact(self):
        # constant first position, full branching afterwards: H(x_1|x_0) is
        # large while the saturation-based bound says it should be ~0
        k = 16
        n = 64
        rng = np.random.default_rng(0)
        tokens = np.column_stack(
            [np.zeros(n, dtype=int), rng.integers(0, k, size=(n, 3))]
        )
        corpus = TokenCorpus(tokens=tokens, k_max=k)
        sched = Schedule(Family.CONSTANT, k, k, 4)
        profile = analyze(corpus, sched)
        h = profile.conditional_bits
        assert h[1] > profile.prop1_bound[1]  # stated bound is violated
        for t in range(4):
            assert h[t] <= profile.exact_bound[t] + 1e-9

    def test_exact_bound_dominates_on_random_corpora(self):
        for seed in range(20):
            profile = analyze(random_corpus((seed, 3), 50, 6, 4))
            for t in range(6):
                assert profile.conditional_bits[t] <= profile.exact_bound[t] + 1e-9

    def test_requires_schedule_and_n_samples(self):
        sched = Schedule(Family.CONSTANT, 4, 4, 3)
        with pytest.raises(TypeError):
            prop1_bounds(random_corpus(0, 5, 3, 4))
        for n, message in ((0, "n_samples must be >= 1, got 0"), (True, "must be an integer")):
            with pytest.raises(ValueError, match=message):
                prop1_bounds(sched, n)


class TestCliffPosition:
    def test_paper_like_profile(self):
        assert cliff_position([14.0, 0.8, 0.1, 0.05], 1.0) == 1

    def test_all_zero(self):
        assert cliff_position([0.0, 0.0, 0.0], 1.0) == 0

    def test_suffix_not_first_crossing(self):
        assert cliff_position([2.0, 0.5, 1.5, 0.2], 1.0) == 3

    def test_never_settles(self):
        assert cliff_position([0.2, 2.0], 1.0) == 2

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            cliff_position([1.0], 0.0)


class TestAnalyze:
    def test_full_profile_consistency(self):
        corpus = random_corpus(11, 80, 6, 8, labelled=True)
        sched = Schedule(Family.CONSTANT, 8, 8, 6)
        profile = analyze(corpus, sched)
        assert profile.conditional_bits == conditional_entropy_profile(corpus)
        assert profile.joint_bits == joint_entropy(corpus)
        assert profile.cliff_position == cliff_position(profile.conditional_bits, 1.0)
        assert len(profile.utilization) == 6
        assert profile.n_samples == 80

    def test_default_schedule_is_uniform_kmax(self):
        corpus = random_corpus(12, 20, 4, 8)
        profile = analyze(corpus)
        assert profile.prop1_uniform_k == 8
        assert not profile.prop1_approximate

    def test_csv_and_summary(self, tmp_path):
        corpus = random_corpus(13, 20, 4, 8)
        profile = analyze(corpus)
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,H_bits,remaining_budget,prop1_bound,exact_bound,utilization"
        assert len(lines) == 5
        summary = profile_summary(profile)
        assert summary["cliff_position"] == profile.cliff_position
        assert summary["joint_bits"] == profile.joint_bits


def oracle_prefix_entropy(tokens, t):
    """H(x_<t) by counting length-t prefixes as tuples.

    Mirrors the engine's arithmetic: a prefix class whose parent class (one
    token shorter) had one row is folded into the singleton term
    ``n_s * ((1/n) * log2 n)``, every other class adds ``-(c/n) log2(c/n)``;
    no row counts as a singleton before position 0 is read.
    """
    if t == 0:
        return 0.0
    n = len(tokens)
    rows = [tuple(int(x) for x in row) for row in tokens]
    parent = Counter(row[: t - 1] for row in rows)
    child = Counter(row[:t] for row in rows)
    terms = [
        -(c / n) * math.log2(c / n)
        for prefix, c in child.items()
        if t == 1 or parent[prefix[:-1]] > 1
    ]
    n_single = sum(1 for row in rows if t > 1 and parent[row[: t - 1]] == 1)
    singleton_term = n_single * ((1.0 / n) * math.log2(n)) if n_single else 0.0
    return math.fsum(terms) + singleton_term


def old_memorization_report(generated, training):
    """The set-of-byte-prefixes reference for memorization_report."""
    length = training.length
    prefix_sets = [
        {row[:ell].tobytes() for row in training.tokens} for ell in range(1, length + 1)
    ]
    matches = 0
    prefix_total = 0
    for row in generated.tokens:
        if row.tobytes() in prefix_sets[-1]:
            matches += 1
        longest = 0
        for ell in range(1, length + 1):
            if row[:ell].tobytes() in prefix_sets[ell - 1]:
                longest = ell
            else:
                break
        prefix_total += longest
    n = generated.n_samples
    return matches / n, prefix_total / n


def _engine_corpus(kind, seed):
    """Random corpora of the shapes the single-pass engine must get right."""
    rng = np.random.default_rng((seed, 17))
    n = int(rng.integers(2, 80))
    length = int(rng.integers(1, 9))
    k = int(rng.integers(2, 6))
    if kind == "duplicated":
        base = rng.integers(0, k, size=(max(1, n // 4), length))
        tokens = base[rng.integers(0, len(base), size=n)]
    elif kind == "n1":
        tokens = rng.integers(0, k, size=(1, length))
    elif kind == "l1":
        tokens = rng.integers(0, k, size=(n, 1))
    elif kind == "k1":
        k = 1
        tokens = np.zeros((n, length), dtype=np.int64)
    elif kind == "identical":
        tokens = np.tile(rng.integers(0, k, size=length), (n, 1))
    elif kind == "singleton_tail":  # shared prefix, then every row distinct
        k = 64
        length = max(length, 4)
        tokens = np.zeros((n, length), dtype=np.int64)
        tokens[:, 1] = rng.integers(0, 2, size=n)
        tokens[:, 2:] = rng.integers(0, k, size=(n, length - 2))
        tokens[:, 2] = rng.permutation(k)[:n] if n <= k else rng.integers(0, k, size=n)
    else:  # "long_groups": groups that outlive several token slabs, and strays
        length = int(rng.integers(3, 5)) * 8 + int(rng.integers(0, 3))
        n = min(n, 40)
        base = rng.integers(0, k, size=(max(1, n // 8), length))
        tokens = base[rng.integers(0, len(base), size=n)]
        # strays leave their group at a random position, often inside a slab
        strays = rng.random(n) < 0.3
        shared = np.arange(length) < rng.integers(0, length, size=n)[:, None]
        noise = rng.integers(0, k, size=(n, length))
        tokens[strays] = np.where(shared, tokens, noise)[strays]
        # the ids stay small, the dtype is uint8, uint16 or uint32
        k = [k, 300, 70_000][seed % 3]
    return TokenCorpus(tokens=tokens, k_max=k)


ENGINE_KINDS = ["duplicated", "n1", "l1", "k1", "identical", "singleton_tail", "long_groups"]


class TestEngineOracle:
    """analyze's single refinement pass against independent definitions."""

    @pytest.mark.parametrize("kind", ENGINE_KINDS)
    def test_analyze_matches_oracles_bit_for_bit(self, kind):
        for seed in range(12):
            corpus = _engine_corpus(kind, seed)
            tokens = corpus.tokens
            profile = analyze(corpus)
            assert profile.conditional_bits == oracle_conditional_profile(tokens)
            joint = joint_entropy(corpus)
            assert repr(profile.joint_bits) == repr(joint)  # the sign of zero counts
            assert math.copysign(1.0, profile.joint_bits) == math.copysign(1.0, joint)
            log_n = math.log2(corpus.n_samples)
            exact = [
                min(math.log2(corpus.k_max), log_n - oracle_prefix_entropy(tokens, t))
                for t in range(corpus.length)
            ]
            assert profile.exact_bound == exact
            naive_util = [
                len(np.unique(tokens[:, t])) / corpus.k_max for t in range(corpus.length)
            ]
            assert profile.utilization == naive_util

    def test_exact_bound_past_the_cliff(self):
        # most rows become singletons after one or two positions, so H(x_<t)
        # leans on the singleton term
        for seed in range(200):
            rng = np.random.default_rng((seed, 29))
            n = int(rng.integers(2, 300))
            k = int(rng.integers(2, 30))
            corpus = random_corpus((seed, 29), n, int(rng.integers(3, 6)), k)
            log_n = math.log2(n)
            assert analyze(corpus).exact_bound == [
                min(math.log2(k), log_n - oracle_prefix_entropy(corpus.tokens, t))
                for t in range(corpus.length)
            ]

    def test_counts_entropy_matches_loop_oracle(self):
        rng = np.random.default_rng(31)
        cases = [[1], [7], [1, 1], [3, 1, 1, 2]]
        cases += [rng.integers(1, 50, size=int(rng.integers(1, 400))).tolist() for _ in range(40)]
        cases.append([1] * 100_000 + [2])
        for counts in cases:
            want = oracle_entropy(counts)
            for got in counts_entropy_both_ways(counts):
                assert repr(got) == repr(want)  # -0.0 for one count

    def test_long_groups_outlive_two_slabs(self):
        # the precondition of the "long_groups" kind: its rows are read across
        # slab boundaries, and some rows leave their group inside a slab
        columns = 8
        for seed in range(12):
            tokens = _engine_corpus("long_groups", seed).tokens
            _, inverse, counts = np.unique(
                tokens[:, : 2 * columns + 1], axis=0, return_inverse=True, return_counts=True
            )
            assert tokens.shape[1] >= 3 * columns
            assert np.count_nonzero(counts[inverse.reshape(-1)] > 1) >= 2
        dtypes = {_engine_corpus("long_groups", seed).tokens.dtype for seed in range(3)}
        assert dtypes == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}

    def test_identical_rows_joint_is_negative_zero(self):
        corpus = TokenCorpus(tokens=np.tile([2, 0, 1], (5, 1)), k_max=3)
        profile = analyze(corpus)
        assert repr(profile.joint_bits) == "-0.0"
        assert repr(joint_entropy(corpus)) == "-0.0"
        assert profile.conditional_bits == [0.0, 0.0, 0.0]
        assert all(math.copysign(1.0, h) == 1.0 for h in profile.conditional_bits)

    def test_cosine_schedule_utilization_and_bounds(self, rng):
        sched = Schedule(Family.COSINE, 2, 32, 10)
        sizes = codebook_sizes(sched)
        base = np.stack([rng.integers(0, k, size=30) for k in sizes], axis=1)
        tokens = base[rng.integers(0, 30, size=120)]
        corpus = TokenCorpus(tokens=tokens, k_max=32)
        profile = analyze(corpus, sched)
        assert profile.utilization == [
            len(np.unique(tokens[:, t])) / sizes[t] for t in range(10)
        ]
        log_n = math.log2(120)
        assert profile.exact_bound == [
            min(math.log2(sizes[t]), log_n - oracle_prefix_entropy(tokens, t))
            for t in range(10)
        ]

    def test_mismatched_schedule_still_raises(self):
        corpus = TokenCorpus(tokens=np.array([[0, 3], [1, 2]]), k_max=4)
        sched = Schedule(Family.CONSTANT, 2, 2, 2)
        with pytest.raises(ValueError, match="position 1: token 3 >= K_t 2"):
            analyze(corpus, sched)

    @pytest.mark.parametrize(
        "sched", [Schedule(Family.CONSTANT, 2, 2, 2), Schedule(Family.CONSTANT, 4, 4, 3)]
    )
    def test_mismatch_raises_before_the_pass(self, monkeypatch, sched):
        passes = []
        monkeypatch.setattr(vcqlab.entropy, "_refinement_pass", lambda *args: passes.append(args))
        corpus = TokenCorpus(tokens=np.array([[0, 3], [1, 2]]), k_max=4)
        with pytest.raises(ValueError, match="does not match"):
            analyze(corpus, sched)
        assert passes == []

    @pytest.mark.parametrize("threshold", [-1.0, 0, math.inf, math.nan, True])
    def test_threshold_checked_before_the_pass(self, monkeypatch, threshold):
        calls = []
        monkeypatch.setattr(vcqlab.entropy, "_refinement_pass", lambda *args: calls.append(args))
        monkeypatch.setattr(vcqlab.entropy, "utilization_profile", lambda *args: calls.append(args))
        corpus = TokenCorpus(tokens=np.array([[0, 3], [1, 2]]), k_max=4)
        with pytest.raises(ValueError, match="analyze.cliff_threshold must be"):
            analyze(corpus, cliff_threshold=threshold)
        assert calls == []

    def test_memorization_matches_set_reference(self):
        for seed in range(60):
            rng = np.random.default_rng((seed, 23))
            length = int(rng.integers(1, 7))
            k = int(rng.integers(1, 5))
            train = rng.integers(0, k, size=(int(rng.integers(1, 25)), length))
            gen = rng.integers(0, k, size=(int(rng.integers(1, 25)), length))
            for i in range(len(gen)):  # copy training prefixes of every length
                if rng.random() < 0.5:
                    cut = int(rng.integers(0, length + 1))
                    gen[i, :cut] = train[rng.integers(len(train)), :cut]
            generated = TokenCorpus(tokens=gen, k_max=k + int(rng.integers(0, 3)))
            training = TokenCorpus(tokens=train, k_max=k)
            for a, b in ((generated, training), (training, generated), (training, training)):
                got = memorization_report(a, b)
                want = old_memorization_report(a, b)
                assert repr(got) == repr(want)

    def test_remaining_budget_equals_running_sum(self):
        for sched in SCHEDULE_PRESETS.values():
            for n in (1, 2, 1000, 1_281_167, 10**9):
                log_n = math.log2(n)
                want, total = [], 0.0
                for k in codebook_sizes(sched):
                    want.append(max(0.0, log_n - total))
                    total += math.log2(k)
                assert capacity_report(sched, n).remaining_budget == want
        with pytest.raises(ValueError, match="n_samples"):
            capacity_report(SCHEDULE_PRESETS["cosine"], 0)

    @pytest.mark.parametrize("preset", SCHEDULE_PRESETS)
    def test_budget_sign_is_exact(self, preset):
        # 0.0 exactly where the capacity reaches N, positive before: at every
        # N = P - 1, P, P + 1 up to 2**63 for the products P = K_0 * ... * K_{t-1}
        # (remaining_budget) and the powers P = k_max**t (prop1_bounds)
        sched = SCHEDULE_PRESETS[preset]
        products = list(itertools.accumulate(codebook_sizes(sched), operator.mul, initial=1))[:-1]
        powers = [sched.k_max**t for t in range(sched.length)]
        for capacities, budget in (
            (products, lambda n: capacity_report(sched, n).remaining_budget),
            (powers, lambda n: prop1_bounds(sched, n)),
        ):
            for n in sorted({n for p in capacities for n in (p - 1, p, p + 1) if 1 <= n <= 2**63}):
                bits = budget(n)
                assert [b == 0.0 for b in bits] == [p >= n for p in capacities], n
                assert min(bits) >= 0.0, n


# child-count multisets of prefix groups: one multiset in several token
# orders, groups whose children share one count, and shapes repeated with
# another total
_GROUP_SHAPES = [
    [3, 1, 1], [1, 3, 1], [1, 1, 3], [3, 2, 1], [1, 2, 3], [2, 1, 1, 1], [1, 1, 2, 1],
    [4, 2, 2, 2], [2, 2, 2], [1, 1, 1, 1], [4, 4, 4], [1, 1, 1], [5], [2, 3],
]


def _shared_multiset_corpus(seed):
    """Position 0 names the group, position 1 splits it by one of the
    shapes above onto a random choice of tokens, position 2 is random."""
    rng = np.random.default_rng(seed)
    rows = []
    for group in range(40):
        shape = _GROUP_SHAPES[int(rng.integers(len(_GROUP_SHAPES)))]
        for token, count in zip(rng.permutation(8)[: len(shape)].tolist(), shape):
            rows += [[group, token, int(rng.integers(3))] for _ in range(count)]
    return TokenCorpus(tokens=rng.permutation(np.array(rows)), k_max=40)


class TestGroupSums:
    """One exactly rounded sum per group, whatever route computes it."""

    @staticmethod
    def _terms(groups):
        """_group_sums' inputs for groups given as lists of child counts."""
        counts = np.array([c for group in groups for c in group], dtype=np.int64)
        n_children = np.array([len(group) for group in groups])
        totals = np.repeat([sum(group) for group in groups], n_children)
        starts = np.cumsum(n_children) - n_children
        ratios = counts / totals
        inner = ratios * np.array([math.log2(r) for r in ratios.tolist()])
        return inner, starts, n_children

    def test_equal_count_product_is_fsum_of_copies(self):
        rng = np.random.default_rng(47)
        groups = []
        for _ in range(5_000):  # m children of count c in a group of m * c rows
            groups.append([int(rng.integers(1, 1000))] * int(rng.integers(1, 1200)))
        inner, starts, n_children = self._terms(groups)
        sums = vcqlab.entropy._group_sums(inner, starts, n_children)
        for g, group in enumerate(groups):
            x = inner[starts[g]]
            assert repr(float(sums[g])) == repr(math.fsum([x] * len(group)))

    def test_integer_and_fsum_routes_equal_fsum(self, monkeypatch):
        # small groups of close terms fit the int64 sum; large groups of
        # spread counts fall back to math.fsum
        rng = np.random.default_rng(59)
        groups = []
        for i in range(3_000):
            width = int(rng.integers(1, [12, 40, 3000][i % 3]))
            top = int(rng.integers(1, [30, 10**4, 10**6][i % 3]))
            groups.append(rng.integers(1, top + 1, size=width).tolist())
        inner, starts, n_children = self._terms(groups)
        fsum, calls = math.fsum, []
        monkeypatch.setattr(math, "fsum", lambda terms: calls.append(1) or fsum(terms))
        sums = vcqlab.entropy._group_sums(inner, starts, n_children)
        monkeypatch.undo()
        assert 0 < len(calls) < np.count_nonzero(n_children > 2) / 2
        for g in range(len(groups)):
            want = math.fsum(inner[starts[g] : starts[g] + n_children[g]].tolist())
            assert repr(float(sums[g])) == repr(want)

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_multisets_match_oracles(self, seed):
        corpus = _shared_multiset_corpus(seed)
        tokens = corpus.tokens
        profile = analyze(corpus)
        assert repr(profile.conditional_bits) == repr(oracle_conditional_profile(tokens))
        log_n = math.log2(corpus.n_samples)
        exact = [
            min(math.log2(corpus.k_max), log_n - oracle_prefix_entropy(tokens, t))
            for t in range(corpus.length)
        ]
        assert repr(profile.exact_bound) == repr(exact)
        assert repr(profile.joint_bits) == repr(joint_entropy(corpus))

    def test_refine_groups_counting_equals_sorting(self):
        rng = np.random.default_rng(53)
        counted = 0
        for _ in range(300):
            n = int(rng.integers(1, 300))
            k = int(rng.integers(1, 40))
            gids = rng.integers(0, int(rng.integers(1, 2 * n // k + 2)), size=n)
            column = rng.integers(0, k, size=n).astype(np.uint8)
            row_keys = gids * k + column
            counted += int(row_keys.max() < n)
            keys, inverse, counts = np.unique(row_keys, return_inverse=True, return_counts=True)
            for got, want in zip(refine_groups(gids, column, k), (keys, inverse, counts)):
                assert got.dtype == want.dtype and np.array_equal(got, want)
        assert 50 < counted < 250  # both the counting and the sorting route


def test_chain_rule_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.integers(1, 4).flatmap(
            lambda length: st.lists(
                st.lists(st.integers(0, 3), min_size=length, max_size=length),
                min_size=1,
                max_size=40,
            )
        )
    )
    def check(rows):
        corpus = TokenCorpus(tokens=np.array(rows), k_max=4)
        total, joint, gap = chain_rule_check(corpus)
        assert gap < 1e-9
        profile = analyze(corpus)
        assert repr(profile.joint_bits) == repr(joint)
        assert abs(math.fsum(profile.conditional_bits) - profile.joint_bits) < 1e-9

    check()


def test_exact_sum_is_fsum_of_the_expanded_list():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    floats = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300),
        st.floats(min_value=-1.0, max_value=0.0),  # entropy terms
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -0.5]),
    )
    repeats = st.one_of(
        st.integers(1, 40), st.integers(1, 3_000), st.sampled_from([2**21, 2**21 - 1, 2**20 + 3])
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.one_of(
            st.lists(st.tuples(floats, repeats), min_size=1, max_size=6),
            # one value, and values that are all zero
            st.tuples(floats, repeats).map(lambda pair: [pair]),
            st.lists(st.tuples(st.sampled_from([0.0, -0.0]), repeats), min_size=1, max_size=4),
        )
    )
    def check(pairs):
        values = [x for x, _ in pairs]
        counts = [m for _, m in pairs]
        want = math.fsum(itertools.chain.from_iterable([x] * m for x, m in pairs))
        assert repr(vcqlab.entropy._exact_sum(values, counts)) == repr(want)  # sign of zero too

    check()


def test_counts_entropy_with_many_repeats_matches_fsum():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.lists(
            st.tuples(st.integers(1, 10**6), st.integers(1, 3_000)), min_size=1, max_size=5
        )
    )
    def check(groups):
        counts = [c for c, m in groups for _ in range(m)]
        n = sum(counts)
        want = -math.fsum([(c / n) * math.log2(c / n) for c in counts])
        for got in counts_entropy_both_ways(counts[::-1]):
            assert repr(got) == repr(want)

    check()


def test_counts_entropy_takes_int64_repeats_whose_products_overflow():
    # n = 3 * 2**21 makes every term's numerator 52 or 53 bits wide, so a
    # repeat of 2**21 times a numerator is beyond int64: the sum must not
    # run in numpy int64
    counts, repeats, n = np.array([1, 2]), np.full(2, 2**21, dtype=np.int64), 3 * 2**21
    terms = [(c / n) * math.log2(c / n) for c in counts.tolist()]
    want = -math.fsum(itertools.chain.from_iterable([x] * 2**21 for x in terms))
    assert repr(vcqlab.entropy._counts_entropy(counts, repeats, n)) == repr(want)

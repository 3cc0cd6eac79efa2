import json
import math

import numpy as np
import pytest

from vcqlab.schedule import (
    SCHEDULE_PRESETS,
    Family,
    Schedule,
    capacity_report,
    codebook_size_at,
    codebook_sizes,
    config_int,
    data_threshold,
    schedule_from_json,
    schedule_to_json,
    tstar_uniform,
    tstar_vcq,
    write_capacity_csv,
)

LINEAR = Schedule(Family.LINEAR, 2, 16384, 256)
COSINE = Schedule(Family.COSINE, 2, 16384, 256)
CONSTANT = Schedule(Family.CONSTANT, 16384, 16384, 256)


class TestCodebookSizeAt:
    def test_linear_boundaries(self):
        assert codebook_size_at(LINEAR, 0) == 2
        assert codebook_size_at(LINEAR, 255) == 16384

    def test_linear_midpoint_half_up(self):
        # 2 + 16382 * 127/255 = 8161.098..., rounds down
        assert codebook_size_at(LINEAR, 127) == 8161

    def test_linear_early_positions(self):
        assert [codebook_size_at(LINEAR, t) for t in (1, 2, 3)] == [66, 130, 195]

    def test_cosine_t10_against_direct_evaluation(self):
        value = 2 + 16382 * (1 - math.cos(math.pi * 10 / (2 * 255)))
        assert math.floor(value + 0.5) == 33
        assert codebook_size_at(COSINE, 10) == 33

    def test_constant_ignores_k_min(self):
        sched = Schedule(Family.CONSTANT, 2, 512, 16)
        assert all(codebook_size_at(sched, t) == 512 for t in range(16))

    def test_power_alpha_one_equals_linear(self):
        power = Schedule(Family.POWER, 2, 16384, 256, alpha=1.0)
        assert codebook_sizes(power) == codebook_sizes(LINEAR)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            codebook_size_at(LINEAR, -1)
        with pytest.raises(IndexError):
            codebook_size_at(LINEAR, 256)

    def test_power_requires_alpha(self):
        with pytest.raises(ValueError):
            Schedule(Family.POWER, 2, 16384, 256)
        with pytest.raises(ValueError):
            Schedule(Family.POWER, 2, 16384, 256, alpha=-1.0)
        for alpha in (math.inf, math.nan):
            with pytest.raises(ValueError, match="alpha must be finite"):
                Schedule(Family.POWER, 2, 16384, 256, alpha=alpha)
            with pytest.raises(ValueError, match="alpha must be finite"):
                Schedule(Family.LINEAR, 2, 16384, 256, alpha=alpha)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Schedule(Family.LINEAR, 0, 4, 8)
        with pytest.raises(ValueError):
            Schedule(Family.LINEAR, 8, 4, 8)

    @pytest.mark.parametrize(
        "args, field",
        [
            (("constant", 4, 4.5, 3), "k_max"),
            (("linear", 2.5, 16, 4), "k_min"),
            (("linear", 2, 16, 4.5), "length"),
            (("linear", True, 16, 4), "k_min"),
            (("linear", 2, "16", 4), "k_max"),
        ],
    )
    def test_non_integral_sizes_rejected(self, args, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Schedule(*args)

    def test_integral_sizes_stored_as_int(self):
        sched = Schedule("linear", np.int64(2), 16.0, np.uint16(4))
        assert sched == Schedule(Family.LINEAR, 2, 16, 4)
        assert all(type(v) is int for v in (sched.k_min, sched.k_max, sched.length))

    def test_monotone_non_decreasing_random_schedules(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            family = rng.choice(["linear", "cosine", "power"])
            k_min = int(rng.integers(1, 64))
            k_max = int(rng.integers(k_min, 4096))
            length = int(rng.integers(2, 128))
            alpha = float(rng.uniform(0.2, 4.0))
            sched = Schedule(Family(family), k_min, k_max, length, alpha)
            sizes = codebook_sizes(sched)
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            assert sizes[0] == k_min and sizes[-1] == k_max


def cumulative(schedule, t):
    """I(t), as capacity_report computes it for every t."""
    return capacity_report(schedule, 1).cumulative[t]


class TestCumulativeCapacity:
    def test_constant_two_positions(self):
        assert cumulative(CONSTANT, 2) == 28.0

    def test_empty_sum(self):
        assert cumulative(LINEAR, 0) == 0.0

    def test_linear_first_three(self):
        expected = math.log2(2) + math.log2(66) + math.log2(130)
        assert cumulative(LINEAR, 3) == pytest.approx(expected, abs=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            sched = Schedule(
                Family.COSINE, int(rng.integers(1, 8)), int(rng.integers(8, 2048)), 64
            )
            total = 0.0
            for t in range(sched.length):
                total += math.log2(codebook_size_at(sched, t))
                assert abs(cumulative(sched, t + 1) - total) < 1e-9


class TestTstarUniform:
    @pytest.mark.parametrize(
        "n,expected",
        [(50_000, 2), (118_287, 2), (1_281_167, 2), (12_000_000, 2),
         (400_000_000, 3), (5_000_000_000, 3)],
    )
    def test_dataset_rows(self, n, expected):
        assert tstar_uniform(n, 16384) == expected

    def test_single_sample(self):
        assert tstar_uniform(1, 16384) == 0

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            tstar_uniform(100, 1)

    def test_matches_ceil_formula_off_powers(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 10**6))
            k = int(rng.integers(2, 10**4))
            expected = math.ceil(math.log2(n) / math.log2(k))
            got = tstar_uniform(n, k)
            # integer version is authoritative at exact powers; elsewhere equal
            assert got in (expected, expected + 1, expected - 1)
            assert k ** got >= n and (got == 0 or k ** (got - 1) < n)


class TestDataThreshold:
    def test_paper_thresholds(self):
        assert data_threshold(16384, 2) == 16384
        assert data_threshold(16384, 3) == 268_435_456
        assert data_threshold(16384, 4) == 4_398_046_511_104
        assert data_threshold(16384, 5) == 72_057_594_037_927_936

    def test_m_one_is_one(self):
        assert data_threshold(16384, 1) == 1

    def test_exact_big_integers(self):
        assert data_threshold(10**6, 7) == 10**36

    def test_consistency_with_tstar(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 1000))
            m = int(rng.integers(2, 7))
            assert tstar_uniform(data_threshold(k, m) + 1, k) == m

    def test_largest_n_with_tstar_m_minus_one(self):
        for k in (2, 3, 10, 16384):
            for m in range(1, 6):
                assert tstar_uniform(data_threshold(k, m), k) == m - 1


def _prefix_products(sizes):
    """K_0 * ... * K_{t-1} for t = 0 .. L."""
    products = [1]
    for k in sizes:
        products.append(products[-1] * k)
    return products


class TestTstarVcq:
    def test_constant_reduces_to_uniform(self):
        assert tstar_vcq(CONSTANT, 1_281_167) == 2
        rng = np.random.default_rng(4)
        for _ in range(100):
            n = int(rng.integers(2, 10**6))
            k = int(rng.integers(2, 10**4))
            sched = Schedule(Family.CONSTANT, k, k, 64)
            assert tstar_vcq(sched, n) == tstar_uniform(n, k)

    @pytest.mark.parametrize("k", [2, 3, 10, 256, 16384])
    def test_constant_equals_uniform_around_powers(self, k):
        # N = K**t + 1 is where float cumulative bits land within an ulp of log2 N
        sched = Schedule(Family.CONSTANT, k, k, 64)
        t = 1
        while k**t < 2**62:
            for n in (k**t - 1, k**t, k**t + 1):
                if n >= 1:
                    got = tstar_vcq(sched, n)
                    assert got == tstar_uniform(n, k), (k, n)
                    assert k**got >= n and (got == 0 or k ** (got - 1) < n), (k, n)
            assert tstar_vcq(sched, k**t + 1) == t + 1
            t += 1

    @pytest.mark.parametrize("preset", ["cosine", "linear"])
    def test_presets_equal_integer_products(self, preset):
        sched = SCHEDULE_PRESETS[preset]
        products = _prefix_products(codebook_sizes(sched))
        cases = {1_281_167} | {p + d for p in products for d in (-1, 0, 1) if p + d >= 1}
        for n in sorted(cases):
            want = next((t for t, p in enumerate(products) if p >= n), sched.length + 1)
            assert tstar_vcq(sched, n) == want, n
        assert tstar_vcq(sched, products[-1] + 1) == sched.length + 1

    def test_linear_imagenet(self):
        assert tstar_vcq(LINEAR, 1_281_167) == 4

    def test_cosine_against_direct_summation(self):
        target = math.log2(1_281_167)
        total, expected = 0.0, None
        for t in range(COSINE.length):
            total += math.log2(codebook_size_at(COSINE, t))
            if total >= target - 1e-9:
                expected = t + 1
                break
        assert tstar_vcq(COSINE, 1_281_167) == expected

    def test_single_sample_is_zero(self):
        assert tstar_vcq(LINEAR, 1) == 0

    def test_budget_never_reached(self):
        sched = Schedule(Family.CONSTANT, 2, 2, 4)
        assert tstar_vcq(sched, 10**9) == 5


class TestCapacityReport:
    # (preset, mean_codebook, bpp) from the standard parameterization table
    TABLE = [
        ("constant16k", 16384, 0.055),
        ("constant8k", 8192, 0.051),
        ("linear", 8193, 0.049),
        ("cosine", 5964, 0.044),
        ("power2.5", 4696, 0.041),
        ("cosine-l", 4100, 0.042),
    ]

    @pytest.mark.parametrize("preset,kbar,bpp", TABLE)
    def test_preset_table(self, preset, kbar, bpp):
        report = capacity_report(SCHEDULE_PRESETS[preset], n_samples=1_281_167)
        assert report.mean_codebook == pytest.approx(kbar, rel=0.01)
        assert report.bpp == pytest.approx(bpp, abs=0.002)

    def test_cumulative_consistency(self):
        report = capacity_report(COSINE, n_samples=50_000)
        assert report.cumulative[0] == 0.0
        for t in range(256):
            assert report.cumulative[t + 1] == pytest.approx(
                report.cumulative[t] + report.bits_per_position[t], abs=1e-12
            )
        assert report.bpp == report.cumulative[-1] / 65536

    def test_remaining_budget_endpoints(self):
        report = capacity_report(CONSTANT, n_samples=50_000)
        assert report.remaining_budget[0] == pytest.approx(math.log2(50_000))
        assert report.remaining_budget[1] == pytest.approx(math.log2(50_000) - 14.0)
        assert report.remaining_budget[2] == 0.0

    def test_degenerate_family_equivalence(self):
        const = capacity_report(Schedule(Family.CONSTANT, 512, 512, 32), 1000)
        linear = capacity_report(Schedule(Family.LINEAR, 512, 512, 32), 1000)
        power = capacity_report(Schedule(Family.POWER, 512, 512, 32, alpha=2.0), 1000)
        assert const.sizes == linear.sizes == power.sizes
        assert const.cumulative == linear.cumulative == power.cumulative
        assert const.tstar_vcq == linear.tstar_vcq == power.tstar_vcq


class TestSerialization:
    def test_json_roundtrip(self):
        sched = Schedule(Family.POWER, 2, 16384, 256, alpha=2.5)
        assert schedule_from_json(schedule_to_json(sched)) == sched

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(schedule_to_json(COSINE)))
        assert schedule_from_json(json.loads(path.read_text())) == COSINE

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="family"):
            schedule_from_json({"family": "exp", "k_min": 2, "k_max": 4, "length": 8})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            schedule_from_json({"family": "linear", "k_min": 2, "k_max": 4})

    def test_non_integer_fields_rejected(self):
        base = {"family": "linear", "k_min": 2, "k_max": 4, "length": 8}
        for field, value in (("k_min", 2.9), ("k_max", "4"), ("length", True), ("length", float("nan"))):
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                schedule_from_json(dict(base, **{field: value}))
        assert schedule_from_json(dict(base, k_max=4.0)) == Schedule(Family.LINEAR, 2, 4, 8)

    def test_capacity_csv(self, tmp_path):
        report = capacity_report(Schedule(Family.LINEAR, 2, 16, 4), 100)
        path = tmp_path / "curve.csv"
        write_capacity_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,K_t,bits,cumulative_bits,remaining_budget"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "2"


class TestConfigInt:
    def test_integers_and_integral_floats(self):
        assert config_int(3, "x") == 3
        assert config_int(np.int64(3), "x") == 3
        assert config_int(3.0, "x") == 3 and type(config_int(3.0, "x")) is int
        assert config_int(-2.0, "x") == -2

    @pytest.mark.parametrize("value", [True, False, 2.9, "3", None, float("inf"), float("nan"), [3]])
    def test_rejects(self, value):
        with pytest.raises(ValueError, match="field must be an integer"):
            config_int(value, "field")

import mmap
import os
from fractions import Fraction

import numpy as np
import pytest
from conftest import BLAS_KERNELS, blas_spins

from vcqlab import quantizer
from vcqlab.quantizer import (
    CODEBOOK_MAGIC,
    Codebook,
    decode,
    fit_codebook,
    quantize_batch,
    read_codebook,
    write_codebook,
)
from vcqlab.schedule import Family, Schedule, codebook_sizes


def exhaustive_nearest(z, entries, k_t):
    """Independent oracle: scan all candidates, strict < keeps lowest index."""
    best_i, best_d = None, None
    for i in range(k_t):
        d = 0.0
        for j in range(entries.shape[1]):
            diff = float(z[j]) - float(entries[i, j])
            d += diff * diff
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def quantize_one(latents, sched, cb):
    """Tokens and distances of one L x d sequence: a batch of one."""
    tokens, distances = quantize_batch(np.asarray(latents)[None], sched, cb)
    return tokens[0], distances[0]


def quantize_latent(z, cb, k_t):
    """Token and distance of one latent among the first k_t rows: a 1 x 1 batch."""
    tokens, distances = quantize_batch(np.asarray(z)[None, None], Schedule("constant", k_t, k_t, 1), cb)
    return int(tokens[0, 0]), float(distances[0, 0])


class TestQuantizePosition:
    def test_exact_row_match(self, rng):
        cb = Codebook(entries=rng.normal(size=(16, 4)))
        token, dist = quantize_latent(cb.entries[5].astype(np.float64), cb, 8)
        assert token == 5
        assert np.array_equal(decode(token, cb), cb.entries[5])
        assert dist == 0.0

    def test_single_candidate(self, rng):
        cb = Codebook(entries=rng.normal(size=(4, 3)))
        z = rng.normal(size=3)
        token, dist = quantize_latent(z, cb, 1)
        assert token == 0
        expected = float(np.sum((z - cb.entries[0].astype(np.float64)) ** 2))
        assert dist == pytest.approx(expected, rel=1e-12)

    def test_matches_exhaustive_oracle(self, rng):
        for _ in range(300):
            k = int(rng.integers(1, 64))
            d = int(rng.integers(1, 9))
            cb = Codebook(entries=rng.normal(size=(k, d)))
            z = rng.normal(size=d)
            k_t = int(rng.integers(1, k + 1))
            token, dist = quantize_latent(z, cb, k_t)
            oracle_i, oracle_d = exhaustive_nearest(z, cb.entries, k_t)
            assert token == oracle_i
            assert dist == pytest.approx(oracle_d, rel=1e-9, abs=1e-12)

    def test_ties_break_to_lowest_index(self, rng):
        entries = rng.normal(size=(8, 4)).astype(np.float32)
        entries[6] = entries[2]  # duplicate row: indices 2 and 6 tie
        cb = Codebook(entries=entries)
        z = entries[2].astype(np.float64)
        token, dist = quantize_latent(z, cb, 8)
        assert token == 2 and dist == 0.0

    def test_non_finite_rejected(self, rng):
        cb = Codebook(entries=rng.normal(size=(4, 2)))
        with pytest.raises(ValueError, match="finite"):
            quantize_latent(np.array([np.nan, 0.0]), cb, 2)

    def test_monotone_distortion(self, rng):
        cb = Codebook(entries=rng.normal(size=(32, 5)))
        for _ in range(50):
            z = rng.normal(size=5)
            dists = [quantize_latent(z, cb, k)[1] for k in range(1, 33)]
            assert all(a >= b for a, b in zip(dists, dists[1:]))


class TestQuantizeSequence:
    def test_codebook_rows_give_zero_distance(self, rng):
        cb = Codebook(entries=rng.normal(size=(16, 4)))
        sched = Schedule(Family.CONSTANT, 16, 16, 8)
        latents = np.tile(cb.entries[0].astype(np.float64), (8, 1))
        tokens, distances = quantize_one(latents, sched, cb)
        assert np.all(tokens == 0)
        assert np.all(distances == 0.0)

    def test_constant_schedule_equals_unrestricted(self, rng):
        cb = Codebook(entries=rng.normal(size=(32, 4)))
        sched = Schedule(Family.CONSTANT, 32, 32, 12)
        latents = rng.normal(size=(12, 4))
        tokens, distances = quantize_one(latents, sched, cb)
        for t in range(12):
            token, dist = exhaustive_nearest(latents[t], cb.entries, 32)
            assert tokens[t] == token
            assert distances[t] == dist

    def test_prefix_restriction_random_schedules(self, rng):
        for _ in range(30):
            k_max = int(rng.integers(4, 64))
            length = int(rng.integers(2, 24))
            sched = Schedule(Family.COSINE, int(rng.integers(1, 4)), k_max, length)
            cb = Codebook(entries=rng.normal(size=(k_max, 3)))
            latents = rng.normal(size=(length, 3))
            tokens, _ = quantize_one(latents, sched, cb)
            sizes = codebook_sizes(sched)
            assert all(tokens[t] < sizes[t] for t in range(length))

    def test_straight_through_contract(self, rng):
        # a straight-through estimator uses quantized - input as its residual;
        # the reported distance is that residual's squared norm, bit for bit
        cb = Codebook(entries=rng.normal(size=(8, 4)))
        sched = Schedule(Family.LINEAR, 2, 8, 6)
        latents = rng.normal(size=(6, 4))
        tokens, distances = quantize_one(latents, sched, cb)
        quantized = decode(tokens, cb)
        assert np.array_equal(quantized, cb.entries[tokens])
        for t in range(6):
            residual = quantized[t].astype(np.float64) - latents[t]
            assert distances[t] == sum(float(r) * float(r) for r in residual)

    def test_shape_mismatch(self, rng):
        cb = Codebook(entries=rng.normal(size=(8, 4)))
        sched = Schedule(Family.LINEAR, 2, 8, 6)
        for latents in (rng.normal(size=(5, 4)), rng.normal(size=(1, 5, 4))):
            with pytest.raises(ValueError, match="shape"):
                quantize_batch(latents, sched, cb)

    def test_batch_agrees_with_sequence(self, rng):
        cb = Codebook(entries=rng.normal(size=(16, 4)))
        sched = Schedule(Family.COSINE, 2, 16, 10)
        latents = rng.normal(size=(7, 10, 4))
        tokens, dists = quantize_batch(latents, sched, cb)
        for i in range(7):
            one_tokens, one_dists = quantize_one(latents[i], sched, cb)
            assert np.array_equal(tokens[i], one_tokens)
            assert np.array_equal(dists[i], one_dists)

    def test_batch_ties_break_to_lowest_index(self):
        entries = np.array(
            [
                [9, 9, 9],
                [0, 4, 0],
                [0, 0, 0],
                [1, 0, 0],
                [0, -5, 0],
                [3, 0, 0],  # ties with row 3 at distance 1 from (2, 0, 0)
                [0, 0, 0],  # duplicates row 2
                [-9, -9, -9],
            ],
            dtype=np.float32,
        )
        cb = Codebook(entries=entries)
        sched = Schedule(Family.CONSTANT, 8, 8, 2)
        latents = np.zeros((3, 2, 3))
        latents[:, 1] = [2.0, 0.0, 0.0]
        tokens, dists = quantize_batch(latents, sched, cb)
        assert tokens.tolist() == [[2, 3]] * 3
        assert dists.tolist() == [[0.0, 1.0]] * 3


def offset_latents(rng, shape, offset=1e5, spread=1e-2):
    """Latents far from the origin relative to their spread, where the
    expansion |z|^2 + |e|^2 - 2 z.e loses the digits that order candidates."""
    return offset + spread * rng.normal(size=shape)


class TestKernelOracle:
    """The one nearest-neighbor kernel equals the exhaustive scan bit for bit."""

    @pytest.mark.parametrize("family, k_min", [(Family.CONSTANT, 64), (Family.COSINE, 2)])
    def test_batch_equals_exhaustive_scan_at_large_offset(self, family, k_min):
        rng = np.random.default_rng(5)
        # float32 rows at 1e5 keep steps of 2**-7, so some rows repeat: ties too
        cb = Codebook(entries=offset_latents(rng, (64, 4)))
        sched = Schedule(family, k_min, 64, 8)
        latents = offset_latents(rng, (100, 8, 4))
        tokens, dists = quantize_batch(latents, sched, cb)
        sizes = codebook_sizes(sched)
        oracle = np.array(
            [[exhaustive_nearest(latents[i, t], cb.entries, sizes[t]) for t in range(8)] for i in range(100)]
        )
        wrong = int(np.sum(tokens != oracle[..., 0]))
        assert wrong == 0, f"{wrong} of 800 tokens differ from the exhaustive scan"
        assert np.array_equal(dists, oracle[..., 1])

    def test_fit_assignment_pass_equals_exhaustive_scan(self, monkeypatch):
        rng = np.random.default_rng(6)
        latents = offset_latents(rng, (100, 8, 4))
        sched = Schedule(Family.COSINE, 2, 64, 8)
        seen = []
        kernel = quantizer._nearest

        def recorded(z, entries, table, k_t):
            result = kernel(z, entries, table, k_t)
            seen.append((np.array(z), entries[:k_t].copy(), result[0]))
            return result

        monkeypatch.setattr(quantizer, "_nearest", recorded)
        fit_codebook(latents, sched, k_max=64, d=4, epochs=1, seed=0)
        scored = {}
        for z, entries, tokens in seen:
            oracle = [exhaustive_nearest(row, entries, len(entries))[0] for row in z]
            assert tokens.tolist() == oracle
            scored.setdefault(len(entries), []).extend(map(tuple, z.tolist()))
        # the first epoch scores every (t, i) exactly once, against its K_t
        sizes = codebook_sizes(sched)
        expected = {}
        for t, k_t in enumerate(sizes):
            expected.setdefault(k_t, []).extend(map(tuple, latents[:, t].tolist()))
        assert {k: sorted(rows) for k, rows in scored.items()} == {
            k: sorted(rows) for k, rows in expected.items()
        }

    def test_kernel_bounds_hold_exactly(self):
        # ub >= |z - e_token| and lb <= |z - e_k| for every other k < K_t, in
        # exact rational arithmetic; rescanned rows report (inf, 0)
        rng = np.random.default_rng(8)
        finite = rescanned = 0
        scales = ((0.0, 1.0), (0.0, 1e-160), (0.0, 1e120), (3.0, 0.1), (1e5, 1e-2), (1e8, 1e-6))
        for offset, spread in scales:
            entries = offset_latents(rng, (16, 3), offset, spread)
            entries[5] = entries[9]  # an exact tie
            z = np.concatenate([offset_latents(rng, (60, 3), offset, spread), entries[:4]])
            table = quantizer._score_table(entries)
            tokens, ub, lb = quantizer._nearest(z, entries, table, 16)
            for row, token, upper, lower in zip(z.tolist(), tokens, ub, lb):
                sq = [sum((Fraction(a) - Fraction(b)) ** 2 for a, b in zip(row, e)) for e in entries.tolist()]
                if upper == np.inf:
                    assert lower == 0.0
                    continue
                assert Fraction(float(upper)) ** 2 >= sq[token]
                assert lower >= 0.0
                assert all(Fraction(float(lower)) ** 2 <= sq[k] for k in range(16) if k != token)
            finite += int(np.isfinite(ub).sum())
            rescanned += int(np.isinf(ub).sum())
        assert finite and rescanned

    def test_kernel_result_independent_of_row_layout(self):
        # the same rows as a C-contiguous array, a strided position view, a
        # transposed gather from dimension-major columns and a column-major
        # slice of them give the same bits
        rng = np.random.default_rng(9)
        for offset, spread in ((0.0, 1.0), (1e5, 1e-2)):
            entries = offset_latents(rng, (40, 5), offset, spread)
            table = quantizer._score_table(entries)
            latents = offset_latents(rng, (300, 7, 5), offset, spread)
            columns = np.ascontiguousarray(latents.transpose(2, 1, 0)).reshape(5, 7 * 300)
            t = 3
            layouts = [
                np.ascontiguousarray(latents[:, t]),
                latents[:, t],
                columns[:, t * 300 + np.arange(300)].T,
                columns[:, t * 300 : (t + 1) * 300].T,
            ]
            assert not layouts[1].flags.c_contiguous and layouts[3].strides[0] < layouts[3].strides[1]
            for k_t in (1, 2, 40):
                want = quantizer._nearest(layouts[0], entries, table, k_t)
                for z in layouts[1:]:
                    got = quantizer._nearest(z, entries, table, k_t)
                    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_batch_on_strided_latents_equals_contiguous_copy(self, rng):
        cb = Codebook(entries=rng.normal(size=(32, 4)))
        sched = Schedule(Family.COSINE, 2, 32, 6)
        wide = rng.normal(size=(50, 12, 4))
        view = wide[:, ::2]
        assert not view.flags.c_contiguous
        tokens, dists = quantize_batch(view, sched, cb)
        want_tokens, want_dists = quantize_batch(np.ascontiguousarray(view), sched, cb)
        assert tokens.tobytes() == want_tokens.tobytes()
        assert dists.tobytes() == want_dists.tobytes()

    def test_fit_equals_reference_loop(self, rng):
        # reference: a per-position loop with exhaustive assignment and
        # np.add.at; per-dimension bincounts must add in the same order
        latents = rng.normal(size=(60, 6, 3))
        sched = Schedule(Family.COSINE, 2, 16, 6)
        entries = reference_fit(latents, sched, 16, 3, 4, 0.9, 2, python_nearest)
        cb = fit_codebook(latents, sched, k_max=16, d=3, epochs=4, decay=0.9, seed=2)
        assert cb.entries.tobytes() == entries.astype(np.float32).tobytes()


def python_nearest(z, entries, k_t):
    return np.array([exhaustive_nearest(row, entries, k_t)[0] for row in z])


def exhaustive_tokens(z, entries, k_t):
    """Vectorized exhaustive scan: the same left-to-right sum, and argmin
    keeps the lowest index on ties."""
    diff = z[:, None, :] - entries[None, :k_t, :]
    dist = diff[..., 0] * diff[..., 0]
    for j in range(1, z.shape[1]):
        dist = dist + diff[..., j] * diff[..., j]
    return dist.argmin(axis=1)


def reference_fit(latents, sched, k_max, d, epochs, decay, seed, nearest=exhaustive_tokens):
    """EMA k-means that scores every latent every epoch, with np.add.at."""
    ref_rng = np.random.default_rng(seed)
    flat = latents.reshape(-1, d)

    def sample(size):
        return flat[ref_rng.choice(flat.shape[0], size=size, replace=flat.shape[0] < size)]

    entries = sample(k_max).astype(np.float64)
    ema_size = np.zeros(k_max)
    ema_sum = np.zeros((k_max, d))
    for _ in range(epochs):
        counts = np.zeros(k_max, dtype=np.int64)
        vecsum = np.zeros((k_max, d))
        for t, k_t in enumerate(codebook_sizes(sched)):
            z = latents[:, t, :]
            tok = nearest(z, entries, k_t)
            counts += np.bincount(tok, minlength=k_max)
            np.add.at(vecsum, tok, z)
        ema_size = decay * ema_size + (1.0 - decay) * counts
        ema_sum = decay * ema_sum + (1.0 - decay) * vecsum
        live = ema_size > 0.0
        entries[live] = ema_sum[live] / ema_size[live, None]
        dead = counts == 0
        if dead.any():
            entries[dead] = sample(int(dead.sum()))
            ema_size[dead] = 0.0
            ema_sum[dead] = 0.0
    return entries


def _pruning_cases():
    rng = np.random.default_rng(9)
    clusters = rng.normal(size=(5, 3))
    blobs = clusters[rng.integers(0, 5, size=(50, 6))] + 0.1 * rng.normal(size=(50, 6, 3))
    cosine = Schedule(Family.COSINE, 2, 16, 6)
    return {
        # name: (latents, schedule, k_max, decay, seed, pruning possible);
        # at offset 1e5 every row is a near-tie for the fast scores, so the
        # kernel rescans it and reports (inf, 0): nothing can be skipped
        "offset": (offset_latents(rng, (50, 6, 3)), cosine, 16, 0.9, 1, False),
        "offset-1e3": (offset_latents(rng, (50, 6, 3), 1e3, 1.0), cosine, 16, 0.9, 8, True),
        # 20 latents, 24 entries in the prefix and 6 beyond: reseeds every epoch
        "reseeds": (rng.normal(size=(4, 5, 3)), Schedule(Family.CONSTANT, 24, 24, 5), 30, 0.5, 2, True),
        "ties": (np.round(rng.normal(size=(50, 6, 3)) * 2) / 2, cosine, 16, 0.9, 3, True),
        # every entry starts equal to every latent: all ties, all rescanned
        "identical": (np.tile(rng.normal(size=3), (30, 6, 1)), Schedule(Family.LINEAR, 2, 8, 6), 8, 0.9, 4, False),
        "k1": (blobs, Schedule(Family.LINEAR, 1, 12, 6), 12, 0.9, 5, True),
        "linear": (blobs, Schedule(Family.LINEAR, 2, 16, 6), 16, 0.99, 6, True),
        "power": (blobs, Schedule(Family.POWER, 2, 16, 6, alpha=2.5), 16, 0.9, 7, True),
    }


PRUNING_CASES = _pruning_cases()


class TestPrunedFit:
    """fit_codebook skips latents by bounds; codebooks stay bit for bit those
    of scoring every latent every epoch."""

    @pytest.mark.parametrize("name", sorted(PRUNING_CASES))
    def test_equals_reference_loop_over_many_epochs(self, name, monkeypatch):
        latents, sched, k_max, decay, seed, prunes = PRUNING_CASES[name]
        n, length, d = latents.shape
        epochs = 30
        scored = []
        kernel = quantizer._nearest

        def counted(z1, entries, table, k_t):
            scored.append(len(z1))
            return kernel(z1, entries, table, k_t)

        monkeypatch.setattr(quantizer, "_nearest", counted)
        cb = fit_codebook(latents, sched, k_max=k_max, d=d, epochs=epochs, decay=decay, seed=seed)
        expected = reference_fit(latents, sched, k_max, d, epochs, decay, seed)
        assert cb.entries.tobytes() == expected.astype(np.float32).tobytes()
        assert n * length <= sum(scored) <= epochs * n * length
        if prunes:
            assert sum(scored) < epochs * n * length

    def test_property_equals_reference_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
        @hypothesis.given(
            n=st.integers(1, 12),
            length=st.integers(2, 5),
            d=st.integers(1, 4),
            k_max=st.integers(1, 12),
            family=st.sampled_from([Family.CONSTANT, Family.LINEAR, Family.COSINE, Family.POWER]),
            offset=st.sampled_from([0.0, 1.0, -1e3, 1e5, 1e8]),
            spread=st.sampled_from([1.0, 1e-2, 1e-6]),
            rounded=st.booleans(),
            epochs=st.integers(1, 14),
            seed=st.integers(0, 2**16),
        )
        def check(n, length, d, k_max, family, offset, spread, rounded, epochs, seed):
            rng = np.random.default_rng(seed)
            noise = rng.normal(size=(n, length, d))
            latents = offset + spread * (np.round(noise) if rounded else noise)
            sched = Schedule(family, max(1, k_max // 3), k_max, length, 2.0 if family is Family.POWER else None)
            cb = fit_codebook(latents, sched, k_max=k_max, d=d, epochs=epochs, decay=0.8, seed=seed)
            expected = reference_fit(latents, sched, k_max, d, epochs, 0.8, seed)
            assert cb.entries.tobytes() == expected.astype(np.float32).tobytes()

        check()


class TestDecode:
    def test_row_zero_repetition(self, rng):
        cb = Codebook(entries=rng.normal(size=(8, 4)))
        out = decode(np.zeros(5, dtype=int), cb)
        assert np.array_equal(out, np.tile(cb.entries[0], (5, 1)))

    def test_roundtrip_identity(self, rng):
        cb = Codebook(entries=rng.normal(size=(16, 3)))
        sched = Schedule(Family.LINEAR, 2, 16, 9)
        latents = rng.normal(size=(9, 3))
        tokens, _ = quantize_one(latents, sched, cb)
        assert np.array_equal(decode(tokens, cb), cb.entries[tokens])

    def test_out_of_range_token(self, rng):
        cb = Codebook(entries=rng.normal(size=(8, 4)))
        with pytest.raises(IndexError):
            decode(np.array([0, 8]), cb)

    @pytest.mark.parametrize("tokens", [np.array([1.7, 2.2]), np.array([True, False])])
    def test_non_integer_tokens_refused(self, rng, tokens):
        cb = Codebook(entries=rng.normal(size=(8, 4)))
        with pytest.raises(ValueError, match="token ids must be integers"):
            decode(tokens, cb)


class TestFitCodebook:
    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
    def test_no_blas_worker_spins_after_fit_and_quantize(self):
        # the experiment's arms at K_t up to 256, then 60,000 rows at K_t = 1,
        # whose one-column scores numpy hands to gemv, which threads sooner
        setup = (
            "import numpy as np\n"
            "from vcqlab.quantizer import Codebook, fit_codebook, quantize_batch\n"
            "from vcqlab.schedule import Family, Schedule\n"
            "from vcqlab.toylab import build_inputs, default_experiment_config, load_config\n"
            "_, _, latents = build_inputs(load_config(default_experiment_config(0)))\n"
            "lone = np.random.default_rng(0).normal(size=(60000, 3, 8))"
        )
        calls = (
            "cb = fit_codebook(latents, Schedule(Family.CONSTANT, 256, 256, 64), 256, 8, epochs=2)",
            "quantize_batch(latents, Schedule(Family.COSINE, 2, 256, 64), cb)",
            "quantize_batch(lone, Schedule(Family.LINEAR, 1, 4, 3), Codebook(entries=lone[:4, 0]))",
        )
        for kernel in BLAS_KERNELS:
            spins = blas_spins(kernel, setup, *calls)
            assert max(spins) < 0.05, (kernel, spins)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_latents_refused_before_any_epoch(self, rng, bad):
        sched = Schedule(Family.COSINE, 2, 8, 4)
        latents = rng.normal(size=(6, 4, 3))
        latents[2, 1, 0] = bad
        with pytest.raises(ValueError, match="latents contain non-finite values"):
            fit_codebook(latents, sched, k_max=8, d=3, epochs=2)
        with pytest.raises(ValueError, match="latents contain non-finite values"):
            quantize_batch(latents, sched, Codebook(entries=rng.normal(size=(8, 3))))

    def test_shares_the_latent_checks_of_quantize_batch(self, rng):
        sched = Schedule(Family.COSINE, 2, 8, 4)
        codebook = Codebook(entries=rng.normal(size=(4, 3)))
        for latents, message in (
            (rng.normal(size=(6, 5, 3)), "latents must have shape"),
            (rng.normal(size=(6, 4)), "latents must have shape"),
            (rng.normal(size=(6, 4, 2)), "latent dim 2 does not match codebook dim 3"),
            (rng.normal(size=(6, 4, 3)), "schedule k_max 8 exceeds codebook size 4"),
        ):
            with pytest.raises(ValueError, match=message):
                fit_codebook(latents, sched, k_max=4, d=3)
            with pytest.raises(ValueError, match=message):
                quantize_batch(latents, sched, codebook)

    def test_identical_vectors_single_cluster(self, rng):
        v = rng.normal(size=4)
        latents = np.tile(v, (20, 2, 1))
        sched = Schedule(Family.CONSTANT, 1, 1, 2)
        cb = fit_codebook(latents, sched, k_max=4, d=4, epochs=10, seed=0)
        assert np.allclose(cb.entries[0], v, atol=1e-6)

    def test_two_separated_clusters(self, rng):
        # exact 2-means solution for well-separated blobs is the pair of means
        a = rng.normal(size=(40, 2)) * 0.05 + np.array([5.0, 5.0])
        b = rng.normal(size=(40, 2)) * 0.05 + np.array([-5.0, -5.0])
        latents = np.concatenate([a, b])[:, None, :]  # 80 sequences of length 1
        sched = Schedule(Family.CONSTANT, 2, 2, 1)
        cb = fit_codebook(latents, sched, k_max=2, d=2, epochs=20, seed=3)
        means = {tuple(np.round(a.mean(axis=0), 6)), tuple(np.round(b.mean(axis=0), 6))}
        fitted = {tuple(np.round(row.astype(np.float64), 6)) for row in cb.entries}
        for mean in means:
            assert any(
                np.allclose(mean, row, atol=1e-4) for row in cb.entries.astype(np.float64)
            ), (means, fitted)

    def test_deterministic_given_seed(self, rng):
        latents = rng.normal(size=(30, 8, 3))
        sched = Schedule(Family.COSINE, 2, 16, 8)
        cb1 = fit_codebook(latents, sched, k_max=16, d=3, epochs=5, seed=7)
        cb2 = fit_codebook(latents, sched, k_max=16, d=3, epochs=5, seed=7)
        assert cb1.entries.tobytes() == cb2.entries.tobytes()

    def test_empty_corpus_rejected(self):
        sched = Schedule(Family.CONSTANT, 2, 2, 4)
        with pytest.raises(ValueError, match="non-empty"):
            fit_codebook(np.zeros((0, 4, 2)), sched, k_max=2, d=2)

    def test_dim_mismatch_rejected(self, rng):
        sched = Schedule(Family.CONSTANT, 2, 2, 4)
        with pytest.raises(ValueError, match="dim"):
            fit_codebook(rng.normal(size=(5, 4, 3)), sched, k_max=2, d=2)

    def test_prefix_constrained_assignment_uses_low_entries(self, rng):
        # a tight concave schedule must still leave all K_t reachable tokens valid
        latents = rng.normal(size=(50, 16, 2))
        sched = Schedule(Family.COSINE, 2, 32, 16)
        cb = fit_codebook(latents, sched, k_max=32, d=2, epochs=5, seed=1)
        tokens, _ = quantize_batch(latents, sched, cb)
        sizes = codebook_sizes(sched)
        for t in range(16):
            assert tokens[:, t].max() < sizes[t]


class TestCodebookFile:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        cb = Codebook(entries=rng.normal(size=(32, 6)))
        path = tmp_path / "cb.vcqc"
        write_codebook(cb, path)
        back = read_codebook(path)
        assert back.entries.tobytes() == cb.entries.tobytes()
        assert back.k_max == 32 and back.dim == 6

    def test_magic_and_layout(self, tmp_path):
        cb = Codebook(entries=np.zeros((2, 3), dtype=np.float32))
        path = tmp_path / "cb.vcqc"
        write_codebook(cb, path)
        raw = path.read_bytes()
        assert raw[:4] == CODEBOOK_MAGIC
        assert len(raw) == 14 + 2 * 3 * 4

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vcqc"
        path.write_bytes(b"XXXX" + bytes(20))
        with pytest.raises(ValueError, match="magic"):
            read_codebook(path)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Codebook(entries=np.array([[np.inf, 0.0]]))


def mapping_of(array):
    """The object at the root of an array's base chain."""
    while isinstance(array, np.ndarray) and array.base is not None:
        array = array.base
    return array.obj if isinstance(array, memoryview) else array


class TestMappedEmpty:
    @pytest.mark.parametrize("shape", [(1024, 128), (3, 1000, 50), (1 << 17,)])
    def test_from_one_mib_in_its_own_mapping(self, shape):
        array = quantizer._mapped_empty(shape)
        assert array.shape == shape and array.dtype == np.float64
        assert array.flags.c_contiguous and array.flags.writeable
        assert isinstance(mapping_of(array), mmap.mmap)
        array[...] = 1.5
        assert array.sum() == 1.5 * array.size

    @pytest.mark.parametrize("shape", [(1023, 128), (0, 8), (0,), (3, 5)])
    def test_below_one_mib_from_numpy(self, shape):
        array = quantizer._mapped_empty(shape)
        assert array.shape == shape and array.dtype == np.float64
        assert array.base is None

    def test_fit_columns_are_mapped(self, monkeypatch, rng):
        made = []
        real = quantizer._mapped_empty
        monkeypatch.setattr(quantizer, "_mapped_empty", lambda shape: made.append(shape) or real(shape))
        latents = rng.normal(size=(5, 4, 3))
        fit_codebook(latents, Schedule("constant", 4, 4, 4), k_max=4, d=3, epochs=1, decay=0.9, seed=0)
        assert made == [(3, 20)]

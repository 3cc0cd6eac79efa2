import concurrent.futures
import inspect
import json
import math
import mmap
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import BLAS_KERNELS, blas_spins

from vcqlab import toylab
from vcqlab.quantizer import _GEMM_MACS, Codebook, _mapped_empty, decode, fit_codebook
from vcqlab.schedule import Family, Schedule, codebook_sizes
from vcqlab.toylab import (
    SyntheticSpec,
    build_inputs,
    default_experiment_config,
    fit_encoder,
    generate_dataset,
    load_config,
    psnr_from_mse,
    reconstruction_metrics,
    run_cliff_experiment,
    tokenize_dataset,
    write_experiment_report,
)


def patch_matrix(images, patch_size):
    """The (n * L, p * p) matrix of raster-order patches that the encoder never builds."""
    return toylab._patch_grid(images, patch_size).reshape(-1, patch_size * patch_size)


def one_shot(encoder, images):
    """``encode_images`` as one product over the whole patch matrix."""
    flat = patch_matrix(images, encoder.patch_size)
    length = (images.shape[1] // encoder.patch_size) ** 2
    return ((flat - encoder.mean) @ encoder.projection).reshape(len(images), length, encoder.dim)


def tiny_config(seed=0):
    """Shrunk experiment config for fast unit tests."""
    cfg = default_experiment_config(seed=seed)
    cfg["dataset"].update({"n_classes": 4, "n_per_class": 25, "image_size": 16})
    cfg["encoder"] = {"patch_size": 4, "dim": 6}
    cfg["schedules"] = [
        {"name": "constant", "family": "constant", "k_min": 32, "k_max": 32, "length": 16},
        {"name": "cosine", "family": "cosine", "k_min": 2, "k_max": 32, "length": 16},
    ]
    cfg["codebook"]["epochs"] = 8
    cfg["generation"]["n_samples"] = 40
    return cfg


def reference_dataset(spec):
    """The one-image-at-a-time renderer that generate_dataset must equal byte for byte."""
    rng = np.random.default_rng(spec.seed)
    s = spec.image_size
    grid = (np.arange(s) + 0.5) / s
    yy, xx = np.meshgrid(grid, grid, indexing="ij")
    class_params = []
    for _ in range(spec.n_classes):
        class_params.append(
            {
                "freq": rng.uniform(0.5, 3.0, size=2),
                "phase": rng.uniform(0.0, 2.0 * math.pi),
                "centers": rng.uniform(0.15, 0.85, size=(spec.blobs_per_class, 2)),
                "amps": rng.uniform(0.2, 0.45, size=spec.blobs_per_class)
                * rng.choice([-1.0, 1.0], size=spec.blobs_per_class),
                "widths": rng.uniform(0.08, 0.2, size=spec.blobs_per_class),
            }
        )
    images, labels = [], []
    for c, params in enumerate(class_params):
        for _ in range(spec.n_per_class):
            dphase = rng.normal(0.0, spec.jitter)
            dcenters = rng.normal(0.0, spec.jitter * 0.05, size=(spec.blobs_per_class, 2))
            fx, fy = params["freq"]
            img = 0.5 + 0.22 * np.sin(
                2.0 * math.pi * (fx * xx + fy * yy) + params["phase"] + dphase
            )
            for b in range(spec.blobs_per_class):
                cx, cy = params["centers"][b] + dcenters[b]
                w = params["widths"][b]
                img += params["amps"][b] * np.exp(
                    -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * w * w)
                )
            img += spec.noise * rng.standard_normal((s, s))
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(c)
    return np.array(images, dtype=np.float64).reshape(-1, s, s), np.array(labels, dtype=np.int64)


class TestGenerateDataset:
    @pytest.mark.parametrize(
        "fields",
        [
            {"blobs_per_class": 0},
            {"jitter": 0},
            {"noise": 0},
            {"n_per_class": 1},
            {"image_size": 1},
            {"n_classes": 3, "n_per_class": 7, "image_size": 5, "seed": 9},
            {"n_classes": 2, "n_per_class": 33, "image_size": 4, "seed": 5},
            {},
        ],
    )
    def test_equals_per_image_reference(self, fields):
        spec = SyntheticSpec(**fields)
        data = generate_dataset(spec)
        images, labels = reference_dataset(spec)
        assert data.images.shape == images.shape and data.images.dtype == images.dtype
        assert data.images.tobytes() == images.tobytes()
        assert data.labels.dtype == labels.dtype and np.array_equal(data.labels, labels)

    def test_deterministic(self):
        spec = SyntheticSpec(n_classes=3, n_per_class=5, image_size=16, seed=4)
        a, b = generate_dataset(spec), generate_dataset(spec)
        assert a.images.tobytes() == b.images.tobytes()
        assert np.array_equal(a.labels, b.labels)

    def test_empty(self):
        spec = SyntheticSpec(n_classes=3, n_per_class=0, image_size=8, seed=0)
        data = generate_dataset(spec)
        assert data.images.shape == (0, 8, 8)

    def test_pixels_in_unit_interval(self):
        data = generate_dataset(SyntheticSpec(n_classes=2, n_per_class=10, image_size=16, seed=1))
        assert data.images.min() >= 0.0 and data.images.max() <= 1.0

    def test_class_means_differ(self):
        data = generate_dataset(SyntheticSpec(n_classes=2, n_per_class=20, image_size=16, seed=2))
        mean0 = data.images[data.labels == 0].mean(axis=0)
        mean1 = data.images[data.labels == 1].mean(axis=0)
        assert float(np.linalg.norm(mean0 - mean1)) > 0.5

    def test_images_within_class_differ(self):
        data = generate_dataset(SyntheticSpec(n_classes=1, n_per_class=2, image_size=16, seed=3))
        assert not np.array_equal(data.images[0], data.images[1])

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("n_classes", True, "dataset.n_classes must be an integer"),
            ("noise", math.nan, "dataset.noise must be finite"),
            ("jitter", -0.5, "dataset.jitter must be >= 0"),
            ("image_size", 0, "dataset.image_size must be >= 1"),
        ],
    )
    def test_spec_fields_checked(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticSpec(**{field: value})

    def test_integral_float_stored_as_int(self):
        spec = SyntheticSpec(n_per_class=24.0)
        assert spec.n_per_class == 24 and type(spec.n_per_class) is int


class TestFitEncoder:
    def test_complete_basis_is_lossless(self, rng):
        images = rng.uniform(size=(6, 8, 8))
        enc = fit_encoder(images, patch_size=4, d=16)
        latents = enc.encode_images(images)
        recon = enc.decode_patches(latents.reshape(-1, enc.dim))
        assert np.allclose(recon, patch_matrix(images, 4), atol=1e-5)

    def test_orthonormal_columns(self, rng):
        images = rng.uniform(size=(6, 8, 8))
        enc = fit_encoder(images, patch_size=4, d=5)
        gram = enc.projection.T @ enc.projection
        assert np.allclose(gram, np.eye(5), atol=1e-10)

    def test_rank_one_patches_recover_direction(self, rng):
        # every patch is a scalar multiple of one fixed pattern, so the top
        # principal direction must align with that pattern
        u = rng.normal(size=(4, 4))
        u /= np.linalg.norm(u)
        scales = rng.normal(size=(5, 4, 4))  # per-image patch-grid scalars
        images = np.einsum("ngh,ij->ngihj", scales, u).reshape(5, 16, 16)
        enc = fit_encoder(images, patch_size=4, d=1)
        alignment = abs(float(enc.projection[:, 0] @ u.reshape(16)))
        assert alignment == pytest.approx(1.0, abs=1e-8)

    def test_sign_convention_deterministic(self, rng):
        images = rng.uniform(size=(6, 8, 8))
        a = fit_encoder(images, patch_size=4, d=4)
        b = fit_encoder(images, patch_size=4, d=4)
        assert np.array_equal(a.projection, b.projection)
        for j in range(4):
            col = a.projection[:, j]
            first = col[np.abs(col) > 1e-12][0]
            assert first > 0

    def test_d_too_large_rejected(self, rng):
        with pytest.raises(ValueError, match="d must"):
            fit_encoder(rng.uniform(size=(2, 8, 8)), patch_size=4, d=17)

    @pytest.mark.parametrize("patch_size", [1, 4, 8])
    def test_images_left_unchanged(self, rng, patch_size):
        # patch_size 1 and patch_size == image_size give patches that are a
        # view of the images, 4 a copy: centering must not reach the caller's
        images = rng.uniform(size=(6, 8, 8))
        assert np.shares_memory(patch_matrix(images, patch_size), images) == (patch_size != 4)
        before = images.copy()
        fit_encoder(images, patch_size=patch_size, d=1)
        assert images.tobytes() == before.tobytes()

    def test_span_reconstruction(self, rng):
        images = rng.uniform(size=(10, 8, 8))
        enc = fit_encoder(images, patch_size=4, d=6)
        # patches already inside the span round-trip exactly: one image of 2 x 2 of them
        latent = rng.normal(size=(1, 4, 6))
        patches = enc.decode_patches(latent).reshape(1, 2, 2, 4, 4)
        image = patches.transpose(0, 1, 3, 2, 4).reshape(1, 8, 8)
        assert np.allclose(enc.encode_images(image), latent, atol=1e-10)


def default_inputs():
    """The default experiment's dataset, encoder and latents (seed 0)."""
    return build_inputs(load_config(default_experiment_config(0)))


def encode_block(encoder):
    """Rows per encode GEMM: the largest power of two within half of _GEMM_MACS multiply-adds."""
    return max(1, (_GEMM_MACS >> 1) >> (encoder.projection.size - 1).bit_length())


class TestBlockedEncode:
    @pytest.mark.parametrize("patch_size, dim", [(2, 1), (2, 3), (4, 2), (4, 6), (4, 8)])
    def test_equals_one_shot_product(self, rng, patch_size, dim):
        enc = fit_encoder(rng.uniform(size=(6, 8, 8)), patch_size=patch_size, d=dim)
        block = encode_block(enc)
        for rows in (0, 1, 2, block - 1, block, block + 1):
            # images of one patch each: one row of the patch matrix per image
            images = rng.uniform(size=(rows, patch_size, patch_size))
            want = one_shot(enc, images)
            got = enc.encode_images(images)
            assert got.shape == want.shape == (rows, 1, dim) and got.tobytes() == want.tobytes(), rows

    @pytest.mark.parametrize(
        "n, size, patch_size, dim",
        [(2000, 32, 4, 8), (3, 8, 2, 3), (257, 16, 4, 8), (33, 12, 3, 9), (500, 64, 4, 8), (1, 8, 4, 3)],
    )
    def test_images_equal_one_shot_product(self, rng, n, size, patch_size, dim):
        images = rng.uniform(size=(n, size, size))
        enc = fit_encoder(images, patch_size=patch_size, d=dim)
        got = enc.encode_images(images)
        want = one_shot(enc, images)
        assert got.shape == want.shape == (n, (size // patch_size) ** 2, dim)
        assert got.tobytes() == want.tobytes()

    def test_keeps_leading_axes(self, rng):
        enc = fit_encoder(rng.uniform(size=(6, 8, 8)), patch_size=4, d=6)
        images = rng.uniform(size=(3, 20, 20))
        stacked = enc.encode_images(images)
        assert stacked.shape == (3, 25, 6)
        assert stacked.tobytes() == one_shot(enc, images).tobytes()
        # a lone patch: one row, which numpy would hand to gemv
        vector = enc.encode_images(images[:1, :4, :4])
        assert vector.shape == (1, 1, 6)
        assert vector.tobytes() == ((images[0, :4, :4].reshape(16) - enc.mean) @ enc.projection).tobytes()

    def test_default_dataset_equals_one_shot_product(self):
        # 128,000 rows: the one-shot product is large enough to run on OpenBLAS's threads
        dataset, enc, latents = default_inputs()
        flat = dataset.images.reshape(-1, 8, 4, 8, 4).transpose(0, 1, 3, 2, 4).reshape(-1, 16)
        assert len(flat) > encode_block(enc)
        assert latents.tobytes() == ((flat - enc.mean) @ enc.projection).tobytes()

    @pytest.mark.parametrize("block", [1, 64, 100, 1000, _GEMM_MACS >> 1])
    def test_images_equal_patches_of_the_extracted_matrix(self, rng, monkeypatch, block):
        # every block of encode_images is read from the patch grid, runs of g
        # patches split at both ends whenever the block rows are not a multiple of g;
        # a block takes up to half the bound's multiply-adds
        monkeypatch.setattr(toylab, "_GEMM_MACS", 2 * block)
        for _ in range(12):
            patch, g = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            n, dim = int(rng.integers(1, 40)), int(rng.integers(1, patch * patch + 1))
            images = rng.uniform(size=(n, g * patch, g * patch))
            enc = toylab.LinearEncoder(
                patch, dim, rng.uniform(size=patch * patch), rng.normal(size=(patch * patch, dim))
            )
            got = enc.encode_images(images)
            # the same row blocks over the flat patch matrix, one patch per run
            want = toylab._blocked_product(patch_matrix(images, patch)[:, None], enc.projection, enc.mean)
            assert got.shape == (n, g * g, dim)
            assert got.tobytes() == want.tobytes(), (n, g, patch, dim)

    def test_encode_makes_no_patch_matrix(self, rng):
        # 500 images of 32 x 32 (4.1 MB): a whole patch matrix would be another 4.1 MB
        images = rng.uniform(size=(500, 32, 32))
        enc = fit_encoder(images[:50], patch_size=4, d=8)
        tracemalloc.start()
        try:
            latents = enc.encode_images(images)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < latents.nbytes + images.nbytes / 4

    def test_image_sized_arrays_are_mapped(self, monkeypatch):
        # each goes back to the system when freed, leaving the malloc heap alone
        made = []
        monkeypatch.setattr(toylab, "_mapped_empty", lambda shape: made.append(shape) or _mapped_empty(shape))
        _, _, latents = default_inputs()
        # fit_encoder's centered patches, then the latents
        assert made == [(128000, 16), (128000, 8)]
        while isinstance(latents, np.ndarray):
            latents = latents.base
        assert isinstance(latents.obj, mmap.mmap)

    def test_two_dimensional_images_refused(self, rng):
        enc = fit_encoder(rng.uniform(size=(6, 8, 8)), patch_size=4, d=4)
        with pytest.raises(ValueError, match=re.escape("(n, s, s) stack of square images, got shape (8, 8)")):
            enc.encode_images(rng.uniform(size=(8, 8)))

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
    def test_no_blas_worker_spins_after_encode_and_reconstruction(self):
        setup = (
            "import numpy as np\n"
            "from vcqlab.quantizer import Codebook\n"
            "from vcqlab.schedule import Family, Schedule\n"
            "from vcqlab.toylab import build_inputs, default_experiment_config, load_config, reconstruction_metrics, tokenize_dataset\n"
            "dataset, enc, latents = build_inputs(load_config(default_experiment_config(0)))\n"
            "cb = Codebook(entries=latents.reshape(-1, enc.dim)[::500].astype(np.float32))\n"
            "corpus = tokenize_dataset(latents, dataset.labels, Schedule(Family.CONSTANT, 256, 256, 64), cb)"
        )
        call = "enc.encode_images(dataset.images)\nreconstruction_metrics(dataset.images, corpus.tokens, enc, cb)"
        for kernel in BLAS_KERNELS:
            assert blas_spins(kernel, setup, call)[0] < 0.05, kernel


class TestTokenizeDataset:
    def _setup(self, rng, k=16):
        spec = SyntheticSpec(n_classes=2, n_per_class=10, image_size=16, seed=5)
        data = generate_dataset(spec)
        enc = fit_encoder(data.images, patch_size=4, d=4)
        sched = Schedule(Family.COSINE, 2, k, 16)
        latents = enc.encode_images(data.images)
        cb = fit_codebook(latents, sched, k_max=k, d=4, epochs=5, seed=0)
        return data, enc, sched, cb

    def test_constant_images_give_identical_rows(self, rng):
        data, enc, sched, cb = self._setup(rng)
        flat = enc.encode_images(np.full((4, 16, 16), 0.5))
        corpus = tokenize_dataset(flat, np.zeros(4, dtype=int), sched, cb)
        assert (corpus.tokens == corpus.tokens[0]).all()

    def test_tokens_respect_schedule(self, rng):
        data, enc, sched, cb = self._setup(rng)
        corpus = tokenize_dataset(enc.encode_images(data.images), data.labels, sched, cb)
        sizes = codebook_sizes(sched)
        for t in range(16):
            assert corpus.tokens[:, t].max() < sizes[t]
        assert np.array_equal(corpus.labels, data.labels)

    def test_deterministic(self, rng):
        data, enc, sched, cb = self._setup(rng)
        a = tokenize_dataset(enc.encode_images(data.images), data.labels, sched, cb)
        b = tokenize_dataset(enc.encode_images(data.images), data.labels, sched, cb)
        assert a.tokens.tobytes() == b.tokens.tobytes()

    def test_length_mismatch_rejected(self, rng):
        data, enc, _, cb = self._setup(rng)
        bad = Schedule(Family.CONSTANT, 16, 16, 9)
        with pytest.raises(ValueError, match="16 patches per image, but the schedule has length 9"):
            tokenize_dataset(enc.encode_images(data.images), data.labels, bad, cb)


class TestReconstructionMetrics:
    def test_psnr_formula(self):
        assert psnr_from_mse(0.01) == pytest.approx(20.0, abs=1e-12)
        assert psnr_from_mse(0.0) == float("inf")
        with pytest.raises(ValueError):
            psnr_from_mse(-0.1)

    def test_perfect_roundtrip_is_infinite(self, rng):
        # images whose patches live exactly on codebook rows decode perfectly
        spec = SyntheticSpec(n_classes=1, n_per_class=4, image_size=8, seed=6)
        data = generate_dataset(spec)
        enc = fit_encoder(data.images, patch_size=4, d=16)  # complete basis
        sched = Schedule(Family.CONSTANT, 4, 4, 4)
        latents = enc.encode_images(data.images[:1])
        # codebook containing exactly the four patch latents of image 0
        from vcqlab.quantizer import Codebook

        cb = Codebook(entries=latents[0].astype(np.float32))
        mse, _ = reconstruction_metrics(data.images[:1], np.arange(4)[None], enc, cb)
        assert mse < 1e-9  # float32 codebook storage, not bit-exact

    @staticmethod
    def per_token_metrics(images, tokens, enc, cb):
        """The reference: decode every token's latent, then place each patch by index.

        Returns (mse, psnr).
        """
        n, size, p = len(images), images.shape[1], enc.patch_size
        g = size // p
        patches = enc.decode_patches(decode(tokens, cb).astype(np.float64).reshape(-1, enc.dim))
        tiled = np.empty((n, size, size))
        for row, patch in enumerate(patches):
            image, (i, j) = row // (g * g), divmod(row % (g * g), g)
            tiled[image, i * p : (i + 1) * p, j * p : (j + 1) * p] = patch.reshape(p, p)
        recon = np.clip(tiled, 0, 1)
        mse = float(np.mean((images - recon) ** 2))
        return mse, psnr_from_mse(mse)

    @pytest.mark.parametrize(
        "patch_size, dim, k, used, dtype",
        [
            (2, 1, 1, 1, np.uint8),
            (2, 3, 5, 2, np.uint8),
            (2, 4, 300, 300, np.uint16),
            (4, 2, 2, 2, np.uint8),
            (4, 6, 32, 9, np.uint8),
            (4, 8, 256, 256, np.uint8),
            (4, 16, 1000, 700, np.uint16),
        ],
    )
    def test_equals_per_token_decode(self, rng, patch_size, dim, k, used, dtype):
        images = generate_dataset(SyntheticSpec(n_classes=3, n_per_class=4, image_size=8, seed=k)).images
        enc = fit_encoder(images, patch_size=patch_size, d=dim)
        cb = Codebook(entries=rng.normal(0.0, 0.5, size=(k, dim)))
        # ids below `used` only: the codebook's other entries are never gathered
        tokens = rng.integers(0, used, size=(len(images), (8 // patch_size) ** 2)).astype(dtype)
        metrics = self.per_token_metrics(images, tokens, enc, cb)
        assert repr(reconstruction_metrics(images, tokens, enc, cb)) == repr(metrics)

    @staticmethod
    def paper_sized_inputs(rng):
        """100 images of 32 x 32, 4 x 4 patches, dim 8 and a k_max = 16,384 codebook."""
        images = rng.uniform(size=(100, 32, 32))
        enc = fit_encoder(images, patch_size=4, d=8)
        cb = Codebook(entries=rng.normal(0.0, 0.5, size=(16384, 8)))
        return images, rng.integers(0, 16384, size=(100, 64)), enc, cb

    def test_paper_sized_table_equals_one_shot_decode(self, rng, monkeypatch):
        # (16,384 x 8) @ (8 x 16) is 2.1e6 multiply-adds: the one-shot product
        # runs on OpenBLAS's threads, the blocked table in eight blocks
        images, tokens, enc, cb = self.paper_sized_inputs(rng)
        tables = []
        tile = toylab._tile_patches

        def recorded(table, *args):
            tables.append(table.copy())
            return tile(table, *args)

        monkeypatch.setattr(toylab, "_tile_patches", recorded)
        reconstruction_metrics(images, tokens, enc, cb)
        assert tables[0].tobytes() == np.clip(enc.decode_patches(cb.entries), 0.0, 1.0).tobytes()

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS runs one thread on one core")
    def test_no_blas_worker_spins_after_paper_sized_reconstruction(self):
        # paper_sized_inputs(rng), in a fresh process
        setup = (
            "import numpy as np\n"
            "from vcqlab.quantizer import Codebook\n"
            "from vcqlab.toylab import fit_encoder, reconstruction_metrics\n"
            "rng = np.random.default_rng(12345)\n"
            "images = rng.uniform(size=(100, 32, 32))\n"
            "enc = fit_encoder(images, patch_size=4, d=8)\n"
            "cb = Codebook(entries=rng.normal(0.0, 0.5, size=(16384, 8)))\n"
            "tokens = rng.integers(0, 16384, size=(100, 64))"
        )
        for kernel in BLAS_KERNELS:
            assert blas_spins(kernel, setup, "reconstruction_metrics(images, tokens, enc, cb)")[0] < 0.05, kernel

    def test_default_dataset_equals_per_token_decode(self, rng):
        dataset, enc, latents = default_inputs()
        cb = Codebook(entries=latents.reshape(-1, enc.dim)[::500].astype(np.float32))
        tokens = rng.integers(0, 256, size=(len(dataset.images), 64)).astype(np.uint8)
        got = reconstruction_metrics(dataset.images, tokens, enc, cb)
        assert repr(got) == repr(self.per_token_metrics(dataset.images, tokens, enc, cb))

    @pytest.mark.parametrize("leaf", [128, 200, 1000])
    @pytest.mark.parametrize("size, patch", [(4, 2), (8, 4), (12, 4)])
    def test_mse_equals_np_mean_in_small_leaves(self, rng, monkeypatch, leaf, size, patch):
        # leaves of the pairwise sum that split images, over value counts
        # around multiples of 8 and of numpy's 128-value pairwise leaf
        monkeypatch.setattr(toylab, "_SUM_LEAF", leaf)
        images = rng.uniform(size=(70, size, size))
        enc = fit_encoder(images, patch_size=patch, d=3)
        cb = Codebook(entries=rng.normal(0.0, 0.5, size=(20, 3)))
        tokens = rng.integers(0, 20, size=(70, (size // patch) ** 2))
        for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 70):
            metrics = self.per_token_metrics(images[:n], tokens[:n], enc, cb)
            assert repr(reconstruction_metrics(images[:n], tokens[:n], enc, cb)) == repr(metrics), n

    def test_reconstruction_makes_no_image_sized_copy(self, rng):
        # 1,000 images of 32 x 32 (8.2 MB): a whole decoded stack would be another 8.2 MB
        images = rng.uniform(size=(1000, 32, 32))
        enc = fit_encoder(images[:50], patch_size=4, d=8)
        cb = Codebook(entries=rng.normal(0.0, 0.5, size=(256, 8)))
        tokens = rng.integers(0, 256, size=(1000, 64)).astype(np.uint8)
        tracemalloc.start()
        try:
            reconstruction_metrics(images, tokens, enc, cb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < images.nbytes / 4

    @pytest.mark.parametrize(
        "case, error, message",
        [
            ("vector", ValueError, "images must be an (n, s, s) stack of square images, got shape (8,)"),
            ("oblong", ValueError, "images must be an (n, s, s) stack of square images, got shape (2, 8, 6)"),
            ("pixelless", ValueError, "images must be an (n, s, s) stack of square images, got shape (8, 0, 0)"),
            ("empty", ValueError, "images must hold at least one image, got shape (0, 8, 8)"),
            ("rows", ValueError, "tokens must hold one row per image (8), got shape (5, 4)"),
            ("flat", ValueError, "tokens must hold one row per image (8), got shape (32,)"),
            ("length", ValueError, "L = 9 patches, but (image_size / patch_size)**2 = 4"),
            ("dim", ValueError, "codebook dim 3 does not match encoder dim 4"),
            ("bool", ValueError, "token ids must be integers, got dtype bool"),
            ("float", ValueError, "token ids must be integers, got dtype float64"),
            ("range", IndexError, "token ids must lie in [0, 16), found range [0, 16]"),
            ("negative", IndexError, "token ids must lie in [0, 16), found range [-1, 3]"),
        ],
    )
    def test_bad_input_refused_before_decoding(self, rng, case, error, message):
        images = rng.uniform(size=(8, 8, 8))
        enc = fit_encoder(images, patch_size=4, d=4)
        cb = Codebook(entries=rng.normal(size=(16, 3 if case == "dim" else 4)))
        grid = np.arange(32).reshape(8, 4)
        tokens = {
            "rows": rng.integers(0, 16, size=(5, 4)),
            "flat": rng.integers(0, 16, size=32),
            "length": rng.integers(0, 16, size=(8, 9)),
            "bool": np.ones((8, 4), dtype=bool),
            "float": np.ones((8, 4)),
            "range": grid % 17,
            "negative": np.where(grid == 5, -1, grid % 4),
            "oblong": rng.integers(0, 16, size=(2, 4)),
            "pixelless": np.empty((8, 0), dtype=int),
            "empty": np.empty((0, 4), dtype=int),
        }.get(case, rng.integers(0, 16, size=(8, 4)))
        images = {
            "vector": rng.uniform(size=8),
            "oblong": rng.uniform(size=(2, 8, 6)),
            "pixelless": np.empty((8, 0, 0)),
            "empty": np.empty((0, 8, 8)),
        }.get(case, images)
        enc.decode_patches = lambda latents: pytest.fail("decoded before the input was checked")
        with pytest.raises(error, match=re.escape(message)):
            reconstruction_metrics(images, tokens, enc, cb)

    def test_larger_codebook_never_hurts_psnr(self, rng):
        spec = SyntheticSpec(n_classes=4, n_per_class=30, image_size=16, seed=7)
        data = generate_dataset(spec)
        enc = fit_encoder(data.images, patch_size=4, d=8)
        latents = enc.encode_images(data.images)
        psnrs = []
        for k in (4, 64, 1024):
            sched = Schedule(Family.CONSTANT, k, k, 16)
            cb = fit_codebook(latents, sched, k_max=k, d=8, epochs=10, seed=11)
            corpus = tokenize_dataset(latents, data.labels, sched, cb)
            _, psnr = reconstruction_metrics(data.images, corpus.tokens, enc, cb)
            psnrs.append(psnr)
        assert psnrs[0] <= psnrs[1] <= psnrs[2]


class TestExperiment:
    def test_runs_and_reports(self, tmp_path):
        report = run_cliff_experiment(tiny_config(seed=0))
        assert [r.name for r in report.results] == ["constant", "cosine"]
        write_experiment_report(report, tmp_path / "out")
        files = {p.name for p in (tmp_path / "out").iterdir()}
        assert files == {
            "report.json",
            "entropy_constant.csv", "entropy_cosine.csv",
            "corpus_constant.vcqt", "corpus_cosine.vcqt",
            "generated_constant.vcqt", "generated_cosine.vcqt",
            "codebook_constant.vcqc", "codebook_cosine.vcqc",
        }
        summary = json.loads((tmp_path / "out" / "report.json").read_text())
        assert "cosine" in summary["deltas"]
        assert summary["schedules"]["constant"]["cliff_position"] >= 1

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_config(seed=3)
        for name in ("a", "b"):
            write_experiment_report(run_cliff_experiment(cfg), tmp_path / name)
        for p in sorted((tmp_path / "a").iterdir()):
            assert p.read_bytes() == (tmp_path / "b" / p.name).read_bytes(), p.name

    def test_constant_k1_degenerates_to_silence(self):
        # a single-entry codebook carries zero bits: all tokens 0, all
        # entropies 0, cliff at 0, and the budget is never reached
        cfg = tiny_config(seed=2)
        cfg["schedules"] = [
            {"name": "k1", "family": "constant", "k_min": 1, "k_max": 1, "length": 16}
        ]
        report = run_cliff_experiment(cfg)
        r = report.results[0]
        assert (r.corpus.tokens == 0).all()
        assert r.profile.conditional_bits == [0.0] * 16
        assert r.profile.cliff_position == 0
        assert r.tstar_analytic == 17  # L + 1: budget never reached

    def test_stage_failure_names_stage(self):
        cfg = tiny_config(seed=0)
        cfg["dataset"]["n_per_class"] = 0  # no patches to fit the encoder on
        with pytest.raises(RuntimeError, match="stage 'encoder'"):
            run_cliff_experiment(cfg)

    def test_encoder_dim_above_patch_dimension_refused_by_loader(self):
        cfg = tiny_config(seed=0)
        cfg["encoder"]["dim"] = 999
        with pytest.raises(ValueError, match=re.escape("encoder.dim must be <= encoder.patch_size**2 = 16")):
            load_config(cfg)

    def test_unknown_dataset_key_named(self):
        cfg = tiny_config(seed=0)
        cfg["dataset"]["n_images"] = 10
        with pytest.raises(ValueError, match="unknown dataset field 'n_images'"):
            run_cliff_experiment(cfg)

    def test_build_inputs_equals_direct_construction(self):
        cfg = tiny_config(seed=1)
        dataset, encoder, latents = build_inputs(load_config(cfg))
        direct = generate_dataset(SyntheticSpec(**cfg["dataset"]))
        assert dataset.images.tobytes() == direct.images.tobytes()
        assert dataset.spec == direct.spec
        reference = fit_encoder(direct.images, patch_size=4, d=6)
        assert encoder.projection.tobytes() == reference.projection.tobytes()
        assert encoder.mean.tobytes() == reference.mean.tobytes()
        assert latents.tobytes() == reference.encode_images(direct.images).tobytes()

    def test_codebook_section_passes_through(self):
        # the codebook section passes through as fit_codebook keyword
        # arguments, so its defaults are that function's
        params = inspect.signature(fit_codebook).parameters
        assert {k: params[k].default for k in ("epochs", "decay", "seed")} == {
            "epochs": 20, "decay": 0.99, "seed": 0
        }
        base = {"dataset": {}, "encoder": {"patch_size": 4, "dim": 6}}
        assert load_config(base)["codebook"] == {}
        epochs = load_config({**base, "codebook": {"epochs": 3.0, "seed": 7}})["codebook"]["epochs"]
        assert epochs == 3 and type(epochs) is int
        with pytest.raises(ValueError, match="codebook.epochs must be an integer"):
            load_config({**base, "codebook": {"epochs": 2.7}})

    def test_readme_config_is_the_default_and_loads(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"## Experiment config\s+```json\n(.*?)```", readme, re.S).group(1)
        config = json.loads(block)
        assert config == default_experiment_config(0)
        loaded = load_config(config)
        assert [name for name, _, _ in loaded["schedules"]] == ["constant", "cosine"]

    def test_duplicate_schedule_names_rejected(self):
        cfg = tiny_config(seed=0)
        cfg["schedules"].append(dict(cfg["schedules"][0]))
        with pytest.raises(ValueError, match="duplicate"):
            run_cliff_experiment(cfg)

    def test_schedule_names_with_one_file_name_rejected(self, monkeypatch):
        # "arm a" and "arm-a" would both write corpus_arm-a.vcqt and the other
        # report files: refused by the loader before the dataset is built
        cfg = tiny_config(seed=0)
        cfg["schedules"][0]["name"] = "arm a"
        cfg["schedules"][1]["name"] = "arm-a"
        monkeypatch.setattr(toylab, "generate_dataset", None)
        with pytest.raises(ValueError, match="'arm a' and 'arm-a'"):
            run_cliff_experiment(cfg)


def _refuse_fit(*args, **kwargs):
    raise ValueError("no codebook here")


def _worker_arm_without_fit(loaded, index):
    """``toylab._worker_arm`` whose codebook fit fails in the worker process only."""
    toylab.fit_codebook = _refuse_fit
    return toylab._worker_arm(loaded, index)


class TestArmWorkers:
    """Every arm after the first runs in a spawned worker process when at
    least two CPUs are usable; ``_usable_cpus`` is patched to pick the path."""

    @pytest.fixture
    def pools(self, monkeypatch):
        made = []

        class Recorded(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, workers, context):
                made.append(workers)
                super().__init__(workers, context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
        return made

    @pytest.mark.parametrize("arms, cpus, workers", [(2, 2, 1), (3, 2, 1), (3, 3, 2), (3, 8, 2)])
    def test_pool_reports_equal_one_cpu_reports(self, tmp_path, monkeypatch, pools, arms, cpus, workers):
        cfg = tiny_config(seed=0)
        cfg["schedules"].append(
            {"name": "linear", "family": "linear", "k_min": 4, "k_max": 32, "length": 16}
        )
        del cfg["schedules"][arms:]
        for name, n in (("pool", cpus), ("one", 1)):
            monkeypatch.setattr(toylab, "_usable_cpus", lambda: n)
            report = run_cliff_experiment(cfg)
            assert [r.name for r in report.results] == [arm["name"] for arm in cfg["schedules"]]
            write_experiment_report(report, tmp_path / name)
        assert pools == [workers] and multiprocessing.active_children() == []
        files = sorted(p.name for p in (tmp_path / "one").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "pool").iterdir())
        for name in files:
            assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "one" / name).read_bytes(), name

    def test_one_arm_makes_no_pool(self, monkeypatch, pools):
        cfg = tiny_config(seed=0)
        del cfg["schedules"][1:]
        monkeypatch.setattr(toylab, "_usable_cpus", lambda: 2)
        assert [r.name for r in run_cliff_experiment(cfg).results] == ["constant"]
        assert pools == []

    @pytest.mark.parametrize(
        "parent_fails, worker_fails, failed",
        [(True, False, "constant"), (False, True, "cosine"), (True, True, "constant")],
    )
    def test_earliest_failing_arm_named(self, monkeypatch, pools, parent_fails, worker_fails, failed):
        monkeypatch.setattr(toylab, "_usable_cpus", lambda: 2)
        if parent_fails:
            monkeypatch.setattr(toylab, "fit_codebook", _refuse_fit)
        if worker_fails:
            monkeypatch.setattr(toylab, "_worker_arm", _worker_arm_without_fit)
        message = f"experiment stage 'fit_codebook' failed for '{failed}': no codebook here"
        with pytest.raises(RuntimeError, match=re.escape(message)):
            run_cliff_experiment(tiny_config(seed=0))
        assert pools == [1] and multiprocessing.active_children() == []

    @pytest.mark.skipif(toylab._usable_cpus() < 2, reason="one usable CPU runs every arm in-process")
    @pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
    def test_unguarded_script_names_the_guard(self, tmp_path):
        # a script that runs the experiment at import: the spawned worker
        # re-imports it as its main module and fails before running its arm
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from vcqlab.toylab import run_cliff_experiment\n"
            f"run_cliff_experiment({tiny_config(seed=0)!r})\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(toylab.__file__).parents[1]))
        # a new session: the script's pid is the process group of every process it starts
        proc = subprocess.Popen(
            [sys.executable, str(script)], env=env, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        _, stderr = proc.communicate(timeout=300)
        assert proc.returncode != 0
        assert "RuntimeError: experiment arm 'cosine': its worker process ended" in stderr
        assert 'the script lacks an `if __name__ == "__main__":` guard' in stderr
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.1)
        else:
            os.killpg(proc.pid, signal.SIGKILL)
            pytest.fail("a process started by the script outlived it")

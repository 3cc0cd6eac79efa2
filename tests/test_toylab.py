import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from vcqlab.quantizer import fit_codebook
from vcqlab.schedule import Family, Schedule, codebook_sizes
from vcqlab.toylab import (
    Dataset,
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
        recon = enc.decode_images(latents, 8)
        assert np.allclose(recon, images, atol=1e-5)

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

    def test_span_reconstruction(self, rng):
        images = rng.uniform(size=(10, 8, 8))
        enc = fit_encoder(images, patch_size=4, d=6)
        # a patch already inside the span round-trips exactly
        latent = rng.normal(size=(1, 6))
        patch = enc.decode_patches(latent)
        assert np.allclose(enc.encode_patches(patch), latent, atol=1e-10)


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
        flat = Dataset(
            images=np.full((4, 16, 16), 0.5), labels=np.zeros(4, dtype=int), spec=data.spec
        )
        corpus = tokenize_dataset(flat, enc, sched, cb)
        assert (corpus.tokens == corpus.tokens[0]).all()

    def test_tokens_respect_schedule(self, rng):
        data, enc, sched, cb = self._setup(rng)
        corpus = tokenize_dataset(data, enc, sched, cb)
        sizes = codebook_sizes(sched)
        for t in range(16):
            assert corpus.tokens[:, t].max() < sizes[t]
        assert np.array_equal(corpus.labels, data.labels)

    def test_deterministic(self, rng):
        data, enc, sched, cb = self._setup(rng)
        a = tokenize_dataset(data, enc, sched, cb)
        b = tokenize_dataset(data, enc, sched, cb)
        assert a.tokens.tobytes() == b.tokens.tobytes()

    def test_length_mismatch_rejected(self, rng):
        data, enc, _, cb = self._setup(rng)
        bad = Schedule(Family.CONSTANT, 16, 16, 9)
        with pytest.raises(ValueError, match="schedule"):
            tokenize_dataset(data, enc, bad, cb)


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
        recon_latents = cb.entries[np.arange(4)][None].astype(np.float64)
        recon = enc.decode_images(recon_latents, 8)
        mse = float(np.mean((data.images[:1] - recon) ** 2))
        assert mse < 1e-9  # float32 codebook storage, not bit-exact

    def test_larger_codebook_never_hurts_psnr(self, rng):
        spec = SyntheticSpec(n_classes=4, n_per_class=30, image_size=16, seed=7)
        data = generate_dataset(spec)
        enc = fit_encoder(data.images, patch_size=4, d=8)
        latents = enc.encode_images(data.images)
        psnrs = []
        for k in (4, 64, 1024):
            sched = Schedule(Family.CONSTANT, k, k, 16)
            cb = fit_codebook(latents, sched, k_max=k, d=8, epochs=10, seed=11)
            corpus = tokenize_dataset(data, enc, sched, cb)
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
        dataset, encoder = build_inputs(load_config(cfg))
        direct = generate_dataset(SyntheticSpec(**cfg["dataset"]))
        assert dataset.images.tobytes() == direct.images.tobytes()
        assert dataset.spec == direct.spec
        reference = fit_encoder(direct.images, patch_size=4, d=6)
        assert encoder.projection.tobytes() == reference.projection.tobytes()
        assert encoder.mean.tobytes() == reference.mean.tobytes()

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

"""Desk-scale end-to-end pipeline: procedural images -> linear patch encoder
-> scheduled quantization -> entropy / reconstruction / memorization
measurements.

The image corpus is procedural (class-dependent smooth patterns plus seeded
noise) and the encoder is a fixed PCA basis over patches, so the only
variable across experiment arms is the codebook structure.  Everything is
deterministic given the config seeds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import TokenCorpus, atomic_write, write_corpus
from .entropy import THRESHOLD_RANGE, EntropyProfile, analyze, write_profile_csv
from .generation import (
    MODEL_RANGES,
    POLICY_FIELDS,
    POLICY_RANGES,
    SAMPLE_RANGES,
    GuidancePolicy,
    fit_counts,
    memorization_report,
    sample_corpus,
)
from .quantizer import FIT_RANGES, Codebook, decode, fit_codebook, quantize_batch, write_codebook
from .schedule import (
    SCHEDULE_FIELDS,
    SCHEDULE_REQUIRED,
    SCHEDULE_RANGES,
    Schedule,
    at_least,
    check_fields,
    check_range,
    schedule_to_json,
    tstar_vcq,
)

__all__ = [
    "SyntheticSpec",
    "Dataset",
    "LinearEncoder",
    "ScheduleResult",
    "ExperimentReport",
    "generate_dataset",
    "fit_encoder",
    "load_config",
    "build_inputs",
    "tokenize_dataset",
    "reconstruction_metrics",
    "psnr_from_mse",
    "run_cliff_experiment",
    "write_experiment_report",
    "default_experiment_config",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """Procedural image corpus: class-dependent patterns, seeded noise.

    Each class gets its own wave frequencies, phase and Gaussian blobs;
    each image jitters the phase and blob centers and adds pixel noise, so
    images within a class differ while the class signal persists.
    """

    n_classes: int = 10
    n_per_class: int = 200
    image_size: int = 32
    seed: int = 0
    noise: float = 0.05
    jitter: float = 0.6
    blobs_per_class: int = 3

    def __post_init__(self) -> None:
        own = {name: getattr(self, name) for name in DATASET_FIELDS}
        for name, value in check_fields(own, "dataset", DATASET_FIELDS, ranges=DATASET_RANGES).items():
            object.__setattr__(self, name, value)


# Field types and ranges of a dataset config object: the fields of SyntheticSpec
DATASET_FIELDS = {f.name: f.type for f in fields(SyntheticSpec)}
DATASET_RANGES = {
    **dict.fromkeys(("n_classes", "image_size"), at_least(1)),
    **dict.fromkeys(("n_per_class", "seed", "noise", "jitter", "blobs_per_class"), at_least(0)),
}
# Ranges of the encoder config object: fit_encoder's patch_size and d
ENCODER_RANGES = {"patch_size": at_least(1), "dim": at_least(1)}


@dataclass
class Dataset:
    """Images in [0, 1] with integer class labels."""

    images: np.ndarray  # (n, s, s) float64
    labels: np.ndarray  # (n,) int64
    spec: SyntheticSpec


# images rendered together by generate_dataset
_RENDER_BLOCK = 16


def generate_dataset(spec: SyntheticSpec) -> Dataset:
    """Render the procedural corpus for ``spec``; byte-deterministic."""
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

    # each image draws its phase jitter, its blob-center jitter and its pixel
    # noise in that order, so one (images, 1 + 2 * blobs + s * s) standard
    # normal draw per block of a class's images takes the same values;
    # Generator.normal(0, sigma) is 0.0 + sigma * z.  Fixed-size blocks keep
    # the temporaries independent of n_per_class.
    m, blobs = spec.n_per_class, spec.blobs_per_class
    images = np.empty((spec.n_classes * m, s, s), dtype=np.float64)
    for c, params in enumerate(class_params):
        fx, fy = params["freq"]
        for start in range(c * m, (c + 1) * m, _RENDER_BLOCK):
            block = images[start : min(start + _RENDER_BLOCK, (c + 1) * m)]
            k = len(block)
            z = rng.standard_normal((k, 1 + 2 * blobs + s * s))
            dphase = 0.0 + spec.jitter * z[:, 0, None, None]
            dcenters = 0.0 + spec.jitter * 0.05 * z[:, 1 : 1 + 2 * blobs].reshape(k, blobs, 2)
            img = 0.5 + 0.22 * np.sin(
                2.0 * math.pi * (fx * xx + fy * yy) + params["phase"] + dphase
            )
            for b in range(blobs):
                cx, cy = (params["centers"][b] + dcenters[:, b]).T[:, :, None, None]
                w = params["widths"][b]
                img += params["amps"][b] * np.exp(
                    -((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * w * w)
                )
            img += spec.noise * z[:, 1 + 2 * blobs :].reshape(k, s, s)
            np.clip(img, 0.0, 1.0, out=block)
    labels = np.repeat(np.arange(spec.n_classes, dtype=np.int64), m)
    return Dataset(images=images, labels=labels, spec=spec)


def _extract_patches(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Raster-order patches, flattened: (n_images * L, patch_size**2)."""
    n, s, s2 = images.shape
    if s != s2:
        raise ValueError(f"images must be square, got {images.shape}")
    if s % patch_size != 0:
        raise ValueError(f"image size {s} not divisible by patch size {patch_size}")
    g = s // patch_size
    patches = images.reshape(n, g, patch_size, g, patch_size)
    patches = patches.transpose(0, 1, 3, 2, 4).reshape(n, g * g, patch_size * patch_size)
    return patches.reshape(n * g * g, patch_size * patch_size)


@dataclass
class LinearEncoder:
    """Fixed linear patch encoder: PCA basis with orthonormal columns.

    encode = (patch - mean) @ projection; decode = latent @ projection.T
    + mean, which is exact for patches inside the span of the basis.
    """

    patch_size: int
    dim: int
    mean: np.ndarray        # (patch_size**2,)
    projection: np.ndarray  # (patch_size**2, dim)

    def encode_patches(self, flat: np.ndarray) -> np.ndarray:
        return (np.asarray(flat, dtype=np.float64) - self.mean) @ self.projection

    def decode_patches(self, latents: np.ndarray) -> np.ndarray:
        return np.asarray(latents, dtype=np.float64) @ self.projection.T + self.mean

    def encode_images(self, images: np.ndarray) -> np.ndarray:
        """(n, s, s) images -> (n, L, dim) latents in raster patch order."""
        n = images.shape[0]
        flat = _extract_patches(np.asarray(images, dtype=np.float64), self.patch_size)
        return self.encode_patches(flat).reshape(n, -1, self.dim)

    def decode_images(self, latents: np.ndarray, image_size: int) -> np.ndarray:
        """Inverse of :meth:`encode_images`, clipped back to [0, 1]."""
        n, length, _ = latents.shape
        g = image_size // self.patch_size
        if g * g != length:
            raise ValueError(
                f"{length} patches do not tile a {image_size}x{image_size} image "
                f"with patch size {self.patch_size}"
            )
        flat = self.decode_patches(latents.reshape(n * length, self.dim))
        patches = flat.reshape(n, g, g, self.patch_size, self.patch_size)
        images = patches.transpose(0, 1, 3, 2, 4).reshape(n, image_size, image_size)
        return np.clip(images, 0.0, 1.0)


def fit_encoder(images: np.ndarray, patch_size: int, d: int) -> LinearEncoder:
    """PCA over all patches: mean-centering plus top-d covariance eigenvectors.

    The sign convention (first non-negligible component positive) makes the
    basis deterministic.
    """
    check_range(patch_size, "patch_size", ENCODER_RANGES["patch_size"])
    images = np.asarray(images, dtype=np.float64)
    patches = _extract_patches(images, patch_size)
    if d < 1 or d > patch_size * patch_size:
        raise ValueError(
            f"d must lie in [1, {patch_size * patch_size}] for {patch_size}x{patch_size} "
            f"patches, got {d}"
        )
    if patches.shape[0] < d:
        raise ValueError(f"need at least {d} patches, got {patches.shape[0]}")
    mean = patches.mean(axis=0)
    centered = patches - mean
    cov = centered.T @ centered / max(1, patches.shape[0] - 1)
    _, vecs = np.linalg.eigh(cov)
    proj = vecs[:, ::-1][:, :d].copy()
    for j in range(d):
        col = proj[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            proj[:, j] = -col
    return LinearEncoder(patch_size=patch_size, dim=d, mean=mean, projection=proj)


def tokenize_dataset(
    dataset: Dataset,
    encoder: LinearEncoder,
    schedule: Schedule,
    codebook: Codebook,
) -> TokenCorpus:
    """Encode and quantize every image into a labelled token corpus."""
    s = dataset.images.shape[1]
    length = (s // encoder.patch_size) ** 2
    if length != schedule.length:
        raise ValueError(
            f"{s}x{s} images with patch size {encoder.patch_size} give {length} "
            f"positions, but the schedule has length {schedule.length}"
        )
    latents = encoder.encode_images(dataset.images)
    tokens, _ = quantize_batch(latents, schedule, codebook)
    return TokenCorpus(tokens=tokens, k_max=codebook.k_max, labels=dataset.labels)


def psnr_from_mse(mse: float, peak: float = 1.0) -> float:
    """PSNR in dB for the given mean squared error; +inf when mse is 0."""
    if mse < 0:
        raise ValueError(f"mse must be >= 0, got {mse}")
    if mse == 0.0:
        return float("inf")
    return 10.0 * math.log10(peak * peak / mse)


def reconstruction_metrics(
    images: np.ndarray,
    tokens: np.ndarray,
    encoder: LinearEncoder,
    codebook: Codebook,
) -> tuple[float, float]:
    """(mse, psnr) of decoding tokens back to pixel space (peak value 1.0)."""
    images = np.asarray(images, dtype=np.float64)
    latents = decode(tokens, codebook).astype(np.float64)
    recon = encoder.decode_images(latents, images.shape[1])
    mse = float(np.mean((images - recon) ** 2))
    return mse, psnr_from_mse(mse)


@dataclass
class ScheduleResult:
    """Everything measured for one schedule arm of an experiment."""

    name: str
    schedule: Schedule
    codebook: Codebook
    corpus: TokenCorpus
    generated: TokenCorpus
    profile: EntropyProfile
    mse: float
    psnr: float
    exact_match_rate: float
    mean_longest_prefix: float
    tstar_analytic: int


@dataclass
class ExperimentReport:
    config: dict
    results: list[ScheduleResult] = field(default_factory=list)
    deltas: dict = field(default_factory=dict)


def default_experiment_config(seed: int = 0) -> dict:
    """The default desk-scale configuration: Constant vs Cosine at k_max=256.

    10 classes x 200 images of 32x32 pixels, 4x4 patches -> 64 positions of
    8-dimensional latents.
    """
    return {
        "dataset": {
            "n_classes": 10,
            "n_per_class": 200,
            "image_size": 32,
            "seed": seed,
        },
        "encoder": {"patch_size": 4, "dim": 8},
        "schedules": [
            {"name": "constant", "family": "constant", "k_min": 256, "k_max": 256, "length": 64},
            {"name": "cosine", "family": "cosine", "k_min": 2, "k_max": 256, "length": 64},
        ],
        "codebook": {"epochs": 20, "decay": 0.99, "seed": seed + 1000},
        "model": {"max_order": 4, "smoothing": 0.1},
        "policy": {
            "scale": 0.0,
            "ramp": "none",
            "power": 1.5,
            "size_aware": True,
            "temperature": 1.0,
        },
        "generation": {"n_samples": 200, "seed": seed + 2000},
        # 0.5 bit: a K_min=2 position caps at exactly 1 bit, so the cliff
        # threshold must sit strictly inside the smallest position capacity
        "cliff_threshold": 0.5,
    }


def _stage(stage: str, name: str, fn):
    try:
        return fn()
    except Exception as exc:
        raise RuntimeError(
            f"experiment stage '{stage}' failed for '{name}': {exc}"
        ) from exc


# Declared field types, required fields and value ranges of each experiment
# config section.  codebook, model and generation are the keyword arguments
# of fit_codebook, fit_counts and sample_corpus: their defaults and ranges
# live there.
_SECTIONS = {
    "dataset": (DATASET_FIELDS, (), DATASET_RANGES),
    "encoder": ({"patch_size": "int", "dim": "int"}, ("patch_size", "dim"), ENCODER_RANGES),
    "codebook": ({"epochs": "int", "decay": "float", "seed": "int"}, (), FIT_RANGES),
    "model": ({"max_order": "int", "smoothing": "float"}, (), MODEL_RANGES),
    "policy": (POLICY_FIELDS, (), POLICY_RANGES),
    "generation": ({"n_samples": "int", "seed": "int"}, (), SAMPLE_RANGES),
}
_TOP_FIELDS = {**dict.fromkeys(_SECTIONS, "dict"), "schedules": "list", "cliff_threshold": "float"}
_TOP_RANGES = {"cliff_threshold": THRESHOLD_RANGE}
_ARM_FIELDS = {"name": "str", **SCHEDULE_FIELDS}


def load_config(config: dict) -> dict:
    """Every section of an experiment config, checked before any work is done.

    Unknown keys, missing required keys, values of the wrong type and values
    outside the range the using stage accepts raise ``ValueError`` naming the
    field (:func:`~vcqlab.schedule.check_fields`).  So do the rules that tie
    fields together: ``dataset.image_size`` must be a multiple of
    ``encoder.patch_size``, ``encoder.dim`` at most ``patch_size**2``, and
    every arm's ``length`` the number of patches, ``(image_size /
    patch_size)**2``.
    Returns the checked sections under their own keys: ``dataset`` as a
    :class:`SyntheticSpec`, ``schedules`` (when given) as a list of
    (name, Schedule, GuidancePolicy) arms, and every other section as a dict
    of the keys it gives, ready to pass as keyword arguments.
    """
    top = check_fields(config, "config", _TOP_FIELDS, ("dataset", "encoder"), _TOP_RANGES)
    loaded = dict(top)
    for section, (types, required, ranges) in _SECTIONS.items():
        loaded[section] = check_fields(top.get(section, {}), section, types, required, ranges)
    loaded["dataset"] = SyntheticSpec(**loaded["dataset"])
    size = loaded["dataset"].image_size
    patch_size, dim = loaded["encoder"]["patch_size"], loaded["encoder"]["dim"]
    if size % patch_size:
        raise ValueError(
            f"dataset.image_size must be a multiple of encoder.patch_size {patch_size}, got {size}"
        )
    if dim > patch_size**2:
        raise ValueError(f"encoder.dim must be <= encoder.patch_size**2 = {patch_size**2}, got {dim}")
    length = (size // patch_size) ** 2
    if "schedules" in top:
        loaded["schedules"] = []
        for i, item in enumerate(top["schedules"]):
            arm = check_fields(item, f"schedules[{i}]", _ARM_FIELDS, SCHEDULE_REQUIRED, SCHEDULE_RANGES)
            if arm["length"] != length:
                raise ValueError(
                    f"schedules[{i}].length must be (dataset.image_size / encoder.patch_size)**2"
                    f" = {length}, got {arm['length']}"
                )
            name = arm.pop("name", arm["family"])
            if name in (n for n, _, _ in loaded["schedules"]):
                raise ValueError(f"duplicate schedule name {name!r} in config")
            schedule = Schedule(**arm)
            policy = GuidancePolicy(schedule, **loaded["policy"])
            loaded["schedules"].append((name, schedule, policy))
    return loaded


def build_inputs(config: dict) -> tuple[Dataset, LinearEncoder]:
    """The dataset and fitted encoder every arm of a loaded ``config`` shares."""
    patch_size, dim = config["encoder"]["patch_size"], config["encoder"]["dim"]
    dataset = _stage("dataset", "shared", lambda: generate_dataset(config["dataset"]))
    encoder = _stage(
        "encoder", "shared", lambda: fit_encoder(dataset.images, patch_size=patch_size, d=dim)
    )
    return dataset, encoder


def run_cliff_experiment(config: dict) -> ExperimentReport:
    """Run every schedule arm of ``config`` over one shared dataset/encoder.

    Per schedule: fit codebook, tokenize, entropy profile, reconstruction,
    count model, sampling, memorization.  Any stage failure aborts with the
    stage and schedule named.
    """
    loaded = load_config(config)
    if "schedules" not in loaded:
        raise ValueError("missing field config.schedules: the experiment runs one arm per schedule")
    # analyze's own default applies when the config gives no threshold
    threshold = {key: loaded[key] for key in ("cliff_threshold",) if key in loaded}
    dataset, encoder = build_inputs(loaded)
    latents = _stage("encode", "shared", lambda: encoder.encode_images(dataset.images))

    report = ExperimentReport(config=config)
    for name, schedule, policy in loaded["schedules"]:
        codebook = _stage(
            "fit_codebook",
            name,
            lambda: fit_codebook(
                latents, schedule, k_max=schedule.k_max, d=encoder.dim, **loaded["codebook"]
            ),
        )
        corpus = _stage(
            "tokenize",
            name,
            lambda: TokenCorpus(
                tokens=quantize_batch(latents, schedule, codebook)[0],
                k_max=codebook.k_max,
                labels=dataset.labels,
            ),
        )
        profile = _stage("entropy", name, lambda: analyze(corpus, schedule, **threshold))
        mse, psnr = _stage(
            "reconstruction",
            name,
            lambda: reconstruction_metrics(dataset.images, corpus.tokens, encoder, codebook),
        )
        model = _stage("fit_counts", name, lambda: fit_counts(corpus, schedule, **loaded["model"]))
        generated = _stage(
            "generate", name, lambda: sample_corpus(model, policy, **loaded["generation"])
        )
        exact, longest = _stage(
            "memorization", name, lambda: memorization_report(generated, corpus)
        )
        report.results.append(
            ScheduleResult(
                name=name,
                schedule=schedule,
                codebook=codebook,
                corpus=corpus,
                generated=generated,
                profile=profile,
                mse=mse,
                psnr=psnr,
                exact_match_rate=exact,
                mean_longest_prefix=longest,
                tstar_analytic=tstar_vcq(schedule, corpus.n_samples),
            )
        )

    baseline = next(
        (r for r in report.results if r.schedule.family.value == "constant"), None
    )
    if baseline is not None:
        for r in report.results:
            if r is baseline or r.schedule.family.value == "constant":
                continue
            report.deltas[r.name] = {
                "baseline": baseline.name,
                "cliff_delta": r.profile.cliff_position - baseline.profile.cliff_position,
                "psnr_delta": r.psnr - baseline.psnr,
                "exact_match_delta": r.exact_match_rate - baseline.exact_match_rate,
                "joint_bits_delta": r.profile.joint_bits - baseline.profile.joint_bits,
            }
    return report


def _safe_name(name: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_" else "-" for ch in name)


def _result_summary(r: ScheduleResult) -> dict:
    return {
        "schedule": schedule_to_json(r.schedule),
        "cliff_position": r.profile.cliff_position,
        "tstar_analytic": r.tstar_analytic,
        "joint_bits": r.profile.joint_bits,
        "conditional_bits": r.profile.conditional_bits,
        "remaining_budget": r.profile.remaining_budget,
        "mean_utilization": sum(r.profile.utilization) / len(r.profile.utilization),
        "mse": r.mse,
        "psnr": r.psnr if math.isfinite(r.psnr) else "inf",
        "exact_match_rate": r.exact_match_rate,
        "mean_longest_prefix": r.mean_longest_prefix,
        "n_samples": r.corpus.n_samples,
        "n_generated": r.generated.n_samples,
    }


def write_experiment_report(report: ExperimentReport, outdir: str | Path) -> None:
    """Write report.json plus per-schedule CSV/corpus/codebook files."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": report.config,
        "pixel_peak": 1.0,
        "schedules": {},
        "deltas": report.deltas,
    }
    for r in report.results:
        name = _safe_name(r.name)
        summary["schedules"][r.name] = _result_summary(r)
        write_profile_csv(r.profile, outdir / f"entropy_{name}.csv")
        write_corpus(r.corpus, outdir / f"corpus_{name}.vcqt")
        write_corpus(r.generated, outdir / f"generated_{name}.vcqt")
        write_codebook(r.codebook, outdir / f"codebook_{name}.vcqc")
    payload = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    atomic_write(outdir / "report.json", [payload.encode()])

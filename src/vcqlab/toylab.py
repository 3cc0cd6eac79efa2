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
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import TokenCorpus, atomic_write, write_corpus
from .entropy import ANALYZE_FIELDS, ANALYZE_RANGES, EntropyProfile, analyze, write_profile_csv
from .generation import (
    MODEL_FIELDS,
    MODEL_RANGES,
    POLICY_FIELDS,
    POLICY_RANGES,
    SAMPLE_FIELDS,
    SAMPLE_RANGES,
    GuidancePolicy,
    fit_counts,
    memorization_report,
    sample_corpus,
)
from .quantizer import (
    FIT_FIELDS,
    FIT_RANGES,
    _GEMM_MACS,
    Codebook,
    _mapped_empty,
    decode,
    fit_codebook,
    quantize_batch,
    write_codebook,
)
from .schedule import (
    SCHEDULE_FIELDS,
    SCHEDULE_REQUIRED,
    SCHEDULE_RANGES,
    Schedule,
    at_least,
    check_fields,
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
# Types and ranges of the encoder config object: fit_encoder's patch_size and d
ENCODER_FIELDS = {"patch_size": "int", "dim": "int"}
ENCODER_RANGES = {"patch_size": at_least(1), "dim": at_least(1)}


@dataclass
class Dataset:
    """Images in [0, 1] with integer class labels."""

    images: np.ndarray  # (n, s, s) float64
    labels: np.ndarray  # (n,) int64
    spec: SyntheticSpec


# images rendered together by generate_dataset
_RENDER_BLOCK = 16
# values per block of the squared reconstruction error; at least numpy's 128-value pairwise leaf
_SUM_LEAF = 1 << 17


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


def _image_side(images: np.ndarray) -> int:
    """Side s >= 1 of an (n, s, s) image stack; ``ValueError`` naming the shape of anything else."""
    if images.ndim != 3 or images.shape[1] != images.shape[2] or images.shape[1] == 0:
        raise ValueError(f"images must be an (n, s, s) stack of square images, got shape {images.shape}")
    return images.shape[1]


def _patch_grid(images: np.ndarray, patch_size: int) -> np.ndarray:
    """Raster-order patches of an (n, s, s) stack as an (n * g, g, p, p) array, g = s / p.

    Row r of the patch matrix is ``grid[r // g, r % g]``; for a C-contiguous
    stack the grid is a view, as image and patch row share one stride.
    """
    n, s = len(images), _image_side(images)
    if s % patch_size != 0:
        raise ValueError(f"image size {s} not divisible by patch size {patch_size}")
    g = s // patch_size
    grid = images.reshape(n, g, patch_size, g, patch_size).transpose(0, 1, 3, 2, 4)
    return grid.reshape(n * g, g, patch_size, patch_size)


def _tile_patches(table: np.ndarray, ids: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_patch_grid`: the images of (K, p, p) ``table`` rows ``ids`` (n, L), in ``out``."""
    n, g, p = len(ids), math.isqrt(ids.shape[1]), table.shape[1]
    # pixel row y of patch k is row k * p + y of the table; every id is already checked, and
    # mode "clip" writes straight into out, where "raise" would buffer the whole result
    rows = ids.reshape(n, g, 1, g).astype(np.intp) * p + np.arange(p)[:, None]
    np.take(table.reshape(-1, p), rows, axis=0, out=out.reshape(n, g, p, g, p), mode="clip")
    return out


def _blocked_product(rows: np.ndarray, matrix: np.ndarray, center=0.0) -> np.ndarray:
    """``(rows - center) @ matrix`` in row blocks of fewer than ``_GEMM_MACS`` multiply-adds.

    ``rows`` is an (a, b, ...) stack of a * b rows, each the trailing axes,
    such as :func:`_patch_grid`'s view of an image stack: every block is
    centered into one reused buffer, so the whole row matrix is never made.
    Power-of-two blocks within half the bound start where the kernel's
    unrolled rows do, and the last takes a lone final row (numpy would hand
    it to gemv): the one-shot product's bits, on the calling thread.
    """
    b, tail = rows.shape[1], rows.shape[2:]
    m = len(rows) * b
    out = _mapped_empty((m, matrix.shape[1]))
    step = max(1, (_GEMM_MACS >> 1) >> (matrix.size - 1).bit_length())
    bounds = [*range(0, max(m - 1, 1), step), m]
    buffer = np.empty((min(m, step + 1), *tail))
    for r0, r1 in zip(bounds, bounds[1:]):
        block = buffer[: r1 - r0]
        # whole runs of b rows in one call, the partial runs at either end on their own
        head = min(r1, -(-r0 // b) * b)
        foot = max(head, r1 // b * b)
        whole = block[head - r0 : foot - r0].reshape((foot - head) // b, b, *tail)
        np.copyto(whole, rows[head // b : foot // b])
        for lo, hi in ((r0, head), (foot, r1)):
            if lo < hi:
                q = lo // b
                np.copyto(block[lo - r0 : hi - r0], rows[q, lo - q * b : hi - q * b])
        # copied, then centered in place: a strided copy is faster than a strided subtract
        block -= center
        np.matmul(block.reshape(r1 - r0, matrix.shape[0]), matrix, out=out[r0:r1])
    return out


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

    def decode_patches(self, latents: np.ndarray) -> np.ndarray:
        return np.asarray(latents, dtype=np.float64) @ self.projection.T + self.mean

    def encode_images(self, images: np.ndarray) -> np.ndarray:
        """(n, s, s) images -> (n, L, dim) latents in raster patch order, read from the images in place."""
        images = np.asarray(images, dtype=np.float64)
        grid = _patch_grid(images, self.patch_size)
        latents = _blocked_product(grid, self.projection, self.mean.reshape(grid.shape[2:]))
        return latents.reshape(len(images), grid.shape[1] ** 2, self.dim)


def fit_encoder(images: np.ndarray, patch_size: int, d: int) -> LinearEncoder:
    """PCA over all patches: mean-centering plus top-d covariance eigenvectors.

    The sign convention (first non-negligible component positive) makes the
    basis deterministic.
    """
    patch_size, d = check_fields(
        {"patch_size": patch_size, "dim": d}, "encoder", ENCODER_FIELDS, ranges=ENCODER_RANGES
    ).values()
    images = np.asarray(images, dtype=np.float64)
    grid = _patch_grid(images, patch_size)
    if d > patch_size * patch_size:
        raise ValueError(
            f"d must lie in [1, {patch_size * patch_size}] for {patch_size}x{patch_size} "
            f"patches, got {d}"
        )
    rows = grid.shape[0] * grid.shape[1]
    if rows < d:
        raise ValueError(f"need at least {d} patches, got {rows}")
    # the one copy of the patch matrix, centered in place
    patches = _mapped_empty((rows, patch_size * patch_size))
    np.copyto(patches.reshape(grid.shape), grid)
    mean = patches.mean(axis=0)
    patches -= mean
    # one GEMM over all rows, whose bits a blocked sum would change: the one call above _GEMM_MACS
    cov = patches.T @ patches / max(1, rows - 1)
    _, vecs = np.linalg.eigh(cov)
    proj = vecs[:, ::-1][:, :d].copy()
    for j in range(d):
        col = proj[:, j]
        nonzero = np.nonzero(np.abs(col) > 1e-12)[0]
        if nonzero.size and col[nonzero[0]] < 0:
            proj[:, j] = -col
    return LinearEncoder(patch_size=patch_size, dim=d, mean=mean, projection=proj)


def tokenize_dataset(
    latents: np.ndarray,
    labels: np.ndarray,
    schedule: Schedule,
    codebook: Codebook,
) -> TokenCorpus:
    """Quantize encoded images, (n, L, d) latents, into a labelled token corpus."""
    latents = np.asarray(latents)
    if latents.ndim == 3 and latents.shape[1] != schedule.length:
        raise ValueError(
            f"the latents hold {latents.shape[1]} patches per image, but the schedule "
            f"has length {schedule.length}"
        )
    tokens = quantize_batch(latents, schedule, codebook)[0]
    return TokenCorpus(tokens=tokens, k_max=codebook.k_max, labels=labels)


def _pairwise_sum(count: int, block_sum) -> float:
    """``np.add.reduce`` of ``count`` contiguous float64 values, bit for bit, in blocks.

    numpy adds a contiguous run pairwise: a run of more than 128 values is
    split at half its length rounded down to a multiple of 8 and the two sums
    added.  Taking the same splits down to runs of at most ``_SUM_LEAF``
    values, each summed by ``block_sum(lo, hi)`` through ``np.add.reduce``,
    reproduces the whole sum's bits.
    """
    def node(lo: int, n: int) -> float:
        if n <= _SUM_LEAF:
            return block_sum(lo, lo + n)
        half = n // 2 - n // 2 % 8
        return node(lo, half) + node(lo + half, n - half)

    return node(0, count)


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
    """(mse, psnr) of tokens decoded to pixel space (peak 1.0); each codebook entry is decoded once.

    The mse is ``np.mean`` of the squared error stack, bit for bit, without
    the stack: :func:`_pairwise_sum` takes it in numpy's summation order,
    decoding only the images each of its blocks covers into one buffer.
    """
    images, tokens = np.asarray(images, dtype=np.float64), np.asarray(tokens)
    if tokens.ndim != 2 or len(tokens) != len(images):
        raise ValueError(f"tokens must hold one row per image ({len(images)}), got shape {tokens.shape}")
    size, patch, length = _image_side(images), encoder.patch_size, tokens.shape[1]
    if not len(images):
        raise ValueError(f"images must hold at least one image, got shape {images.shape}")
    if size % patch or (size // patch) ** 2 != length:
        raise ValueError(f"L = {length} patches, but (image_size / patch_size)**2 = {(size / patch) ** 2:g}")
    if codebook.dim != encoder.dim:
        raise ValueError(f"codebook dim {codebook.dim} does not match encoder dim {encoder.dim}")
    # decode's refusals on the smallest and largest id name the range of every id
    decode(tokens.flat[[tokens.argmin(), tokens.argmax()]], codebook)
    # two rows at least: numpy hands one row to gemv, which rounds unlike the per-token GEMM
    entries = np.resize(codebook.entries, (max(codebook.k_max, 2), codebook.dim)).astype(np.float64)
    table = _blocked_product(entries[:, None], encoder.projection.T)
    table += encoder.mean
    table = np.clip(table, 0.0, 1.0, out=table).reshape(-1, patch, patch)
    pixels = size * size
    buffer = np.empty((min(len(images), _SUM_LEAF // pixels + 2), size, size))

    def squared_error(lo: int, hi: int) -> float:
        """np.add.reduce of values lo:hi of the flat squared error stack."""
        i0, i1 = lo // pixels, -(-hi // pixels)
        block = _tile_patches(table, tokens[i0:i1], buffer[: i1 - i0])
        np.square(np.subtract(images[i0:i1], block, out=block), out=block)
        return np.add.reduce(block.reshape(-1)[lo - i0 * pixels : hi - i0 * pixels])

    mse = float(_pairwise_sum(len(images) * pixels, squared_error) / (len(images) * pixels))
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
    "encoder": (ENCODER_FIELDS, ("patch_size", "dim"), ENCODER_RANGES),
    "codebook": (FIT_FIELDS, (), FIT_RANGES),
    "model": (MODEL_FIELDS, (), MODEL_RANGES),
    "policy": (POLICY_FIELDS, (), POLICY_RANGES),
    "generation": (SAMPLE_FIELDS, (), SAMPLE_RANGES),
}
_TOP_FIELDS = {**dict.fromkeys(_SECTIONS, "dict"), "schedules": "list", **ANALYZE_FIELDS}
_ARM_FIELDS = {"name": "str", **SCHEDULE_FIELDS}


def load_config(config: dict) -> dict:
    """Every section of an experiment config, checked before any work is done.

    Unknown keys, missing required keys, values of the wrong type and values
    outside the range the using stage accepts raise ``ValueError`` naming the
    field (:func:`~vcqlab.schedule.check_fields`).  So do the rules that tie
    fields together: ``dataset.image_size`` must be a multiple of
    ``encoder.patch_size``, ``encoder.dim`` at most ``patch_size**2``,
    every arm's ``length`` the number of patches, ``(image_size /
    patch_size)**2``, and arm names must differ as report file names.
    Returns the checked sections under their own keys: ``dataset`` as a
    :class:`SyntheticSpec`, ``schedules`` (when given) as a list of
    (name, Schedule, GuidancePolicy) arms, and every other section as a dict
    of the keys it gives, ready to pass as keyword arguments.
    """
    top = check_fields(config, "config", _TOP_FIELDS, ("dataset", "encoder"), ANALYZE_RANGES)
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
            if clash := [n for n, _, _ in loaded["schedules"] if _safe_name(n) == _safe_name(name)]:
                raise ValueError(
                    f"duplicate report files *_{_safe_name(name)}.* for schedules {clash[0]!r} and {name!r}"
                )
            schedule = Schedule(**arm)
            policy = GuidancePolicy(schedule, **loaded["policy"])
            loaded["schedules"].append((name, schedule, policy))
    return loaded


def build_inputs(config: dict) -> tuple[Dataset, LinearEncoder, np.ndarray]:
    """The dataset, fitted encoder and encoded images every arm of a loaded ``config`` shares."""
    patch_size, dim = config["encoder"]["patch_size"], config["encoder"]["dim"]
    dataset = _stage("dataset", "shared", lambda: generate_dataset(config["dataset"]))
    encoder = _stage(
        "encoder", "shared", lambda: fit_encoder(dataset.images, patch_size=patch_size, d=dim)
    )
    latents = _stage("encode", "shared", lambda: encoder.encode_images(dataset.images))
    return dataset, encoder, latents


def _run_arm(loaded: dict, inputs: tuple, index: int) -> ScheduleResult:
    """Every stage of arm ``index`` of a loaded config over the shared ``inputs``.

    Fit codebook, tokenize, entropy profile, reconstruction, count model,
    sampling, memorization; only the result outlives the call.
    """
    dataset, encoder, latents = inputs
    name, schedule, policy = loaded["schedules"][index]
    # analyze's own default applies when the config gives no threshold
    threshold = {key: loaded[key] for key in ("cliff_threshold",) if key in loaded}
    codebook = _stage(
        "fit_codebook",
        name,
        lambda: fit_codebook(
            latents, schedule, k_max=schedule.k_max, d=encoder.dim, **loaded["codebook"]
        ),
    )
    corpus = _stage(
        "tokenize", name, lambda: tokenize_dataset(latents, dataset.labels, schedule, codebook)
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
    return ScheduleResult(
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _worker_arm(loaded: dict, index: int) -> ScheduleResult:
    """:func:`_run_arm` in a pool worker, over shared inputs it rebuilds: they are deterministic."""
    return _run_arm(loaded, build_inputs(loaded), index)


def run_cliff_experiment(config: dict) -> ExperimentReport:
    """Run every schedule arm of ``config`` over one shared dataset/encoder.

    Per schedule, :func:`_run_arm` runs every stage.  This process runs the
    first arm; with two or more usable CPUs, spawned worker processes run
    the others side by side, each rebuilding the shared inputs.  Any stage
    failure aborts with the stage and schedule named, the earliest failing
    arm's first, and no worker outlives the call.  A worker that ends without
    a result raises ``RuntimeError`` naming the earliest arm still pending.
    """
    loaded = load_config(config)
    if not loaded.get("schedules"):
        problem = "config.schedules is empty" if "schedules" in loaded else "missing field config.schedules"
        raise ValueError(f"{problem}: the experiment runs one arm per schedule")
    later = range(1, len(loaded["schedules"]))
    workers = min(len(later), _usable_cpus() - 1)
    pool = None
    if workers > 0:
        # imported here: the pool's modules would cost every other vcqlab command 15-20 ms and 1.5 MB
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # spawn, not fork: a child forked once BLAS threads exist can deadlock on their locks
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("spawn"))
    try:
        pending = [pool.submit(_worker_arm, loaded, i) for i in later] if pool else []
        inputs = build_inputs(loaded)
        results = [_run_arm(loaded, inputs, 0)]
        if pool:
            for i, future in zip(later, pending):
                try:
                    results.append(future.result())
                except BrokenProcessPool as exc:
                    raise RuntimeError(
                        f"experiment arm '{loaded['schedules'][i][0]}': its worker process ended without"
                        ' a result: it was killed, or the script lacks an `if __name__ == "__main__":` guard'
                    ) from exc
        else:
            results += [_run_arm(loaded, inputs, i) for i in later]
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)

    report = ExperimentReport(config=config, results=results)

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

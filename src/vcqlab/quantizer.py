"""Shared-codebook quantization with per-position prefix restriction.

A single table of k_max embedding vectors serves the whole sequence;
position t may select only from the first K_t rows, where K_t comes from a
:class:`~vcqlab.schedule.Schedule`.  Nearest neighbors use unnormalized
squared Euclidean distance with ties broken by lowest index.

Exactness contract: one kernel, :func:`_nearest`, serves
:func:`quantize_batch` and every :func:`fit_codebook` epoch.  It returns
exactly the token an exhaustive scan returns under the reference distance
``sum_j (e_j - z_j)**2`` (summed left to right over the d dimensions), with
the lowest index winning ties, at any offset or scale of the data and under
any BLAS threading.  Fast scores from one GEMM per block of rows pick the
candidate; a rigorous floating-point bound sends the rows whose runner-up
lies within rounding error of it to an exhaustive rescan with the reference
formula.  Reported distances always come from the reference formula, so a
latent gets the same token and distance bits in any batch.

:func:`fit_codebook` prunes its assignment passes with Hamerly's bounds: the
kernel also returns an upper bound on each latent's distance to its entry
and a lower bound on its distance to every other entry of its prefix; the
triangle inequality carries both across an epoch's entry moves, and a latent
whose upper bound, widened by a rounding margin, stays below its lower bound
keeps its token unscored.  Its entry is then strictly nearest under the
reference distance too, so the fitted codebook is bit for bit the one that
scoring every latent every epoch gives (proof in :func:`fit_codebook`).

Codebook files are little-endian binary:

    magic   "VCQC"  (4 bytes)
    version u16
    d       u32
    k_max   u32
    entries k_max * d float32, row-major
"""

from __future__ import annotations

import math
import mmap
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import _integers, atomic_write
from .schedule import Schedule, at_least, check_fields, codebook_sizes

__all__ = [
    "Codebook",
    "quantize_batch",
    "decode",
    "fit_codebook",
    "read_codebook",
    "write_codebook",
    "CODEBOOK_MAGIC",
    "FIT_FIELDS",
    "FIT_RANGES",
]

CODEBOOK_MAGIC = b"VCQC"
CODEBOOK_VERSION = 1
_HEADER = struct.Struct("<4sHII")

# Every BLAS call does fewer multiply-adds: OpenBLAS 0.3.31 then runs a GEMM on the calling
# thread on its SkylakeX, Haswell and Prescott kernels (Haswell: (227 x 9) @ (9 x 256) on one,
# 228 rows on two), so no idle worker spins.  A gemv (one column) threads from about 4.6e5.
_GEMM_MACS = 1 << 19
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SMALLEST_SUBNORMAL = float(np.nextafter(0.0, 1.0))
# Least upper bound _nearest returns: with ub**2 * u >= 2 eta, fit_codebook's
# pruning margin outweighs the underflow of the reference distance.
_UB_FLOOR = 2.0**-510
# Directed rounding: a correctly rounded product x * _UP (x * _DOWN) of the
# correctly rounded result x of a positive real y, normal or exact, is at
# least (at most) y, since (1 - u)**2 (1 + 4u) > 1 > (1 + u)**2 (1 - 4u).
_UP = 1.0 + 4 * _UNIT_ROUNDOFF
_DOWN = 1.0 - 4 * _UNIT_ROUNDOFF
# Rows per kernel call when fit_codebook rescores the latents of one K_t:
# bounds the copy of their rows gathered from its columns to 2**15 d floats.
_CHUNK = 1 << 15
# Float64 arrays of at least this many bytes that _mapped_empty backs by their
# own anonymous mapping.
_MAPPED_BYTES = 1 << 20
# Types and ranges of fit_codebook's options, checked by fit_codebook and by
# the config loader for the codebook section
FIT_FIELDS = {"epochs": "int", "decay": "float", "seed": "int"}
FIT_RANGES = {
    "epochs": at_least(1),
    "decay": (lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    "seed": at_least(0),
}


def _mapped_empty(shape: tuple[int, ...]) -> np.ndarray:
    """``np.empty(shape)`` of float64, in its own anonymous mapping from ``_MAPPED_BYTES`` on.

    For the arrays the pipeline derives from an image stack: the encoder's
    centered patch copy, the latents and the fit's columns.  A mapping goes
    back to the system as soon as the array is freed.  Through malloc, the
    first of them freed raises glibc's mmap threshold to its size, so the
    later ones are carved from the heap among the small buffers numpy keeps
    cached, and the resident peak of a process that builds the inputs again
    would hang on where those buffers happened to fall.
    """
    count = math.prod(shape)
    if count * 8 < _MAPPED_BYTES:
        return np.empty(shape)
    return np.frombuffer(mmap.mmap(-1, count * 8), dtype=np.float64).reshape(shape)


@dataclass
class Codebook:
    """k_max x d table of embedding vectors (float32)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        entries = np.ascontiguousarray(self.entries, dtype=np.float32)
        if entries.ndim != 2 or entries.size == 0:
            raise ValueError(f"entries must be a non-empty k_max x d matrix, got shape {entries.shape}")
        if not np.all(np.isfinite(entries)):
            raise ValueError("codebook entries must all be finite")
        self.entries = entries

    @property
    def k_max(self) -> int:
        return self.entries.shape[0]

    @property
    def dim(self) -> int:
        return self.entries.shape[1]


def _sqdist(e: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Reference squared distance sum_j (e_j - z_j)**2, summed left to right.

    Element-wise operations only, so a value never depends on the shape of
    the batch it is computed in, on SIMD code paths or on BLAS threading.
    """
    diff = e - z
    out = diff[..., 0] * diff[..., 0]
    for j in range(1, diff.shape[-1]):
        out += diff[..., j] * diff[..., j]
    return out


def _nearest(
    z: np.ndarray, entries: np.ndarray, table: np.ndarray, k_t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index of the nearest of ``entries[:k_t]`` to each row of ``z`` (n, d), in any layout.

    ``entries`` is the float64 codebook and ``table`` its (d+1, k) score
    matrix ``[-2 E^T; |e|^2]``.  Returns ``(tokens, ub, lb)``: the index
    minimizing the reference distance R_k = ``_sqdist(e_k, z)``, lowest index
    on ties, exactly as an exhaustive scan would; an upper bound ``ub`` on
    the true distance |z - e_token| and a lower bound ``lb`` on the true
    distance |z - e_k| to every other k < k_t.  Rows that were rescanned get
    ``(inf, 0)``.

    Score: one GEMM per block of rows, copied as ``[z, 1]`` into a reused
    buffer (|z|^2 is read from it too, so no bit depends on the layout of
    ``z``), gives the proxy s_k = |e_k|^2 - 2 z.e_k = D_k - |z|^2, where
    D_k = |z - e_k|^2.  Pick: the proxy's argmin b is
    the answer unless another entry's score lies within ``tol`` of it.
    Recheck: rows where one does are rescanned with R over all K_t entries.

    Why ``tol`` suffices, with unit roundoff u and gamma_m = m u / (1 - m u).
    fl(s_k) is a dot product of d+1 terms, [z, 1] . [-2 e_k, fl(|e_k|^2)],
    so in whatever summation order BLAS uses

        |fl(s_k) - s_k| <= gamma_{d+1} (2 |z||e_k| + fl(|e_k|^2))
                           + gamma_d |e_k|^2         (rounding of |e_k|^2)
                        <= 2 gamma_{d+2} (|z| + |e_k|)^2.

    R_k rounds one difference and one square per term and adds d terms:

        |R_k - D_k| <= gamma_{d+2} D_k <= gamma_{d+2} (|z| + |e_k|)^2.

    With rho = (|z| + max_{k<K_t} |e_k|)^2 the two errors of any entry sum
    to at most 3 gamma_{d+2} rho, so for every k

        R_k - R_b >= fl(s_k) - fl(s_b) - 6 gamma_{d+2} rho.

    If every k != b has fl(s_k) - fl(s_b) > tol >= 6 gamma_{d+2} rho, then b
    is the unique minimizer of R.  tol = 8 (d+2) (u rho + eta) keeps a third
    in reserve for the rounding of the gap, of |z|, of max |e_k| and of tol
    itself; the smallest subnormal eta covers products that underflow.  A
    NaN gap (infinite scores) fails the test too and is rescanned.

    Why the bounds hold.  D_b = s_b + |z|^2 and fl(|z|^2) errs by at most
    gamma_d |z|^2 <= gamma_{d+2} rho, so with lead = fl(s_b) and runner_up =
    min_{k != b} fl(s_k), D_b <= lead + fl(|z|^2) + 3 gamma_{d+2} rho and
    D_k >= runner_up + fl(|z|^2) - 3 gamma_{d+2} rho for every k != b.  tol
    exceeds 3 gamma_{d+2} rho by more than (5 (d+2) - 1) u rho, and the two
    rounded additions of each bound err by at most 4.1 u rho together (lead,
    runner_up and fl(|z|^2) are at most (1 + 2 gamma_{d+2}) rho in size).
    Fewer than 3 d products can underflow, each off by at most eta / 2:
    where rho >= 2**-1021 the remaining reserve, at least (5 d + 4.9) eta,
    covers them; below, each addition errs by at most eta and tol's
    8 (d+2) eta term covers both.  So ``lead + fl(|z|^2) + tol`` and
    ``max(0, runner_up + fl(|z|^2) - tol)``, as computed, bound D_b from
    above and every other D_k from below, and their square roots, rounded
    outward by ``_UP`` and ``_DOWN``, bound the distances.  ``ub`` is at
    least ``_UB_FLOOR``: a larger upper bound is still one, and the floor
    lets :func:`fit_codebook`'s pruning test ignore underflow.
    """
    n, d = z.shape
    rows = max(1, (_GEMM_MACS - 1) // ((d + 1) * max(k_t, 2)))  # a K_t = 1 gemv: half the bound
    z1 = np.ones((min(n, rows), d + 1))
    zz = np.empty(n)
    tokens = np.empty(n, dtype=np.int64)
    lead = np.empty(n)
    runner_up = np.empty(n)
    for r0 in range(0, n, rows):
        r1 = min(n, r0 + rows)
        block = z1[: r1 - r0]
        block[:, :d] = z[r0:r1]
        zz[r0:r1] = np.einsum("nd,nd->n", block[:, :d], block[:, :d])
        scores = block @ table[:, :k_t]
        at = np.arange(r1 - r0)
        best = scores.argmin(axis=1)
        tokens[r0:r1] = best
        lead[r0:r1] = scores[at, best]
        scores[at, best] = np.inf
        runner_up[r0:r1] = scores[at, scores.argmin(axis=1)]
    rho = (np.sqrt(zz) + np.sqrt(table[d, :k_t].max())) ** 2
    tol = 8 * (d + 2) * (_UNIT_ROUNDOFF * rho + _SMALLEST_SUBNORMAL)
    ub = np.maximum(np.sqrt(lead + zz + tol) * _UP, _UB_FLOOR)
    lb = np.sqrt(np.maximum(runner_up + zz - tol, 0.0)) * _DOWN
    redo = np.flatnonzero(~(runner_up - lead > tol))
    for r0 in range(0, redo.size, rows):
        idx = redo[r0 : r0 + rows]
        tokens[idx] = _sqdist(entries[:k_t], z[idx, None, :]).argmin(axis=1)
    ub[redo] = np.inf
    lb[redo] = 0.0
    return tokens, ub, lb


def _score_table(entries: np.ndarray) -> np.ndarray:
    """The kernel's (d+1, k) score matrix ``[-2 E^T; |e|^2]``."""
    d = entries.shape[1]
    table = np.empty((d + 1, entries.shape[0]), dtype=np.float64)
    np.multiply(entries.T, -2.0, out=table[:d])
    table[d] = _sqdist(entries, 0.0)
    return table


def _check_latents(latents, schedule: Schedule, dim: int, k_max: int) -> np.ndarray:
    """``latents`` as a float64 (n, L, d) array, checked before any is scored.

    Raises ``ValueError`` unless they have the schedule's length and ``dim``
    columns, the schedule fits in ``k_max`` entries and every value is
    finite: one NaN or inf would reach every score and every EMA average.
    """
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 3 or latents.shape[1] != schedule.length:
        raise ValueError(
            f"latents must have shape (n, {schedule.length}, d), got {latents.shape}"
        )
    if latents.shape[2] != dim:
        raise ValueError(f"latent dim {latents.shape[2]} does not match codebook dim {dim}")
    if schedule.k_max > k_max:
        raise ValueError(f"schedule k_max {schedule.k_max} exceeds codebook size {k_max}")
    # the extremes, not a latent-sized isfinite mask: a NaN propagates to both
    if latents.size and not (np.isfinite(latents.min()) and np.isfinite(latents.max())):
        raise ValueError("latents contain non-finite values")
    return latents


def quantize_batch(
    latents: np.ndarray, schedule: Schedule, codebook: Codebook
) -> tuple[np.ndarray, np.ndarray]:
    """Tokens and squared distances for a batch of sequences.

    ``latents`` has shape (n, L, d); returns tokens (n, L) and squared
    distances (n, L).  The token at position t is the one an exhaustive
    scan of the first K_t entries returns, ties to the lowest index, and
    its distance is the reference ``sum_j (e_j - z_j)**2``, summed left to
    right.
    """
    latents = _check_latents(latents, schedule, codebook.dim, codebook.k_max)
    entries = codebook.entries[: schedule.k_max].astype(np.float64)
    table, sizes = _score_table(entries), codebook_sizes(schedule)
    tokens = np.stack([_nearest(latents[:, t], entries, table, k_t)[0] for t, k_t in enumerate(sizes)], axis=1)
    distances = [_sqdist(entries[tokens[:, t]], latents[:, t]) for t in range(len(sizes))]
    return tokens, np.stack(distances, axis=1)


def decode(tokens: np.ndarray, codebook: Codebook) -> np.ndarray:
    """Look up codebook rows for token ids of any shape (exact rows, float32).

    The ids index in their own integer dtype, so narrow corpus tokens are not
    widened; bool and float arrays are refused, never truncated.
    """
    tokens = _integers(tokens, "token ids")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= codebook.k_max):
        raise IndexError(
            f"token ids must lie in [0, {codebook.k_max}), found range "
            f"[{tokens.min()}, {tokens.max()}]"
        )
    return codebook.entries[tokens]


def fit_codebook(
    latent_corpus: np.ndarray,
    schedule: Schedule,
    k_max: int,
    d: int,
    epochs: int = 20,
    decay: float = 0.99,
    seed: int = 0,
) -> Codebook:
    """Fit a shared codebook by EMA k-means with prefix-constrained assignment.

    ``latent_corpus`` is an (n, L, d) array.  Entries are initialized from
    randomly sampled latent vectors.  Each epoch assigns every latent at
    position t to its nearest entry among the first K_t (the exact kernel
    :func:`quantize_batch` uses), accumulates per-entry counts and vector sums, then updates the
    exponential moving averages

        size_i <- decay * size_i + (1 - decay) * count_i
        sum_i  <- decay * sum_i  + (1 - decay) * vecsum_i
        entry_i = sum_i / size_i            (once size_i > 0)

    Entries with zero assignments over a full epoch are re-seeded from
    random latents and their averages reset.  Deterministic given ``seed``.

    Pruning (Hamerly, 2010).  Each latent (t, i) carries its token b, an
    upper bound ub >= |z - e_b| and a lower bound lb <= |z - e_k| for every
    other k < K_t, both from :func:`_nearest`.  After an update moves entry
    k by |e'_k - e_k| <= delta_k, the triangle inequality keeps them valid
    as ub + delta_b and lb - max_{k<K_t} delta_k.  An epoch sends to the
    kernel only the latents with not ub * (1 + 4 (d+2) u) < lb; the others
    keep b, which is exactly the token a full scan would return:

    * delta_k: the reference squared move M_k = ``_sqdist(e'_k, e_k)`` is
      within gamma_{d+2} |e'_k - e_k|^2 + d eta of the true one; inflated
      by the factor 1 + 4 (d+2) u and the term 4 (d+2) eta, both larger
      than that error and than the two roundings, its square root times
      ``_UP`` is at least |e'_k - e_k|.  Each rounded ub + delta_b is
      multiplied by ``_UP`` and each rounded lb - max delta by ``_DOWN``
      (ub stays normal above ``_UB_FLOOR``; a subnormal difference is
      exact).
    * The test's product is rounded once, so it gives |z - e_k| >= lb >
      ub (1 + (4d + 6) u) and ub >= |z - e_b| for every k != b.  The
      reference distance R_k errs by at most gamma_{d+2} |z - e_k|^2 + d eta
      (one difference and one square rounded per term, d terms summed, each
      square off by at most eta / 2 if it underflows).  So

          R_k - R_b >= ub^2 ((1 - gamma_{d+2}) (1 + (4d + 6) u)^2
                             - (1 + gamma_{d+2})) - 2 d eta
                    >= (6 d + 7) u ub^2 - 2 d eta > 0,

      because ub >= ``_UB_FLOOR`` makes u ub^2 >= 2 eta.  Every other entry
      of the prefix is strictly farther under R, so the lowest-index tie
      rule never comes into play.

    Rows still to score are grouped across the positions of each K_t, one
    kernel call per K_t and chunk of ``_CHUNK`` rows of ``columns``, the
    fit's one copy of the latents; a row's token does not depend on the
    batch it is scored in, so the codebook is bit for bit that of scoring
    every latent every epoch.  The bound state is three arrays of L n values.
    """
    latents = _check_latents(latent_corpus, schedule, d, k_max)
    if latents.size == 0:
        raise ValueError(f"latent corpus must be non-empty, got shape {latents.shape}")
    n, length, _ = latents.shape
    epochs, decay, seed = check_fields(
        {"epochs": epochs, "decay": decay, "seed": seed}, "codebook", FIT_FIELDS, ranges=FIT_RANGES
    ).values()

    rng = np.random.default_rng(seed)
    flat = latents.reshape(n * length, d)
    pick = rng.choice(flat.shape[0], size=k_max, replace=flat.shape[0] < k_max)
    entries = flat[pick].astype(np.float64)

    sizes = codebook_sizes(schedule)
    # one contiguous position-major column per dimension: a bincount over it
    # adds each entry's latents position by position, row by row
    columns = _mapped_empty((d, length * n))
    np.copyto(columns.reshape(d, length, n), latents.transpose(2, 1, 0))
    ema_size = np.zeros(k_max, dtype=np.float64)
    ema_sum = np.zeros((k_max, d), dtype=np.float64)

    # position-major bound state; (inf, 0) sends every row to the kernel
    tokens = np.zeros(length * n, dtype=np.int64)
    ub = np.full(length * n, np.inf)
    lb = np.zeros(length * n)
    margin = 1.0 + 4 * (d + 2) * _UNIT_ROUNDOFF
    # runs of positions with equal K_t as (K_t, first row, end row); K_t
    # never decreases along a schedule, so there is one run per K_t
    edges = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), length]
    runs = [(sizes[a], a * n, b * n) for a, b in zip(edges, edges[1:])]
    for epoch in range(epochs):
        table = _score_table(entries)
        stale = ~(ub * margin < lb)
        for k_t, r0, r1 in runs:
            idx = np.flatnonzero(stale[r0:r1]) + r0
            for c0 in range(0, idx.size, _CHUNK):
                chunk = idx[c0 : c0 + _CHUNK]
                tokens[chunk], ub[chunk], lb[chunk] = _nearest(columns[:, chunk].T, entries, table, k_t)
        counts = np.bincount(tokens, minlength=k_max)
        vecsum = np.stack(
            [np.bincount(tokens, weights=column, minlength=k_max) for column in columns], axis=1
        )
        previous = entries.copy()
        ema_size = decay * ema_size + (1.0 - decay) * counts
        ema_sum = decay * ema_sum + (1.0 - decay) * vecsum
        live = ema_size > 0.0
        entries[live] = ema_sum[live] / ema_size[live, None]
        dead = counts == 0
        if dead.any():
            reseed = rng.choice(flat.shape[0], size=int(dead.sum()), replace=flat.shape[0] < int(dead.sum()))
            entries[dead] = flat[reseed]
            ema_size[dead] = 0.0
            ema_sum[dead] = 0.0
        if epoch + 1 < epochs:
            moved = _sqdist(entries, previous) * margin + 4 * (d + 2) * _SMALLEST_SUBNORMAL
            delta = np.sqrt(moved) * _UP
            ub += delta[tokens]
            ub *= _UP
            # every row of a K_t run drops by the largest move in its prefix
            reach = np.maximum.accumulate(delta)
            for k_t, r0, r1 in runs:
                lb[r0:r1] -= reach[k_t - 1]
            lb *= _DOWN
    return Codebook(entries=entries.astype(np.float32))


def write_codebook(codebook: Codebook, path: str | Path) -> None:
    """Serialize a codebook to the VCQC binary format (atomic write)."""
    header = _HEADER.pack(CODEBOOK_MAGIC, CODEBOOK_VERSION, codebook.dim, codebook.k_max)
    atomic_write(path, [header, np.ascontiguousarray(codebook.entries, dtype="<f4")])


def read_codebook(path: str | Path) -> Codebook:
    """Read a VCQC codebook file, validating magic, version and sizes."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated codebook file ({len(raw)} bytes)")
    magic, version, dim, k_max = _HEADER.unpack_from(raw)
    if magic != CODEBOOK_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {CODEBOOK_MAGIC!r}")
    if version != CODEBOOK_VERSION:
        raise ValueError(f"{path}: unsupported codebook version {version}")
    expected = _HEADER.size + k_max * dim * 4
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, file has {len(raw)}")
    entries = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).reshape(k_max, dim)
    return Codebook(entries=entries.copy())

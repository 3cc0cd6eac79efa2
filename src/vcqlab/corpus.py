"""Token corpora: N sequences of L token ids, with optional class labels.

On disk a corpus is a little-endian binary file:

    magic   "VCQT"  (4 bytes)
    version u16
    L       u16
    k_max   u32
    N       u64
    flags   u8      (bit 0: labels present)
    tokens  N*L u32, row-major
    labels  N u32   (only when flagged)

The layout is fixed so files are bit-exact across platforms.

In memory the token ids are stored in the smallest unsigned dtype that holds
``k_max - 1`` (:func:`token_dtype`): uint8 up to k_max 256, uint16 up to
65536, uint32 beyond.  Labels are int64.  ``corpus.tokens`` is therefore
unsigned and narrow: widen it (``astype(np.int64)``) before subtracting, and
compose keys such as ``group * k_max + token`` in int64.

Files move in bounded row blocks.  :func:`write_corpus` streams the header
and then ``<u4`` blocks of rows through :func:`atomic_write`;
:func:`read_corpus` reads the header, checks the file size, and reads blocks
of rows into a ``<u4`` staging buffer of at most about 4 MB, checking and
narrowing each straight into the token array.  Neither holds the whole file.
"""

from __future__ import annotations

import os
import struct
import uuid
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["TokenCorpus", "read_corpus", "write_corpus", "token_dtype", "CORPUS_MAGIC"]

CORPUS_MAGIC = b"VCQT"
CORPUS_VERSION = 1
_HEADER = struct.Struct("<4sHHIQB")
_FLAG_LABELS = 0x01
_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
# Bytes of <u4 token ids per block that read_corpus and write_corpus move
_BLOCK_BYTES = 1 << 22


def token_dtype(k_max: int) -> np.dtype:
    """The smallest unsigned dtype holding every token id in [0, k_max)."""
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    for dtype in (np.uint8, np.uint16, np.uint32):
        if k_max - 1 <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    raise ValueError(f"k_max {k_max} exceeds 2**32: its token ids do not fit uint32")


def _integers(values, name: str) -> np.ndarray:
    """``values`` as an integer array; bools, floats and objects are refused."""
    array = np.asarray(values)
    if array.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {array.dtype}")
    return array


@dataclass
class TokenCorpus:
    """N x L matrix of token ids in [0, k_max), optionally class-labelled.

    ``tokens`` is stored as :func:`token_dtype` (k_max) and kept without a
    copy when it already has that dtype; ``labels`` as int64.  Token ids and
    labels must be integer arrays: bools and floats are refused, never
    truncated.
    """

    tokens: np.ndarray
    k_max: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        tokens = _integers(self.tokens, "token ids")
        if tokens.ndim != 2 or tokens.size == 0:
            raise ValueError(f"tokens must be a non-empty N x L matrix, got shape {tokens.shape}")
        dtype = token_dtype(self.k_max)
        # checked before narrowing: a negative or too large id would wrap in the
        # cast; an unsigned id cannot be negative, so its minimum is read for the message
        high = tokens.max()
        if (tokens.dtype.kind == "i" and tokens.min() < 0) or high >= self.k_max:
            raise ValueError(
                f"token ids must lie in [0, {self.k_max}), found range [{tokens.min()}, {high}]"
            )
        self.tokens = tokens.astype(dtype, copy=False)
        if self.labels is not None:
            labels = _integers(self.labels, "labels")
            if labels.shape != (tokens.shape[0],):
                raise ValueError(
                    f"labels must have one entry per sequence ({tokens.shape[0]}), "
                    f"got shape {labels.shape}"
                )
            if labels.min() < 0:
                raise ValueError("labels must be non-negative")
            self.labels = labels.astype(np.int64, copy=False)

    @property
    def n_samples(self) -> int:
        return self.tokens.shape[0]

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


def atomic_write(path: str | Path, chunks: Iterable) -> None:
    """Write the byte chunks ``chunks`` to ``path`` through a temp file renamed over it.

    Each chunk is a bytes-like object (``bytes``, or a contiguous array);
    callers with one payload pass ``[payload]``.  Readers never observe a
    partial file.  The temp file sits in the target directory under a name
    of its own (created exclusively, with the usual permissions), so
    concurrent writers never share one, and a failed write removes it,
    leaving ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _block_rows(length: int) -> int:
    """Rows per IO block: their <u4 ids take at most about ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (4 * length))


def write_corpus(corpus: TokenCorpus, path: str | Path) -> None:
    """Serialize a corpus to the VCQT binary format (atomic write).

    The header and then ``<u4`` blocks of rows are streamed to the file, so
    at most one block is converted at a time.
    """
    n, length = corpus.tokens.shape
    if length > _U16_MAX:
        raise ValueError(f"sequence length {length} exceeds the u16 field")
    if corpus.k_max > _U32_MAX:
        raise ValueError(f"k_max {corpus.k_max} exceeds the u32 field")
    labels = corpus.labels
    if labels is not None and labels.max() > _U32_MAX:
        raise ValueError(f"label {labels.max()} exceeds the u32 field")
    flags = _FLAG_LABELS if labels is not None else 0
    rows = _block_rows(length)

    def chunks():
        yield _HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION, length, corpus.k_max, n, flags)
        for start in range(0, n, rows):
            yield np.ascontiguousarray(corpus.tokens[start : start + rows], dtype="<u4")
        if labels is not None:
            yield np.ascontiguousarray(labels, dtype="<u4")

    atomic_write(path, chunks())


def _read_into(fh, array: np.ndarray, path) -> None:
    """Fill the contiguous ``array`` from ``fh``; a short read is a ``ValueError``."""
    view = memoryview(array).cast("B")
    filled = 0
    while filled < view.nbytes:
        got = fh.readinto(view[filled:])
        if not got:
            raise ValueError(
                f"{path}: short read, file ended {view.nbytes - filled} bytes early"
            )
        filled += got


def read_corpus(path: str | Path) -> TokenCorpus:
    """Read a VCQT corpus file, validating magic, version, sizes and token ids.

    One small read takes the header; the file size comes from ``fstat``.
    Token ids are then read in row blocks through a ``<u4`` staging buffer
    and narrowed into a :func:`token_dtype` array once checked against
    k_max, so the whole file is never held in memory.
    """
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated corpus file ({len(header)} bytes)")
        magic, version, length, k_max, n, flags = _HEADER.unpack(header)
        if magic != CORPUS_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {CORPUS_MAGIC!r}")
        if version != CORPUS_VERSION:
            raise ValueError(f"{path}: unsupported corpus version {version}")
        if flags & ~_FLAG_LABELS:
            raise ValueError(f"{path}: unknown corpus flags {flags:#04x}")
        expected = _HEADER.size + n * length * 4 + (n * 4 if flags & _FLAG_LABELS else 0)
        size = os.fstat(fh.fileno()).st_size
        if size != expected:
            raise ValueError(f"{path}: expected {expected} bytes, file has {size}")
        if n == 0 or length == 0:
            raise ValueError(f"{path}: empty corpus (N={n}, L={length})")
        if k_max == 0:
            raise ValueError(f"{path}: k_max must be >= 1, got 0")
        tokens = np.empty((n, length), dtype=token_dtype(k_max))
        rows = _block_rows(length)
        staging = np.empty(min(rows, n) * length, dtype="<u4")
        for start in range(0, n, rows):
            block = staging[: min(rows, n - start) * length]
            _read_into(fh, block, path)
            top = int(block.max())
            if top >= k_max:
                raise ValueError(f"{path}: token ids must lie in [0, {k_max}), found {top}")
            tokens[start : start + rows] = block.reshape(-1, length)
        labels = None
        if flags & _FLAG_LABELS:
            labels = np.empty(n, dtype="<u4")
            _read_into(fh, labels, path)
    return TokenCorpus(tokens=tokens, k_max=k_max, labels=labels)

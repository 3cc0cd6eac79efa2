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
"""

from __future__ import annotations

import os
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = ["TokenCorpus", "read_corpus", "write_corpus", "CORPUS_MAGIC"]

CORPUS_MAGIC = b"VCQT"
CORPUS_VERSION = 1
_HEADER = struct.Struct("<4sHHIQB")
_FLAG_LABELS = 0x01


@dataclass
class TokenCorpus:
    """N x L matrix of token ids in [0, k_max), optionally class-labelled."""

    tokens: np.ndarray
    k_max: int
    labels: np.ndarray | None = None

    def __post_init__(self) -> None:
        tokens = np.asarray(self.tokens, dtype=np.int64)
        if tokens.ndim != 2 or tokens.size == 0:
            raise ValueError(f"tokens must be a non-empty N x L matrix, got shape {tokens.shape}")
        if self.k_max < 1:
            raise ValueError(f"k_max must be >= 1, got {self.k_max}")
        if tokens.min() < 0 or tokens.max() >= self.k_max:
            raise ValueError(
                f"token ids must lie in [0, {self.k_max}), found range "
                f"[{tokens.min()}, {tokens.max()}]"
            )
        self.tokens = tokens
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int64)
            if labels.shape != (tokens.shape[0],):
                raise ValueError(
                    f"labels must have one entry per sequence ({tokens.shape[0]}), "
                    f"got shape {labels.shape}"
                )
            if labels.min() < 0:
                raise ValueError("labels must be non-negative")
            self.labels = labels

    @property
    def n_samples(self) -> int:
        return self.tokens.shape[0]

    @property
    def length(self) -> int:
        return self.tokens.shape[1]


def atomic_write(path: str | Path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` through a temp file renamed over it.

    Readers never observe a partial file.  The temp file sits in the target
    directory under a name of its own (created exclusively, with the usual
    permissions), so concurrent writers never share one, and a failed write
    removes it, leaving ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_corpus(corpus: TokenCorpus, path: str | Path) -> None:
    """Serialize a corpus to the VCQT binary format (atomic write)."""
    n, length = corpus.tokens.shape
    if length > 0xFFFF:
        raise ValueError(f"sequence length {length} exceeds the u16 field")
    if corpus.k_max > 0xFFFFFFFF:
        raise ValueError(f"k_max {corpus.k_max} exceeds the u32 field")
    flags = _FLAG_LABELS if corpus.labels is not None else 0
    parts = [
        _HEADER.pack(CORPUS_MAGIC, CORPUS_VERSION, length, corpus.k_max, n, flags),
        np.ascontiguousarray(corpus.tokens, dtype="<u4").tobytes(),
    ]
    if corpus.labels is not None:
        parts.append(np.ascontiguousarray(corpus.labels, dtype="<u4").tobytes())
    atomic_write(path, b"".join(parts))


def read_corpus(path: str | Path) -> TokenCorpus:
    """Read a VCQT corpus file, validating magic, version and sizes."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated corpus file ({len(raw)} bytes)")
    magic, version, length, k_max, n, flags = _HEADER.unpack_from(raw)
    if magic != CORPUS_MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}, expected {CORPUS_MAGIC!r}")
    if version != CORPUS_VERSION:
        raise ValueError(f"{path}: unsupported corpus version {version}")
    offset = _HEADER.size
    token_bytes = n * length * 4
    expected = offset + token_bytes + (n * 4 if flags & _FLAG_LABELS else 0)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes, file has {len(raw)}")
    tokens = np.frombuffer(raw, dtype="<u4", count=n * length, offset=offset)
    tokens = tokens.reshape(n, length).astype(np.int64)
    labels = None
    if flags & _FLAG_LABELS:
        labels = np.frombuffer(raw, dtype="<u4", count=n, offset=offset + token_bytes)
        labels = labels.astype(np.int64)
    return TokenCorpus(tokens=tokens, k_max=k_max, labels=labels)

import copy
import json
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vcqlab
from vcqlab.cli import build_parser, main
from vcqlab.corpus import CORPUS_MAGIC, TokenCorpus, atomic_write, read_corpus, write_corpus
from vcqlab.entropy import analyze, refine_groups, utilization_profile, write_profile_csv
from vcqlab.generation import GuidancePolicy, fit_counts, memorization_report, sample_corpus
from vcqlab.quantizer import Codebook, decode, read_codebook, write_codebook
from vcqlab.schedule import (
    SCHEDULE_PRESETS,
    Schedule,
    capacity_report,
    write_capacity_csv,
)

from conftest import random_corpus


class TestTokenCorpus:
    def test_shape_properties(self):
        c = random_corpus(0, 10, 5, 8)
        assert c.n_samples == 10 and c.length == 5

    def test_rejects_out_of_range_tokens(self):
        with pytest.raises(ValueError, match="token ids"):
            TokenCorpus(tokens=np.array([[0, 8]]), k_max=8)
        with pytest.raises(ValueError, match="token ids"):
            TokenCorpus(tokens=np.array([[-1, 0]]), k_max=8)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64, np.uint8, np.uint16, np.uint32, np.uint64])
    def test_out_of_range_message_is_the_same_for_every_dtype(self, dtype):
        # an unsigned id's minimum is read only for the message
        with pytest.raises(ValueError, match=r"found range \[3, 9\]"):
            TokenCorpus(tokens=np.array([[3, 9]], dtype=dtype), k_max=8)
        if np.dtype(dtype).kind == "i":
            with pytest.raises(ValueError, match=r"found range \[-1, 0\]"):
                TokenCorpus(tokens=np.array([[-1, 0]], dtype=dtype), k_max=8)

    def test_rejects_bad_label_count(self):
        with pytest.raises(ValueError, match="labels"):
            TokenCorpus(tokens=np.zeros((3, 2), dtype=int), k_max=4, labels=[0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TokenCorpus(tokens=np.zeros((0, 4), dtype=int), k_max=4)

    @pytest.mark.parametrize(
        "tokens",
        [[[1.7, 2.2]], np.array([[True, False]]), np.array([[1, 2]], dtype=object)],
        ids=["float", "bool", "object"],
    )
    def test_rejects_non_integer_tokens(self, tokens):
        # nothing is truncated or read as 0/1
        with pytest.raises(ValueError, match="token ids must be integers"):
            TokenCorpus(tokens=tokens, k_max=4)

    @pytest.mark.parametrize("labels", [[0.5, 1.0], [True, False]], ids=["float", "bool"])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            TokenCorpus(tokens=np.zeros((2, 2), dtype=int), k_max=4, labels=labels)


class TestCorpusFile:
    def test_roundtrip_unlabelled(self, tmp_path):
        c = random_corpus(1, 37, 9, 1000)
        path = tmp_path / "c.vcqt"
        write_corpus(c, path)
        back = read_corpus(path)
        assert back.k_max == c.k_max
        assert np.array_equal(back.tokens, c.tokens)
        assert back.labels is None

    def test_roundtrip_labelled(self, tmp_path):
        c = random_corpus(2, 21, 6, 64, labelled=True)
        path = tmp_path / "c.vcqt"
        write_corpus(c, path)
        back = read_corpus(path)
        assert np.array_equal(back.tokens, c.tokens)
        assert np.array_equal(back.labels, c.labels)

    def test_bytes_stable_across_writes(self, tmp_path):
        c = random_corpus(3, 16, 8, 32, labelled=True)
        a, b = tmp_path / "a.vcqt", tmp_path / "b.vcqt"
        write_corpus(c, a)
        write_corpus(c, b)
        assert a.read_bytes() == b.read_bytes()

    def test_magic_and_layout(self, tmp_path):
        c = TokenCorpus(tokens=np.array([[1, 2, 3]]), k_max=4)
        path = tmp_path / "c.vcqt"
        write_corpus(c, path)
        raw = path.read_bytes()
        assert raw[:4] == CORPUS_MAGIC
        # header 21 bytes + 3 tokens * 4 bytes
        assert len(raw) == 21 + 12

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.vcqt"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(ValueError, match="magic"):
            read_corpus(path)

    def test_truncated_rejected(self, tmp_path):
        c = random_corpus(4, 4, 4, 4)
        path = tmp_path / "c.vcqt"
        write_corpus(c, path)
        (tmp_path / "t.vcqt").write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="bytes"):
            read_corpus(tmp_path / "t.vcqt")

    def test_label_beyond_u32_field_rejected(self, tmp_path):
        c = TokenCorpus(tokens=np.zeros((2, 2), dtype=int), k_max=2, labels=[0, 2**32])
        with pytest.raises(ValueError, match="exceeds the u32 field"):
            write_corpus(c, tmp_path / "c.vcqt")
        assert list(tmp_path.iterdir()) == []

    def test_no_tmp_file_left_behind(self, tmp_path):
        c = random_corpus(5, 4, 4, 4)
        write_corpus(c, tmp_path / "c.vcqt")
        assert [p.name for p in tmp_path.iterdir()] == ["c.vcqt"]


def _fail_rename(src, dst):
    raise OSError("simulated rename failure")


def _run_command(argv):
    """A CLI command without main()'s error handling, so its OSError reaches the caller."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


CSV_WRITERS = {
    "profile_csv": lambda path, seed: write_profile_csv(
        analyze(random_corpus(seed, 6, 4, 4)), path
    ),
    "capacity_csv": lambda path, seed: write_capacity_csv(
        capacity_report(SCHEDULE_PRESETS["cosine"], 1000 + seed), path
    ),
}


class TestAtomicWrite:
    @pytest.mark.parametrize(
        "write",
        [
            lambda path: write_corpus(random_corpus(5, 4, 4, 4), path),
            lambda path: write_codebook(Codebook(entries=np.ones((4, 2))), path),
            lambda path: CSV_WRITERS["profile_csv"](path, 5),
            lambda path: CSV_WRITERS["capacity_csv"](path, 5),
            # the JSON summary of `vcqlab schedule --out`
            lambda path: _run_command(["schedule", "--preset", "cosine", "--n", "1000", "--out", str(path)]),
        ],
        ids=["corpus", "codebook", "profile_csv", "capacity_csv", "schedule_json"],
    )
    def test_failed_write_leaves_nothing_behind(self, tmp_path, monkeypatch, write):
        monkeypatch.setattr(os, "replace", _fail_rename)
        with pytest.raises(OSError, match="simulated"):
            write(tmp_path / "out.bin")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", sorted(CSV_WRITERS))
    def test_failed_csv_write_keeps_target(self, tmp_path, monkeypatch, name):
        target = tmp_path / "out.csv"
        CSV_WRITERS[name](target, 1)
        before = target.read_bytes()
        monkeypatch.setattr(os, "replace", _fail_rename)
        with pytest.raises(OSError, match="simulated"):
            CSV_WRITERS[name](target, 2)  # different content
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
        assert target.read_bytes() == before
        monkeypatch.undo()
        CSV_WRITERS[name](target, 2)
        assert target.read_bytes() != before

    def test_failed_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "out.bin"
        atomic_write(target, [b"old"])
        with pytest.raises(TypeError):
            atomic_write(target, None)  # fails after the temp file exists
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert target.read_bytes() == b"old"

    def test_concurrent_writers_do_not_collide(self, tmp_path):
        target = tmp_path / "out.bin"
        payloads = [bytes([i]) * 65536 for i in range(4)]
        errors = []

        def writer(payload):
            try:
                for _ in range(50):
                    atomic_write(target, [payload])
            except OSError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
        assert errors == []
        assert target.read_bytes() in payloads
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


# k_max on both sides of every switch between token dtypes
BOUNDARY_K = [1, 255, 256, 257, 65535, 65536, 65537]


def _narrowest(k_max):
    return np.uint8 if k_max <= 256 else np.uint16 if k_max <= 65536 else np.uint32


def _boundary_corpus(k_max):
    """12 labelled rows of length 4 over 4 distinct rows that use ids 0 and k_max - 1."""
    rng = np.random.default_rng(k_max)
    base = rng.integers(0, k_max, size=(4, 4))
    base[0] = k_max - 1
    base[1, ::2] = 0
    rows = base[rng.integers(0, 4, size=12)]
    rows[:2] = base[:2]
    return TokenCorpus(tokens=rows, k_max=k_max, labels=np.arange(12) % 2)


def _as_int64(corpus):
    """The same corpus with its tokens held as int64, bypassing the narrowing."""
    wide = copy.copy(corpus)
    wide.tokens = corpus.tokens.astype(np.int64)
    return wide


class TestTokenDtypeBoundaries:
    """Narrow unsigned token storage gives what int64 storage gives."""

    @pytest.mark.parametrize("k_max", BOUNDARY_K)
    def test_dtype_and_roundtrip(self, tmp_path, k_max):
        corpus = _boundary_corpus(k_max)
        assert corpus.tokens.dtype == _narrowest(k_max)
        path, wide_path = tmp_path / "c.vcqt", tmp_path / "wide.vcqt"
        write_corpus(corpus, path)
        write_corpus(_as_int64(corpus), wide_path)
        assert path.read_bytes() == wide_path.read_bytes()
        back = read_corpus(path)
        assert back.tokens.dtype == _narrowest(k_max) and back.labels.dtype == np.int64
        assert np.array_equal(back.tokens, corpus.tokens)
        assert np.array_equal(back.labels, corpus.labels)
        kept = np.zeros((2, 3), dtype=_narrowest(k_max))
        assert TokenCorpus(tokens=kept, k_max=k_max).tokens is kept  # no copy
        # a negative id is refused before the cast could wrap it into range
        with pytest.raises(ValueError, match="token ids must lie"):
            TokenCorpus(tokens=np.array([[0, -1]]), k_max=k_max)

    @pytest.mark.parametrize("k_max", BOUNDARY_K)
    def test_refine_groups_keys_are_composed_in_int64(self, k_max):
        column = np.array([k_max - 1, 0, k_max - 1], dtype=_narrowest(k_max))
        for gids in (np.array([255, 3, 255], dtype=np.uint8), np.array([255, 3, 255])):
            keys, inverse, counts = refine_groups(gids, column, k_max)
            assert keys.tolist() == sorted({3 * k_max, 255 * k_max + k_max - 1})
            assert inverse.tolist() == [1, 0, 1] and counts.tolist() == [1, 2]

    @pytest.mark.parametrize("k_max", BOUNDARY_K)
    def test_consumers_match_int64_reference(self, k_max):
        corpus = _boundary_corpus(k_max)
        wide = _as_int64(corpus)
        schedule = Schedule("constant", k_max, k_max, 4)
        assert repr(analyze(corpus, schedule)) == repr(analyze(wide, schedule))
        assert utilization_profile(corpus, schedule) == utilization_profile(wide, schedule)

        policy = GuidancePolicy(schedule, scale=2.0)
        model, wide_model = fit_counts(corpus, schedule, 2), fit_counts(wide, schedule, 2)
        for tables, wide_tables in zip(model.tables, wide_model.tables):
            for table, wide_table in zip(tables, wide_tables):
                for name in ("keys", "pairs", "counts"):
                    assert np.array_equal(getattr(table, name), getattr(wide_table, name))
        generated = sample_corpus(model, policy, n_samples=6, seed=1)
        assert np.array_equal(generated.tokens, sample_corpus(wide_model, policy, 6, 1).tokens)

        # training and generated rows of different k_max (and dtype) grouped together
        other = _boundary_corpus(300 if k_max < 300 else 2)
        for a, b in ((corpus, corpus), (corpus, other), (other, corpus), (generated, corpus)):
            assert memorization_report(a, b) == memorization_report(_as_int64(a), _as_int64(b))

        codebook = Codebook(entries=np.random.default_rng(0).normal(size=(k_max, 2)))
        assert np.array_equal(decode(corpus.tokens, codebook), decode(wide.tokens, codebook))


def _corpus_fields(raw: bytes) -> dict:
    version, length, k_max, n, flags = struct.unpack_from("<HHIQB", raw, 4)
    return {"version": version, "length": length, "k_max": k_max, "n": n, "flags": flags}


# (offset, struct format) of every header field after the magic
CORPUS_FIELDS = [(4, "<H"), (6, "<H"), (8, "<I"), (12, "<Q"), (20, "<B")]
CODEBOOK_FIELDS = [(4, "<H"), (6, "<I"), (10, "<I")]


def _mutate(raw: bytes, fields, mutation) -> bytes:
    kind, where, value = mutation
    if kind == "truncate":
        return raw[: where % len(raw)]
    data = bytearray(raw)
    if kind == "flip":
        header_bits = 8 * (fields[-1][0] + struct.calcsize(fields[-1][1]))
        bit = where % header_bits
        data[bit // 8] ^= 1 << (bit % 8)
    else:  # "oversize": one field set to a large value of its width
        offset, fmt = fields[where % len(fields)]
        width = 8 * struct.calcsize(fmt)
        struct.pack_into(fmt, data, offset, (1 << width) - 1 - value % (1 << (width // 2)))
    return bytes(data)


def test_corrupt_headers_are_data_errors(tmp_path, capsys):
    """Truncated, bit-flipped and oversized header fields of .vcqt and .vcqc
    files: the readers raise ValueError or return arrays of exactly the
    header's shape, and the CLI exits 2 (or 0) with no traceback."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    good = tmp_path / "good.vcqt"
    write_corpus(TokenCorpus(tokens=np.array([[1, 4], [0, 2], [1, 4]]), k_max=5, labels=[0, 1, 0]), good)
    good_codebook = tmp_path / "good.vcqc"
    write_codebook(Codebook(entries=np.arange(8.0).reshape(4, 2)), good_codebook)
    config = json.dumps({"dataset": {"n_classes": 2, "n_per_class": 2, "image_size": 4},
                         "encoder": {"patch_size": 2, "dim": 2}})
    schedule = '{"family": "constant", "k_min": 4, "k_max": 4, "length": 4}'
    bad = tmp_path / "bad.vcqt"
    bad_codebook = tmp_path / "bad.vcqc"

    def run_cli(argv) -> int:
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (0, 2) and (code == 0 or err.startswith("data error"))
        return code

    @hypothesis.settings(max_examples=120, deadline=None)
    @hypothesis.given(
        st.sampled_from(["corpus", "codebook"]),
        st.tuples(
            st.sampled_from(["truncate", "flip", "oversize"]),
            st.integers(0, 10**6),
            st.integers(0, 10**6),
        ),
    )
    def check(which, mutation):
        if which == "corpus":
            raw = _mutate(good.read_bytes(), CORPUS_FIELDS, mutation)
            bad.write_bytes(raw)
            try:
                corpus = read_corpus(bad)
            except ValueError as exc:
                assert str(bad) in str(exc)
                corpus = None
            if corpus is not None:  # only a k_max flip keeps a file consistent
                assert mutation[0] != "truncate"
                header = _corpus_fields(raw)
                assert corpus.tokens.shape == (header["n"], header["length"])
                assert corpus.k_max == header["k_max"] and int(corpus.tokens.max()) < corpus.k_max
                assert corpus.labels.shape == (header["n"],)
            code = run_cli(["analyze", "--corpus", str(bad), "--json"])
            assert (code == 0) == (corpus is not None)
            code = run_cli(["memorization", "--generated", str(bad), "--training", str(good), "--json"])
            assert (code == 0) == (corpus is not None)
        else:
            bad_codebook.write_bytes(_mutate(good_codebook.read_bytes(), CODEBOOK_FIELDS, mutation))
            # d and k_max both size the file, so every header mutation shows
            with pytest.raises(ValueError, match="bad.vcqc"):
                read_codebook(bad_codebook)
            argv = ["tokenize", "--config", config, "--schedule", schedule,
                    "--codebook", str(bad_codebook), "--out", str(tmp_path / "t.vcqt")]
            assert run_cli(argv) == 2
            assert not (tmp_path / "t.vcqt").exists()

    check()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_read_and_analyze_memory_is_bounded(tmp_path):
    """read_corpus + analyze of a 50,000 x 256 corpus at K=16384, in a fresh
    process: its peak RSS grows by under 100 MB over the post-import
    baseline.  The ids take 25.6 MB as uint16; widened to int64 next to the
    whole file's bytes they took about 150 MB.  The peak is the process's
    VmHWM, not ru_maxrss: a child's ru_maxrss starts at the high-water mark
    of the process it was forked from, here the test runner."""
    path = tmp_path / "c.vcqt"
    tokens = np.random.default_rng(0).integers(0, 16384, size=(50_000, 256), dtype=np.uint16)
    write_corpus(TokenCorpus(tokens=tokens, k_max=16384), path)
    del tokens
    script = (
        "import sys\n"
        "from vcqlab.corpus import read_corpus\n"
        "from vcqlab.entropy import analyze\n"
        "def peak_kb():\n"
        "    status = open('/proc/self/status').read().split('VmHWM:')[1]\n"
        "    return int(status.split()[0])\n"
        "base = peak_kb()\n"
        "analyze(read_corpus(sys.argv[1]))\n"
        "print((peak_kb() - base) / 1024)\n"
    )
    src = str(Path(vcqlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-c", script, str(path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    growth_mb = float(done.stdout)
    assert growth_mb < 100, f"read_corpus + analyze grew peak RSS by {growth_mb:.1f} MB"

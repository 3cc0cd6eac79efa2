import os
import threading

import numpy as np
import pytest

from vcqlab.corpus import CORPUS_MAGIC, TokenCorpus, atomic_write, read_corpus, write_corpus
from vcqlab.entropy import analyze, write_profile_csv
from vcqlab.quantizer import Codebook, write_codebook
from vcqlab.schedule import SCHEDULE_PRESETS, capacity_report, save_schedule, write_capacity_csv

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

    def test_rejects_bad_label_count(self):
        with pytest.raises(ValueError, match="labels"):
            TokenCorpus(tokens=np.zeros((3, 2), dtype=int), k_max=4, labels=[0, 1])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TokenCorpus(tokens=np.zeros((0, 4), dtype=int), k_max=4)


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

    def test_no_tmp_file_left_behind(self, tmp_path):
        c = random_corpus(5, 4, 4, 4)
        write_corpus(c, tmp_path / "c.vcqt")
        assert [p.name for p in tmp_path.iterdir()] == ["c.vcqt"]


def _fail_rename(src, dst):
    raise OSError("simulated rename failure")


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
            lambda path: save_schedule(SCHEDULE_PRESETS["cosine"], path),
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
        atomic_write(target, b"old")
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
                    atomic_write(target, payload)
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

import json
import math
import multiprocessing

import pytest

from vcqlab import toylab
from vcqlab.cli import _resolve_schedule, main
from vcqlab.corpus import read_corpus
from vcqlab.schedule import SCHEDULE_PRESETS, schedule_to_json

TINY_CONFIG = {
    "dataset": {"n_classes": 3, "n_per_class": 15, "image_size": 16, "seed": 0},
    "encoder": {"patch_size": 4, "dim": 6},
    "schedules": [
        {"name": "constant", "family": "constant", "k_min": 32, "k_max": 32, "length": 16},
        {"name": "cosine", "family": "cosine", "k_min": 2, "k_max": 32, "length": 16},
    ],
    "codebook": {"epochs": 6, "decay": 0.99, "seed": 1},
    "model": {"max_order": 3, "smoothing": 0.1},
    "policy": {"scale": 0.0, "ramp": "none", "power": 1.5, "size_aware": True, "temperature": 1.0},
    "generation": {"n_samples": 20, "seed": 2},
    "cliff_threshold": 0.5,
}

TINY_SCHED = {"family": "cosine", "k_min": 2, "k_max": 32, "length": 16}

MISSING = object()  # a config field to delete


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


@pytest.fixture
def sched_file(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(TINY_SCHED))
    return str(path)


class TestScheduleCommand:
    def test_preset_table_values(self, capsys):
        assert main(["schedule", "--preset", "cosine", "--n", "1281167", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean_codebook"] == pytest.approx(5964, rel=0.01)
        assert data["bpp"] == pytest.approx(0.044, abs=0.002)

    def test_constant16k(self, capsys):
        assert main(["schedule", "--preset", "constant16k", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["mean_codebook"] == 16384
        assert data["bpp"] == pytest.approx(0.055, abs=0.002)

    def test_power_alpha_one_matches_linear(self, capsys):
        power = {"family": "power", "k_min": 2, "k_max": 16384, "length": 256, "alpha": 1.0}
        assert main(["schedule", "--preset", json.dumps(power), "--json"]) == 0
        power = json.loads(capsys.readouterr().out)
        assert main(["schedule", "--preset", "linear", "--json"]) == 0
        linear = json.loads(capsys.readouterr().out)
        for key in ("mean_codebook", "bpp", "total_bits", "tstar_vcq"):
            assert power[key] == linear[key]

    def test_unknown_preset_is_usage_error(self, capsys):
        assert main(["schedule", "--preset", "nope"]) == 1
        assert "unknown schedule" in capsys.readouterr().err

    @pytest.mark.parametrize("form", ["preset", "inline", "file", "bracketed file"])
    def test_schedule_argument_forms(self, tmp_path, capsys, monkeypatch, form):
        # a preset name, inline JSON or a JSON file name the same schedule, even
        # a file whose name starts like an inline list
        sched = json.dumps(schedule_to_json(SCHEDULE_PRESETS["cosine"]))
        (tmp_path / "sched.json").write_text(sched)
        (tmp_path / "[sched].json").write_text(sched)
        monkeypatch.chdir(tmp_path)
        value = {"preset": "cosine", "inline": sched, "file": "sched.json", "bracketed file": "[sched].json"}[form]
        assert _resolve_schedule(value) == SCHEDULE_PRESETS["cosine"]
        assert main(["schedule", "--preset", value, "--json"]) == 0
        got = capsys.readouterr()
        assert main(["schedule", "--preset", "cosine", "--json"]) == 0
        assert got.out == capsys.readouterr().out and got.err == ""

    @pytest.mark.parametrize("value", ["[2, 16]", "no/such/sched.json"])
    def test_list_or_missing_path_is_usage_error(self, capsys, value):
        # a JSON list is no schedule, and a path that does not exist is not read
        assert main(["schedule", "--preset", value]) == 1
        presets = ", ".join(SCHEDULE_PRESETS)
        assert capsys.readouterr().err == (
            f"error: unknown schedule {value!r}: not a preset ({presets}), file, or inline JSON\n"
        )

    def test_bad_schedule_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"family": "cosine", "k_min": 2}))
        assert main(["schedule", "--preset", str(path)]) == 2
        assert capsys.readouterr().err == "data error: missing field schedule.k_max\n"

    def test_csv_curve(self, tmp_path, capsys):
        csv_path = tmp_path / "curve.csv"
        assert main(["schedule", "--preset", "linear", "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "t,K_t,bits,cumulative_bits,remaining_budget"
        assert len(lines) == 257

    def test_human_table(self, capsys):
        assert main(["schedule", "--preset", "constant8k"]) == 0
        out = capsys.readouterr().out
        assert "mean_codebook" in out and "8192" in out


class TestTstarCommand:
    def test_builtin_table(self, capsys):
        assert main(["tstar", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [row["tstar"] for row in data["datasets"]] == [2, 2, 2, 2, 3, 3]

    def test_thresholds(self, capsys):
        assert main(["tstar", "--thresholds", "2..5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["thresholds"] == {
            "2": 16384,
            "3": 268435456,
            "4": 4398046511104,
            "5": 72057594037927936,
        }

    def test_single_query(self, capsys):
        assert main(["tstar", "--n", "1", "--k", "16384"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_bad_threshold_range(self, capsys):
        assert main(["tstar", "--thresholds", "five"]) == 1

    @pytest.mark.parametrize("spec", ["1100..1100", "2..100000"])
    def test_thresholds_beyond_printable_exit_2_before_any_power(self, capsys, monkeypatch, spec):
        import vcqlab.cli

        monkeypatch.setattr(vcqlab.cli, "data_threshold", lambda k, m: pytest.fail("k**(m-1) built"))
        assert main(["tstar", "--thresholds", spec]) == 2
        err = capsys.readouterr().err
        assert f"--thresholds {spec}: M must be at most 1021 at K=16384" in err

    def test_largest_allowed_threshold_prints(self, capsys):
        assert main(["tstar", "--thresholds", "1..1021", "--json"]) == 0
        thresholds = json.loads(capsys.readouterr().out)["thresholds"]
        assert thresholds["1021"] == 16384**1020 and len(str(thresholds["1021"])) == 4299
        assert main(["tstar", "--thresholds", "1022..1022"]) == 2
        assert "at most 1021" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["1.9", "true", '"12"'])
    def test_dataset_sizes_must_be_integers(self, capsys, n):
        assert main(["tstar", "--datasets", f'[["a", {n}]]']) == 1
        assert "--datasets expects" in capsys.readouterr().err
        assert main(["tstar", "--datasets", '[["a", 4.0]]', "--k", "2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["datasets"][0]["tstar"] == 2

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_dataset_sizes_below_one_name_n_samples(self, capsys, n):
        # N is checked before log2 N is taken
        assert main(["tstar", "--datasets", f'[["x", {n}]]']) == 2
        assert f"data error: n_samples must be >= 1, got {n}" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, first, second",
        [
            (["--n", "5", "--thresholds", "1..2"], "--n", "--thresholds"),
            (["--n", "5", "--datasets", '[["a", 3]]'], "--n", "--datasets"),
            (["--thresholds", "1..2", "--datasets", '[["a", 3]]'], "--thresholds", "--datasets"),
        ],
    )
    def test_queries_are_exclusive(self, capsys, argv, first, second):
        # a second query is refused, not silently dropped
        assert main(["tstar", *argv]) == 1
        captured = capsys.readouterr()
        assert f"argument {second}: not allowed with argument {first}" in captured.err
        assert captured.out == ""

    def test_tstar_agrees_with_schedule_above_a_power(self, capsys):
        # N = 16384**3 + 1 needs a fourth token under a constant 16384 codebook
        n = str(16384**3 + 1)
        assert main(["tstar", "--n", n, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tstar"] == 4
        assert main(["schedule", "--preset", "constant16k", "--n", n, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["tstar_vcq"] == 4


class TestPipelineCommands:
    def test_fit_tokenize_analyze_generate_memorization(
        self, tmp_path, config_file, sched_file, capsys
    ):
        cb = tmp_path / "book.vcqc"
        corpus = tmp_path / "train.vcqt"
        gen = tmp_path / "gen.vcqt"

        assert main(["fit", "--config", config_file, "--schedule", sched_file,
                     "--out", str(cb)]) == 0
        assert cb.exists()

        assert main(["tokenize", "--config", config_file, "--schedule", sched_file,
                     "--codebook", str(cb), "--out", str(corpus)]) == 0
        loaded = read_corpus(corpus)
        assert loaded.n_samples == 45 and loaded.length == 16

        capsys.readouterr()
        assert main(["analyze", "--corpus", str(corpus), "--schedule", sched_file,
                     "--json", "--csv", str(tmp_path / "prof.csv")]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_samples"] == 45
        assert (tmp_path / "prof.csv").exists()

        policy = '{"scale": 0.0, "temperature": 1.0}'
        assert main(["generate", "--corpus", str(corpus), "--schedule", sched_file,
                     "--policy", policy, "--n", "10", "--seed", "7",
                     "--out", str(gen)]) == 0
        generated = read_corpus(gen)
        assert generated.n_samples == 10

        capsys.readouterr()
        assert main(["memorization", "--generated", str(gen), "--training", str(corpus),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0.0 <= report["exact_match_rate"] <= 1.0
        assert 0.0 <= report["mean_longest_prefix"] <= 16.0

    def test_generate_deterministic(self, tmp_path, config_file, sched_file):
        cb = tmp_path / "book.vcqc"
        corpus = tmp_path / "train.vcqt"
        main(["fit", "--config", config_file, "--schedule", sched_file, "--out", str(cb)])
        main(["tokenize", "--config", config_file, "--schedule", sched_file,
              "--codebook", str(cb), "--out", str(corpus)])
        policy = '{"scale": 1.5, "size_aware": true}'
        for name in ("a.vcqt", "b.vcqt"):
            assert main(["generate", "--corpus", str(corpus), "--schedule", sched_file,
                         "--policy", policy, "--n", "8", "--seed", "3",
                         "--out", str(tmp_path / name)]) == 0
        assert (tmp_path / "a.vcqt").read_bytes() == (tmp_path / "b.vcqt").read_bytes()

    def test_schedule_preset_accepted_in_pipeline(self, tmp_path, config_file):
        # presets are length-256; the tiny dataset has 16 positions -> data error
        cb = tmp_path / "book.vcqc"
        assert main(["fit", "--config", config_file, "--schedule", "cosine",
                     "--out", str(cb)]) == 2

    def test_analyze_identical_rows_all_zero(self, tmp_path, capsys):
        import numpy as np

        from vcqlab.corpus import TokenCorpus, write_corpus

        corpus = TokenCorpus(tokens=np.tile([1, 2, 3], (12, 1)), k_max=8)
        path = tmp_path / "flat.vcqt"
        write_corpus(corpus, path)
        csv_path = tmp_path / "prof.csv"
        assert main(["analyze", "--corpus", str(path), "--csv", str(csv_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["joint_bits"] == 0.0
        h_column = [line.split(",")[1] for line in csv_path.read_text().splitlines()[1:]]
        assert all(float(h) == 0.0 for h in h_column)

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--preset", "cosine"],
            ["tstar"],
            ["analyze", "--corpus", "{flat}"],
            ["memorization", "--generated", "{flat}", "--training", "{flat}"],
            ["tstar", "--n", "1281167"],
            ["tstar", "--thresholds", "2..5"],
        ],
        ids=["schedule", "tstar", "analyze", "memorization", "tstar_n", "tstar_thresholds"],
    )
    def test_out_file_equals_json_output(self, tmp_path, capsys, argv):
        import numpy as np

        from vcqlab.corpus import TokenCorpus, write_corpus

        flat = tmp_path / "flat.vcqt"
        write_corpus(TokenCorpus(tokens=np.tile([1, 2, 3], (12, 1)), k_max=8), flat)
        argv = [a.format(flat=flat) for a in argv]
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "summary.json"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == text  # --out keeps the text table
        assert out.read_text() == printed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["flat.vcqt", "summary.json"]
        if argv[0] == "analyze":  # identical rows: the sign of zero survives
            assert '"joint_bits": -0.0' in printed

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--n", "0", "data error: generation.n_samples must be >= 1, got 0"),
            ("--seed", "-1", "data error: generation.seed must be >= 0, got -1"),
        ],
        ids=["n", "seed"],
    )
    def test_generate_checks_n_and_seed_before_fitting(
        self, tmp_path, capsys, monkeypatch, flag, value, message
    ):
        import numpy as np

        from vcqlab import generation
        from vcqlab.corpus import TokenCorpus, write_corpus

        def no_fit(*args, **kwargs):
            raise AssertionError("fit_counts ran before --n and --seed were checked")

        monkeypatch.setattr(generation, "fit_counts", no_fit)
        corpus = tmp_path / "train.vcqt"
        write_corpus(TokenCorpus(tokens=np.array([[0, 1], [1, 0]]), k_max=4, labels=[0, 1]), corpus)
        options = {"--n": "2", "--seed": "0", flag: value}
        sched = '{"family": "constant", "k_min": 4, "k_max": 4, "length": 2}'
        argv = ["generate", "--corpus", str(corpus), "--schedule", sched,
                "--policy", "{}", "--out", str(tmp_path / "gen.vcqt")]
        argv += [item for pair in options.items() for item in pair]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "gen.vcqt").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_non_finite_threshold_is_data_error(self, tmp_path, capsys, threshold):
        import numpy as np

        from vcqlab.corpus import TokenCorpus, write_corpus

        flat = tmp_path / "flat.vcqt"
        write_corpus(TokenCorpus(tokens=np.tile([1, 2, 3], (12, 1)), k_max=8), flat)
        out = tmp_path / "summary.json"
        argv = ["analyze", "--corpus", str(flat), "--threshold", threshold, "--json", "--out", str(out)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert f"data error: analyze.cliff_threshold must be finite, got {threshold}" in captured.err
        assert captured.out == "" and not out.exists()

    def test_missing_corpus_is_data_error(self, tmp_path, capsys):
        assert main(["analyze", "--corpus", str(tmp_path / "missing.vcqt")]) == 2

    def test_corrupt_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.vcqt"
        bad.write_bytes(b"garbage!")
        assert main(["analyze", "--corpus", str(bad)]) == 2

    @pytest.mark.parametrize(
        "policy",
        [
            '{"scale": NaN}',
            '{"temperature": Infinity}',
            '{"size_aware": "false"}',
            '{"scale": "3"}',
            '{"temperature": true}',
            '{"power": "1.5"}',
            '{"ramp": 1}',
        ],
    )
    def test_bad_policy_is_data_error(self, tmp_path, capsys, policy):
        import numpy as np

        from vcqlab.corpus import TokenCorpus, write_corpus

        corpus = tmp_path / "train.vcqt"
        write_corpus(TokenCorpus(tokens=np.array([[0, 1], [1, 0]]), k_max=4, labels=[0, 1]), corpus)
        sched = '{"family": "constant", "k_min": 4, "k_max": 4, "length": 2}'
        argv = ["generate", "--corpus", str(corpus), "--schedule", sched,
                "--policy", policy, "--n", "2", "--seed", "0",
                "--out", str(tmp_path / "gen.vcqt")]
        assert main(argv) == 2
        assert "data error" in capsys.readouterr().err
        assert not (tmp_path / "gen.vcqt").exists()


    def test_inline_json_list_policy_is_not_a_path(self, tmp_path, capsys):
        import numpy as np

        from vcqlab.corpus import TokenCorpus, write_corpus

        corpus = tmp_path / "train.vcqt"
        write_corpus(TokenCorpus(tokens=np.array([[0, 1], [1, 0]]), k_max=4, labels=[0, 1]), corpus)
        sched = '{"family": "constant", "k_min": 4, "k_max": 4, "length": 2}'
        argv = ["generate", "--corpus", str(corpus), "--schedule", sched,
                "--policy", " []", "--n", "2", "--seed", "0",
                "--out", str(tmp_path / "gen.vcqt")]
        assert main(argv) == 2
        assert "data error: policy must be a JSON object, got []" in capsys.readouterr().err
        assert not (tmp_path / "gen.vcqt").exists()


class TestExperimentCommand:
    def test_experiment_writes_report(self, tmp_path, config_file, capsys):
        out = tmp_path / "report"
        assert main(["experiment", "--config", config_file, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert set(report["schedules"]) == {"constant", "cosine"}
        stdout = capsys.readouterr().out
        assert "constant" in stdout and "cosine" in stdout

    def test_seed_with_config_is_usage_error(self, tmp_path, config_file, capsys):
        out = tmp_path / "report"
        assert main(["experiment", "--config", config_file, "--seed", "3", "--out", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/report"])
    def test_out_not_a_directory_refused_before_any_stage(self, tmp_path, config_file, capsys, monkeypatch, out):
        (tmp_path / "taken").write_text("a file")
        monkeypatch.setattr(toylab, "generate_dataset", None)
        assert main(["experiment", "--config", config_file, "--out", str(tmp_path / out)]) == 2
        err = capsys.readouterr().err
        assert "data error: --out" in err and "exists and is not a directory" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "taken"]
        assert (tmp_path / "taken").read_text() == "a file"

    def test_parent_arm_failure_named_while_worker_runs(self, tmp_path, config_file, capsys, monkeypatch):
        # this process runs arm 0 ("constant") and one spawned worker arm 1,
        # which does not see the patch
        monkeypatch.setattr(toylab, "_usable_cpus", lambda: 2)

        def refuse(*args, **kwargs):
            raise ValueError("no codebook here")

        monkeypatch.setattr(toylab, "fit_codebook", refuse)
        out = tmp_path / "report"
        assert main(["experiment", "--config", config_file, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: experiment stage 'fit_codebook' failed for 'constant': no codebook here" in err
        assert not out.exists() and multiprocessing.active_children() == []

    def test_inline_policy_and_schedule_json(self, tmp_path, config_file, capsys):
        # schedule argument can be inline JSON too
        cb = tmp_path / "book.vcqc"
        inline = json.dumps(TINY_SCHED)
        assert main(["fit", "--config", config_file, "--schedule", inline,
                     "--out", str(cb)]) == 0


class TestConfigValidation:
    """Config fields are checked against their declared types: integers are
    never truncated, numbers are finite and never bools or strings, and
    unknown keys are named.  Each is a data error (exit 2), not a traceback."""

    @pytest.mark.parametrize(
        "section, field, value, message",
        [
            ("dataset", "colour", 1, "'colour'"),
            ("dataset", "n_per_class", True, "dataset.n_per_class"),
            ("dataset", "image_size", 16.5, "dataset.image_size"),
            ("encoder", "dim", 6.5, "encoder.dim"),
            ("codebook", "epochs", 2.7, "codebook.epochs"),
            ("codebook", "seed", "1", "codebook.seed"),
            ("model", "max_order", 3.5, "model.max_order"),
            ("generation", "n_samples", False, "generation.n_samples"),
            (None, "cliff_threshold", True, "config.cliff_threshold must be a number"),
            (None, "cliff_threshold", math.nan, "config.cliff_threshold must be finite"),
            (None, "cliff_threshold", math.inf, "config.cliff_threshold must be finite"),
            # the loader checks the range: config.cliff_threshold must be ...
            (None, "cliff_threshold", 0, "threshold must be finite and > 0"),
            ("model", "smoothing", True, "model.smoothing must be a number"),
            ("model", "smoothing", math.nan, "model.smoothing must be finite"),
            ("codebook", "decay", "0.99", "codebook.decay must be a number"),
            ("dataset", "noise", True, "dataset.noise must be a number"),
            ("schedules", "alpha", math.inf, "schedules[1].alpha must be finite"),
            (None, "cliff_treshold", 0.5, "unknown config field 'cliff_treshold'"),
            ("model", "max_ordr", 3, "unknown model field 'max_ordr'"),
            ("codebook", "epoch", 6, "unknown codebook field 'epoch'"),
            ("encoder", "patchsize", 4, "unknown encoder field 'patchsize'"),
            ("generation", "n_sample", 20, "unknown generation field 'n_sample'"),
            (None, "polcy", {}, "unknown config field 'polcy'"),
            ("schedules", "alpah", 2.5, "unknown schedules[1] field 'alpah'"),
            # value ranges, checked by the loader with each stage's own rule
            ("model", "max_order", -1, "model.max_order must be >= 0"),
            ("model", "smoothing", 0, "model.smoothing must be finite and > 0"),
            ("codebook", "decay", 1.5, "codebook.decay must be in (0, 1)"),
            ("codebook", "epochs", 0, "codebook.epochs must be >= 1"),
            ("generation", "n_samples", 0, "generation.n_samples must be >= 1"),
            # every section has a range table, seeds and schedule arms included
            ("dataset", "n_classes", 0, "dataset.n_classes must be >= 1"),
            ("dataset", "seed", -1, "dataset.seed must be >= 0"),
            ("dataset", "jitter", -0.5, "dataset.jitter must be >= 0"),
            ("dataset", "blobs_per_class", -1, "dataset.blobs_per_class must be >= 0"),
            ("encoder", "patch_size", 0, "encoder.patch_size must be >= 1"),
            ("encoder", "dim", 0, "encoder.dim must be >= 1"),
            ("codebook", "seed", -1, "codebook.seed must be >= 0"),
            ("generation", "seed", -1, "generation.seed must be >= 0"),
            ("policy", "scale", -1, "policy.scale must be >= 0"),
            ("policy", "ramp", "step", "policy.ramp must be one of ('none', 'cosine')"),
            ("policy", "power", 0, "policy.power must be > 0"),
            ("schedules", "k_min", 0, "schedules[1].k_min must be >= 1"),
            ("schedules", "length", 0, "schedules[1].length must be >= 1"),
            # rules across fields and sections, checked by the loader too
            ("schedules", "length", 15,
             "schedules[1].length must be (dataset.image_size / encoder.patch_size)**2 = 16, got 15"),
            ("dataset", "image_size", 18,
             "dataset.image_size must be a multiple of encoder.patch_size 4, got 18"),
            ("encoder", "dim", 17, "encoder.dim must be <= encoder.patch_size**2 = 16, got 17"),
            # the experiment needs its arms before any stage runs
            (None, "schedules", MISSING, "missing field config.schedules"),
        ],
    )
    def test_bad_experiment_config_is_data_error(
        self, tmp_path, capsys, monkeypatch, section, field, value, message
    ):
        config = json.loads(json.dumps(TINY_CONFIG))
        target = config if section is None else config[section]
        if section == "schedules":
            target = target[1]
        if value is MISSING:
            del target[field]
        else:
            target[field] = value
        stages = []  # the loader rejects the config before the first stage runs
        monkeypatch.setattr(toylab, "generate_dataset", lambda spec: stages.append(spec))
        out = tmp_path / "report"
        assert main(["experiment", "--config", json.dumps(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error" in err and message in err
        assert not out.exists() and stages == []

    @pytest.mark.parametrize("command", ["experiment", "fit"])
    def test_inline_json_list_config_is_not_a_path(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(toylab, "generate_dataset", None)
        out = tmp_path / "out"
        argv = [command, "--config", "[]", "--out", str(out)]
        if command == "fit":
            argv += ["--schedule", "cosine"]
        assert main(argv) == 2
        assert "data error: config must be a JSON object, got []" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_schedules_is_data_error(self, tmp_path, capsys, monkeypatch):
        config = dict(TINY_CONFIG, schedules=[])
        monkeypatch.setattr(toylab, "generate_dataset", None)
        out = tmp_path / "report"
        assert main(["experiment", "--config", json.dumps(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "data error: config.schedules is empty: the experiment runs one arm per schedule" in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("k_min", 2.9), ("length", True), ("k_max", "32")])
    def test_bad_schedule_field_is_data_error(self, tmp_path, capsys, field, value):
        sched = dict(TINY_SCHED, **{field: value})
        assert main(["schedule", "--preset", json.dumps(sched), "--json"]) == 2
        assert f"{field} must be an integer" in capsys.readouterr().err
        config = json.loads(json.dumps(TINY_CONFIG))
        config["schedules"][1][field] = value
        assert main(["experiment", "--config", json.dumps(config), "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("command", ["fit", "tokenize"])
    def test_unknown_dataset_key_in_fit_and_tokenize(self, tmp_path, capsys, sched_file, command):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["dataset"]["size"] = 16
        argv = [command, "--config", json.dumps(config), "--schedule", sched_file,
                "--out", str(tmp_path / "out")]
        if command == "tokenize":
            argv += ["--codebook", str(tmp_path / "book.vcqc")]
            main(["fit", "--config", json.dumps(TINY_CONFIG), "--schedule", sched_file,
                  "--out", str(tmp_path / "book.vcqc")])
        assert main(argv) == 2
        assert "unknown dataset field 'size'" in capsys.readouterr().err

    def test_integral_floats_are_accepted(self, tmp_path, sched_file):
        config = json.loads(json.dumps(TINY_CONFIG))
        config["codebook"]["epochs"] = 6.0
        config["dataset"]["n_per_class"] = 15.0
        a, b = tmp_path / "a.vcqc", tmp_path / "b.vcqc"
        assert main(["fit", "--config", json.dumps(config), "--schedule", sched_file, "--out", str(a)]) == 0
        assert main(["fit", "--config", json.dumps(TINY_CONFIG), "--schedule", sched_file, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    def test_no_command(self):
        assert main([]) == 1

    def test_unknown_command(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["analyze"]) == 1

    def test_schedule_needs_preset(self, capsys):
        assert main(["schedule"]) == 1
        assert "the following arguments are required: --preset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--preset", "linear", "--family", "power", "--alpha", "1.0"],
            ["fit", "--config", "c.json", "--schedule", "cosine", "--seed", "3", "--out", "b.vcqc"],
        ],
        ids=["schedule-family", "fit-seed"],
    )
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        assert main(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

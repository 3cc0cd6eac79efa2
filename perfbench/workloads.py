"""The benchmark's workloads: inputs built from a seed, the timed operation,
and the checks on its outputs.

Each workload has three parts:

* ``setup(seed, inputs, smoke)`` builds the inputs under ``inputs``.  It runs
  in the benchmark's parent process and is timed as ``setup_s``.
* ``load(seed, inputs, smoke)`` reads them back in the measuring process
  before timing starts and returns the state ``run`` needs.
* ``run(state, out)`` is one timed operation; ``check(state, result, out)``
  runs after the clock stops and returns the output digest and a list of
  failed invariants.

``smoke`` shrinks every input so the benchmark's own tests run in seconds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import vcqlab.cli
import vcqlab.corpus
import vcqlab.entropy
import vcqlab.generation
from vcqlab import toylab
from vcqlab.corpus import TokenCorpus
from vcqlab.schedule import SCHEDULE_PRESETS, codebook_sizes, schedule_from_json

ENTROPY_ROWS = 100_000
GUIDED_SAMPLES = 400
GUIDED_POLICY = {"scale": 3.0, "ramp": "cosine", "size_aware": True, "temperature": 1.0}


def experiment_config(seed: int, smoke: bool) -> dict:
    """The built-in desk config, or a tiny one with the same two arms."""
    config = toylab.default_experiment_config(seed)
    if smoke:
        config["dataset"].update(n_classes=3, n_per_class=24, image_size=16)
        config["encoder"]["dim"] = 4
        config["schedules"] = [
            {"name": "constant", "family": "constant", "k_min": 16, "k_max": 16, "length": 16},
            {"name": "cosine", "family": "cosine", "k_min": 2, "k_max": 16, "length": 16},
        ]
        config["codebook"]["epochs"] = 3
        config["model"]["max_order"] = 2
        config["generation"]["n_samples"] = 6
    return config


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


# -- experiment_default -------------------------------------------------------


def _experiment_setup(seed: int, inputs: Path, smoke: bool) -> None:
    config = experiment_config(seed, smoke)
    dataset = toylab.generate_dataset(toylab.SyntheticSpec(**config["dataset"]))
    np.save(inputs / "labels.npy", dataset.labels)
    (inputs / "config.json").write_text(json.dumps(config))


def _experiment_load(seed: int, inputs: Path, smoke: bool) -> dict:
    argv = ["experiment", "--seed", str(seed)]
    if smoke:
        # the CLI can shrink the experiment only through a config file
        argv = ["experiment", "--config", str(inputs / "config.json")]
    return {"argv": argv, "labels": np.load(inputs / "labels.npy")}


def _experiment_run(state: dict, out: Path):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = vcqlab.cli.main(state["argv"] + ["--out", str(out)])
    if code != 0:
        raise RuntimeError(f"vcqlab experiment exited {code}: {err.getvalue().strip()}")
    return None


def _experiment_check(state: dict, result, out: Path) -> tuple[str, list[str]]:
    files = sorted(p for p in out.iterdir() if p.is_file())
    digest = _digest(*(part for p in files for part in (p.name.encode(), p.read_bytes())))
    errors = []
    cliffs = {
        name: s["cliff_position"]
        for name, s in json.loads((out / "report.json").read_text())["schedules"].items()
    }
    if not cliffs["cosine"] > cliffs["constant"]:
        errors.append(f"cosine cliff {cliffs['cosine']} not after constant cliff {cliffs['constant']}")
    for name in cliffs:
        labels = vcqlab.corpus.read_corpus(out / f"corpus_{name}.vcqt").labels
        if not np.array_equal(labels, state["labels"]):
            errors.append(f"corpus_{name}.vcqt labels differ from the generated dataset")
    return digest, errors


# -- entropy_imagenet_row -----------------------------------------------------


def _entropy_setup(seed: int, inputs: Path, smoke: bool) -> None:
    schedule = SCHEDULE_PRESETS["cosine"]
    rows = 2_000 if smoke else ENTROPY_ROWS
    sizes = np.asarray(codebook_sizes(schedule))
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, sizes, size=(rows, schedule.length), dtype=np.uint32)
    vcqlab.corpus.write_corpus(TokenCorpus(tokens=tokens, k_max=schedule.k_max), inputs / "corpus.vcqt")


def _entropy_load(seed: int, inputs: Path, smoke: bool) -> dict:
    return {"path": inputs / "corpus.vcqt", "schedule": SCHEDULE_PRESETS["cosine"]}


def _entropy_run(state: dict, out: Path):
    corpus = vcqlab.corpus.read_corpus(state["path"])
    return vcqlab.entropy.analyze(corpus, state["schedule"])


def _entropy_check(state: dict, profile, out: Path) -> tuple[str, list[str]]:
    csv_path = out / "profile.csv"
    vcqlab.entropy.write_profile_csv(profile, csv_path)
    gap = abs(math.fsum(profile.conditional_bits) - profile.joint_bits)
    errors = [] if gap < 1e-9 else [f"chain-rule gap {gap!r} bits is not below 1e-9"]
    return _digest(csv_path.read_bytes()), errors


# -- guided_sampling ----------------------------------------------------------


def _cosine_arm(config: dict):
    item = dict(next(s for s in config["schedules"] if s["name"] == "cosine"))
    item.pop("name")
    return schedule_from_json(item)


def _guided_setup(seed: int, inputs: Path, smoke: bool) -> None:
    config = experiment_config(seed, smoke)
    schedule = _cosine_arm(config)
    dataset = toylab.generate_dataset(toylab.SyntheticSpec(**config["dataset"]))
    encoder = toylab.fit_encoder(
        dataset.images, patch_size=config["encoder"]["patch_size"], d=config["encoder"]["dim"]
    )
    latents = encoder.encode_images(dataset.images)
    codebook = toylab.fit_codebook(
        latents,
        schedule,
        k_max=schedule.k_max,
        d=encoder.dim,
        epochs=config["codebook"]["epochs"],
        decay=config["codebook"]["decay"],
        seed=config["codebook"]["seed"],
    )
    tokens = toylab.quantize_batch(latents, schedule, codebook)[0]
    corpus = TokenCorpus(tokens=tokens, k_max=codebook.k_max, labels=dataset.labels)
    vcqlab.corpus.write_corpus(corpus, inputs / "train.vcqt")


def _guided_load(seed: int, inputs: Path, smoke: bool) -> dict:
    config = experiment_config(seed, smoke)
    schedule = _cosine_arm(config)
    return {
        "training": vcqlab.corpus.read_corpus(inputs / "train.vcqt"),
        "schedule": schedule,
        "policy": vcqlab.generation.policy_from_json(GUIDED_POLICY, schedule),
        "max_order": config["model"]["max_order"],
        "n_samples": config["generation"]["n_samples"] if smoke else GUIDED_SAMPLES,
        "sample_seed": config["generation"]["seed"],
    }


def _guided_run(state: dict, out: Path):
    gen = vcqlab.generation
    model = gen.fit_counts(state["training"], state["schedule"], max_order=state["max_order"])
    generated = gen.sample_corpus(model, state["policy"], state["n_samples"], state["sample_seed"])
    return generated, gen.memorization_report(generated, state["training"])


def _guided_check(state: dict, result, out: Path) -> tuple[str, list[str]]:
    generated, memorization = result
    path = out / "generated.vcqt"
    vcqlab.corpus.write_corpus(generated, path)
    limits = np.asarray(codebook_sizes(state["schedule"]))
    errors = []
    if not np.all(generated.tokens < limits[None, :]):
        errors.append("a generated token is not below its position's K_t")
    return _digest(path.read_bytes(), repr(memorization).encode()), errors


@dataclass(frozen=True)
class Workload:
    name: str
    setup_repeats: int
    setup: Callable
    load: Callable
    run: Callable
    check: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "experiment_default",
            5,
            _experiment_setup,
            _experiment_load,
            _experiment_run,
            _experiment_check,
        ),
        Workload(
            "entropy_imagenet_row",
            3,
            _entropy_setup,
            _entropy_load,
            _entropy_run,
            _entropy_check,
        ),
        Workload(
            "guided_sampling",
            3,
            _guided_setup,
            _guided_load,
            _guided_run,
            _guided_check,
        ),
    )
}

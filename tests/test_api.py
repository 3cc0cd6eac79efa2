"""The public surface: every module's exports, and the option checks of the
stage functions a library caller reaches directly."""

import importlib
import pkgutil
import re

import numpy as np
import pytest

import vcqlab
from vcqlab.entropy import analyze
from vcqlab.generation import GuidancePolicy, fit_counts, sample_corpus
from vcqlab.quantizer import fit_codebook
from vcqlab.schedule import Family, Schedule
from vcqlab.toylab import fit_encoder

from conftest import random_corpus

MODULES = ["vcqlab"] + [f"vcqlab.{m.name}" for m in pkgutil.iter_modules(vcqlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


CORPUS = random_corpus(0, 12, 3, 4, labelled=True)
SCHED = Schedule(Family.CONSTANT, 4, 4, 3)
LATENTS = np.random.default_rng(0).normal(size=(6, 3, 2))

STAGES = {
    "fit_counts": lambda **options: fit_counts(CORPUS, SCHED, **options),
    "fit_codebook": lambda **options: fit_codebook(LATENTS, SCHED, k_max=4, d=2, **options),
    "sample_corpus": lambda **options: sample_corpus(
        fit_counts(CORPUS, SCHED), GuidancePolicy(SCHED), **options
    ),
    "analyze": lambda **options: analyze(CORPUS, SCHED, **options),
    "fit_encoder": lambda **options: fit_encoder(
        np.zeros((2, 8, 8)), **{"patch_size": 4, "d": 2, **options}
    ),
}


@pytest.mark.parametrize(
    "stage, option, value, message",
    [
        ("fit_counts", "max_order", True, "model.max_order must be an integer, got True"),
        ("fit_counts", "smoothing", True, "model.smoothing must be a number, got True"),
        ("fit_codebook", "epochs", True, "codebook.epochs must be an integer, got True"),
        ("fit_codebook", "epochs", 2.5, "codebook.epochs must be an integer, got 2.5"),
        ("sample_corpus", "seed", True, "generation.seed must be an integer, got True"),
        ("sample_corpus", "n_samples", 2.5, "generation.n_samples must be an integer, got 2.5"),
        ("analyze", "cliff_threshold", True, "analyze.cliff_threshold must be a number, got True"),
        ("fit_encoder", "patch_size", True, "encoder.patch_size must be an integer, got True"),
        # ranges come from the same tables as the config loader's
        ("fit_counts", "max_order", -1, "model.max_order must be >= 0, got -1"),
        ("fit_codebook", "decay", 1.5, "codebook.decay must be in (0, 1), got 1.5"),
        ("sample_corpus", "n_samples", 0, "generation.n_samples must be >= 1, got 0"),
        ("fit_encoder", "d", 0, "encoder.dim must be >= 1, got 0"),
    ],
)
def test_stage_options_are_checked(stage, option, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        STAGES[stage](**{option: value})


def test_integral_float_options_are_the_integers():
    a = fit_codebook(LATENTS, SCHED, k_max=4, d=2, epochs=2.0, seed=3.0)
    b = fit_codebook(LATENTS, SCHED, k_max=4, d=2, epochs=2, seed=3)
    assert a.entries.tobytes() == b.entries.tobytes()

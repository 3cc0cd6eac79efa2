"""The public surface: every module's exports, and the option checks of the
stage functions a library caller reaches directly."""

import importlib
import math
import pkgutil
import re

import numpy as np
import pytest

import vcqlab
from vcqlab.entropy import analyze, cliff_position
from vcqlab.generation import GuidancePolicy, fit_counts, sample_corpus
from vcqlab.quantizer import fit_codebook
from vcqlab.schedule import (
    SCHEDULE_PRESETS,
    Family,
    Schedule,
    capacity_report,
    data_threshold,
    tstar_uniform,
)
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


COSINE = SCHEDULE_PRESETS["cosine"]


CAPACITY_CALLS = {
    "capacity_report": lambda *args: capacity_report(COSINE, *args),
    "tstar_uniform": tstar_uniform,
    "data_threshold": data_threshold,
    "cliff_position": lambda threshold: cliff_position([1.0], threshold),
}


@pytest.mark.parametrize(
    "function, args, message",
    [
        ("capacity_report", (True,), "n_samples must be an integer, got True"),
        ("capacity_report", (2.5,), "n_samples must be an integer, got 2.5"),
        ("capacity_report", ("12",), "n_samples must be an integer, got '12'"),
        ("capacity_report", (0,), "n_samples must be >= 1, got 0"),
        ("capacity_report", (10, True), "pixel_count must be an integer, got True"),
        ("capacity_report", (10, 0.5), "pixel_count must be an integer, got 0.5"),
        ("tstar_uniform", (True, 16384), "n_samples must be an integer, got True"),
        ("tstar_uniform", (1000.5, 16384), "n_samples must be an integer, got 1000.5"),
        ("tstar_uniform", (1000, 2.5), "k must be an integer, got 2.5"),
        ("tstar_uniform", (1000, True), "k must be an integer, got True"),
        ("tstar_uniform", (1000, 1), "k must be >= 2 (log2 K vanishes at K=1), got 1"),
        ("data_threshold", (True, 2), "k must be an integer, got True"),
        ("data_threshold", (16384, 2.5), "m must be an integer, got 2.5"),
        ("data_threshold", (16384, 0), "m must be >= 1, got 0"),
        ("cliff_position", (True,), "threshold must be a number, got True"),
        ("cliff_position", ("1",), "threshold must be a number, got '1'"),
        ("cliff_position", (math.nan,), "threshold must be finite, got nan"),
        ("cliff_position", (0,), "threshold must be finite and > 0, got 0"),
    ],
)
def test_capacity_arguments_are_checked(function, args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        CAPACITY_CALLS[function](*args)


def test_integral_float_arguments_are_the_integers():
    report = capacity_report(COSINE, 1_281_167.0, pixel_count=65536.0)
    assert (report.n_samples, report.pixel_count) == (1_281_167, 65536)
    assert type(report.n_samples) is int and type(report.pixel_count) is int
    assert report == capacity_report(COSINE, 1_281_167)
    assert tstar_uniform(1_281_167.0, 16384.0) == 2
    assert data_threshold(16384.0, 3.0) == 268_435_456
    assert type(data_threshold(16384.0, 3.0)) is int


def test_integral_float_options_are_the_integers():
    a = fit_codebook(LATENTS, SCHED, k_max=4, d=2, epochs=2.0, seed=3.0)
    b = fit_codebook(LATENTS, SCHED, k_max=4, d=2, epochs=2, seed=3)
    assert a.entries.tobytes() == b.entries.tobytes()

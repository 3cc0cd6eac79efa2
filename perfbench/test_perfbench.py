"""Smoke tests of the benchmark itself: tiny inputs, one second per run.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# every metric the benchmark's defining issue names, end to end and per layer
NAMED_END_TO_END = {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
NAMED_PER_LAYER = {
    "toylab.generate_dataset_s", "toylab.fit_encoder_s", "toylab.encode_images_s",
    "toylab.reconstruction_metrics_s", "toylab.write_experiment_report_s", "toylab.self_s",
    "cli.overhead_s",
    "quantizer.fit_codebook.constant_s", "quantizer.fit_codebook.cosine_s",
    "quantizer.quantize_batch_s", "quantizer.distance_evals", "quantizer.fit_codebook.gflops",
    "corpus.read_corpus_s", "corpus.tokens_bytes", "corpus.write_corpus_s", "corpus.bytes_written",
    "entropy.analyze_s", "entropy.conditional_entropy_profile_s", "entropy.joint_entropy_s",
    "entropy.prop1_bounds_s", "entropy.utilization_profile_s", "entropy.self_s",
    "generation.fit_counts_s", "generation.memorization_report_s", "generation.sample_corpus_s",
    "generation.tokens_per_s", "generation.logits_calls", "generation.apply_guidance_calls",
    "schedule.codebook_size_at_calls",
    "trace.overhead_s",
}


def _smoke_args(workload: str, trace: int) -> argparse.Namespace:
    return argparse.Namespace(workload=workload, seed=3, seconds=1, trace=trace, smoke=True)


def _cli(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def test_benchmark_json_declares_every_named_metric():
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    assert NAMED_END_TO_END <= {m["name"] for m in SPEC["end_to_end"]}
    assert NAMED_PER_LAYER <= {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert "error_rate" in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_outputs_are_identical(workload):
    untraced = run.run(_smoke_args(workload, 0))
    traced = run.run(_smoke_args(workload, 1))
    assert traced["failed"] == 0 and untraced["failed"] == 0
    assert {op["traced"] for op in traced["ops"]} == {False, True}
    assert {op["digest"] for op in traced["ops"]} == {untraced["digest"]}
    # per-layer self times add up to the traced wall time
    for op in traced["ops"]:
        if op["traced"]:
            layers = op["layers"]
            parts = [v for k, v in layers.items() if k.endswith(".self_s")]
            assert sum(parts) + layers["cli.overhead_s"] == pytest.approx(layers["trace.wall_s"])


def test_wrong_reference_digest_counts_as_failure():
    workload = "entropy_imagenet_row"
    record = run.run(_smoke_args(workload, 0), reference={workload: {"3": "0" * 64}})
    assert record["attempted"] >= 1
    assert record["failed"] == record["attempted"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "guided_sampling", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

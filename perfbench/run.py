"""vcqlab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run builds the workload's inputs from
the seed (timed as setup_s, median of several builds), then measures in one
fresh process for about S seconds, checks every output, prints a table of
metrics with units, writes a result record under .perfbench/results/ and
prints, as its last line, the JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics; with
--trace 1 they are its per_layer metrics, from operations that alternate
untraced and traced.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOAD_NAMES = ("experiment_default", "entropy_imagenet_row", "guided_sampling")
DEFAULT_SEED = 0
# a run, set-up and measuring process together, must end within 180 s
DEADLINE_S = 175


def _declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _environment(nproc: int, blas_threads: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/loadavg") as fh:
        tasks = fh.read().split()[3]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "nproc": nproc,
        "loadavg_start": os.getloadavg(),
        "tasks_running_total": tasks,
    }


def _setup(workload, seed: int, inputs: Path, smoke: bool) -> list[float]:
    times = []
    for _ in range(workload.setup_repeats):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(seed, inputs, smoke)
        times.append(time.perf_counter() - start)
    return times


def _measure(args, workdir: Path, blas_threads: int, timeout: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
    payload = json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "workdir": str(workdir),
    })
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), payload],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    if done.returncode != 0:
        raise RuntimeError(f"measuring process exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _failures(ops: list[dict], first: str | None, reference: str | None) -> list[list[str]]:
    """Per operation, every reason it failed: its own errors plus a digest that
    differs from the reference or from the run's first digest."""
    out = []
    for op in ops:
        errors = list(op["errors"])
        digest = op.get("digest")
        if digest is not None and reference is not None and digest != reference:
            errors.append(f"output digest {digest[:12]} differs from reference {reference[:12]}")
        if digest is not None and digest != first:
            errors.append(f"output digest {digest[:12]} differs from this run's first {str(first)[:12]}")
        out.append(errors)
    return out


def _end_to_end(ops: list[dict], measured: dict, setup_times: list[float]) -> dict:
    return {
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "peak_rss_mb": measured["peak_rss_mb"],
        "setup_s": statistics.median(setup_times),
    }


def _per_layer(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"]]
    untraced = [op for op in ops if not op["traced"]]
    metrics = {
        key: statistics.median(op["layers"][key] for op in traced)
        for key in traced[0]["layers"]
    }
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        op["wall_s"] for op in untraced
    )
    return metrics


def run(args, reference: dict | None = None) -> dict:
    """Run one benchmark run and return its result record.

    ``reference`` maps workload -> seed -> expected output digest; by default
    perfbench/reference.json, consulted for full-size runs only.
    """
    from workloads import WORKLOADS

    if reference is None:
        reference = {} if args.smoke else json.loads((HERE / "reference.json").read_text())
    started = time.perf_counter()
    declared = _declared_metrics(args.trace)
    nproc = len(os.sched_getaffinity(0))
    blas_threads = min(int(os.environ.get("OPENBLAS_NUM_THREADS") or nproc), nproc)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "env": _environment(nproc, blas_threads)}
    workdir = STATE / f"work-{os.getpid()}"
    try:
        setup_times = _setup(WORKLOADS[args.workload], args.seed, workdir / "inputs", args.smoke)
        remaining = DEADLINE_S - (time.perf_counter() - started)
        measured = _measure(args, workdir, blas_threads, timeout=max(remaining, 1.0))
        if measured["spans"]:
            spans = STATE / "results" / f"{args.workload}-seed{args.seed}.spans.csv"
            spans.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(measured["spans"], spans)
            record["spans"] = str(spans.relative_to(ROOT))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = measured["ops"]
    expected = reference.get(args.workload, {}).get(str(args.seed))
    first = next((op["digest"] for op in ops if "digest" in op), None)
    failures = _failures(ops, first, expected)
    metrics = _per_layer(ops) if args.trace else _end_to_end(ops, measured, setup_times)
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json"
        )
    failed = sum(1 for errors in failures if errors)
    record.update(
        env_end={"loadavg": os.getloadavg()},
        setup_s=setup_times,
        ops=[dict(op, failures=errors) for op, errors in zip(ops, failures)],
        digest=first,
        reference_digest=expected,
        peak_rss_mb=measured["peak_rss_mb"],
        attempted=len(ops),
        failed=failed,
        metrics={name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    )
    return record


def _print_report(record: dict) -> None:
    env = record["env"]
    print(f"# {record['workload']} seed={record['seed']} seconds={record['seconds']} "
          f"trace={record['trace']}")
    print("# env " + json.dumps(env, sort_keys=True))
    walls = [op["wall_s"] for op in record["ops"]]
    steal = sum(op["steal_s"] for op in record["ops"])
    print(f"# operations {len(walls)}: wall_s min {min(walls):.4f} median "
          f"{statistics.median(walls):.4f} max {max(walls):.4f}; host steal {steal:.2f} s")
    for name, m in record["metrics"].items():
        print(f"{name:<40} {m['value']:>16.6g} {m['unit']}")
    rate = record["failed"] / record["attempted"]
    print(f"{'error_rate':<40} {rate:>16.6g} ratio  ({record['failed']}/{record['attempted']})")
    for i, op in enumerate(record["ops"]):
        for reason in op["failures"]:
            print(f"# FAILED operation {i}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (SRC / "vcqlab" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: {ROOT} holds no vcqlab sources under src/ or no BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args)
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    _print_report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

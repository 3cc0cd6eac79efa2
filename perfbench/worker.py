"""Measuring process: one fresh process per benchmark run, so that its peak
resident memory belongs to the workload.

    python3 perfbench/worker.py '{"workload": ..., "seed": ..., "seconds": ...,
                                  "trace": 0|1, "smoke": bool, "workdir": ...}'

It loads the inputs the parent built under ``workdir/inputs``, warms up,
then repeats the workload's operation until the next one would overrun
``seconds``.  With trace 1 operations alternate untraced and traced
(untraced first), and at least one of each runs.  The last line of stdout
is a JSON object with one entry per operation (wall, CPU and host steal
time, digest, errors) plus the process's peak RSS.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from spans import Tracer, layer_metrics, write_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    with open("/proc/stat") as fh:
        return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


def _warm_up() -> None:
    # starts the BLAS thread pool and faults in numpy's matmul path
    a = np.arange(64 * 64, dtype=np.float64).reshape(64, 64)
    (a @ a.T).sum()


def measure(workload: str, seed: int, seconds: float, trace: int, smoke: bool, workdir: Path) -> dict:
    w = WORKLOADS[workload]
    state = w.load(seed, workdir / "inputs", smoke)
    _warm_up()
    ops: list[dict] = []
    spans_path = None
    started = time.perf_counter()
    while True:
        traced = bool(trace) and len(ops) % 2 == 1
        out = workdir / f"out{len(ops)}"
        out.mkdir()
        tracer = Tracer() if traced else None
        op: dict = {"traced": traced, "errors": []}
        wall0, cpu0, steal0 = time.perf_counter(), time.process_time(), _steal_s()
        try:
            if tracer:
                with tracer:
                    result = tracer.span(f"bench.{workload}", w.run, state, out)
            else:
                result = w.run(state, out)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = None
            op["errors"].append(f"{type(exc).__name__}: {exc}")
        op["wall_s"] = time.perf_counter() - wall0
        op["cpu_s"] = time.process_time() - cpu0
        op["steal_s"] = _steal_s() - steal0
        if not op["errors"]:
            try:
                op["digest"], errors = w.check(state, result, out)
                op["errors"] += errors
            except Exception as exc:
                op["errors"].append(f"output check {type(exc).__name__}: {exc}")
        del result
        shutil.rmtree(out)
        if tracer:
            layers = op["layers"] = layer_metrics(tracer.spans, tracer.counters)
            own = sum(v for k, v in layers.items() if k.endswith(".self_s")) + layers["cli.overhead_s"]
            if abs(own - layers["trace.wall_s"]) > 1e-6:
                op["errors"].append(f"layer self times {own} s miss the traced wall time")
            spans_path = workdir / "spans.csv"
            write_spans(tracer.spans, spans_path)
        ops.append(op)
        elapsed = time.perf_counter() - started
        need_traced = trace and len(ops) < 2
        if not need_traced and elapsed + op["wall_s"] > seconds:
            break
    return {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": str(spans_path) if spans_path else None,
    }


if __name__ == "__main__":
    args = json.loads(sys.argv[1])
    args["workdir"] = Path(args["workdir"])
    print(json.dumps(measure(**args)))

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vcqlab
from vcqlab.corpus import TokenCorpus


def random_corpus(seed, n, length, k, labelled=False) -> TokenCorpus:
    rng = np.random.default_rng(seed)
    tokens = rng.integers(0, k, size=(n, length))
    labels = rng.integers(0, 4, size=n) if labelled else None
    return TokenCorpus(tokens=tokens, k_max=k, labels=labels)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def _haswell_runs() -> bool:
    """Whether ``OPENBLAS_CORETYPE=Haswell`` takes effect here: numpy on OpenBLAS, a CPU with AVX2."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        flags = Path("/proc/cpuinfo").read_text().split()
    except (TypeError, KeyError, OSError):
        return False
    return "openblas" in blas.lower() and "avx2" in flags


# OpenBLAS kernels a spin check runs under: the one this CPU picks (None), and
# Haswell's, the one AVX2 Intel and AMD Zen CPUs get, wherever this CPU can run it
BLAS_KERNELS = [None, "Haswell"] if _haswell_runs() else [None]


def blas_spins(kernel, setup: str, *calls: str) -> list[float]:
    """Process CPU seconds during a 0.2 s sleep after each of ``calls``, in a fresh process.

    The process runs the code ``setup``, then each call after a 0.3 s sleep
    that lets the workers of an earlier product fall idle, under the
    OpenBLAS core type ``kernel`` (None: the one this CPU picks).  An idle
    worker that spins after a threaded BLAS call shows up as CPU time.
    """
    measure = "time.sleep(0.3)\n{}\ncpu = time.process_time()\ntime.sleep(0.2)\nspins.append(time.process_time() - cpu)"
    script = "\n".join(["import json, time", setup, "spins = []", *map(measure.format, calls), "print(json.dumps(spins))"])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(vcqlab.__file__).parents[1])
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)

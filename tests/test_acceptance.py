"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 6 and 8 share one 10-seed sweep of the default desk-scale
experiment config (session fixture), which also carries the documented
cross-schedule invariants (PSNR ordering, joint-entropy ordering).
"""

import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from vcqlab.cli import main
from vcqlab.corpus import TokenCorpus, write_corpus
from vcqlab.entropy import (
    chain_rule_check,
    cliff_position,
    conditional_entropy_profile,
)
from vcqlab.generation import (
    GuidancePolicy,
    apply_guidance,
    fit_counts,
    logits,
    size_aware_scale,
)
from vcqlab.quantizer import Codebook, quantize_batch
from vcqlab.schedule import (
    SCHEDULE_PRESETS,
    Family,
    Schedule,
    capacity_report,
    tstar_vcq,
)
from vcqlab.toylab import (
    default_experiment_config,
    run_cliff_experiment,
    write_experiment_report,
)


def check(num: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def sweep():
    """10 seeded runs of the default experiment config (criteria 6 and 8)."""
    start = time.perf_counter()
    runs = []
    for seed in range(10):
        report = run_cliff_experiment(default_experiment_config(seed=seed))
        runs.append({r.name: r for r in report.results})
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_1_table1_reproduction(capsys):
    start = time.perf_counter()
    assert main(["tstar", "--json"]) == 0
    datasets = json.loads(capsys.readouterr().out)["datasets"]
    tstars = [row["tstar"] for row in datasets]
    assert main(["tstar", "--thresholds", "2..5", "--json"]) == 0
    thresholds = json.loads(capsys.readouterr().out)["thresholds"]
    values = [thresholds[str(m)] for m in range(2, 6)]
    elapsed = time.perf_counter() - start
    ok = (
        tstars == [2, 2, 2, 2, 3, 3]
        and values == [16384, 268435456, 4398046511104, 72057594037927936]
        and elapsed < 1.0
    )
    with capsys.disabled():
        check(1, ok, f"tstar={tstars} thresholds ok, {elapsed:.3f}s")


def test_criterion_2_schedule_table(capsys):
    start = time.perf_counter()
    expected = {
        "constant16k": (16384, 0.055),
        "constant8k": (8192, 0.051),
        "linear": (8193, 0.049),
        "cosine": (5964, 0.044),
        "power2.5": (4696, 0.041),
        "cosine-l": (4100, 0.042),
    }
    ok = True
    details = []
    for preset, (kbar, bpp) in expected.items():
        report = capacity_report(SCHEDULE_PRESETS[preset], n_samples=1_281_167)
        kbar_ok = abs(report.mean_codebook - kbar) <= 0.01 * kbar
        bpp_ok = abs(report.bpp - bpp) <= 0.002
        ok &= kbar_ok and bpp_ok
        details.append(f"{preset}:{report.mean_codebook:.0f}/{report.bpp:.4f}")
    # analytic t* targets: Linear 4, Constant 2 (concave rows documented, untested)
    ok &= tstar_vcq(SCHEDULE_PRESETS["linear"], 1_281_167) == 4
    ok &= tstar_vcq(SCHEDULE_PRESETS["constant16k"], 1_281_167) == 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    with capsys.disabled():
        check(2, ok, f"{' '.join(details)}, linear t*=4, constant t*=2, {elapsed:.3f}s")


def test_criterion_3_chain_rule(capsys):
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng((seed, 31))
        n = int(rng.integers(2, 4097))
        length = int(rng.integers(1, 65))
        k = int(rng.integers(2, 1025))
        corpus = TokenCorpus(tokens=rng.integers(0, k, size=(n, length)), k_max=k)
        _, _, diff = chain_rule_check(corpus)
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    with capsys.disabled():
        check(3, ok, f"100 corpora, worst |sum H_t - H_joint| = {worst:.2e}, {elapsed:.1f}s")


def _naive_entropy(counts) -> float:
    n = float(sum(counts))
    return -math.fsum((c / n) * math.log2(c / n) for c in counts)


def _naive_quadratic_profile(tokens: np.ndarray) -> list:
    n, length = tokens.shape
    out = []
    for t in range(length):
        prefixes = [tuple(tokens[i, :t].tolist()) for i in range(n)]
        done = [False] * n
        terms = []
        for i in range(n):
            if done[i]:
                continue
            members = [j for j in range(n) if prefixes[j] == prefixes[i]]
            for j in members:
                done[j] = True
            counts = Counter(int(tokens[j, t]) for j in members)
            terms.append((len(members) / n) * _naive_entropy(list(counts.values())))
        out.append(math.fsum(terms))
    return out


def test_criterion_4_entropy_oracle_equivalence(capsys):
    mismatches = 0
    for seed in range(50):
        rng = np.random.default_rng((seed, 41))
        n = int(rng.integers(2, 257))
        length = int(rng.integers(1, 9))
        k = int(rng.integers(2, 17))
        corpus = TokenCorpus(tokens=rng.integers(0, k, size=(n, length)), k_max=k)
        fast = conditional_entropy_profile(corpus)
        slow = _naive_quadratic_profile(corpus.tokens)
        if fast != slow:
            mismatches += 1
    ok = mismatches == 0
    with capsys.disabled():
        check(4, ok, f"50 corpora (N<=256, L<=8), {mismatches} estimator/oracle mismatches")


def _exhaustive_nearest(z, entries, k_t):
    best_i, best_d = None, None
    for i in range(k_t):
        d = 0.0
        for j in range(entries.shape[1]):
            diff = float(z[j]) - float(entries[i, j])
            d += diff * diff
        if best_d is None or d < best_d:
            best_i, best_d = i, d
    return best_i, best_d


def test_criterion_5_quantizer_oracle(capsys):
    rng = np.random.default_rng(51)
    cases = mismatches = 0
    while cases < 1000:
        k = int(rng.integers(1, 65))
        d = int(rng.integers(1, 9))
        entries = rng.normal(size=(k, d)).astype(np.float32)
        if cases % 4 == 0 and k >= 2:
            # construct ties by duplicating a row; lowest index must win
            src = int(rng.integers(0, k - 1))
            dst = int(rng.integers(src + 1, k))
            entries[dst] = entries[src]
        cb = Codebook(entries=entries)
        z = entries[rng.integers(0, k)].astype(np.float64) if cases % 4 == 0 else rng.normal(size=d)
        for k_t in range(1, k + 1):
            tokens, dists = quantize_batch(z[None, None], Schedule("constant", k_t, k_t, 1), cb)
            token, dist = tokens[0, 0], dists[0, 0]
            oracle_i, oracle_d = _exhaustive_nearest(z, cb.entries, k_t)
            if token != oracle_i or abs(dist - oracle_d) > 1e-9 * max(1.0, oracle_d):
                mismatches += 1
            cases += 1
            if cases >= 1000:
                break
    ok = mismatches == 0
    with capsys.disabled():
        check(5, ok, f"1000 cases incl. duplicated-row ties, {mismatches} mismatches")


def test_criterion_6_cliff_delay(sweep, capsys):
    runs, elapsed = sweep
    ge = strict = 0
    pairs = []
    for by in runs:
        c = by["constant"].profile.cliff_position
        q = by["cosine"].profile.cliff_position
        ge += q >= c
        strict += q > c
        pairs.append((c, q))
    # Eq. 1 check on high-utilization corpora: N = 2^b uniform tokens, K = 2^c
    eq1_ok = True
    for b, c_bits in [(10, 2), (12, 3), (12, 4), (9, 3), (10, 5)]:
        for seed in range(3):
            rng = np.random.default_rng((b, c_bits, seed))
            corpus = TokenCorpus(
                tokens=rng.integers(0, 2**c_bits, size=(2**b, 24)), k_max=2**c_bits
            )
            cliff = cliff_position(conditional_entropy_profile(corpus), 1.0)
            eq1_ok &= abs(cliff - math.ceil(b / c_bits)) <= 1
    ok = ge == 10 and strict >= 8 and eq1_ok and elapsed < 300.0
    with capsys.disabled():
        check(
            6,
            ok,
            f"cliff pairs (const, cosine)={pairs}, >= in {ge}/10, strict in "
            f"{strict}/10, Eq.1 within +-1: {eq1_ok}, sweep {elapsed:.0f}s",
        )


def test_criterion_7_cfg_identities(capsys):
    sched = Schedule(Family.COSINE, 2, 16384, 256)
    policy = GuidancePolicy(schedule=sched, scale=10.0, size_aware=True)
    endpoint_ok = (
        size_aware_scale(policy, 0) == 0.0 and size_aware_scale(policy, 255) == 10.0
    )
    # constant schedule: size-aware guided logits equal standard CFG to 1e-12
    const = Schedule(Family.CONSTANT, 2, 64, 8)
    rng = np.random.default_rng(71)
    rows = rng.integers(0, 64, size=(40, 8))
    corpus = TokenCorpus(tokens=rows, k_max=64, labels=rng.integers(0, 4, size=40))
    model = fit_counts(corpus, const)
    aware = GuidancePolicy(schedule=const, scale=7.5, size_aware=True)
    plain = GuidancePolicy(schedule=const, scale=7.5, size_aware=False)
    worst = 0.0
    for t, prefix in [(0, []), (3, [1, 2, 3]), (7, [0, 1, 2, 3, 4, 5, 6])]:
        cond = logits(model, 2, prefix, t)
        uncond = logits(model, None, prefix, t)
        g_aware = apply_guidance(cond, uncond, size_aware_scale(aware, t))
        g_plain = apply_guidance(cond, uncond, size_aware_scale(plain, t))
        finite = np.isfinite(g_aware)
        worst = max(worst, float(np.max(np.abs(g_aware[finite] - g_plain[finite]))))
        assert np.array_equal(np.isneginf(g_aware), np.isneginf(g_plain))
    ok = endpoint_ok and worst <= 1e-12
    with capsys.disabled():
        check(7, ok, f"s_t endpoints exact, constant-schedule CFG diff = {worst:.1e}")


def test_criterion_8_memorization_direction(sweep, capsys):
    runs, _ = sweep
    wins = 0
    pairs = []
    for by in runs:
        c = by["constant"].exact_match_rate
        q = by["cosine"].exact_match_rate
        wins += c > q
        pairs.append((round(c, 3), round(q, 3)))
    ok = wins >= 8
    with capsys.disabled():
        check(8, ok, f"exact-match (const, cosine)={pairs}, constant higher in {wins}/10")


def test_sweep_invariants_psnr_and_joint_ordering(sweep, capsys):
    # documented cross-schedule invariants at the default desk scale
    runs, _ = sweep
    psnr_ok = all(by["constant"].psnr >= by["cosine"].psnr for by in runs)
    joint_ok = all(
        by["constant"].profile.joint_bits >= by["cosine"].profile.joint_bits - 1e-9
        for by in runs
    )
    with capsys.disabled():
        print(
            f"[invariants] PSNR ordering {psnr_ok} (10/10 seeds), "
            f"joint-entropy ordering {joint_ok} (10/10 seeds)"
        )
    assert psnr_ok and joint_ok


def test_criterion_9_determinism(tmp_path, capsys):
    config = default_experiment_config(seed=5)
    config["dataset"]["n_per_class"] = 40  # full pipeline, reduced size
    config["generation"]["n_samples"] = 50
    dirs = []
    for name in ("run_a", "run_b"):
        out = tmp_path / name
        write_experiment_report(run_cliff_experiment(config), out)
        dirs.append(out)
    identical = []
    for path in sorted(dirs[0].iterdir()):
        same = path.read_bytes() == (dirs[1] / path.name).read_bytes()
        identical.append((path.name, same))
    files_ok = all(same for _, same in identical)

    # CLI generate twice with one seed must be byte-identical too
    sched = {"family": "cosine", "k_min": 2, "k_max": 64, "length": 16}
    rng = np.random.default_rng(91)
    from vcqlab.schedule import codebook_sizes, schedule_from_json

    sizes = codebook_sizes(schedule_from_json(sched))
    rows = np.stack([rng.integers(0, k, size=60) for k in sizes], axis=1)
    train = TokenCorpus(tokens=rows, k_max=64, labels=rng.integers(0, 3, size=60))
    train_path = tmp_path / "train.vcqt"
    write_corpus(train, train_path)
    for name in ("g1.vcqt", "g2.vcqt"):
        assert main([
            "generate", "--corpus", str(train_path), "--schedule", json.dumps(sched),
            "--policy", '{"scale": 2.0, "temperature": 1.1}',
            "--n", "20", "--seed", "17", "--out", str(tmp_path / name),
        ]) == 0
    gen_ok = (tmp_path / "g1.vcqt").read_bytes() == (tmp_path / "g2.vcqt").read_bytes()
    ok = files_ok and gen_ok
    with capsys.disabled():
        check(9, ok, f"report files identical: {files_ok}, CLI generate identical: {gen_ok}")

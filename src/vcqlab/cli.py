"""Command-line surface.

Subcommands: schedule, tstar, fit, tokenize, analyze, generate,
memorization, experiment.  All commands are non-interactive; tables print
to stdout and are also available as JSON.  Exit codes: 0 success, 1 usage
error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import entropy as entropy_mod
from . import generation as gen_mod
from . import quantizer as quant_mod
from . import toylab
from .corpus import atomic_write, read_corpus, write_corpus
from .schedule import (
    SCHEDULE_PRESETS,
    Schedule,
    capacity_report,
    capacity_summary,
    check_fields,
    config_int,
    data_threshold,
    schedule_from_json,
    schedule_to_json,
    tstar_uniform,
    write_capacity_csv,
)

# The six standard dataset rows: (name, N) under K=16384.
DATASET_TABLE = [
    ("CIFAR-10/100", 50_000),
    ("COCO", 118_287),
    ("ImageNet-1K", 1_281_167),
    ("CC12M", 12_000_000),
    ("LAION-400M", 400_000_000),
    ("LAION-5B", 5_000_000_000),
]
DEFAULT_K = 16384


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so main() owns exit codes."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _resolve_schedule(value: str) -> Schedule:
    """A schedule argument is a preset name, a JSON file path, or inline JSON."""
    if value in SCHEDULE_PRESETS:
        return SCHEDULE_PRESETS[value]
    if value.lstrip().startswith("{") or Path(value).exists():
        return schedule_from_json(_load_json_arg(value))
    raise UsageError(
        f"unknown schedule {value!r}: not a preset "
        f"({', '.join(SCHEDULE_PRESETS)}), file, or inline JSON"
    )


def _load_json_arg(value: str):
    """Inline JSON (an object, or a list that names no file) or a path to a JSON file."""
    text = value.lstrip()
    if text.startswith("{") or (text.startswith("[") and not Path(value).exists()):
        return json.loads(value)
    return json.loads(Path(value).read_text())


def _given(args, *names) -> dict:
    """The options among ``names`` the user set, so the library's defaults apply to the rest."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _emit(args, data: dict, lines: list[str]) -> int:
    """Print ``data`` as JSON (--json) or ``lines`` as text, then write the JSON to --out if given."""
    text = json.dumps(data, indent=2, sort_keys=True)
    print(text if args.json else "\n".join(lines))
    if args.out:
        atomic_write(args.out, [(text + "\n").encode()])
    return 0


def _fmt(x: float, digits: int = 4) -> str:
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return f"{x:.{digits}f}" if isinstance(x, float) else str(x)


def cmd_schedule(args) -> int:
    schedule = _resolve_schedule(args.preset)
    report = capacity_report(schedule, n_samples=args.n, pixel_count=args.pixels)
    summary = capacity_summary(report)
    summary["schedule"] = schedule_to_json(schedule)
    if args.csv:
        write_capacity_csv(report, args.csv)
    lines = [
        f"family        {schedule.family.value}",
        f"K_min         {schedule.k_min}",
        f"K_max         {schedule.k_max}",
        f"length        {schedule.length}",
        f"mean_codebook {_fmt(report.mean_codebook, 2)}",
        f"bpp           {_fmt(report.bpp)}",
        f"total_bits    {_fmt(report.cumulative[-1], 2)}",
        f"tstar_vcq     {report.tstar_vcq}  (N={args.n})",
    ]
    return _emit(args, summary, lines)


def _parse_threshold_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"--thresholds expects M..M (e.g. 2..5), got {text!r}") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"--thresholds range {text!r} is empty or invalid")
    return lo, hi


def _largest_printable_m(k: int, digits: int) -> int:
    """Largest M whose N_required = k**(M-1) has at most ``digits`` digits.

    k**e has floor(e·log10 k) + 1 digits, so the largest e is the largest
    with k**e < 10**digits, found exactly in integers from a float guess.
    """
    bound = 10**digits
    e = int(digits / math.log10(k))
    while k**e >= bound:
        e -= 1
    while k ** (e + 1) < bound:
        e += 1
    return e + 1


def cmd_tstar(args) -> int:
    k = args.k
    out: dict = {"k": k}
    if args.n is not None:
        value = tstar_uniform(args.n, k)
        out["n"] = args.n
        out["tstar"] = value
        return _emit(args, out, [str(value)])
    if args.thresholds:
        lo, hi = _parse_threshold_range(args.thresholds)
        # Python prints no integer beyond sys.get_int_max_str_digits() digits
        # (4300 by default; taken as 4300 where the limit is off or missing),
        # so M is refused before any k**(M-1) is built; data_threshold checks k
        digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
        if k >= 2 and hi > (largest := _largest_printable_m(k, digits)):
            raise ValueError(
                f"--thresholds {args.thresholds}: M must be at most {largest} at K={k}, "
                f"since N_required = K**(M-1) would have more than {digits} digits"
            )
        rows = [(m, data_threshold(k, m)) for m in range(lo, hi + 1)]
        out["thresholds"] = {str(m): n for m, n in rows}
        lines = [f"{'t*':>4}  {'N_required':>22}"] + [f"{m:>4}  {n:>22}" for m, n in rows]
        return _emit(args, out, lines)
    if args.datasets:
        try:
            pairs = json.loads(args.datasets)
            if not isinstance(pairs, list) or not pairs:
                raise TypeError
            table = [(str(name), config_int(n, "N")) for name, n in pairs]
        except (TypeError, ValueError, json.JSONDecodeError):
            raise UsageError("--datasets expects a JSON list of [name, N] pairs") from None
    else:
        table = DATASET_TABLE
    # tstar_uniform checks N before math.log2 sees it
    rows = [(name, n, tstar_uniform(n, k), math.log2(n)) for name, n in table]
    out["datasets"] = [
        {"name": name, "n": n, "log2_n": log_n, "tstar": t} for name, n, t, log_n in rows
    ]
    lines = [f"{'dataset':<14} {'N':>12} {'log2 N':>7} {'t*':>3}"]
    lines += [f"{name:<14} {n:>12} {log_n:>7.1f} {t:>3}" for name, n, t, log_n in rows]
    return _emit(args, out, lines)


def cmd_fit(args) -> int:
    config = toylab.load_config(_load_json_arg(args.config))
    schedule = _resolve_schedule(args.schedule)
    _, encoder, latents = toylab.build_inputs(config)
    codebook = quant_mod.fit_codebook(
        latents, schedule, k_max=schedule.k_max, d=encoder.dim, **config["codebook"]
    )
    quant_mod.write_codebook(codebook, args.out)
    print(f"wrote codebook ({codebook.k_max} x {codebook.dim}) to {args.out}")
    return 0


def cmd_tokenize(args) -> int:
    config = toylab.load_config(_load_json_arg(args.config))
    schedule = _resolve_schedule(args.schedule)
    codebook = quant_mod.read_codebook(args.codebook)
    dataset, _, latents = toylab.build_inputs(config)
    corpus = toylab.tokenize_dataset(latents, dataset.labels, schedule, codebook)
    write_corpus(corpus, args.out)
    print(f"wrote corpus ({corpus.n_samples} x {corpus.length}) to {args.out}")
    return 0


def cmd_analyze(args) -> int:
    corpus = read_corpus(args.corpus)
    schedule = _resolve_schedule(args.schedule) if args.schedule else None
    profile = entropy_mod.analyze(corpus, schedule, **_given(args, "cliff_threshold"))
    summary = entropy_mod.profile_summary(profile)
    if args.csv:
        entropy_mod.write_profile_csv(profile, args.csv)
    head = ", ".join(_fmt(h) for h in profile.conditional_bits[:8])
    lines = [
        f"n_samples      {summary['n_samples']}",
        f"length         {summary['length']}",
        f"joint_bits     {_fmt(summary['joint_bits'])}",
        f"cliff_position {summary['cliff_position']} (threshold {profile.cliff_threshold})",
        f"H(x_t|x_<t)    [{head}{', ...' if len(profile.conditional_bits) > 8 else ''}]",
    ]
    return _emit(args, summary, lines)


def cmd_generate(args) -> int:
    # --n and --seed are checked before the count model is fitted, not after
    sampling = {"n_samples": args.n, "seed": args.seed}
    check_fields(sampling, "generation", gen_mod.SAMPLE_FIELDS, ranges=gen_mod.SAMPLE_RANGES)
    corpus = read_corpus(args.corpus)
    schedule = _resolve_schedule(args.schedule)
    policy = gen_mod.policy_from_json(_load_json_arg(args.policy), schedule)
    model = gen_mod.fit_counts(corpus, schedule, **_given(args, "max_order", "smoothing"))
    generated = gen_mod.sample_corpus(model, policy, n_samples=args.n, seed=args.seed)
    write_corpus(generated, args.out)
    print(f"wrote {generated.n_samples} sampled sequences to {args.out}")
    return 0


def cmd_memorization(args) -> int:
    generated = read_corpus(args.generated)
    training = read_corpus(args.training)
    exact, longest = gen_mod.memorization_report(generated, training)
    report = {"exact_match_rate": exact, "mean_longest_prefix": longest}
    lines = [f"exact_match_rate    {_fmt(exact)}", f"mean_longest_prefix {_fmt(longest)}"]
    return _emit(args, report, lines)


def cmd_experiment(args) -> int:
    if args.config:
        if args.seed is not None:
            raise UsageError("experiment: --seed applies to the built-in config, not to --config")
        config = _load_json_arg(args.config)
    else:
        config = toylab.default_experiment_config(seed=args.seed or 0)
    # a report directory that cannot be made is refused before the first stage, not after the last
    out = Path(args.out)
    if not (existing := next(p for p in (out, *out.parents) if p.exists())).is_dir():
        raise ValueError(f"--out {args.out}: {existing} exists and is not a directory")
    report = toylab.run_cliff_experiment(config)
    toylab.write_experiment_report(report, args.out)
    for r in report.results:
        print(
            f"{r.name:<12} cliff={r.profile.cliff_position:<3} "
            f"tstar={r.tstar_analytic:<3} psnr={_fmt(r.psnr, 2)} "
            f"exact_match={_fmt(r.exact_match_rate)}"
        )
    print(f"report written to {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="vcqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schedule", help="evaluate a schedule's capacity table")
    p.add_argument(
        "--preset",
        required=True,
        help=f"preset name ({', '.join(SCHEDULE_PRESETS)}), schedule JSON file or inline JSON",
    )
    p.add_argument("--n", type=int, default=1_281_167, help="dataset size for t*")
    p.add_argument("--pixels", type=int, default=65536)
    p.add_argument("--csv", help="write the per-position curve to this CSV file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON summary to this file")
    p.set_defaults(fn=cmd_schedule)

    p = sub.add_parser("tstar", help="entropy-cliff positions and data thresholds")
    p.add_argument("--k", type=int, default=DEFAULT_K)
    query = p.add_mutually_exclusive_group()
    query.add_argument("--n", type=int, help="dataset size for a single query")
    query.add_argument("--thresholds", help="range M..M of target t* values, e.g. 2..5")
    query.add_argument("--datasets", help='JSON list of [name, N] pairs replacing the built-in table')
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON table to this file")
    p.set_defaults(fn=cmd_tstar)

    p = sub.add_parser("fit", help="fit a codebook on a procedural dataset")
    p.add_argument("--config", required=True, help="experiment config JSON (dataset/encoder/codebook)")
    p.add_argument("--schedule", required=True, help="preset name or schedule JSON")
    p.add_argument("--out", required=True, help="output .vcqc path")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("tokenize", help="tokenize a procedural dataset with a codebook")
    p.add_argument("--config", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--codebook", required=True, help=".vcqc file")
    p.add_argument("--out", required=True, help="output .vcqt path")
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("analyze", help="per-position conditional entropy of a corpus")
    p.add_argument("--corpus", required=True, help=".vcqt file")
    p.add_argument("--schedule", help="preset name or schedule JSON (default: uniform at k_max)")
    p.add_argument(
        "--threshold", type=float, dest="cliff_threshold", help="cliff threshold in bits"
    )
    p.add_argument("--csv", help="write the per-position profile to this CSV file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON summary to this file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("generate", help="sample sequences from a count model")
    p.add_argument("--corpus", required=True, help="training corpus .vcqt")
    p.add_argument("--schedule", required=True)
    p.add_argument("--policy", required=True, help='inline JSON or file, e.g. \'{"scale": 2.0}\'')
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-order", type=int, help="longest context order")
    p.add_argument("--smoothing", type=float, help="smoothing mass of the back-off")
    p.add_argument("--out", required=True, help="output .vcqt path")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("memorization", help="compare generated sequences to training data")
    p.add_argument("--generated", required=True, help=".vcqt file")
    p.add_argument("--training", required=True, help=".vcqt file")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out", help="write the JSON report to this file")
    p.set_defaults(fn=cmd_memorization)

    p = sub.add_parser("experiment", help="run the end-to-end cliff experiment")
    p.add_argument("--config", help="experiment config JSON (default: built-in desk config)")
    p.add_argument("--seed", type=int, help="seed for the built-in default config")
    p.add_argument("--out", required=True, help="report directory")
    p.set_defaults(fn=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, KeyError, OSError, RuntimeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

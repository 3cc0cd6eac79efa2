"""In-memory span tracing around the module attributes vcqlab's callers resolve.

A span is one wrapped call: name, start, end and the index of the span that
was open when it began.  Wrapping replaces a module (or class) attribute for
the duration of a ``with Tracer(...)`` block and restores it afterwards, so
vcqlab itself carries no tracing code.  A layer is the part of a span name
before the first dot.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable

import vcqlab.cli
import vcqlab.corpus
import vcqlab.entropy
import vcqlab.generation
import vcqlab.schedule
import vcqlab.toylab


def _fit_codebook_name(args, kwargs) -> str:
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    return f"quantizer.fit_codebook.{schedule.family.value}"


def _fit_codebook_counts(args, kwargs, result) -> dict:
    latents, schedule = args[0], (args[1] if len(args) > 1 else kwargs["schedule"])
    epochs = kwargs.get("epochs", args[4] if len(args) > 4 else 20)
    n, _, d = latents.shape
    evals = epochs * n * sum(vcqlab.schedule.codebook_sizes(schedule))
    return {"quantizer.distance_evals": evals, "quantizer.fit_codebook.flops": 2 * d * evals}


def _write_corpus_counts(args, kwargs, result) -> dict:
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"corpus.bytes_written": os.path.getsize(path)}


def _read_corpus_counts(args, kwargs, result) -> dict:
    return {"corpus.tokens_bytes": result.tokens.nbytes}


def _sample_corpus_counts(args, kwargs, result) -> dict:
    return {"generation.tokens_sampled": result.tokens.size}


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``.

    ``namer`` derives the span name from the call's arguments instead;
    ``counter`` returns counter increments from arguments and result.
    """

    owner: object
    attr: str
    name: str
    namer: Callable | None = None
    counter: Callable | None = None


_tl, _en, _gen = vcqlab.toylab, vcqlab.entropy, vcqlab.generation

# Callers resolve these names at call time: cli -> toylab module attributes;
# run_cliff_experiment -> names toylab imported; analyze -> entropy globals;
# sample_sequence/logits -> generation globals.  The benchmark's own calls go
# through vcqlab.corpus / vcqlab.entropy / vcqlab.generation attributes.
TARGETS = (
    Target(vcqlab.cli, "main", "cli.main"),
    Target(_tl, "run_cliff_experiment", "toylab.run_cliff_experiment"),
    Target(_tl, "write_experiment_report", "toylab.write_experiment_report"),
    Target(_tl, "generate_dataset", "toylab.generate_dataset"),
    Target(_tl, "fit_encoder", "toylab.fit_encoder"),
    Target(_tl.LinearEncoder, "encode_images", "toylab.encode_images"),
    Target(_tl, "reconstruction_metrics", "toylab.reconstruction_metrics"),
    Target(_tl, "fit_codebook", "", _fit_codebook_name, _fit_codebook_counts),
    Target(_tl, "quantize_batch", "quantizer.quantize_batch"),
    Target(_tl, "write_corpus", "corpus.write_corpus", counter=_write_corpus_counts),
    Target(_tl, "analyze", "entropy.analyze"),
    Target(_tl, "fit_counts", "generation.fit_counts"),
    Target(_tl, "sample_corpus", "generation.sample_corpus", counter=_sample_corpus_counts),
    Target(_tl, "memorization_report", "generation.memorization_report"),
    Target(vcqlab.corpus, "read_corpus", "corpus.read_corpus", counter=_read_corpus_counts),
    Target(_en, "analyze", "entropy.analyze"),
    Target(_en, "conditional_entropy_profile", "entropy.conditional_entropy_profile"),
    Target(_en, "joint_entropy", "entropy.joint_entropy"),
    Target(_en, "prop1_bounds", "entropy.prop1_bounds"),
    Target(_en, "utilization_profile", "entropy.utilization_profile"),
    Target(_gen, "fit_counts", "generation.fit_counts"),
    Target(_gen, "sample_corpus", "generation.sample_corpus", counter=_sample_corpus_counts),
    Target(_gen, "memorization_report", "generation.memorization_report"),
    Target(_gen, "logits", "generation.logits"),
    Target(_gen, "apply_guidance", "generation.apply_guidance"),
    Target(_gen, "codebook_size_at", "schedule.codebook_size_at"),
)


class Tracer:
    """Records spans for every call to ``targets`` while the block is open.

    ``spans`` holds ``[name, start, end, parent]`` lists (perf_counter
    seconds; parent -1 for a root) and ``counters`` the summed counter
    increments.  Both stay in memory until the caller writes them out.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._wrap(Target(None, "", name), fn)(*args, **kwargs)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        spans, opened = self.spans, self._open

        def traced(*args, **kwargs):
            name = target.namer(args, kwargs) if target.namer else target.name
            record = [name, 0.0, 0.0, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                opened.pop()
            if target.counter:
                for key, value in target.counter(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            original = getattr(target.owner, target.attr)
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def write_spans(spans: list[list], path) -> None:
    """CSV of name, start, end (seconds from the first span's start), parent."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("name,start_s,end_s,parent\n")
        for name, start, end, parent in spans:
            fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},{parent}\n")


# spans whose summed duration is reported as "<name>_s"
TIMED = (
    "toylab.generate_dataset",
    "toylab.fit_encoder",
    "toylab.encode_images",
    "toylab.reconstruction_metrics",
    "toylab.write_experiment_report",
    "quantizer.fit_codebook.constant",
    "quantizer.fit_codebook.cosine",
    "quantizer.quantize_batch",
    "corpus.read_corpus",
    "corpus.write_corpus",
    "entropy.analyze",
    "entropy.conditional_entropy_profile",
    "entropy.joint_entropy",
    "entropy.prop1_bounds",
    "entropy.utilization_profile",
    "generation.fit_counts",
    "generation.memorization_report",
    "generation.sample_corpus",
)
# spans whose number of calls is reported as "<name>_calls"
COUNTED = ("generation.logits", "generation.apply_guidance", "schedule.codebook_size_at")
# layers whose summed self time is reported as "<layer>.self_s"; the cli
# layer's self time is reported as cli.overhead_s
LAYERS = ("toylab", "quantizer", "corpus", "entropy", "generation", "schedule", "bench")
COUNTERS = ("quantizer.distance_evals", "corpus.tokens_bytes", "corpus.bytes_written")


def layer_metrics(spans: list[list], counters: dict) -> dict[str, float]:
    """Per-layer metrics of one traced operation (one root span)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own: dict[str, float] = {}
    for (name, start, end, _), own_s in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        own[layer] = own.get(layer, 0.0) + own_s
    out = {f"{name}_s": total.get(name, 0.0) for name in TIMED}
    out.update({f"{name}_calls": calls.get(name, 0) for name in COUNTED})
    out.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    out["cli.overhead_s"] = own.get("cli", 0.0)
    out.update({key: counters.get(key, 0) for key in COUNTERS})
    fit_s = sum(s for name, s in total.items() if name.startswith("quantizer.fit_codebook."))
    flops = counters.get("quantizer.fit_codebook.flops", 0)
    out["quantizer.fit_codebook.gflops"] = flops / fit_s / 1e9 if fit_s else 0.0
    sample_s = total.get("generation.sample_corpus", 0.0)
    sampled = counters.get("generation.tokens_sampled", 0)
    out["generation.tokens_per_s"] = sampled / sample_s if sample_s else 0.0
    out["trace.wall_s"] = sum(end - start for _, start, end, parent in spans if parent < 0)
    return out

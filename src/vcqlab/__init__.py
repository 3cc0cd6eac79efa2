"""vcqlab: a desk-scale laboratory for variable-codebook-size quantization.

Schedules map token position to codebook size; the quantizer restricts
nearest-neighbor search to the first K_t entries of one shared codebook;
the entropy module measures exact per-position conditional entropy of
token corpora; generation provides a count-based autoregressive model with
size-aware classifier-free guidance; toylab wires everything into
reproducible end-to-end experiments.
"""

from .corpus import TokenCorpus, read_corpus, write_corpus
from .entropy import (
    EntropyProfile,
    analyze,
    cliff_position,
    conditional_entropy_profile,
    joint_entropy,
    prop1_bounds,
    utilization_profile,
)
from .generation import (
    CountModel,
    GuidancePolicy,
    apply_guidance,
    fit_counts,
    logits,
    memorization_report,
    sample_corpus,
    size_aware_scale,
)
from .quantizer import (
    Codebook,
    decode,
    fit_codebook,
    read_codebook,
    write_codebook,
)
from .schedule import (
    CapacityReport,
    Family,
    Schedule,
    SCHEDULE_PRESETS,
    capacity_report,
    codebook_size_at,
    data_threshold,
    tstar_uniform,
    tstar_vcq,
)
from .toylab import (
    Dataset,
    LinearEncoder,
    SyntheticSpec,
    default_experiment_config,
    fit_encoder,
    generate_dataset,
    reconstruction_metrics,
    run_cliff_experiment,
    tokenize_dataset,
    write_experiment_report,
)

__version__ = "0.1.0"

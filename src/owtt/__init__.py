"""Open-world test-time training over feature-vector streams.

A deterministic streaming engine combining adaptive strong-OOD rejection,
dynamic prototype expansion, prototype-clustering self-training, and
Gaussian distribution alignment, plus a synthetic open-world benchmark
generator and an experiment CLI.
"""

from .adapter import AdapterState, embed_backward, embed_batch, init_adapter, sgd_momentum_step
from .datagen import (
    Batch,
    WorldSpec,
    export_stream,
    generate_source,
    generate_stream,
    load_stream,
)
from .engine import (
    NO_REJECT_TAU,
    Engine,
    PredictionRecord,
    RunConfig,
    RunResult,
    StageFailure,
    TraceRow,
    select_confident,
)
from .experiment import (
    ExperimentConfig,
    config_hash,
    load_experiment,
    run_experiment,
    run_sweep,
    write_report,
)
from .errors import (
    ConfigError,
    DegenerateEmbedding,
    EmptyClass,
    EmptyEstimate,
    EmptyNovelPool,
    EmptyPrototypeSet,
    EmptyRecords,
    EmptyWindow,
    InvalidSpec,
    MissingArtifacts,
    MissingPopulation,
    NonFiniteGradient,
    NonFiniteInput,
    NumericalFailure,
    OwttError,
    UnknownLabel,
)
from .metrics import (
    REJECT,
    MetricsReport,
    compute_metrics,
    score_histogram,
    score_separation,
)
from .objective import (
    GaussianStats,
    LossBundle,
    clustering_loss,
    clustering_loss_gradient,
    fit_gaussian,
    kl_divergence,
    kl_gradient,
    update_target_stats,
)
from .prototypes import (
    PrototypePool,
    build_source_prototypes,
    expand,
    load_pool,
    momentum_update_novel,
    save_pool,
)
from .scoring import (
    ScoreWindow,
    ThresholdEstimate,
    adaptive_threshold,
    batch_discrete_scores,
    batch_ood_scores,
    ood_score,
)

__version__ = "0.1.0"

"""Open-world test-time training over feature-vector streams.

A deterministic streaming engine combining adaptive strong-OOD rejection,
dynamic prototype expansion, prototype-clustering self-training, and
Gaussian distribution alignment, plus a synthetic open-world benchmark
generator and an experiment CLI.
Stage helpers are imported from their modules (``owtt.prototypes.expand``).
"""

from .datagen import (
    Batch,
    WorldSpec,
    export_stream,
    generate_source,
    generate_stream,
    load_stream,
)
from .engine import Engine, RunConfig, RunResult, StageFailure
from .experiment import (
    ExperimentConfig,
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
from .metrics import REJECT
from .prototypes import load_pool, save_pool

__version__ = "0.1.0"

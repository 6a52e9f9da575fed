"""Exception types shared across the engine."""


class OwttError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateEmbedding(OwttError):
    """Adapter output collapsed to (near) zero norm; the run cannot continue."""


class NonFiniteInput(OwttError):
    """An input row or a score held a NaN or infinite value."""


class NonFiniteGradient(OwttError):
    """A gradient contained NaN or inf entries."""


class EmptyPrototypeSet(OwttError):
    """Scoring was attempted against an empty source prototype set."""


class EmptyEstimate(OwttError):
    """A divergence was asked of a Gaussian estimate that holds no samples."""


class EmptyClass(OwttError):
    """A class id had no samples when building source prototypes."""

    def __init__(self, class_id: int):
        super().__init__(f"class {class_id} has no samples")
        self.class_id = class_id

    def __reduce__(self):  # Exception pickles only args, which hold the message
        return type(self), (self.class_id,)


class EmptyNovelPool(OwttError):
    """A novel-prototype operation was attempted on an empty pool."""


class UnknownLabel(OwttError):
    """A pseudo-label referenced a prototype that does not exist."""


class NumericalFailure(OwttError):
    """A covariance matrix was not positive-definite after regularization."""


class EmptyRecords(OwttError):
    """Metrics were requested for an empty prediction log."""


class MissingPopulation(OwttError):
    """Score separation needs both weak and strong populations present."""


class InvalidSpec(OwttError):
    """A world specification, stream file or pool checkpoint failed validation."""


class ConfigError(OwttError):
    """An experiment configuration failed validation."""


class MissingArtifacts(OwttError):
    """A report was requested from a directory without run artifacts."""

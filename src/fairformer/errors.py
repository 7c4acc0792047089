"""Exception and warning types shared across the package."""


class FairformerError(Exception):
    """Base class for all package-specific errors."""


class SchemaError(FairformerError):
    """A dataset column violates the declared schema (e.g. non-binary sensitive column)."""


class IngestionError(FairformerError):
    """A node or edge file is malformed (dangling endpoints, non-numeric features, ...)."""


class SplitError(FairformerError):
    """A train/val/test split cannot be built under the requested constraints."""


class ConvergenceError(FairformerError):
    """An iterative eigensolver failed to reach the requested residual."""


class SpectralGapError(FairformerError):
    """The strict |lambda_1| > |lambda_2| precondition does not hold."""


class UndefinedCosineError(FairformerError):
    """Cosine alignment is undefined (a zero sensitive column)."""


class UndefinedMetricError(FairformerError):
    """A metric is undefined for the given inputs (empty group, single-class labels)."""


class ModelError(FairformerError):
    """Forward-pass failure, e.g. non-finite activations, with layer context."""


class TrainingError(FairformerError):
    """Training aborted, e.g. loss diverged to NaN."""


class TieWarning(UserWarning):
    """Eigenvalue magnitudes tie at the selection cut; the returned basis is seed-dependent."""


class DegenerateSpectrumWarning(UserWarning):
    """The Laplacian kernel is larger than the requested selection can avoid."""

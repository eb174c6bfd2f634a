"""Exception hierarchy shared across the package.

Every error raised by library code derives from FfusionError so callers
(and the CLI) can separate expected failure modes from genuine bugs.
"""


class FfusionError(Exception):
    """Base class for all package errors."""


class ConfigError(FfusionError):
    """Invalid or inconsistent configuration values."""


class ShapeError(FfusionError):
    """Array shape or dimension mismatch."""


class MaskError(FfusionError):
    """Softmax logits with no finite maximum in a row."""


class GradientError(FfusionError):
    """Backward pass misuse, e.g. non-scalar loss."""


class OptimizerError(FfusionError):
    """Optimizer state or gradient problems, e.g. non-finite gradients."""


class CheckpointError(FfusionError):
    """Malformed checkpoint file or parameter mismatch on load."""


class SceneError(FfusionError):
    """Invalid scene description or generation constraint violation."""


class DataError(FfusionError):
    """Malformed dataset files, manifests, texts or samples."""


class MissingInputError(DataError):
    """An input file that a reader was asked to open does not exist."""


class FusionError(FfusionError):
    """Fusion cannot proceed, e.g. no modality available."""


class TrainingError(FfusionError):
    """Training aborted, e.g. non-finite loss."""


class FaultError(FfusionError):
    """Invalid fault specification for the targeted modality."""


class GraphError(FfusionError):
    """Malformed architecture graph or decomposition claim."""

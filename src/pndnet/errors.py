"""Exception types shared across the package.

Every error raised on a contract violation derives from PndError so callers
(and the CLI) can map failures to exit codes without matching on strings.
"""


class PndError(Exception):
    """Base class for all package errors."""


class DimensionError(PndError):
    """Tensor shapes incompatible with the requested operation."""


class ArgumentError(PndError):
    """Invalid argument value (out-of-range index, empty interval, bad rate)."""


class ConfigurationError(PndError):
    """A configuration that cannot produce a valid model or pipeline."""


class NumericalError(PndError):
    """Non-finite values or a failed numerical agreement gate."""


class IngestionError(PndError):
    """Dataset or image files that cannot be loaded."""


class SplitError(PndError):
    """Dataset cannot be split as requested."""


class TrainingError(PndError):
    """Training diverged or could not proceed."""


class CheckpointError(PndError):
    """Checkpoint file malformed."""


class CheckpointMagicError(CheckpointError):
    """File does not start with the expected magic bytes."""


class CheckpointVersionError(CheckpointError):
    """Checkpoint format version not supported."""


class CheckpointTruncatedError(CheckpointError):
    """Checkpoint file ends before the declared payload."""

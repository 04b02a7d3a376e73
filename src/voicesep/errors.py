"""Exception hierarchy shared across the toolkit.

Every error class carries the CLI exit code its failures end with
(`exit_code`, inherited by subclasses), so that failures are
machine-distinguishable.
"""


class VoicesepError(Exception):
    """Base class for all toolkit errors."""
    exit_code = 2


class UsageError(VoicesepError):
    """API misuse: backward on a detached tensor, bad call sequence."""
    exit_code = 2


class DimensionError(VoicesepError):
    """Tensor shape mismatch; the message names the offending axis."""
    exit_code = 2


class ConfigurationError(VoicesepError):
    """Invalid hyperparameter or structural configuration."""
    exit_code = 2


class InputError(VoicesepError):
    """Input data violates an operation precondition."""
    exit_code = 3


class DegenerateTargetError(InputError):
    """A reference signal has zero energy; metric undefined."""


class DataError(VoicesepError):
    """Corpus or manifest level problem (infeasible split, bad entry)."""
    exit_code = 3


class FormatError(DataError):
    """Malformed file on disk; message carries the byte offset when known."""


class CheckpointError(VoicesepError):
    """Checkpoint file inconsistent with its header config."""
    exit_code = 4


class NumericError(VoicesepError):
    """Non-finite value encountered where finiteness is required."""
    exit_code = 5

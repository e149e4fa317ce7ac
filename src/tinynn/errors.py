"""Exception types shared across the library.

The CLI maps these onto exit codes, so keep the hierarchy flat and the
categories disjoint: configuration problems, data/file problems,
numerical divergence and failed output writes are the four failure classes
a run can end with.
"""


class DimensionError(ValueError):
    """Shapes that cannot be combined; message names both shapes."""


class NonFiniteError(ValueError):
    """A Tensor was constructed from values holding NaN or Inf."""


class DataFormatError(ValueError):
    """A dataset file failed to parse; message carries the byte offset."""


class DataError(ValueError):
    """Dataset contents violate a requirement (empty class, bad label)."""


class CheckpointError(ValueError):
    """Checkpoint bytes rejected: bad magic, bad tag, or shape mismatch."""


class StateError(RuntimeError):
    """An operation was called out of order (backward before forward)."""


class DivergenceError(RuntimeError):
    """Training loss became NaN/Inf; message names the epoch and batch."""


class ConfigError(ValueError):
    """Experiment configuration is invalid or incomplete."""


class WriteError(RuntimeError):
    """A run's output could not be written (a full disk, say); message names
    the file."""

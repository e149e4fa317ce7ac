"""Exception types shared across the library; os_error_as maps an OSError to one.

The CLI maps these onto exit codes, so keep the hierarchy flat and the
categories disjoint: configuration problems, data/file problems,
numerical divergence and failed output writes are the four failure classes
a run can end with.
"""

from contextlib import contextmanager


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


class DivergenceError(RuntimeError):
    """Training loss became NaN/Inf; message names the epoch and batch."""


class ConfigError(ValueError):
    """Experiment configuration is invalid or incomplete."""


class WriteError(RuntimeError):
    """A run's output could not be written (a full disk, say); message names
    the file."""


@contextmanager
def os_error_as(error, verb, path):
    """Raise an OSError from the block as error naming path, which it
    yields: an unreadable input as a DataError, a failed write as a
    WriteError, a run directory that cannot be made as a ConfigError."""
    try:
        yield path
    except OSError as e:
        raise error("cannot %s %s: %s" % (verb, path, e)) from e

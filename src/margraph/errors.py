"""Exception types and the resource limit shared across the library."""

# Largest number of entries of any dense table the library will allocate:
# the oracle's joint state space and the engine's elimination factors.
STATE_LIMIT = 1 << 20


class MargraphError(Exception):
    """Base class for all library errors."""


class InvalidInputError(MargraphError, ValueError):
    """An argument violates a documented contract (unknown variable, bad shape, ...)."""


class NotNormalizedError(InvalidInputError):
    """A potential that must be normalized (zero on zero-coordinate assignments) is not."""


class ResourceLimitError(MargraphError, RuntimeError):
    """The requested exact computation exceeds the configured state-space limit."""


class ModelFormatError(MargraphError, ValueError):
    """A model file failed to parse or validate; message carries field context."""

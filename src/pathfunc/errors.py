"""Exception types shared across the package."""


class PathfuncError(Exception):
    """Base class for all package-specific errors."""


class PreconditionError(PathfuncError, ValueError):
    """A declared precondition of an operation is violated."""


class SimulationError(PathfuncError, RuntimeError):
    """A step kernel produced or encountered a non-finite state; a batch
    names its lowest failing row as ``batch_index``."""


class EvaluationError(PathfuncError, RuntimeError):
    """A payoff returned a non-finite value."""


class EstimationError(PathfuncError, RuntimeError):
    """A Monte Carlo run aborted; carries the failing stream id."""

    def __init__(self, message, stream_id=None):
        super().__init__(message)
        self.stream_id = stream_id


class ConfigError(PathfuncError, ValueError):
    """A run configuration is malformed; the message names the offending key."""

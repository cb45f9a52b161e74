"""Exception types shared across the package."""


class PathfuncError(Exception):
    """Base class for all package-specific errors."""


class DomainError(PathfuncError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class PreconditionError(PathfuncError, ValueError):
    """A declared precondition of an operation is violated."""


class SimulationError(PathfuncError, RuntimeError):
    """A step kernel produced or encountered a non-finite state.

    Carries the state and time at which the failure occurred.
    """

    def __init__(self, message, state=None, t=None):
        super().__init__(message)
        self.state = state
        self.t = t


class EvaluationError(PathfuncError, RuntimeError):
    """A payoff returned a non-finite value; carries its argument vector."""

    def __init__(self, message, observables=None):
        super().__init__(message)
        self.observables = observables


class EstimationError(PathfuncError, RuntimeError):
    """A Monte Carlo run aborted; carries the failing stream id."""

    def __init__(self, message, stream_id=None):
        super().__init__(message)
        self.stream_id = stream_id


class ConfigError(PathfuncError, ValueError):
    """A run configuration is malformed; carries the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key

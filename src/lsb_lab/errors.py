"""Exception types shared across the package."""

__all__ = [
    "DomainError",
    "UnsupportedProblemError",
    "DegenerateInputError",
    "PoleError",
    "DivergenceError",
    "ScenarioError",
]


class DomainError(ValueError):
    """An argument is outside the operation's domain (wrong group, invalid
    state, singular operator)."""


class UnsupportedProblemError(DomainError):
    """The requested group/problem combination has no defined dynamics."""


class DegenerateInputError(DomainError):
    """Inputs that collapse an invariant (coincident trajectories, zero
    denominators in a formula that assumes distinctness)."""


class PoleError(ArithmeticError):
    """A closed-form expression was evaluated at or across a pole."""

    def __init__(self, message: str, location: float | None = None):
        super().__init__(message)
        self.location = location


class DivergenceError(ArithmeticError):
    """Numerical integration left the finite range.

    Carries the estimated escape time, the last finite sample index and the
    finite states up to it (samples 0 .. last_index, as the integrator held
    them) so callers can truncate or report instead of propagating
    non-finite values.
    """

    def __init__(self, message: str, escape_time: float, last_index: int,
                 states: list = ()):
        super().__init__(message)
        self.escape_time = escape_time
        self.last_index = last_index
        self.states = states


class ScenarioError(ValueError):
    """A scenario file violates the schema. `field_path` names the offending
    entry, e.g. "initial.x0" or "inertia.diag"."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field_path = field_path

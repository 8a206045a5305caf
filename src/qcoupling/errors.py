"""Exception taxonomy shared by the whole package.

Two failure families map onto CLI exit codes: input errors (the caller
handed us something malformed) exit 1, numerical failures (an iteration
did not converge) exit 2. ``check_threshold`` is the one rule for solver
and verifier thresholds, ``SLACK`` the one round-off forgiven in caller data.
"""

import math


class InputError(ValueError):
    """Malformed, inconsistent, or out-of-contract input."""


class NumericalError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


class SolverFailure(NumericalError):
    """Interior-point solve stopped before reaching the target accuracy.

    The best iterate seen is attached so callers can inspect how close
    the solve got.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


SLACK = 1e-9  # the round-off forgiven in caller data, read by name at each such check


def check_threshold(name: str, value: float) -> float:
    """value, once checked: solver thresholds and verifier tolerances must be
    finite and positive (an infinite tolerance accepts anything, a NaN or
    negative one nothing)."""
    if not 0.0 < value < math.inf:
        raise InputError(f"{name} must be finite and positive, got {value!r}")
    return value

"""Exception and warning types shared across the package."""

from __future__ import annotations


class DivergenceError(ValueError):
    """An integral or norm that is infinite for the requested input."""


class ConvergenceError(RuntimeError):
    """Iteration budget exhausted before reaching the requested tolerance.

    Carries the last residual norms so callers can diagnose the failure.
    """

    def __init__(self, message: str, residual, iterations: int):
        linf, l2 = residual.linf, residual.l2
        super().__init__(f"{message} (L_inf={linf:.3e}, L2={l2:.3e}, iterations={iterations})")
        self.linf, self.l2, self.iterations = linf, l2, iterations


class TimeStepUnderflowError(RuntimeError):
    """Step control retried one step more times than it allows.

    The partial trace recorded so far is attached as ``trace``.
    """

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class TailWarning(UserWarning):
    """Far-field samples exceed the configured decay tolerance."""


class MonotonicityWarning(UserWarning):
    """A profile expected to be monotone failed the discrete slope check."""

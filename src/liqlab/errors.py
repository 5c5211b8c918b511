"""Exception types shared across the library."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class BracketError(RuntimeError):
    """No sign change / interior optimum could be bracketed."""


class ConvergenceError(ArithmeticError):
    """A solver stopped before its bracket reached the requested width."""


class RatioMismatchError(ValueError):
    """Deposit or withdrawal amounts do not match the pool ratio."""


class ConfigError(ValueError):
    """Invalid experiment configuration (syntax, key, or value)."""

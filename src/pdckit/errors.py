"""Exceptions shared across the package."""


class ConfigError(ValueError):
    """A scenario file or command line is malformed or incomplete."""


class NumericalError(RuntimeError):
    """A computation failed numerically (vanishing norm, non-convergence)."""


def require(condition: bool, message: str) -> None:
    """Raise ValueError(message) unless condition holds."""
    if not condition:
        raise ValueError(message)

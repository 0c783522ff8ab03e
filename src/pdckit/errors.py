"""Exceptions shared across the package."""


class ConfigError(ValueError):
    """A scenario file or command line is malformed or incomplete."""


class NumericalError(RuntimeError):
    """A computation failed numerically (vanishing norm, non-convergence)."""


def require(condition: bool, message: str) -> None:
    """Raise ValueError(message) unless condition holds."""
    if not condition:
        raise ValueError(message)


def require_pairs(points, minimum: int, message: str) -> list[tuple]:
    """points as a list of (float, float) pairs; raise ValueError(message)
    unless there are at least minimum of them, each two numbers."""
    try:
        pairs = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError):  # not pairs, or not numbers
        pairs = []
    require(len(pairs) >= minimum, message)
    return pairs

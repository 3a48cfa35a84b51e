"""Shared exception types, and the refusals of arguments under which a call means nothing."""

import math


class MismatchError(ValueError):
    """Dimension or scalar-field mismatch between operands."""


class ZeroVectorError(ValueError):
    """An operation that needs a non-zero vector received the zero vector."""


class OutOfDomainError(ValueError):
    """A base point's radius lies outside the metric's radius domain."""


class NonPositiveMetricError(ValueError):
    """Distance computation refused: the metric takes negative values."""


class ParseError(ValueError):
    """Expression text that the grammar does not accept, at a character offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvalError(ValueError):
    """Missing binding, or a domain error such as log of a negative number."""


class InvalidArgumentError(ValueError):
    """An argument under which a call means nothing, named in the message: a
    count below its least value (a sampled check of no samples, maps or radii
    tests nothing), a NaN or negative tolerance, a radius bound that is not
    finite, a homothety alpha or singular-value ratio out of range, a frame
    that is not orthonormal, a spec that is not Riemann-backed where a
    sesquilinear form is needed, or a metric that is non-symmetric or not of
    its degree (validate_alpha) where a profile of p = |<h, g>| is extracted.
    The CLI prints the message at exit code 2."""


def check_counts(least: int = 1, /, **counts: int) -> None:
    """InvalidArgumentError naming the first of counts below least."""
    for name, n in counts.items():
        if n < least:
            raise InvalidArgumentError(f"{name}: got {n}, need at least {least}")


def check_tolerances(**tolerances: float) -> None:
    """InvalidArgumentError naming the first tolerance that is NaN or negative,
    which no deviation passes."""
    for name, tol in tolerances.items():
        if not tol >= 0.0:
            raise InvalidArgumentError(f"{name} must be a number >= 0, got {tol}")


def check_finite(**values: float) -> None:
    """InvalidArgumentError naming the first of values that is NaN or infinite."""
    for name, x in values.items():
        if not math.isfinite(x):
            raise InvalidArgumentError(f"{name} must be a finite number, got {x}")

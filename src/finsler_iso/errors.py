"""Shared exception types."""


class MismatchError(ValueError):
    """Dimension or scalar-field mismatch between operands."""


class ZeroVectorError(ValueError):
    """An operation that needs a non-zero vector received the zero vector."""


class OutOfDomainError(ValueError):
    """A base point's radius lies outside the metric's radius domain."""


class NonPositiveMetricError(ValueError):
    """Distance computation refused: the metric takes negative values."""


class InvalidArgumentError(ValueError):
    """A tolerance or homothety alpha under which a sampled check's verdict is void."""

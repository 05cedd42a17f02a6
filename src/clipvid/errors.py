"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Tensor shapes are incompatible for the requested operation."""


class NumericError(ValueError):
    """Non-finite or otherwise invalid numeric input."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


class CapacityError(ValueError):
    """More ground-truth objects than available prediction slots."""


class ParseError(ValueError):
    """Malformed dataset or checkpoint file."""


class InputError(ValueError):
    """Invalid input data (bad class id, degenerate box, ...)."""

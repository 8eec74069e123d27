"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigError(ValueError):
    """Invalid configuration key, value, or cross-field constraint."""


class ValidationError(ValueError):
    """Data fails a range or consistency check (labels, file contents)."""


class ContractError(RuntimeError):
    """An internal invariant (freeze mask, tape state) was violated."""


class NumericError(ArithmeticError):
    """Non-finite values appeared where finite ones are required."""


class FormatError(ValueError):
    """Malformed checkpoint or dataset file."""

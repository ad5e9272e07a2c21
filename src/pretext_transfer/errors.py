"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input data, a configuration value or a file violates an operation's preconditions."""


class TrainingDiverged(ValidationError):
    """A training loop produced a non-finite loss or parameter."""

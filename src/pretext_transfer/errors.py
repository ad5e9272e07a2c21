"""Exception types, and the one type rule of the settings dataclasses, shared across the package."""

import dataclasses
import numbers
import operator
from pathlib import Path


class ValidationError(ValueError):
    """Input data, a configuration value or a file violates an operation's preconditions."""


class TrainingDiverged(ValidationError):
    """A training loop produced a non-finite loss or parameter."""


def _real(value) -> float:
    if not isinstance(value, numbers.Real):  # float() would parse a str
        raise TypeError(f"{type(value).__name__!r} object is not a real number")
    return float(value)


# a field's annotation (a string under `from __future__ import annotations`)
# -> how a value converts, and what the refusal says it must be
_CONVERT = {
    "int": (operator.index, "be an integer"),  # refuses a float, which int() would truncate
    "tuple[int, ...]": (lambda values: tuple(map(operator.index, values)), "hold integers"),
    "float": (_real, "be a real number"),
    "Path": (Path, "be a path"),
}


def convert_fields(settings) -> None:
    """Convert every field of the frozen dataclass ``settings`` to the type its
    annotation names: stage keys hash repr(), so a NumPy scalar, a list or an
    int given for a float keys a stage as the equal Python value does. A value
    that does not convert raises a ValidationError naming its field."""
    for field in dataclasses.fields(settings):
        if field.type not in _CONVERT:
            continue
        convert, must = _CONVERT[field.type]
        try:
            object.__setattr__(settings, field.name, convert(getattr(settings, field.name)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{field.name} must {must}: {exc}") from None

"""Exception types, and the one type rule of the settings dataclasses, shared across the package."""

import dataclasses
import numbers
import operator
from pathlib import Path


class ValidationError(ValueError):
    """Input data, a configuration value or a file violates an operation's preconditions."""


class TrainingDiverged(ValidationError):
    """A training loop produced a non-finite loss or parameter."""


def integer(value) -> int:
    """``operator.index(value)``, which refuses a float that int() would
    truncate, refusing a bool as well: operator.index(True) is 1."""
    if isinstance(value, bool):
        raise TypeError("'bool' object cannot be interpreted as an integer")
    return operator.index(value)


def _real(value) -> float:
    # float() would parse a str; a bool is a numbers.Real
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise TypeError(f"{type(value).__name__!r} object is not a real number")
    return float(value)


# a field's annotation (a string under `from __future__ import annotations`)
# -> how a value converts, and what the refusal says it must be
_CONVERT = {
    "int": (integer, "be an integer"),
    "tuple[int, ...]": (lambda values: tuple(map(integer, values)), "hold integers"),
    "float": (_real, "be a real number"),
    "Path": (Path, "be a path"),
}


def _instance_of(kind: type):
    def check(value):
        if not isinstance(value, kind):
            raise TypeError(f"{type(value).__name__!r} object is not a {kind.__name__}")
        return value
    return check


def convert_fields(settings) -> None:
    """Convert every field of the frozen dataclass ``settings`` to the type its
    annotation names: stage keys hash repr(), so a NumPy scalar, a list or an
    int given for a float keys a stage as the equal Python value does. A field
    of any other annotation must hold an instance of its default's type, and
    is not converted. A value that does not convert raises a ValidationError
    naming its field."""
    for field in dataclasses.fields(settings):
        if field.type in _CONVERT:
            convert, must = _CONVERT[field.type]
        else:
            kind = type(field.default)
            convert, must = _instance_of(kind), f"be a {kind.__name__}"
        try:
            object.__setattr__(settings, field.name, convert(getattr(settings, field.name)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{field.name} must {must}: {exc}") from None

"""Field domains: what each field of a public config may hold, declared once.

A domain is a function ``(field, value)`` that returns the stored form
of ``value`` or raises ``ValueError("<field> must be <domain>, got
<value!r>")``: an integer stores ``4.0`` as 4 and refuses a bool or a
fraction (never truncates); a number is stored as a float and refuses a
bool and NaN (and ±inf, where it must be finite); a bool is never a
truthy 1. A frozen config lists its fields' domains in its ``DOMAINS``
table and applies it with :func:`check_fields`; only rules between
fields stay written out. This module imports nothing from :mod:`repro`.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

_OUT = object()  # what a normaliser returns for a value outside its domain


def domain(what: str, normalise) -> Callable[[str, object], object]:
    """The domain named ``what``: ``normalise`` gives a value's stored form or
    ``_OUT`` (so does a TypeError, ValueError or OverflowError it raises)."""

    def check(name: str, value):
        try:
            stored = normalise(value)
        except (TypeError, ValueError, OverflowError):
            stored = _OUT
        if stored is _OUT:
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return stored

    check.what, check.normalise = what, normalise
    return check


# An exact int or float skips the ABC check, which costs ~1 us a value.
def at_least(low: float) -> Callable:
    """An integer >= ``low``."""
    def normalise(value):
        if type(value) is not int:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                return _OUT
            value = int(value) if float(value).is_integer() else _OUT
        return value if value is not _OUT and value >= low else _OUT

    return domain(f"an integer >= {low}", normalise)


def _number(low: float, closed: bool = True, finite: bool = True):
    def normalise(value):
        if type(value) is not float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                return _OUT
            value = float(value)
        above = value >= low if closed else value > low
        return value if above and (math.isfinite(value) or not finite) else _OUT

    return normalise


INTEGER = domain("an integer", at_least(-math.inf).normalise)
POSITIVE_INT = at_least(1)
NUMBER = domain("a number other than NaN", _number(-math.inf, finite=False))
NON_NEGATIVE = domain("a finite number >= 0", _number(0.0))
POSITIVE = domain("a finite number > 0", _number(0.0, closed=False))
BOOL = domain("a bool", lambda value: value if isinstance(value, bool) else _OUT)
NAME = domain(
    "a non-empty str", lambda value: value if isinstance(value, str) and value else _OUT
)


def instance_of(kind: type) -> Callable:
    """An instance of ``kind``, stored as given."""
    return domain(
        f"a {kind.__name__}", lambda value: value if isinstance(value, kind) else _OUT
    )


def one_of(*choices) -> Callable:
    """One of ``choices``, stored as given."""
    return domain(
        f"one of {list(choices)}", lambda value: value if value in choices else _OUT
    )


def optional(inner: Callable) -> Callable:
    """``inner`` or None."""
    normalise = inner.normalise
    return domain(
        f"{inner.what} or None",
        lambda value: None if value is None else normalise(value),
    )


def tuple_of(inner: Callable) -> Callable:
    """A non-empty tuple (a list is stored as one) of values of ``inner``."""
    def normalise(values):
        if not isinstance(values, (tuple, list)) or not values:
            return _OUT
        stored = tuple(map(inner.normalise, values))
        return _OUT if any(item is _OUT for item in stored) else stored

    return domain(f"a non-empty tuple, each item {inner.what}", normalise)


def check_fields(config) -> None:
    """Store each field of ``config`` in the form its class's ``DOMAINS`` gives."""
    for name, check in type(config).DOMAINS.items():
        object.__setattr__(config, name, check(name, getattr(config, name)))

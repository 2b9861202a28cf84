"""Argument-validation helpers shared across the package.

Every public constructor validates its inputs eagerly and raises
``ValueError``/``TypeError`` with a message naming the offending parameter,
so misconfiguration fails at build time rather than mid-simulation.
"""

from __future__ import annotations

import math
from typing import Any

__all__ = [
    "require",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_fraction",
    "check_type",
    "is_finite_number",
]


def require(condition: bool, message: str) -> None:
    """Raise ``ValueError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ValueError(message)


def check_positive(value: float, name: str) -> float:
    """Validate ``value > 0`` and return it as float."""
    value = float(value)
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(value: float, name: str) -> float:
    """Validate ``value >= 0`` and return it as float."""
    value = float(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(value: float, lo: float, hi: float, name: str) -> float:
    """Validate ``lo <= value <= hi`` and return it as float."""
    value = float(value)
    if not lo <= value <= hi:
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def check_fraction(value: float, name: str) -> float:
    """Validate ``0 <= value <= 1`` and return it as float."""
    return check_in_range(value, 0.0, 1.0, name)


def check_type(value: Any, types: type | tuple[type, ...], name: str) -> Any:
    """Validate ``isinstance(value, types)`` and return the value."""
    if not isinstance(value, types):
        expected = (
            types.__name__
            if isinstance(types, type)
            else " | ".join(t.__name__ for t in types)
        )
        raise TypeError(f"{name} must be {expected}, got {type(value).__name__}")
    return value


def is_finite_number(value: Any) -> bool:
    """Whether ``value`` is a finite ``int``/``float`` (``bool`` is not)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False

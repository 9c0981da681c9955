"""Argument-validation helpers shared across the library."""

from __future__ import annotations

from typing import Iterable


def check_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


def check_fraction(name: str, value: float, inclusive: bool = True) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1] (or (0, 1))."""
    if inclusive:
        ok = 0.0 <= value <= 1.0
    else:
        ok = 0.0 < value < 1.0
    if not ok:
        bounds = "[0, 1]" if inclusive else "(0, 1)"
        raise ValueError(f"{name} must be in {bounds}, got {value}")


def check_unique(name: str, items: Iterable[object]) -> None:
    """Raise ``ValueError`` when ``items`` contains duplicates."""
    seen = set()
    for item in items:
        if item in seen:
            raise ValueError(f"duplicate {name}: {item!r}")
        seen.add(item)

"""Canonical float handling.

Every float that enters persisted state (utility values, trace progress,
report rates) is quantized to 12 significant digits at the point it is
produced.  Formatting a quantized value and parsing it back is an exact
round trip, which is what makes snapshots, trace logs, and reports
byte-stable across platforms and replays.
"""

from __future__ import annotations


_FORMAT = "%.12g"


def fmt(value: float) -> str:
    """Render a float at 12 significant digits."""
    return _FORMAT % value


def q12(value: float) -> float:
    """Quantize to the nearest 12-significant-digit decimal (`fmt`, parsed back)."""
    return float(_FORMAT % value)

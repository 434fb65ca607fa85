"""Canonical float handling.

Every float the engine writes (utility values computed from counts, trace
progress, report rates) is quantized to 12 significant digits at the point
it is produced, so its shortest repr is that 12-digit decimal and parsing
it back is exact.  That is what makes trace logs, reports and restructuring
evidence byte-stable across platforms and replays.  Snapshots hold no
floats: a utility entry is written as its integer counts.
"""

from __future__ import annotations


def q12(value: float) -> float:
    """Quantize to the nearest 12-significant-digit decimal."""
    return float("%.12g" % value)

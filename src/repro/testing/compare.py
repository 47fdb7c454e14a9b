"""Output comparison that treats identical NaNs as equal.

Two allocations of the same program perform bit-identical arithmetic, so
their printed outputs must match *as printed values* — including ``inf``
and ``nan``, which Python's ``==`` would otherwise reject (``nan != nan``).
Randomly generated float programs can legitimately overflow, so the
differential tests compare with this helper rather than ``==``.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

Number = Union[int, float]


def values_equal(a: Number, b: Number) -> bool:
    """Exact equality, except any-NaN equals any-NaN of the same type."""
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) and math.isnan(b):
            return True
    if type(a) is not type(b):
        return False
    return a == b


def outputs_equal(a: Sequence[Number], b: Sequence[Number]) -> bool:
    """NaN-tolerant elementwise comparison of two print streams."""
    if len(a) != len(b):
        return False
    return all(values_equal(x, y) for x, y in zip(a, b))


def first_divergence(a: Sequence[Number], b: Sequence[Number]) -> int:
    """Index of the first differing element (-1 if streams agree)."""
    for index, (x, y) in enumerate(zip(a, b)):
        if not values_equal(x, y):
            return index
    if len(a) != len(b):
        return min(len(a), len(b))
    return -1

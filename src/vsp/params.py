"""Shared numeric conventions: the paper's constants eta* and 1/3, rational
logarithms and the flow-cut-gap / well-linkedness parameter rules.

Thresholds must be exact rationals so certificates never depend on float
rounding; log2 is therefore evaluated once per argument and frozen to a
fixed binary precision (2^-20), which is far below every comparison margin
used by the decompositions.
"""

from __future__ import annotations

import math
from fractions import Fraction

_LOG_DEN = 1 << 20

ETA_STAR = Fraction(34)  # the router congestion bound eta*; flow quality is 2 eta*
ONE_THIRD = Fraction(1, 3)  # the well-linkedness of contracted clusters and routers


def rational_log2(x: Fraction | int) -> Fraction:
    """max(1, log2 x) as an exact rational, frozen at 2^-20 precision."""
    xf = float(x)
    if xf <= 2:
        return Fraction(1)
    return Fraction(round(math.log2(xf) * _LOG_DEN), _LOG_DEN)


def beta_fcg(k: Fraction | int) -> Fraction:
    """Flow-cut gap rule: max(1, log2 k)."""
    return rational_log2(k)


def weak_threshold(z: Fraction | int) -> Fraction:
    """Sparse-cut threshold for the weak decomposition: 1/(128 log z).  It is
    also the well-linkedness level alpha_w that decomposition certifies."""
    return Fraction(1, 128) / rational_log2(z)

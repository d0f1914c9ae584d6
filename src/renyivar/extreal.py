"""Extended real values.

Divergences on finite alphabets are either finite numbers, ``+inf``
(absolute-continuity failures, empty common supports), or ``-inf`` (the
growth rate of a nilpotent support pattern).  :class:`ExtReal` keeps those
three cases explicit: NaN is rejected at construction, and the one undefined
combination ``(+inf) + (-inf)`` raises instead of silently producing NaN.
Ordering and the remaining arithmetic are total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ExtRealArithmeticError

__all__ = ["ExtReal", "NEG_INF", "POS_INF"]


@dataclass(frozen=True, order=True)
class ExtReal:
    """A finite real, +infinity, or -infinity, with NaN-free arithmetic."""

    raw: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "raw", float(self.raw))
        if math.isnan(self.raw):
            raise ValueError("ExtReal cannot hold NaN")

    @staticmethod
    def finite(x: float) -> "ExtReal":
        """Wrap a value that must be finite."""
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"expected a finite value, got {x!r}")
        return ExtReal(x)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.raw)

    @property
    def is_pos_inf(self) -> bool:
        return self.raw == math.inf

    @property
    def is_neg_inf(self) -> bool:
        return self.raw == -math.inf

    def __float__(self) -> float:
        return self.raw

    def __neg__(self) -> "ExtReal":
        return ExtReal(-self.raw)

    def __add__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        if self.is_finite and other.is_finite:
            total = self.raw + other.raw
            if not math.isfinite(total):
                raise ExtRealArithmeticError("finite addition overflowed")
            return ExtReal(total)
        if self.is_finite:
            return other
        if other.is_finite or other.raw == self.raw:
            return self
        raise ExtRealArithmeticError("(+inf) + (-inf) is undefined")

    def __sub__(self, other: "ExtReal") -> "ExtReal":
        if not isinstance(other, ExtReal):
            return NotImplemented
        return self + (-other)

    def scale(self, c: float) -> "ExtReal":
        """Multiply by a nonzero finite scalar (sign flips infinities)."""
        c = float(c)
        if c == 0.0 or not math.isfinite(c):
            raise ExtRealArithmeticError(f"scale factor must be finite and nonzero, got {c!r}")
        if self.is_finite:
            product = c * self.raw
            if not math.isfinite(product):
                raise ExtRealArithmeticError("finite scaling overflowed")
            return ExtReal(product)
        return ExtReal(self.raw if c > 0 else -self.raw)

    def __str__(self) -> str:
        if self.is_pos_inf:
            return "inf"
        if self.is_neg_inf:
            return "-inf"
        return repr(self.raw)


POS_INF = ExtReal(math.inf)
NEG_INF = ExtReal(-math.inf)

"""Precision configuration, the rule for working bits, and a value carrier.

All overflow-prone quantities (gamma ratios, Bessel weights, normalization
constants) travel as LogValue so that degrees up to a few hundred never
leave the representable range.  Extended mode backs evaluations with mpmath
at a configurable mantissa width.

Q_n and P_n are alternating sums; cancelling by r = max term / |sum| costs
log2(r) bits (Higham, Accuracy and Stability of Numerical Algorithms, 4.2).
`bits_for` alone turns a degree or a measured r into working bits.  Q_n and
P_n lose <= 42 bits at n = 15 and 65 at n = 30 on the sign window, P_80 66-69.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import mpmath

from .errors import DomainError


@dataclass(frozen=True)
class PrecisionConfig:
    mode: str = "double"          # "double" | "extended"
    mantissa_bits: int = 256      # used in extended mode only

    def __post_init__(self):
        if self.mode not in ("double", "extended"):
            raise DomainError(f"unknown precision mode {self.mode!r}")
        if self.mode == "extended" and self.mantissa_bits < 64:
            raise DomainError("extended mode requires mantissa_bits >= 64")

    @property
    def extended(self) -> bool:
        return self.mode == "extended"


DOUBLE = PrecisionConfig()
EXTENDED = PrecisionConfig(mode="extended")


MAX_BITS = 4000


def bits_for(n: int, ratio: float = math.inf) -> int:
    """Working bits, at most MAX_BITS: 53 for the double result, 48 guard bits and the
    loss, log2(ratio) for a measured ratio, else (inf or nan) 4 max(n, 10) bits."""
    lost = int(math.log2(max(ratio, 1.0))) if math.isfinite(ratio) else 4 * max(n, 10)
    return min(53 + 48 + lost, MAX_BITS)


def from_env() -> PrecisionConfig:
    """Read BMOP_PRECISION: 'double' (the default) or 'extended:<bits>'."""
    raw = os.environ.get("BMOP_PRECISION")
    if not raw:
        return DOUBLE
    raw = raw.strip()
    if raw == "double":
        return DOUBLE
    if raw == "extended":
        return EXTENDED
    if raw.startswith("extended:"):
        digits = raw.split(":", 1)[1].strip()
        if digits.isdigit():
            return PrecisionConfig(mode="extended", mantissa_bits=int(digits))
    raise DomainError(f"bad BMOP_PRECISION value {raw!r}")


@dataclass(frozen=True)
class LogValue:
    """A real number stored as sign * exp(log_magnitude).

    sign == 0 encodes an exact zero (log_magnitude is then ignored).
    """

    log_magnitude: float
    sign: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")

    @classmethod
    def zero(cls) -> "LogValue":
        return cls(0.0, 0)

    @classmethod
    def from_float(cls, x: float) -> "LogValue":
        if x == 0.0:
            return cls.zero()
        return cls(math.log(abs(x)), 1 if x > 0 else -1)

    @classmethod
    def from_mpf(cls, x) -> "LogValue":
        if x == 0:
            return cls.zero()
        return cls(float(mpmath.log(abs(x))), 1 if x > 0 else -1)

    def value(self) -> float:
        if self.sign == 0:
            return 0.0
        return self.sign * math.exp(self.log_magnitude)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude + other.log_magnitude, self.sign * other.sign)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.sign == 0:
            raise ZeroDivisionError("LogValue division by zero")
        if self.sign == 0:
            return LogValue.zero()
        return LogValue(self.log_magnitude - other.log_magnitude, self.sign * other.sign)

    def scaled(self, factor: float) -> "LogValue":
        """Multiply by a plain float."""
        return self * LogValue.from_float(factor)

    def __pow__(self, k: int) -> "LogValue":
        if self.sign == 0:
            return LogValue.zero() if k > 0 else LogValue(0.0, 1)
        return LogValue(k * self.log_magnitude, self.sign if k % 2 else 1)


"""Hybrid exact/log-space arithmetic for quantities that outgrow machine floats.

Frame entries and schedule lengths grow triple-exponentially, so a single
number type has to cover everything from small integers to magnitudes like
2**(3**40).  A :class:`HybridNumber` stores a nonnegative quantity either as
an arbitrary-precision integer (while its bit length stays at or below
:data:`DEFAULT_EXACT_BITS`) or as a base-2 log magnitude.  Promotion to the log
form is one-way; demotion never happens, which keeps comparison semantics
simple.

All values are immutable and all operations are pure functions, so instances
can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

#: Bit-length threshold above which integers switch to log2 form.
DEFAULT_EXACT_BITS = 4096

_LN2 = math.log(2.0)

# 2**x underflows to 0.0 well before x = -1100; used to short-circuit
# log-space add/sub when the smaller operand cannot affect the result.
_NEGLIGIBLE_LOG2_GAP = -1100.0


def log2_int(n: int) -> float:
    """Base-2 logarithm of a positive integer, to ~1 ulp at any bit length.

    ``math.log2`` overflows for integers above 2**1024; this takes the top
    54 bits, rounds to nearest, and adds the shift back.
    """
    if n <= 0:
        raise ValueError("log2_int requires a positive integer")
    nb = n.bit_length()
    if nb <= 53:
        return math.log2(n)
    shift = nb - 54
    top = n >> shift
    top = (top >> 1) + (top & 1)  # round to nearest 53-bit mantissa
    return math.log2(top) + shift + 1


def log2_add(la: float, lb: float) -> float:
    """log2(2**la + 2**lb), max-shifted for stability.

    Saturated (infinite) magnitudes propagate as infinity rather than NaN.
    """
    if la < lb:
        la, lb = lb, la
    if math.isinf(la):
        return la
    gap = lb - la
    if gap < _NEGLIGIBLE_LOG2_GAP:
        return la
    return la + math.log1p(2.0 ** gap) / _LN2


def log2_sub(la: float, lb: float) -> float:
    """log2(2**la - 2**lb) for la > lb, cancellation-aware near la == lb."""
    if lb >= la:
        raise ValueError("log2_sub requires la > lb")
    if math.isinf(la):
        return la
    gap = lb - la
    if gap < _NEGLIGIBLE_LOG2_GAP:
        return la
    # 1 - 2**gap computed via expm1 to keep accuracy as gap -> 0-.
    rest = -math.expm1(gap * _LN2)
    return la + math.log2(rest)


@dataclass(frozen=True, eq=False)
class HybridNumber:
    """Nonnegative quantity held exactly or as a log2 magnitude.

    ``exact`` is ``None`` once the value has been promoted to log form.
    ``log2`` is cached for exact values and is the sole representation for
    promoted ones; it is always finite for nonzero values.  Comparisons are
    total and agree with integer order whenever both operands are exact.
    """

    exact: int | None
    log2: float

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "HybridNumber":
        if n < 0:
            raise ValueError("HybridNumber is nonnegative")
        if n == 0:
            return ZERO
        l2 = log2_int(n)
        if n.bit_length() <= DEFAULT_EXACT_BITS:
            return cls(n, l2)
        return cls(None, l2)

    @classmethod
    def from_log2(cls, l2: float) -> "HybridNumber":
        if not math.isfinite(l2):
            raise ValueError(f"log2 magnitude must be finite, got {l2!r}")
        return cls(None, float(l2))

    # -- predicates and views -----------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.exact == 0

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def as_int(self) -> int:
        if self.exact is None:
            raise ValueError("value has been promoted to log form")
        return self.exact

    def to_float(self) -> float:
        """Float image of the value; may be ``inf`` beyond float range."""
        return self / ONE

    # -- arithmetic ----------------------------------------------------

    def add(self, other: "HybridNumber") -> "HybridNumber":
        """Sum; exact while the result fits the threshold.

        Mixed or promoted operands go through :func:`log2_add`; the log2 error
        per operation is a few ulp of the log magnitude, which for magnitudes up
        to about 2**12 keeps the relative value error at or below 2**-40.
        Ordering is preserved exactly in the integer regime and to 1 ulp of the
        log magnitude in the promoted regime.
        """
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.exact is not None and other.exact is not None:
            return HybridNumber.from_int(self.exact + other.exact)
        return HybridNumber.from_log2(log2_add(self.log2, other.log2))

    def mul(self, other: "HybridNumber") -> "HybridNumber":
        if self.is_zero or other.is_zero:
            return ZERO
        if self.exact is not None and other.exact is not None:
            return HybridNumber.from_int(self.exact * other.exact)
        return HybridNumber.from_log2(self.log2 + other.log2)

    def sub(self, other: "HybridNumber") -> "HybridNumber":
        """Difference ``self - other``; requires ``self >= other``.

        Exact when both operands are exact; otherwise computed in log space
        with accuracy degrading as the operands approach each other.
        """
        if other.is_zero:
            return self
        if self.exact is not None and other.exact is not None:
            diff = self.exact - other.exact
            if diff < 0:
                raise ValueError("hybrid subtraction would be negative")
            return HybridNumber.from_int(diff)
        if other.log2 >= self.log2:
            # Equal log magnitudes: the represented values coincide.
            if other.log2 == self.log2:
                return ZERO
            raise ValueError("hybrid subtraction would be negative")
        return HybridNumber.from_log2(log2_sub(self.log2, other.log2))

    def pow3(self) -> "HybridNumber":
        """Cube; the log form simply triples the stored magnitude."""
        if self.is_zero:
            return ZERO
        if self.exact is not None:
            return HybridNumber.from_int(self.exact ** 3)
        return HybridNumber.from_log2(3.0 * self.log2)

    def scale(self, k: int) -> "HybridNumber":
        """Multiply by a machine integer ``k >= 0``."""
        if k < 0:
            raise ValueError("scale factor must be nonnegative")
        if k == 0 or self.is_zero:
            return ZERO
        if self.exact is not None:
            return HybridNumber.from_int(self.exact * k)
        return HybridNumber.from_log2(self.log2 + math.log2(k))

    def __truediv__(self, other: "HybridNumber") -> float:
        """``self / other`` as a float: exact operands divide once, correctly
        rounded, as ``int / int`` does; a promoted one through the log2
        difference.  0/x is 0.0, x/0 is ``inf``, and past float range the
        quotient saturates to ``inf`` or 0.0.
        """
        if self.is_zero:
            return 0.0
        if other.is_zero:
            return math.inf
        if self.exact is not None and other.exact is not None:
            try:
                return self.exact / other.exact
            except OverflowError:
                return math.inf
        l2 = self.log2 - other.log2
        return math.inf if l2 >= 1024.0 else 2.0 ** l2

    # -- ordering -------------------------------------------------------

    def _cmp(self, other: "HybridNumber") -> int:
        if self.exact is not None and other.exact is not None:
            return (self.exact > other.exact) - (self.exact < other.exact)
        a = -math.inf if self.is_zero else self.log2
        b = -math.inf if other.is_zero else other.log2
        return (a > b) - (a < b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HybridNumber):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: "HybridNumber") -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: "HybridNumber") -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: "HybridNumber") -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: "HybridNumber") -> bool:
        return self._cmp(other) >= 0

    def __hash__(self) -> int:
        return hash(-math.inf if self.is_zero else self.log2)

    def __repr__(self) -> str:
        if self.exact is not None:
            if self.exact.bit_length() <= 64:
                return f"HybridNumber({self.exact})"
            return f"HybridNumber(<{self.exact.bit_length()}-bit int>)"
        return f"HybridNumber(log2={self.log2!r})"


ZERO = HybridNumber(0, -math.inf)
ONE = HybridNumber(1, 0.0)


def log_sum_exp2_values(log2_values: Iterable[float]) -> float:
    """log2 of the sum of ``2**x`` over the inputs; ``-inf`` for empty input.

    The sum is shifted by the maximum entry and accumulated left to right in
    input order, which fixes the rounding of ties and makes results
    reproducible across runs.
    """
    logs = list(log2_values)
    if not logs:
        return -math.inf
    peak = max(logs)
    if math.isinf(peak):
        return peak
    total = 0.0
    for l2 in logs:
        total += 2.0 ** (l2 - peak)
    return peak + math.log2(total)

"""Expected log partition sums, their divergence class, and dimension roots.

Two candidate dimensions are computed for a system (p, Psi):

* the Bowen parameter, the infimum of t >= 0 with
  sum_i p_i * log(sum_j c_j^t) <= 0, and
* the random-recursive dimension, the infimum of t >= 0 with
  sum_i p_i * sum_j c_j^t <= 1.

Both read system i's log sum_j c_j^t from :func:`log_fitness`, and for
finite systems reduce to bisection on a strictly decreasing function of t.
For the frame family under inverse-square probabilities the frame axioms
alone certify both infima as the ambient dimension d: the expectation is a
divergent series of harmonic-bounded sign, and the weighted sum is below 1
at d and above it below d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .frame import FrameLevel
from .numerics import log_sum_exp2_values
from .rifs import RIFSSpec, SpecValidationError

_LN2 = math.log(2.0)

#: Magnitude guard: frame entries with log2 beyond this are treated as
#: out of float range and contribute +-inf to linear-space formulas.
_FLOAT_SAFE_LOG2 = 990.0


class UnboundedDimensionError(RuntimeError):
    """The defining inequality failed at every probed exponent."""


@dataclass(frozen=True)
class DivergenceVerdict:
    """Classification of the expected log partition sum at one exponent.

    A converging sum carries its ``value``; when a charged frame level past
    float range saturates a term it is +-inf or 0.0, and ``from_level``
    names the level that decided it, printed with its ``sign`` instead.  A
    divergent kind carries its certificate ``from_level``: the level from
    which every term has the verdict's sign, bounded by a harmonic series
    from the frame axioms.
    """

    kind: str  # "converges" | "diverges_plus" | "diverges_minus"
    value: float | None = None
    from_level: int | None = None

    def to_dict(self) -> dict:
        if self.from_level is None:
            return {"kind": self.kind, "value": self.value}
        sign = {"sign": (self.value > 0) - (self.value < 0)} if self.kind == "converges" else {}
        return {"kind": self.kind, **sign, "from_level": self.from_level}


def _exact_exponent(level: FrameLevel, d: int, p: int, q: int) -> int:
    """q * ((d-t)*V - t*U) for t = p/q, exactly, from a level's integers."""
    return (d * q - p) * level.v.as_int() - p * level.u.as_int()


def log_fitness(spec: RIFSSpec, i: int, t: float) -> float:
    """Natural log of sum_j c_j^t for system i of ``spec``.

    Explicit systems: a stable log-sum over (ratio, multiplicity) aggregates.
    Frame level i: the closed form (-t*U_i + (d-t)*V_i) * ln 2, evaluated
    from the level's float data while it fits.  Past float range it
    saturates to +-inf, or is 0.0 when the value is exactly zero, and the
    sign is that of (d*q - p)*V_i - p*U_i for t = p/q exactly, from the
    frame's exact ratio V_i/U_i (:meth:`Frame.ratio`).
    """
    if t < 0:
        raise ValueError("the exponent t must be >= 0")
    if not spec.is_frame_family:
        l2 = log_sum_exp2_values(
            math.log2(a.multiplicity) + t * a.log2_ratio for a in spec.systems[i - 1]
        )
        return l2 * _LN2
    level = spec.frame.entry(i)
    u, v, d = level.u, level.v, spec.d
    if u.log2 <= _FLOAT_SAFE_LOG2 and v.log2 <= _FLOAT_SAFE_LOG2:
        return (-t * u.to_float() + (d - t) * v.to_float()) * _LN2
    if t >= d:
        return -math.inf
    p, q = t.as_integer_ratio()
    v, u = spec.frame.ratio(i)
    sign = (d * q - p) * v - p * u
    return math.inf if sign > 0 else -math.inf if sign < 0 else 0.0


def expected_log_fitness(spec: RIFSSpec, t: float) -> DivergenceVerdict:
    """Sum of p_i * log_fitness(i, t) with a certified classification.

    Finite-support systems converge to the weighted sum, or to the +-inf or
    0.0 and deciding level of :func:`_saturated_sum` when a charged frame
    level past float range saturates a term.  For the frame family with
    inverse-square probabilities the series diverges, and the direction is
    certified by the axioms, with no term evaluated: when t >= d every term
    is at most -d*U_k/k^2 <= -d/k (harmonic minorant to -inf from level 1);
    when t < d the terms from M_t = ceil((1+t)/(d-t)) on are at least
    U_k/k^2 >= 1/k (harmonic majorant to +inf) after a finite head.  M_t is
    computed from t = p/q exactly, as ceil((q+p)/(d*q-p)).
    """
    if t < 0:
        raise ValueError("the exponent t must be >= 0")

    if spec.probabilities.is_finite:
        total = 0.0
        for i in spec.probabilities.support():
            total += spec.probabilities.probability(i) * log_fitness(spec, i, t)
        if math.isfinite(total):
            return DivergenceVerdict(kind="converges", value=total)
        # +inf and -inf terms must not be added
        return DivergenceVerdict("converges", *_saturated_sum(spec, t))

    if not spec.is_frame_family:
        raise SpecValidationError(
            "inverse-square probabilities require a frame family"
        )
    if t >= spec.d:
        return DivergenceVerdict(kind="diverges_minus", from_level=1)
    p, q = t.as_integer_ratio()
    return DivergenceVerdict(kind="diverges_plus", from_level=-(-(q + p) // (spec.d * q - p)))


def _saturated_sum(spec: RIFSSpec, t: float) -> tuple[float, int]:
    """sum_i p_i*((d-t)*V_i - t*U_i) over the charged frame levels as +-inf
    or 0.0, its sign decided without float addition, and the deciding level.

    The deepest charged log-form level whose term is nonzero decides: its
    U >= 2**4096 >= (U+V)**3 of every level below outweighs p_i >= 2**-1074
    and a coefficient (d-t)*V/U - t of at least 2**-1074, for d < 2**582.
    Otherwise the exact levels (<= 4096 bits) decide, the deepest named,
    summed as the integer q * 2**1074 times their sum, for t = p/q and
    floats p_i.
    """
    p, q = t.as_integer_ratio()
    exact, deepest = 0, None
    for i in reversed(spec.probabilities.support()):
        level = spec.frame.entry(i)
        if level.u.is_exact and level.v.is_exact:
            a, b = spec.probabilities.probability(i).as_integer_ratio()
            exact += (a << 1074) // b * _exact_exponent(level, spec.d, p, q)
            deepest = deepest or i
        elif term := log_fitness(spec, i, t):  # +-inf, or 0.0 for a zero term
            return term, i
    return (math.inf if exact > 0 else -math.inf if exact < 0 else 0.0), deepest


def bowen_parameter(spec: RIFSSpec) -> float:
    """Infimum of t >= 0 with expected log fitness <= 0.

    Finite systems: bracket by doubling, then bisect the strictly decreasing
    expectation to adjacent floats.  A frame family under inverse-square
    probabilities needs no evaluation: the harmonic comparison of
    :func:`expected_log_fitness` certifies divergence to -inf at every
    t >= d and to +inf at every t < d, so the infimum is exactly d.
    """
    if spec.is_frame_family and not spec.probabilities.is_finite:
        return float(spec.d)

    return _bisect_root(lambda t: expected_log_fitness(spec, t).value,
                        what="expected log fitness")


def mauldin_dimension(spec: RIFSSpec) -> float:
    """Infimum of t >= 0 with S(t) = sum_i p_i * sum_j c_j^t <= 1.

    Under inverse-square probabilities it is exactly d, with no evaluation:
    S(t) = sum_i p_i * 2**((d-t)*V_i - t*U_i), so S(d) <= 2**-d < 1 as
    U_i >= 1, and below d the term at M_t = ceil((1+t)/(d-t)) is at least
    p_M * 2**U_M > 1 (2/C at M = 1).  That is the defining infimum only:
    E[N] = sum_i p_i * 2**(d*V_i) is infinite for this family, so nothing is
    claimed about a random-recursive construction on these data.
    Otherwise bisect log2 S(t), one log-sum of log2 p_i + log_fitness(i, t)
    / ln 2 over the support for explicit systems and frame levels alike.
    """
    if spec.is_frame_family and not spec.probabilities.is_finite:
        return float(spec.d)
    prob, support = spec.probabilities.probability, spec.probabilities.support()

    def log2_weighted_sum(t: float) -> float:
        return log_sum_exp2_values(
            math.log2(prob(i)) + log_fitness(spec, i, t) / _LN2 for i in support)

    return _bisect_root(log2_weighted_sum, what="weighted ratio-power sum")


def _bisect_root(decreasing: Callable[[float], float], what: str) -> float:
    """Smallest float t with decreasing(t) <= 0.

    The callee is strictly decreasing in t; the bracket grows by doubling
    from t = 1 with an overflow guard, and bisection runs until its ends
    are adjacent floats, where the midpoint is one of them.
    """
    if decreasing(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while decreasing(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise UnboundedDimensionError(f"{what} stayed positive up to t = {hi}")
    lo = 0.0
    while (mid := (lo + hi) / 2.0) not in (lo, hi):
        if decreasing(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi

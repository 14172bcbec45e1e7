"""Expected log partition sums, their divergence class, and dimension roots.

Two candidate dimensions are computed for a system (p, Psi):

* the Bowen parameter, the infimum of t >= 0 with
  sum_i p_i * log(sum_j c_j^t) <= 0, and
* the random-recursive dimension, the infimum of t >= 0 with
  sum_i p_i * sum_j c_j^t <= 1.

For finite systems both reduce to bisection on a strictly decreasing
function of t.  For the frame family the expectation is a divergent series
whose sign is certified by comparison with the harmonic series, term bounds
that follow from the frame axioms alone, and the Bowen parameter equals the
ambient dimension d exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .numerics import log_sum_exp2_values
from .rifs import RIFSSpec, SpecValidationError, zeta_probability

_LN2 = math.log(2.0)

#: Magnitude guard: frame entries with log2 beyond this are treated as
#: out of float range and contribute +-inf to linear-space formulas.
_FLOAT_SAFE_LOG2 = 990.0


class UnboundedDimensionError(RuntimeError):
    """The defining inequality failed at every probed exponent."""


class MauldinDomainError(SpecValidationError):
    """Random-recursive dimension requested outside its computable domain."""


@dataclass(frozen=True)
class DivergenceVerdict:
    """Classification of the expected log partition sum at one exponent.

    ``partial_sum`` is the float image of the truncated series and saturates
    to +-inf when terms leave machine range; the classification itself never
    rests on it.  The divergent kinds are only ever produced with the
    certified comparison bounds in hand.
    """

    kind: str  # "converges" | "diverges_plus" | "diverges_minus" | "inconclusive"
    terms_used: int
    partial_sum: float
    value: float | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "terms_used": self.terms_used,
            "partial_sum": _json_float(self.partial_sum),
            "value": None if self.value is None else _json_float(self.value),
        }


def _json_float(x: float) -> float | str:
    return x if math.isfinite(x) else repr(x)


def log_fitness(spec: RIFSSpec, i: int, t: float) -> float:
    """Natural log of sum_j c_j^t for system i of ``spec``.

    Explicit systems: a stable log-sum over (ratio, multiplicity) aggregates.
    Frame level i: the closed form (-t*U_i + (d-t)*V_i) * ln 2, evaluated
    from the level's float data while it fits.  Past float range it
    saturates to +-inf, or is 0.0 when the value is exactly zero, and the
    sign is that of (d*q - p)*V_i - p*U_i for t = p/q exactly: taken from a
    generated rule's exact ratio V_i/U_i, or from the integers of an exact
    explicit level.  An explicit level promoted past 4096 bits has neither,
    and compares log2 magnitudes, which cannot resolve a factor such as n in
    V_n = n*U_n past level ~33.
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
    ratio = spec.frame.ratio(i)
    if ratio is not None:
        sign = (d * q - p) * ratio - p
    elif u.is_exact and v.is_exact:
        sign = (d * q - p) * v.as_int() - p * u.as_int()
    elif t == 0.0:
        return math.inf
    else:
        pos = math.log2(d - t) + v.log2
        neg = math.log2(t) + u.log2
        return math.inf if pos >= neg else -math.inf
    return math.inf if sign > 0 else -math.inf if sign < 0 else 0.0


def expected_log_fitness(spec: RIFSSpec, t: float, truncation: int = 50) -> DivergenceVerdict:
    """Partial sum of p_i * log_fitness(i, t) with a certified classification.

    Finite-support systems converge to the exact weighted sum.  For the
    frame family with inverse-square probabilities the series diverges, and
    the direction is certified by the axioms: when t >= d every term is at
    most -d*U_k/k^2 <= -d/k (harmonic minorant to -inf); when t < d the
    terms from M_t = ceil((1+t)/(d-t)) on are at least U_k/k^2 >= 1/k
    (harmonic majorant to +inf) with a finite head.
    """
    if t < 0:
        raise ValueError("the exponent t must be >= 0")
    if truncation < 1:
        raise ValueError("truncation must be >= 1")

    if spec.probabilities.is_finite:
        support = spec.probabilities.support()
        total = 0.0
        for i in support:
            total += spec.probabilities.probability(i) * log_fitness(spec, i, t)
        return DivergenceVerdict(
            kind="converges", terms_used=len(support), partial_sum=total, value=total
        )

    if not spec.is_frame_family:
        raise SpecValidationError(
            "inverse-square probabilities require a frame family"
        )
    partial = 0.0
    for k in range(1, truncation + 1):
        term = zeta_probability(k) * log_fitness(spec, k, t)
        partial = term if math.isinf(term) else partial + term
    kind = "diverges_minus" if t >= spec.d else "diverges_plus"
    return DivergenceVerdict(kind=kind, terms_used=truncation, partial_sum=partial)


def bowen_parameter(spec: RIFSSpec, tol: float = 1e-9, truncation: int = 50) -> float:
    """Infimum of t >= 0 with expected log fitness <= 0.

    Finite systems: bracket by doubling, then bisect the strictly decreasing
    expectation to width ``tol``.  A frame family under inverse-square
    probabilities needs no evaluation: the harmonic comparison of
    :func:`expected_log_fitness` certifies divergence to -inf at every
    t >= d and to +inf at every t < d, so the infimum is exactly d.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.is_frame_family and not spec.probabilities.is_finite:
        return float(spec.d)

    def expectation(t: float) -> float:
        return expected_log_fitness(spec, t, truncation).value

    return _bisect_root(expectation, tol, what="expected log fitness")


def mauldin_dimension(spec: RIFSSpec, tol: float = 1e-9) -> float:
    """Infimum of t >= 0 with sum_i p_i sum_j c_j^t <= 1 (finite systems).

    Frame families are rejected: below t = d the outer series diverges, so
    no truncated evaluation can certify a value there, and that is exactly
    where the infimum sits.  Inner sums are evaluated in log space and only
    compared against 1 through their log, so large multiplicities cannot
    overflow.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if spec.is_frame_family:
        raise MauldinDomainError(
            "random-recursive dimension of a frame family is not computable "
            "from truncated sums; the series diverges below t = d"
        )

    support = spec.probabilities.support()

    def log2_weighted_sum(t: float) -> float:
        terms = []
        for i in support:
            lp = math.log2(spec.probabilities.probability(i))
            for agg in spec.systems[i - 1]:
                terms.append(lp + math.log2(agg.multiplicity) + t * agg.log2_ratio)
        return log_sum_exp2_values(terms)

    return _bisect_root(log2_weighted_sum, tol, what="weighted ratio-power sum")


def _bisect_root(decreasing: Callable[[float], float], tol: float, what: str) -> float:
    """Smallest t with decreasing(t) <= 0, to width tol.

    The callee is strictly decreasing in t; the bracket grows by doubling
    from t = 1 with an overflow guard.
    """
    if decreasing(0.0) <= 0.0:
        return 0.0
    hi = 1.0
    while decreasing(hi) > 0.0:
        hi *= 2.0
        if hi > 2.0 ** 60:
            raise UnboundedDimensionError(f"{what} stayed positive up to t = {hi}")
    lo = 0.0
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if decreasing(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0

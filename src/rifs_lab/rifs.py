"""Random iterated function systems: probability vectors plus indexed map families.

Map families are stored as (log2 ratio, multiplicity) aggregates, never as
individual maps: the counterexample family has 2**(d*V_i) maps at level i,
so explicit enumeration is impossible beyond the first couple of levels, and
every formula downstream depends only on the multiset of ratios.  Geometry
(translation vectors, cylinder cubes) lives in :mod:`rifs_lab.cover`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .frame import Frame, frame_from_doc

#: Basel constant, the normalizer of the inverse-square probability vector.
INVERSE_SQUARE_C = math.pi ** 2 / 6

_PROB_SUM_TOL = 1e-12


class SpecValidationError(ValueError):
    """A config document that does not describe a valid system."""


def zeta_probability(n: int) -> float:
    """p_n = 1 / (C n^2) with C = pi^2/6, good to ~1e-16 relative."""
    if n < 1:
        raise ValueError("symbols are 1-indexed")
    return 1.0 / (INVERSE_SQUARE_C * n * n)


def zeta_tail(n: int) -> float:
    """Tail mass sum(p_k for k > n); lies strictly between 1/(C(n+1)) and 1/(Cn)."""
    if n < 0:
        raise ValueError("tail index must be nonnegative")
    if n == 0:
        return 1.0
    if n <= 10_000:
        partial = math.fsum(1.0 / (k * k) for k in range(1, n + 1))
        return (INVERSE_SQUARE_C - partial) / INVERSE_SQUARE_C
    # Euler-Maclaurin tail of sum 1/k^2: 1/n - 1/(2n^2) + 1/(6n^3) - 1/(30n^5)
    x = 1.0 / n
    tail2 = x - x * x / 2.0 + x ** 3 / 6.0 - x ** 5 / 30.0
    return tail2 / INVERSE_SQUARE_C


class ProbVector:
    """Probability vector over symbols 1, 2, ...

    Either a finite list or the inverse-square law p_n = 1/(C n^2).  The CDF
    is read-only: a finite vector's cumsum, or the first values of
    :data:`INVERSE_SQUARE_CDF`, one table shared by every inverse-square
    vector.  :meth:`cdf_block` carries the same left-to-right cumsum past the
    table, so every value is bit-identical to a one-shot cumsum.
    """

    def __init__(self, kind: str, values: tuple[float, ...] | None = None):
        if kind not in ("finite", "inverse_square"):
            raise SpecValidationError(f"unknown probability kind {kind!r}")
        if kind == "finite":
            if not values:
                raise SpecValidationError("finite probabilities need at least one entry")
            if any(p < 0 for p in values):
                raise SpecValidationError("probabilities must be nonnegative")
            if not any(p > 0 for p in values):
                raise SpecValidationError("probabilities must not all be zero")
            total = math.fsum(values)
            if not abs(total - 1.0) <= _PROB_SUM_TOL:  # NaN fails too
                raise SpecValidationError(f"probabilities sum != 1 (got {total!r})")
            values = tuple(float(p) for p in values)
            self._cdf = np.cumsum(np.asarray(values, dtype=np.float64))
            self._cdf.setflags(write=False)
        else:
            values = None
            self._cdf = INVERSE_SQUARE_CDF
        self.kind = kind
        self.values = values

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def probability(self, n: int) -> float:
        if n < 1:
            raise ValueError("symbols are 1-indexed")
        if self.kind == "inverse_square":
            return zeta_probability(n)
        return self.values[n - 1] if n <= len(self.values) else 0.0

    def support(self) -> list[int]:
        """Symbols with positive probability; finite kind only."""
        if self.kind != "finite":
            raise SpecValidationError("inverse-square support is all of the naturals")
        return [i + 1 for i, p in enumerate(self.values) if p > 0]

    def prefix_cdf(self, n: int) -> np.ndarray:
        """CDF over symbols 1..n (a finite vector's whole CDF), read-only."""
        if self.kind == "finite":
            return self._cdf
        if n > len(self._cdf):
            raise ValueError(f"the inverse-square CDF table stops at symbol {len(self._cdf)}")
        return self._cdf[:n]

    @staticmethod
    def cdf_block(lo: int, hi: int, start: float) -> np.ndarray:
        """Inverse-square CDF over symbols lo+1..hi, accumulated onto
        ``start``, the CDF at ``lo``; the same values as a one-shot cumsum."""
        k = np.arange(lo + 1, hi + 1, dtype=np.float64)
        terms = 1.0 / (INVERSE_SQUARE_C * k * k)
        terms[0] += start
        return np.cumsum(terms)


#: The inverse-square CDF over symbols 1..2^14, built once; draws past it
#: are placed by :meth:`ProbVector.cdf_block` walks.
INVERSE_SQUARE_CDF = ProbVector.cdf_block(0, 1 << 14, 0.0)
INVERSE_SQUARE_CDF.setflags(write=False)


@dataclass(frozen=True)
class MapAggregate:
    """A bundle of ``multiplicity`` similarity maps sharing one ratio."""

    log2_ratio: float
    multiplicity: int


@dataclass(frozen=True, eq=False)
class RIFSSpec:
    """A probability vector plus the family it picks from.

    Either ``systems``, one tuple of ratio aggregates per explicit system,
    or a ``frame`` and dimension ``d``: frame level i is the system of
    2**(d*V_i) maps on [0,1]^d, every one with ratio 2**-(U_i+V_i), whose
    exponents outgrow floats long before the counts do.
    """

    probabilities: ProbVector
    systems: tuple[tuple[MapAggregate, ...], ...] = ()
    frame: Frame | None = None
    d: int = 0
    eta: float = 0.0

    @property
    def is_frame_family(self) -> bool:
        return self.frame is not None


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the shared-alphabet check behind the dimension formula."""

    holds: bool
    reasons: tuple[str, ...]

    def to_dict(self) -> dict:
        return {"holds": self.holds, "reasons": list(self.reasons)}


def check_bowen_hypothesis(spec: RIFSSpec) -> HypothesisReport:
    """Do all systems carrying positive probability share one index set?

    With aggregate storage the checkable proxy is an equal total map count
    under a consistent indexing.  Frame levels never share one: the axioms
    give V_{n+1} >= (n+1)(U_n+V_n)^3 > V_n, so the first two charged levels
    are named.  The ratio-boundedness condition for genuinely infinite
    alphabets cannot be instantiated here and is reported as not applicable.
    """
    reasons: list[str] = []
    if spec.is_frame_family:
        charged = spec.probabilities.support() if spec.probabilities.is_finite else [1, 2]
        if len(charged) > 1:
            first, second = charged[:2]
            reasons.append(
                f"map counts differ between levels {first} and {second} "
                f"({_count_label(spec, first)} vs {_count_label(spec, second)})"
            )
    else:
        counts = {i: sum(a.multiplicity for a in spec.systems[i - 1])
                  for i in spec.probabilities.support()}
        if len(set(counts.values())) > 1:
            reasons.append(
                "map counts differ across positive-probability systems: "
                + ", ".join(f"#{i}: {c}" for i, c in counts.items())
            )
    holds = not reasons
    reasons.append("infinite-alphabet ratio condition: not applicable to finite systems")
    return HypothesisReport(holds=holds, reasons=tuple(reasons))


def _count_label(spec: RIFSSpec, i: int) -> str:
    """2**(d*V_i), frame level i's map count: in decimal below 2**64, as
    ``2^x`` while d*V_i is a finite float, and as ``2^(d*V_i)`` past that."""
    v = spec.frame.entry(i).v
    if v.is_exact and spec.d * v.as_int() < 64:
        return str(1 << spec.d * v.as_int())
    log2 = spec.d * v.to_float()
    return f"2^{log2:.6g}" if math.isfinite(log2) else f"2^(d*V_{i})"


# -- config ingestion -------------------------------------------------------


def _finite_number(value, what: str) -> float:
    """A finite JSON number (not a string or a bool) as a float."""
    try:
        x = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer past float range
        x = math.inf
    if not math.isfinite(x):
        raise SpecValidationError(f"{what} must be a finite number, got {value!r}")
    return x


def _eta(doc: dict, max_log2_ratio: float) -> float:
    """The config's ``eta``; by default halfway between the largest ratio and
    1, which strictly dominates every map."""
    if "eta" in doc:
        eta = _finite_number(doc["eta"], "eta")
    else:
        eta = (1.0 + 2.0 ** max_log2_ratio) / 2.0
    if not 0.0 < eta < 1.0:
        raise SpecValidationError(f"eta must lie in (0, 1), got {eta}")
    return eta


def validate_spec(doc: dict) -> RIFSSpec:
    """Build an :class:`RIFSSpec` from a config document, enforcing invariants.

    Expected shape::

        {"probabilities": {"kind": "finite", "values": [...]} | {"kind": "inverse_square"},
         "family": {"kind": "explicit", "ifs": [{"maps": [{"log2_ratio": r,
                                                           "multiplicity": m}, ...]}, ...]}
                  | {"kind": "frame", "frame": <frame doc>, "d": k},
         "eta": <optional float>}
    """
    if not isinstance(doc, dict):
        raise SpecValidationError("config must be a JSON object")
    try:
        prob_doc = doc["probabilities"]
        family_doc = doc["family"]
    except KeyError as exc:
        raise SpecValidationError(f"config missing section {exc}") from exc

    if not isinstance(prob_doc, dict) or "kind" not in prob_doc:
        raise SpecValidationError("'probabilities' needs a 'kind'")
    if prob_doc["kind"] == "finite":
        values = prob_doc.get("values")
        if not isinstance(values, list):
            raise SpecValidationError("finite probabilities need a 'values' list")
        probs = ProbVector("finite", tuple(_finite_number(v, "a probability") for v in values))
    else:
        probs = ProbVector(str(prob_doc["kind"]))

    if not isinstance(family_doc, dict) or "kind" not in family_doc:
        raise SpecValidationError("'family' needs a 'kind'")
    fam_kind = family_doc["kind"]

    if fam_kind == "explicit":
        raw_ifs = family_doc.get("ifs")
        if not isinstance(raw_ifs, list) or not raw_ifs:
            raise SpecValidationError("explicit family needs a nonempty 'ifs' list")
        if probs.kind == "inverse_square":
            raise SpecValidationError(
                "inverse-square probabilities put mass on every level; "
                "only a frame family provides one"
            )
        systems = []
        for idx, entry in enumerate(raw_ifs, start=1):
            maps = entry.get("maps") if isinstance(entry, dict) else None
            if not isinstance(maps, list) or not maps:
                raise SpecValidationError(f"system #{idx} needs a nonempty 'maps' list")
            aggs = []
            for m in maps:
                try:
                    r, mult = m["log2_ratio"], m["multiplicity"]
                except (KeyError, TypeError) as exc:
                    raise SpecValidationError(
                        f"system #{idx}: maps need 'log2_ratio' and 'multiplicity'"
                    ) from exc
                r = _finite_number(r, f"system #{idx}: log2_ratio")
                if r >= 0:
                    raise SpecValidationError(
                        f"system #{idx}: not a contraction (log2_ratio = {r})"
                    )
                if type(mult) is not int or mult < 1:
                    raise SpecValidationError(
                        f"system #{idx}: multiplicity must be an integer >= 1, got {mult!r}")
                aggs.append(MapAggregate(r, mult))
            if sum(a.multiplicity for a in aggs) < 2:
                raise SpecValidationError(f"system #{idx}: needs at least 2 maps")
            systems.append(tuple(aggs))
        if len(probs.values) > len(systems) and any(
            p > 0 for p in probs.values[len(systems):]
        ):
            raise SpecValidationError(
                "probability vector puts mass beyond the last system"
            )
        max_ratio = max(a.log2_ratio for aggs in systems for a in aggs)
        eta = _eta(doc, max_ratio)
        if 2.0 ** max_ratio >= eta:
            raise SpecValidationError(
                f"eta = {eta} does not dominate the largest ratio 2^{max_ratio}"
            )
        return RIFSSpec(probabilities=probs, systems=tuple(systems), eta=eta)

    if fam_kind == "frame":
        if "frame" not in family_doc:
            raise SpecValidationError("frame family needs a 'frame' document")
        frame = frame_from_doc(family_doc["frame"])
        d = family_doc.get("d")
        if type(d) is not int or d < 1:  # a bool is no dimension
            raise SpecValidationError("frame family needs an integer dimension d >= 1")
        eta = _eta(doc, -(frame.entry(1).u.add(frame.entry(1).v).to_float()))
        if not frame.is_generated:
            if not probs.is_finite:
                raise SpecValidationError(
                    "inverse-square probabilities charge every level, past the "
                    f"explicit frame's last level {len(frame)}"
                )
            if max(probs.support()) > len(frame):
                raise SpecValidationError(
                    f"probabilities charge level {max(probs.support())}, past the "
                    f"explicit frame's last level {len(frame)}"
                )
        return RIFSSpec(probabilities=probs, frame=frame, d=d, eta=eta)

    raise SpecValidationError(f"unknown family kind {fam_kind!r}")


def load_spec(text: str) -> RIFSSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"config is not valid JSON: {exc}") from exc
    return validate_spec(doc)

"""Growth schedules (U_n, V_n) that generate the counterexample family.

A frame is a pair of positive-integer sequences subject to two axioms:
the first single-map run length is at least 1, and level by level
``n*U_n <= V_n`` and ``(U_n + V_n)**3 <= U_{n+1}``.  Entries therefore grow
triple-exponentially and are held as :class:`HybridNumber` values.

Generated frames (rules ``minimal`` and ``custom-slack``) materialize
lazily into one process-wide level table per slack pair: levels are
appended on first access under a lock, so concurrent readers always
observe a consistent prefix, and each frame keeps its own depth.  Explicit
frames ingested from files cannot extend and raise :class:`FrameDepthError`
past their last level.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

from .numerics import HybridNumber


class FrameError(ValueError):
    """Invalid frame data."""


class FrameDepthError(FrameError):
    """A level beyond what the frame can represent or extend to."""


@dataclass(frozen=True)
class FrameLevel:
    """One level: ``u`` single-map steps followed by ``v`` full-branching steps."""

    u: HybridNumber
    v: HybridNumber


@dataclass(frozen=True)
class ClauseViolation:
    level: int
    clause: str
    detail: str


@dataclass(frozen=True)
class FrameReport:
    valid: bool
    violations: tuple[ClauseViolation, ...]

    def to_dict(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [
                {"level": v.level, "clause": v.clause, "detail": v.detail}
                for v in self.violations
            ],
        }


#: Level tables of the generated rules, keyed by slack pair, shared by every
#: generated frame in the process; appended to only under ``_TABLE_LOCK``.
#: A level that fails to materialize is not stored, so it raises each time.
_TABLES: dict[tuple[int, int], list[FrameLevel]] = {}
_TABLE_LOCK = threading.Lock()


class Frame:
    """Validated (U_n, V_n) schedule with optional lazy extension.

    An explicit frame holds ``levels``; a generated one (``rule`` minimal or
    custom-slack) takes none and reads its rule's shared table.
    """

    def __init__(
        self,
        levels: Sequence[FrameLevel] = (),
        rule: str = "explicit",
        slack: tuple[int, int] | None = None,
    ):
        self.rule = rule
        self.slack = slack
        if self.is_generated:
            self._levels = _TABLES.setdefault(slack or (1, 1), [])
            self._depth = 0
        else:
            self._levels = list(levels)
            self._depth = len(self._levels)

    # -- construction ---------------------------------------------------

    @classmethod
    def explicit(cls, pairs: Sequence[tuple[int, int]]) -> "Frame":
        """Frame from integer (U, V) pairs that satisfy every axiom."""
        report = validate_frame(pairs)
        if not report.valid:
            first = report.violations[0]
            raise FrameError(
                f"invalid frame: level {first.level}: {first.clause}: {first.detail}"
            )
        return cls([FrameLevel(HybridNumber.from_int(u), HybridNumber.from_int(v))
                    for u, v in pairs], rule="explicit")

    def __len__(self) -> int:
        return self._depth

    @property
    def is_generated(self) -> bool:
        return self.rule in ("minimal", "custom-slack")

    # -- access -----------------------------------------------------------

    def entry(self, n: int) -> FrameLevel:
        """Level ``n`` (1-indexed), extending generated frames on demand."""
        if n < 1:
            raise FrameDepthError(f"frame levels are 1-indexed, got {n}")
        if n <= self._depth:
            return self._levels[n - 1]
        if not self.is_generated:
            raise FrameDepthError(
                f"frame has {self._depth} levels, level {n} requested"
            )
        with _TABLE_LOCK:
            while len(self._levels) < n:
                self._extend_one()
            self._depth = max(self._depth, n)
        return self._levels[n - 1]

    def ratio(self, n: int) -> int | None:
        """V_n / U_n of a generated frame, n*sv exactly by its rule, at any
        level and in any form of the entries; None for an explicit frame."""
        return n * (self.slack or (1, 1))[1] if self.is_generated else None

    def _extend_one(self) -> None:
        """Append the next level to the shared table (``_TABLE_LOCK`` held)."""
        k = len(self._levels)
        try:
            if k == 0:
                u = HybridNumber.from_int(1)
            else:
                prev = self._levels[-1]
                u = prev.u.add(prev.v).pow3().scale((self.slack or (1, 1))[0])
            v = u.scale(self.ratio(k + 1))
        except ValueError as exc:  # log2 magnitude left float range
            raise FrameDepthError(
                f"frame level {k + 1} exceeds representable magnitude"
            ) from exc
        self._levels.append(FrameLevel(u, v))

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> object:
        if self.rule == "minimal":
            return {"rule": "minimal", "levels": self._depth}
        if self.rule == "custom-slack":
            return {
                "rule": "custom-slack",
                "levels": self._depth,
                "slack": list(self.slack or (1, 1)),
            }
        out = []
        for lvl in self._levels:
            if not (lvl.u.is_exact and lvl.v.is_exact):
                raise FrameError("cannot serialize promoted entries as decimal strings")
            out.append([str(lvl.u.as_int()), str(lvl.v.as_int())])
        return out


def minimal_frame(levels: int, slack: tuple[int, int] | None = None) -> Frame:
    """Frame with every axiom tight: U_1 = 1, V_n = n*U_n, U_{n+1} = (U_n+V_n)**3.

    The axioms only bound growth from below; taking them with equality keeps
    entries as small as possible, which is what desk-scale enumeration wants.
    ``slack=(su, sv)`` multiplies the tight choices to probe robustness.
    """
    if levels < 1:
        raise FrameError("a frame needs at least one level")
    rule = "minimal" if slack in (None, (1, 1)) else "custom-slack"
    if slack is not None and (slack[0] < 1 or slack[1] < 1):
        raise FrameError("slack multipliers must be positive integers")
    frame = Frame(rule=rule, slack=slack)
    frame.entry(levels)
    return frame


def validate_frame(pairs: Sequence[tuple[int, int]]) -> FrameReport:
    """Check every axiom clause, reporting all violations with level indices.

    Also asserts the derived bound ``V_k >= k + 1`` for ``k >= 2``, which
    follows from the axioms and is relied on downstream; it can only fire on
    data that already violates a primary clause.
    """
    violations: list[ClauseViolation] = []
    if not pairs:
        return FrameReport(False, (ClauseViolation(0, "nonempty", "no levels given"),))
    for idx, (u, v) in enumerate(pairs, start=1):
        if u <= 0 or v <= 0:
            violations.append(
                ClauseViolation(idx, "positive", f"entries must be positive, got ({u}, {v})")
            )
    if pairs[0][0] < 1:
        violations.append(ClauseViolation(1, "U_1 >= 1", f"U_1 = {pairs[0][0]}"))
    if any(v.clause == "positive" for v in violations):
        return FrameReport(False, tuple(violations))
    for idx, (u, v) in enumerate(pairs, start=1):
        if idx * u > v:
            violations.append(
                ClauseViolation(idx, "n*U_n <= V_n", f"{idx}*{u} = {idx * u} > {v}")
            )
        if idx < len(pairs):
            nxt = pairs[idx][0]
            cube = (u + v) ** 3
            if cube > nxt:
                violations.append(
                    ClauseViolation(
                        idx, "(U_n+V_n)^3 <= U_{n+1}",
                        f"({u}+{v})^3 = {cube} > {nxt}",
                    )
                )
        if idx >= 2 and v < idx + 1:
            violations.append(
                ClauseViolation(idx, "V_k >= k+1 (derived)", f"V_{idx} = {v} < {idx + 1}")
            )
    return FrameReport(not violations, tuple(violations))


def frame_from_doc(doc: object) -> Frame:
    """Parse the frame file format.

    Accepts either a JSON array of [U, V] decimal-string pairs or the
    generated-rule shorthand ``{"rule": "minimal", "levels": k}`` (optionally
    with ``"slack": [su, sv]`` for the custom-slack rule).
    """
    if isinstance(doc, dict):
        rule = doc.get("rule")
        if rule not in ("minimal", "custom-slack"):
            raise FrameError(f"unknown frame rule {rule!r}")
        levels = doc.get("levels")
        if type(levels) is not int or levels < 1:  # a bool is no level count
            raise FrameError("frame shorthand needs a positive integer 'levels'")
        slack = None
        if rule == "custom-slack":
            raw = doc.get("slack", [1, 1])
            if (not isinstance(raw, list) or len(raw) != 2
                    or not all(type(x) is int and x >= 1 for x in raw)):
                raise FrameError("'slack' must be a pair of positive integers")
            slack = (raw[0], raw[1])
        return minimal_frame(levels, slack=slack)
    if isinstance(doc, list):
        return Frame.explicit(frame_pairs(doc))
    raise FrameError("frame document must be a list of pairs or a rule object")


def frame_pairs(doc: object) -> list[tuple[int, int]]:
    """Integer (U, V) pairs of a frame file's ``[U, V]`` decimal-string list."""
    if not isinstance(doc, list):
        raise FrameError("frame file must hold [U, V] decimal-string pairs")
    pairs = []
    for i, item in enumerate(doc, start=1):
        if not isinstance(item, list) or len(item) != 2:
            raise FrameError(f"level {i}: expected a [U, V] pair")
        try:
            pairs.append((int(item[0]), int(item[1])))
        except (TypeError, ValueError) as exc:
            raise FrameError(f"level {i}: entries must be decimal integers") from exc
    return pairs

"""Growth schedules (U_n, V_n) that generate the counterexample family.

A frame is a pair of positive-integer sequences subject to two axioms:
the first single-map run length is at least 1, and level by level
``n*U_n <= V_n`` and ``(U_n + V_n)**3 <= U_{n+1}``.  Entries therefore grow
triple-exponentially and are held as :class:`HybridNumber` values.

Generated frames (rules ``minimal`` and ``custom-slack``) materialize
lazily into one process-wide level table per slack pair: levels are
appended on first access under a lock, so concurrent readers always
observe a consistent prefix, and each frame keeps its own depth.  Explicit
frames keep the integer pairs they were given, cannot extend and raise
:class:`FrameDepthError` past their last level.
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


#: Level tables of the generated rules, keyed by slack pair, shared by every
#: generated frame in the process; appended to only under ``_TABLE_LOCK``.
#: A level that fails to materialize is not stored, so it raises each time.
_TABLES: dict[tuple[int, int], list[FrameLevel]] = {}
_TABLE_LOCK = threading.Lock()


class Frame:
    """Validated (U_n, V_n) schedule: an explicit frame's integer ``pairs``,
    kept as given, or the rule of a ``slack`` pair (su, sv), U_1 = 1,
    V_n = n*sv*U_n and U_{n+1} = su*(U_n+V_n)**3, whose levels extend lazily
    in the rule's shared table.  ``slack`` is None for an explicit frame.
    """

    def __init__(self, pairs: Sequence[tuple[int, int]] = (),
                 slack: tuple[int, int] | None = None):
        self.pairs, self.slack = tuple(pairs), slack
        if slack is None:
            self._levels = [FrameLevel(HybridNumber.from_int(u), HybridNumber.from_int(v))
                            for u, v in self.pairs]
        else:
            self._levels = _TABLES.setdefault(slack, [])
        self._depth = len(self.pairs)

    # -- construction ---------------------------------------------------

    @classmethod
    def explicit(cls, pairs: Sequence[tuple[int, int]]) -> "Frame":
        """Frame from integer (U, V) pairs that satisfy every axiom."""
        if violations := validate_frame(pairs):
            first = violations[0]
            raise FrameError(
                f"invalid frame: level {first['level']}: {first['clause']}: {first['detail']}"
            )
        return cls(pairs)

    def __len__(self) -> int:
        return self._depth

    @property
    def rule(self) -> str:
        """``explicit``, ``minimal`` (slack (1, 1)) or ``custom-slack``."""
        if self.slack is None:
            return "explicit"
        return "minimal" if self.slack == (1, 1) else "custom-slack"

    # -- access -----------------------------------------------------------

    def entry(self, n: int) -> FrameLevel:
        """Level ``n`` (1-indexed), extending generated frames on demand."""
        if n < 1:
            raise FrameDepthError(f"frame levels are 1-indexed, got {n}")
        if n <= self._depth:
            return self._levels[n - 1]
        if self.slack is None:
            raise FrameDepthError(
                f"frame has {self._depth} levels, level {n} requested"
            )
        with _TABLE_LOCK:
            while len(self._levels) < n:
                self._extend_one()
            self._depth = max(self._depth, n)
        return self._levels[n - 1]

    def ratio(self, n: int) -> tuple[int, int]:
        """Integers (V, U) with V/U = V_n/U_n exactly, at any level and in any
        form of the entries: an explicit frame's own pair, or (n*sv, 1) by
        the rule.  ``n`` is a level that :meth:`entry` returns."""
        if self.slack is None:
            u, v = self.pairs[n - 1]
            return v, u
        return n * self.slack[1], 1

    def _extend_one(self) -> None:
        """Append the next level to the shared table (``_TABLE_LOCK`` held)."""
        k, (su, sv) = len(self._levels), self.slack
        try:
            if k == 0:
                u = HybridNumber.from_int(1)
            else:
                prev = self._levels[-1]
                u = prev.u.add(prev.v).pow3().scale(su)
            v = u.scale((k + 1) * sv)
        except ValueError as exc:  # log2 magnitude left float range
            raise FrameDepthError(
                f"frame level {k + 1} exceeds representable magnitude"
            ) from exc
        self._levels.append(FrameLevel(u, v))

    # -- serialization ------------------------------------------------------

    def to_doc(self) -> object:
        """The frame file document: the kept pairs as decimal strings, or the
        rule shorthand at this frame's depth."""
        if self.slack is None:
            return [[str(u), str(v)] for u, v in self.pairs]
        doc = {"rule": self.rule, "levels": self._depth}
        return doc if self.slack == (1, 1) else {**doc, "slack": list(self.slack)}


def minimal_frame(levels: int, slack: tuple[int, int] | None = None) -> Frame:
    """Frame with every axiom tight: U_1 = 1, V_n = n*U_n, U_{n+1} = (U_n+V_n)**3.

    The axioms only bound growth from below; taking them with equality keeps
    entries as small as possible, which is what desk-scale enumeration wants.
    ``slack=(su, sv)`` multiplies the tight choices to probe robustness.
    """
    if levels < 1:
        raise FrameError("a frame needs at least one level")
    slack = slack or (1, 1)
    if slack[0] < 1 or slack[1] < 1:
        raise FrameError("slack multipliers must be positive integers")
    frame = Frame(slack=slack)
    frame.entry(levels)
    return frame


def validate_frame(pairs: Sequence[tuple[int, int]]) -> list[dict]:
    """Every violated axiom clause, as ``{"level", "clause", "detail"}``
    documents in check order; the frame is valid when the list is empty.

    Also asserts the derived bound ``V_k >= k + 1`` for ``k >= 2``, which
    follows from the axioms and is relied on downstream; it can only fire on
    data that already violates a primary clause.
    """
    violations: list[dict] = []

    def violation(level: int, clause: str, detail: str) -> None:
        violations.append({"level": level, "clause": clause, "detail": detail})

    if not pairs:
        violation(0, "nonempty", "no levels given")
        return violations
    for idx, (u, v) in enumerate(pairs, start=1):
        if u <= 0 or v <= 0:
            violation(idx, "positive", f"entries must be positive, got ({u}, {v})")
    if pairs[0][0] < 1:
        violation(1, "U_1 >= 1", f"U_1 = {pairs[0][0]}")
    if any(v["clause"] == "positive" for v in violations):
        return violations
    for idx, (u, v) in enumerate(pairs, start=1):
        if idx * u > v:
            violation(idx, "n*U_n <= V_n", f"{idx}*{u} = {idx * u} > {v}")
        if idx < len(pairs):
            nxt = pairs[idx][0]
            cube = (u + v) ** 3
            if cube > nxt:
                violation(idx, "(U_n+V_n)^3 <= U_{n+1}", f"({u}+{v})^3 = {cube} > {nxt}")
        if idx >= 2 and v < idx + 1:
            violation(idx, "V_k >= k+1 (derived)", f"V_{idx} = {v} < {idx + 1}")
    return violations


def known_keys(doc: dict, keys: tuple[str, ...], where: str,
               error: type[ValueError] = FrameError) -> None:
    """Reject a key of ``doc`` outside ``keys``, which nothing would read,
    as ``error`` naming ``where`` and the key."""
    if unknown := sorted(set(doc) - set(keys)):
        raise error(f"{where} has unknown key(s) {', '.join(map(repr, unknown))}")


def frame_from_doc(doc: object) -> Frame:
    """Parse the frame file format.

    Accepts either a JSON array of [U, V] decimal-string pairs or the
    generated-rule shorthand ``{"rule": "minimal", "levels": k}``, or
    ``{"rule": "custom-slack", "levels": k, "slack": [su, sv]}``, with no
    other key.
    """
    if isinstance(doc, dict):
        rule = doc.get("rule")
        if rule not in ("minimal", "custom-slack"):
            raise FrameError(f"unknown frame rule {rule!r}")
        known_keys(doc, ("rule", "levels", "slack") if rule == "custom-slack"
                   else ("rule", "levels"), "frame shorthand")
        levels = doc.get("levels")
        if type(levels) is not int or levels < 1:  # a bool is no level count
            raise FrameError("frame shorthand needs a positive integer 'levels'")
        raw = doc.get("slack", [1, 1])
        if (not isinstance(raw, list) or len(raw) != 2
                or not all(type(x) is int and x >= 1 for x in raw)):
            raise FrameError("'slack' must be a pair of positive integers")
        return minimal_frame(levels, slack=(raw[0], raw[1]))
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

"""Concrete geometry on [0,1]^d: cylinder covers, open-set check, point export.

Every map in play halves the cube and translates by half a 0/1 vector, so a
depth-m cylinder is the dyadic cube corner/2^m + [0, 2^-m]^d whose corner
numerator in coordinate l is the binary number reading bit l of the word's
steps from most to least significant.  A depth-m cover is one ``(N, d)``
array of corner numerators, one row per word in lexicographic word order;
its level is m.  Corners stay exact integers until emission: ``int64`` while
m <= 62, Python ints (``object`` dtype) beyond, in the same code.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .numerics import HybridNumber
from .pressure import BranchProfile, CoverageError

#: Default ceiling on enumerated words (not on depth: single-map runs are free).
DEFAULT_BUDGET = 2 ** 20

#: Deepest level whose cube side 2^-level is a nonzero float (a subnormal).
MAX_POINTS_LEVEL = 1074

#: Rows formatted at a time by the ``cover enum`` and ``cover points`` writers.
BLOCK = 1 << 15


class BudgetError(RuntimeError):
    """Enumeration would exceed the word budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration needs {required} words, budget is {budget}; "
            f"rerun with a budget of at least {required}"
        )


class PointExportError(ValueError):
    """Point export beyond 3 coordinates or past :data:`MAX_POINTS_LEVEL`."""

    @staticmethod
    def check(d: int, level: int) -> None:
        """Raise unless a level-``level`` cover in ``d`` coordinates can be
        exported; cheap, so callers run it before they enumerate."""
        if d > 3:
            raise PointExportError(f"point export supports d <= 3, got d = {d}")
        if level > MAX_POINTS_LEVEL:
            raise PointExportError(
                f"point export supports depth <= {MAX_POINTS_LEVEL}, where the side "
                f"2^-depth is still a nonzero float; got depth {level}")


@dataclass(frozen=True)
class CylinderCode:
    """A refined word: one 0/1 vector per step, with per-step alphabet flags.

    Steps flagged as single-map (corner-only) must carry the all-zero
    vector; full steps may carry any vector in {0,1}^d.
    """

    word: tuple[tuple[int, ...], ...]
    full_step: tuple[bool, ...]

    def __post_init__(self):
        if len(self.word) != len(self.full_step):
            raise ValueError("one alphabet flag per step is required")
        if not self.word:
            raise ValueError("codes have at least one step")
        d = len(self.word[0])
        for k, (vec, full) in enumerate(zip(self.word, self.full_step), start=1):
            if len(vec) != d:
                raise ValueError(f"step {k}: mixed dimensions in word")
            if any(bit not in (0, 1) for bit in vec):
                raise ValueError(f"step {k}: entries must be bits")
            if not full and any(vec):
                raise ValueError(f"step {k}: single-map step must use the zero vector")

    @property
    def depth(self) -> int:
        return len(self.word)

    @property
    def d(self) -> int:
        return len(self.word[0])


def cylinder_to_cube(code: CylinderCode) -> tuple[int, ...]:
    """Corner numerators, at level ``code.depth``, of the unit cube's image
    under the word's composition.

    Bit l of step k contributes 2^(depth-k) to coordinate l's corner
    numerator: earlier steps are more significant.
    """
    m = code.depth
    corner = [0] * code.d
    for k, vec in enumerate(code.word, start=1):
        w = 1 << (m - k)
        for l, bit in enumerate(vec):
            if bit:
                corner[l] += w
    return tuple(corner)


def step_flags(profile: BranchProfile, depth: int) -> list[bool]:
    """Branching flag for refined steps 1..depth; needs exact run lengths."""
    if depth < 1:
        raise CoverageError("depth must be >= 1")
    flags: list[bool] = []
    for run in profile.runs:
        if not (run.flat_len.is_exact and run.branch_len.is_exact):
            raise CoverageError(
                "step enumeration needs exact run lengths; the schedule has "
                "been promoted to log form at this depth"
            )
        # a run may be far longer than the steps still needed
        flags.extend([False] * min(run.flat_len.as_int(), depth - len(flags)))
        flags.extend([True] * min(run.branch_len.as_int(), depth - len(flags)))
        if len(flags) == depth:
            return flags
    raise CoverageError(
        f"profile covers {len(flags)} refined steps, depth {depth} requested"
    )


def enumerate_cylinders(
    profile: BranchProfile, depth: int, budget: int = DEFAULT_BUDGET
) -> np.ndarray:
    """Corner numerators of all depth-m cylinders, one row per word in
    lexicographic word order.

    The word count is 2^(d*B_m); the budget guards that count, not the
    depth, since single-map runs extend words for free.
    """
    flags = step_flags(profile, depth)
    d = profile.d
    required = 2 ** (d * sum(flags))
    if required > budget:
        raise BudgetError(required, budget)

    dtype = np.int64 if depth <= 62 else object  # numerators are below 2^depth
    corners = np.zeros((1, d), dtype=dtype)
    if required == 1:
        return corners
    # built only once a step branches: then 2^d <= required <= budget
    vectors = np.array(list(itertools.product((0, 1), repeat=d)), dtype=dtype)
    for k, full in enumerate(flags, start=1):
        if full:
            # each row branches into 2^d children, kept next to each other
            corners = (corners[:, None, :] + vectors * (1 << (depth - k))).reshape(-1, d)
    return corners


def osc_check(corners: np.ndarray) -> bool:
    """Pairwise-disjoint interiors: same-level dyadic cubes, distinct corners."""
    ordered = corners[np.lexsort(corners.T)]
    return not (ordered[1:] == ordered[:-1]).all(axis=1).any()


def box_exponents(
    profile: BranchProfile, depths: list[HybridNumber | int]
) -> list[tuple[HybridNumber | int, float]]:
    """(m, d*B_m/m) per requested depth, via log2 space for large m.

    B_m <= m always, so the result is clamped into [0, d]; the clamp only
    acts when log2 magnitudes are so large that their float ulp exceeds the
    true gap.
    """
    out = []
    for m in depths:
        hm = HybridNumber.from_int(m) if isinstance(m, int) else m
        bm = profile.branch_count_at(hm)
        e = 0.0 if bm.is_zero else profile.d * 2.0 ** (bm.log2 - hm.log2)
        out.append((m, min(e, float(profile.d))))
    return out


def emit_points(corners: np.ndarray, level: int) -> str:
    """CSV of cube corners and side lengths for external plotting (d <= 3).

    A coordinate is ``repr`` of the corner numerator over 2^level, divided
    once (true division rounds once, also for numerators past the float
    range).  Division and ``repr`` run once per distinct value of a column,
    and the rows are joined from those cells :data:`BLOCK` at a time.  In a
    cover of N = 2^(d*B_m) words a column holds at most 2^B_m = N^(1/d)
    distinct numerators, so ``repr`` runs at most d*N^(1/d) times, not d*N.
    The CSV is still returned whole, as one ``str``: the CLI writes it in
    one call, and the benchmark's per-layer tracer (``cover.points_bytes``)
    reads its length.
    """
    n, d = corners.shape
    PointExportError.check(d, level)
    ends = [","] * (d - 1) + [f",{2.0 ** -level!r}\n"]
    columns = []
    for l in range(d):
        values, index = np.unique(corners[:, l], return_inverse=True)
        coords = (values / (1 << level)).tolist()
        cells = np.array([repr(x) + ends[l] for x in coords], dtype=object)
        columns.append((cells, index))
    parts = [",".join(["x", "y", "z"][:d]) + ",side\n"]
    for i in range(0, n, BLOCK):
        rows = np.stack([cells[index[i:i + BLOCK]] for cells, index in columns], axis=1)
        parts.append("".join(rows.ravel().tolist()))
    return "".join(parts)

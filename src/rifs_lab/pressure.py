"""Unrolled one-step schedules and the subsequence pressure bound.

Sampling a scenery and replacing each level-i system by its U_i single-map
steps followed by V_i full-branching steps yields a non-autonomous system
whose step-n partition sum has the closed form

    log sum over level-n refined words of (ratio)^t = (d*B_n - t*n) * log 2,

where B_n counts the branching steps among the first n.  A
:class:`BranchProfile` is the run-length encoding of that schedule and
answers cumulative-length and branch-count queries in hybrid arithmetic.

The decisive moments are the "special times" m = j_{b-1} + U at the end of
the record symbol's single-map run: there the normalized exponent d*B_m/m
collapses, which is what drives the limit-set dimension to zero.  A true
liminf is not computable at a finite horizon; everything here is evaluated
exactly along the special-time subsequence and reported as such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import sampler
from .frame import Frame
from .numerics import HybridNumber, ZERO
from .rifs import RIFSSpec
from .sampler import RecordSequences

_LN2 = math.log(2.0)

#: Slack added to the right-hand side when checking the per-time bound.
BOUND_TOL = 1e-12

#: Exponents at which :func:`run_seed` checks the bound; floats, so that
#: each prints as ``0.0``, ``0.5`` and ``1.0``.
T_GRID = (0.0, 0.5, 1.0)


class CoverageError(ValueError):
    """A query beyond the profile's covered schedule."""


@dataclass(frozen=True)
class ProfileRun:
    """One scenery symbol unrolled: single-map steps, then branching steps.

    Cumulative fields are accumulated forward during the build so that run
    boundaries never involve subtraction of near-equal log magnitudes.
    """

    symbol: int
    flat_len: HybridNumber      # U at this level
    branch_len: HybridNumber    # V at this level
    j_start: HybridNumber       # schedule length before this run
    j_end: HybridNumber         # schedule length through this run
    branch_start: HybridNumber  # branching steps before this run
    branch_end: HybridNumber    # branching steps through this run


@dataclass(frozen=True, eq=False)
class BranchProfile:
    """Run-length encoding of an unrolled schedule for one scenery prefix."""

    d: int
    runs: tuple[ProfileRun, ...]

    @property
    def run_count(self) -> int:
        return len(self.runs)

    def branch_count_at(self, m: HybridNumber | int) -> HybridNumber:
        """B_m: branching steps among the first m refined steps.

        Exact for exact m; for log-form m the within-run offset is formed by
        log-space subtraction and clamped to the run, so the documented
        hybrid error bounds apply.
        """
        if isinstance(m, int):
            m = HybridNumber.from_int(m)
        if m.is_zero:
            return ZERO
        if not self.runs or m > self.runs[-1].j_end:
            raise CoverageError("queried step lies beyond the covered schedule")
        lo, hi = 0, len(self.runs) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.runs[mid].j_end < m:
                lo = mid + 1
            else:
                hi = mid
        run = self.runs[lo]
        offset = m.sub(run.j_start)  # steps taken inside this run, >= 1
        if offset <= run.flat_len:
            return run.branch_start
        inside = offset.sub(run.flat_len)
        if inside >= run.branch_len:
            return run.branch_end
        return run.branch_start.add(inside)


def build_branch_profile(symbols: Iterable[int], frame: Frame, d: int) -> BranchProfile:
    """Unroll a prefix of scenery symbols against a frame.

    Raises :class:`~rifs_lab.frame.FrameDepthError` naming the offending
    symbol when the frame cannot provide a level (explicit frames past their
    depth, generated frames past representable magnitude).
    """
    if d < 1:
        raise ValueError("ambient dimension d must be >= 1")
    runs: list[ProfileRun] = []
    j = ZERO
    b = ZERO
    for i, s in enumerate(symbols, start=1):
        try:
            lvl = frame.entry(int(s))
        except Exception as exc:
            raise type(exc)(f"position {i} (symbol {int(s)}): {exc}") from exc
        j_start, b_start = j, b
        j = j.add(lvl.u).add(lvl.v)
        b = b.add(lvl.v)
        runs.append(ProfileRun(int(s), lvl.u, lvl.v, j_start, j, b_start, b))
    return BranchProfile(d=d, runs=tuple(runs))


def refined_log_sum(profile: BranchProfile, m: HybridNumber | int, t: float) -> float:
    """Natural log of the step-m partition sum: (d*B_m - t*m) * ln 2.

    Defined while m fits a float.  Past that, the sign of d*B_m - t*m
    can hinge on quantities of one magnitude, which float log2 values cannot
    settle, so such an m raises :class:`ValueError`.
    """
    if t < 0:
        raise ValueError("the exponent t must be >= 0")
    if isinstance(m, int):
        m = HybridNumber.from_int(m)
    if m.is_zero:
        raise CoverageError("partition sums start at step 1")
    bm = profile.branch_count_at(m)  # B_m <= m, so B_m fits when m does
    if m.log2 > 980:
        raise ValueError(f"step m = 2^{m.log2!r} lies past float range")
    return (profile.d * bm.to_float() - t * m.to_float()) * _LN2


def coarse_log_sum(profile: BranchProfile, n_runs: int, t: float) -> float:
    """Aggregate n-symbol partition sum: sum over runs of per-level fitness.

    Equals :func:`refined_log_sum` at m = j_n; kept separate as a cross-check
    between the aggregate and unrolled views of the same system, and like
    it raises :class:`ValueError` once j_n leaves float range.
    """
    if not 0 <= n_runs <= profile.run_count:
        raise CoverageError(f"profile has {profile.run_count} runs")
    if n_runs and profile.runs[n_runs - 1].j_end.log2 > 980:
        raise ValueError(f"run {n_runs} ends past float range")
    total = 0.0
    for run in profile.runs[:n_runs]:
        u = run.flat_len.to_float()
        v = run.branch_len.to_float()
        total += (-t * u + (profile.d - t) * v) * _LN2
    return total


@dataclass(frozen=True, eq=False)
class SpecialTime:
    """The refined step at the end of a record symbol's single-map run.

    The record's own run adds only single-map steps up to m, so B_m is the
    branching total of the runs before the record.  ``ratio`` blowing up is
    what crushes ``exponent``.  Its floats are hybrid quotients: correctly
    rounded (``inf`` past float range) for exact operands, else via log2.
    """

    n: int                  # index into the record sequence, 1-based
    record_pos: int         # b_n
    record_symbol: int      # scenery value at b_n
    j_before: HybridNumber  # schedule length before the record's run
    m: HybridNumber         # j_before + U at the record's level
    exponent: float         # d*B_m/m
    ratio: float            # U_record/j_before; inf at the first record
    budget: float           # j_before/m


def special_times(profile: BranchProfile, seqs: RecordSequences) -> tuple[SpecialTime, ...]:
    """One special time per record pair.

    Raises :class:`CoverageError` for a record position past the profile.
    """
    times: list[SpecialTime] = []
    for n, pair in enumerate(seqs.pairs, start=1):
        b = pair.position
        if b > profile.run_count:
            raise CoverageError(f"profile has {profile.run_count} runs, record at {b}")
        run = profile.runs[b - 1]
        m = run.j_start.add(run.flat_len)
        times.append(SpecialTime(
            n=n, record_pos=b, record_symbol=run.symbol, j_before=run.j_start, m=m,
            exponent=run.branch_start.scale(profile.d) / m,
            ratio=run.flat_len / run.j_start, budget=run.j_start / m))
    return tuple(times)


@dataclass(frozen=True)
class BoundCheck:
    """Per-time comparison of the normalized log sum against its budget.

    ``lhs`` is (1/m) log of the step-m partition sum and ``rhs`` is
    -t*log2 + j_before*log2/m.
    """

    lhs: float
    rhs: float
    holds: bool


def subsequence_bound_check(st: SpecialTime, t: float) -> BoundCheck:
    """Check (1/m) log sum <= -t log2 + j_before log2 / m at one special time."""
    if t < 0:
        raise ValueError("the exponent t must be >= 0")
    lhs = (st.exponent - t) * _LN2
    rhs = (-t + st.budget) * _LN2
    return BoundCheck(lhs=lhs, rhs=rhs, holds=lhs <= rhs + BOUND_TOL)


def ratio_floor_holds(profile: BranchProfile, st: SpecialTime, frame: Frame) -> bool:
    """Exact check of U_record/j_before >= V_{record-1}/2 (records past the first).

    Compared as 2*U_record >= j_before * V_{record-1} in hybrid arithmetic,
    so it is exact while the operands are exact.
    """
    if st.record_symbol < 2:
        raise ValueError("the floor involves the level below the record; need symbol >= 2")
    if st.j_before.is_zero:
        return True
    u_rec = profile.runs[st.record_pos - 1].flat_len
    v_prev = frame.entry(st.record_symbol - 1).v
    return u_rec.scale(2) >= st.j_before.mul(v_prev)


def dim_upper_estimate(times: Sequence[SpecialTime]) -> float:
    """Subsequence upper-bound estimate: min over special times of d*B_m/m.

    At each time m the normalized log sum (d*B_m/m - t) log 2 crosses zero
    at exactly t = d*B_m/m, so the crossing exponent has a closed form.
    This is a finite-horizon proxy, exact along the special-time
    subsequence; it is an upper-bound witness, not a liminf.
    """
    return min(st.exponent for st in times)


@dataclass(frozen=True, eq=False)
class SeedRun:
    """One seed taken through the whole per-seed pipeline."""

    seqs: RecordSequences
    profile: BranchProfile
    times: tuple[SpecialTime, ...]
    checks: tuple[tuple[SpecialTime, float, BoundCheck], ...]  # per time, then per t
    estimate: float


def run_seed(spec: RIFSSpec, seed: int, horizon: int, pairs: int) -> SeedRun:
    """Sample one scenery and evaluate the subsequence bound along it at
    every exponent of :data:`T_GRID`.

    The profile unrolls the scenery through the last record position,
    which is as far as any special time reads.  Raises
    :class:`~rifs_lab.frame.FrameDepthError` or
    :class:`~rifs_lab.sampler.RareTailError` for a seed whose symbols the
    frame or the sampler cannot represent.
    """
    path = sampler.sample_scenery(spec.probabilities, horizon, seed)
    seqs = sampler.record_sequences(path, pairs)
    prefix_len = max((p.position for p in seqs.pairs), default=1)
    profile = build_branch_profile(path.head(prefix_len), spec.frame, spec.d)
    times = special_times(profile, seqs)
    checks = tuple((st, t, subsequence_bound_check(st, t)) for st in times for t in T_GRID)
    return SeedRun(seqs, profile, times, checks, dim_upper_estimate(times))

"""Independent reference for the benchmark's output checks.

Nothing here imports ``rifs_lab``.  Draws come straight from NumPy's PCG64,
the inverse-square CDF is built here with its own summation order, the
record recursion is a direct first-argmax scan, and the minimal frame is the
tight recursion U_1 = 1, V_n = n U_n, U_{n+1} = (U_n + V_n)^3 in big
integers while they fit and in float log2 beyond.  A check that compares the
program against this module therefore catches faults on either side instead
of sharing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

#: The sampler's documented default symbol cap; draws past its CDF abort.
SYMBOL_CAP = 10 ** 6

#: Levels kept as exact integers (U_10 has about 37 000 bits).
EXACT_LEVELS = 10

#: Largest distance between this CDF and any other float64 summation of the
#: same series that a draw may sit from a boundary and still count as
#: settled.  The two summation orders differ by at most 4e-14 over 10^6
#: terms, measured; a draw closer than this to a boundary may land on
#: either side.
CDF_TOL = 1e-12

_BASEL = math.pi ** 2 / 6
_CHUNK = 1 << 16


def draws(seed: int, n: int) -> np.ndarray:
    """The first ``n`` uniforms of the seed's PCG64 stream."""
    return np.random.Generator(np.random.PCG64(seed)).random(n)


def max_draw(seed: int, n: int) -> float:
    """Largest of the first ``n`` uniforms, drawn in chunks to stay small.

    PCG64 streams are prefix-consistent: ``random(a)`` then ``random(b)``
    yields the same values as ``random(a + b)``.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    top = 0.0
    while n > 0:
        k = min(n, _CHUNK)
        top = max(top, float(rng.random(k).max()))
        n -= k
    return top


class InverseSquareCDF:
    """CDF of p_k = 6 / (pi^2 k^2) over 1..SYMBOL_CAP, summed then scaled."""

    def __init__(self, cap: int = SYMBOL_CAP):
        k = np.arange(1, cap + 1, dtype=np.float64)
        self.values = np.cumsum(1.0 / (k * k)) / _BASEL
        self.cap = cap

    def symbols(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Symbols for draws inside the capped CDF, and an ambiguity mask.

        A draw is ambiguous when it lies within CDF_TOL of either boundary of
        its cell, so another rounding of the CDF may put it one cell over.
        """
        cdf = self.values
        idx = np.searchsorted(cdf, u, side="left")
        if len(idx) and int(idx.max()) >= self.cap:
            raise ValueError("draw beyond the capped CDF")
        upper = cdf[idx]
        lower = np.where(idx > 0, cdf[np.maximum(idx - 1, 0)], -1.0)
        ambiguous = (upper - u <= CDF_TOL) | (u - lower <= CDF_TOL)
        return idx.astype(np.int64) + 1, ambiguous

    def tail_verdict(self, umax: float) -> str:
        """'F2' past the cap, 'ok' inside it, 'unsure' within rounding of it."""
        edge = float(self.values[-1])
        if umax > edge + CDF_TOL:
            return "F2"
        if umax <= edge - CDF_TOL:
            return "ok"
        return "unsure"


# -- minimal frame -----------------------------------------------------------


def _log2_add(a: float, b: float) -> float:
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log2(1.0 + 2.0 ** (lo - hi))


class MinimalFrame:
    """Tight growth schedule: exact integers to EXACT_LEVELS, log2 floats on.

    ``overflow_level`` is the first level whose float log2 magnitude is no
    longer finite; a program that stores deep levels as float log2 values
    cannot represent it.
    """

    def __init__(self):
        self.exact: list[tuple[int, int]] = []
        u = 1
        for n in range(1, EXACT_LEVELS + 1):
            v = n * u
            self.exact.append((u, v))
            u = (u + v) ** 3
        self.log2: list[tuple[float, float]] = [
            (math.log2(u_), math.log2(v_)) for u_, v_ in self.exact
        ]
        lu = math.log2(u)
        n = EXACT_LEVELS + 1
        while True:
            lv = lu + math.log2(n)
            if not (math.isfinite(lu) and math.isfinite(lv)):
                break
            self.log2.append((lu, lv))
            # U_{n+1} = (U_n + n U_n)^3 = ((n + 1) U_n)^3; overflows to inf
            lu = 3.0 * (lu + math.log2(n + 1))
            n += 1
        self.overflow_level = n

    def level_exact(self, s: int) -> tuple[int, int]:
        return self.exact[s - 1]

    def level_log2(self, s: int) -> tuple[float, float]:
        return self.log2[s - 1]


# -- per-seed outcomes ---------------------------------------------------------


@dataclass
class SeedOutcome:
    """What the counterexample pipeline must report for one seed."""

    seed: int
    kind: str                   # "ok", "F1" (frame depth) or "F2" (rare tail)
    certain: bool               # no read draw lies within rounding of a boundary
    umax: float
    pairs: list[tuple[int, int]] = field(default_factory=list)  # (window, position)
    record_symbols: list[int] = field(default_factory=list)
    degenerate: bool = False
    truncated: bool = False
    exponents: list[float] = field(default_factory=list)
    j_before: list[object] = field(default_factory=list)  # int, or float log2
    m: list[object] = field(default_factory=list)
    f1_position: int = 0
    f1_symbol: int = 0


def record_pairs(symbols: np.ndarray, count: int) -> tuple[list, bool, bool, int]:
    """Greedy record recursion by direct scan.

    The first window is the domination start, which is 1 for symbols >= 1;
    each position is the first index attaining the window maximum, and the
    next window is that maximum plus one.  Returns (pairs, degenerate,
    truncated, largest window read).
    """
    horizon = len(symbols)
    pairs: list[tuple[int, int]] = []
    a, prev_b, read = 1, 0, 0
    while len(pairs) < count:
        if a > horizon:
            return pairs, False, True, read
        window = symbols[:a]
        read = a
        peak = int(window.max())
        b = int(np.flatnonzero(window == peak)[0]) + 1
        if b <= prev_b or peak < a:
            return pairs, True, False, read
        pairs.append((a, b))
        prev_b, a = b, peak + 1
    return pairs, False, False, read


def _special_time(frame: MinimalFrame, before: np.ndarray, rec: int, d: int):
    """(j_before, m, exponent d*B_m/m) for a record at level ``rec``.

    Every symbol before a record is strictly smaller than it, so the exact
    branch covers the whole prefix whenever the record level does.
    """
    counts = np.bincount(before, minlength=rec + 1) if len(before) else None
    levels = [] if counts is None else [int(s) for s in np.flatnonzero(counts)]
    if rec <= EXACT_LEVELS:
        j = sum(int(counts[s]) * sum(frame.level_exact(s)) for s in levels)
        b = sum(int(counts[s]) * frame.level_exact(s)[1] for s in levels)
        m = j + frame.level_exact(rec)[0]
        return j, m, (0.0 if b == 0 else float(Fraction(d * b, m)))
    lj = lb = -math.inf
    for s in levels:
        lu, lv = frame.level_log2(s)
        lc = math.log2(int(counts[s]))
        lj = _log2_add(lj, lc + _log2_add(lu, lv))
        lb = _log2_add(lb, lc + lv)
    lm = _log2_add(lj, frame.level_log2(rec)[0])
    e = 0.0 if lb == -math.inf else d * 2.0 ** (lb - lm)
    return lj, lm, e


def seed_outcome(cdf: InverseSquareCDF, frame: MinimalFrame, seed: int,
                 horizon: int, count: int, d: int) -> SeedOutcome:
    """Predict the counterexample pipeline's result for one seed."""
    umax = max_draw(seed, horizon)
    verdict = cdf.tail_verdict(umax)
    if verdict != "ok":
        return SeedOutcome(seed, "F2", verdict == "F2", umax)
    n = min(horizon, 4096)
    while True:
        symbols, ambiguous = cdf.symbols(draws(seed, n))
        pairs, degenerate, truncated, read = record_pairs(symbols, count)
        if not truncated or n == horizon:
            break
        n = min(horizon, 4 * n)  # a window ran past the drawn prefix
    out = SeedOutcome(seed, "ok", not bool(ambiguous[:read].any()), umax,
                      pairs=pairs, degenerate=degenerate, truncated=truncated)
    out.record_symbols = [int(symbols[b - 1]) for _a, b in pairs]
    prefix = symbols[:pairs[-1][1]]
    deep = np.flatnonzero(prefix >= frame.overflow_level)
    if len(deep):
        out.kind = "F1"
        out.f1_position = int(deep[0]) + 1
        out.f1_symbol = int(prefix[deep[0]])
        return out
    for (_a, b), rec in zip(pairs, out.record_symbols):
        j, m, e = _special_time(frame, prefix[:b - 1], rec, d)
        out.j_before.append(j)
        out.m.append(m)
        out.exponents.append(e)
    return out


# -- scenery CSV ---------------------------------------------------------------


def scenery_symbols(cdf: InverseSquareCDF, seed: int, horizon: int):
    """Symbols and ambiguity mask of a whole scenery, or None past the cap."""
    u = draws(seed, horizon)
    if cdf.tail_verdict(float(u.max())) != "ok":
        return None
    return cdf.symbols(u)


# -- cylinder covers -------------------------------------------------------------


def cover_schedule(frame: MinimalFrame, symbols: list[int], depth: int) -> list[bool]:
    """Branching flag of refined steps 1..depth for a symbol prefix."""
    flags: list[bool] = []
    for s in symbols:
        u, v = frame.level_exact(s)
        flags += [False] * u + [True] * v
        if len(flags) >= depth:
            return flags[:depth]
    raise ValueError("prefix does not cover the requested depth")


def cover_corners(flags: list[bool], d: int) -> np.ndarray:
    """Corner numerators of every depth-m cylinder, as bits times weights.

    Word w assigns branching step j the bit vector (bits j*d .. j*d+d-1 of
    w); step k (1-based) carries the weight 2^(m-k).  Needs m <= 62.
    """
    m = len(flags)
    if m > 62:
        raise ValueError("int64 corners need depth <= 62")
    weights = [1 << (m - k) for k, full in enumerate(flags, start=1) if full]
    words = np.arange(1 << (d * len(weights)), dtype=np.int64)
    corners = np.zeros((len(words), d), dtype=np.int64)
    for j, w in enumerate(weights):
        for l in range(d):
            corners[:, l] += ((words >> (j * d + l)) & 1) * w
    return corners

"""Scenery sampling and prefix statistics.

Sceneries are i.i.d. symbol sequences drawn by inverse CDF from a
:class:`~rifs_lab.rifs.ProbVector`.  Sampling is a pure function of
(seed, probabilities, length): the PCG64 stream is fixed by the seed, the
symbol cap is the constant :data:`MAX_SYMBOL`, and the CDF is one fixed
table plus blocks of the same cumsum, so regeneration is bit-identical.

Every one of the ``length`` uniforms is drawn up front, but a draw is
inverted only when a reader asks for a prefix that reaches it: the record
recursion reads a few thousand symbols of a horizon-1e6 scenery.  The few
draws past the CDF table are placed by blocks of the same cumsum that are
dropped after use, so memory does not depend on how deep into the tail a
seed's draws reach.  A scenery whose largest draw lies beyond the CDF of
the symbol cap aborts loudly with :class:`RareTailError`, wherever that
draw falls, so whether a seed fails does not depend on how far its windows
read; the verdict is certified from the law's closed-form tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rifs import INVERSE_SQUARE_CDF, ProbVector, zeta_tail

#: Hard ceiling on sampled symbols: a draw past its CDF aborts the scenery.
MAX_SYMBOL = 10 ** 6

#: Draws past the CDF table are placed by blocks of this many CDF values,
#: each computed and dropped.
_CDF_BLOCK = len(INVERSE_SQUARE_CDF)

#: :func:`scenery_csv` formats this many rows at a time.
_CSV_BLOCK = 1 << 14


class RareTailError(RuntimeError):
    """A uniform draw landed beyond the CDF of the symbol cap."""

    def __init__(self, variate: float, cap: int):
        self.variate = variate
        self.cap = cap
        super().__init__(
            f"uniform draw {variate!r} falls in the tail beyond symbol {cap} "
            f"(tail mass ~{zeta_tail(cap):.3e})"
        )


def _invert(draws: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """Symbols of ``draws`` under ``cdf``, read-only.

    A draw past the accumulated total (possible when a finite vector sums
    to 1 - epsilon) collapses onto the last symbol; a draw past the
    inverse-square table is placed afterwards by :func:`_symbols`.
    """
    symbols = np.minimum(np.searchsorted(cdf, draws, side="left") + 1, len(cdf))
    symbols = symbols.astype(np.int64, copy=False)
    symbols.setflags(write=False)
    return symbols


def _symbols(draws: np.ndarray, probs: ProbVector) -> np.ndarray:
    """Symbols of ``draws``, read-only; an inverse-square draw past the CDF at
    :data:`MAX_SYMBOL` gets ``MAX_SYMBOL + 1``.

    Draws are inverted against the fixed CDF table.  The rare draws beyond
    it are placed by blocks of the same cumsum, carried onward and dropped.
    """
    cap = MAX_SYMBOL
    cdf = probs.prefix_cdf(min(cap, _CDF_BLOCK))
    symbols = _invert(draws, cdf)
    if probs.is_finite or draws.max() <= cdf[-1]:
        return symbols
    symbols = symbols.copy()
    far = np.flatnonzero(draws > cdf[-1])
    far = far[np.argsort(draws[far])]
    lo, last = len(cdf), cdf[-1]
    while len(far) and lo < cap:
        hi = min(lo + _CDF_BLOCK, cap)
        block = probs.cdf_block(lo, hi, last)
        u = draws[far]
        j = int(np.searchsorted(u, block[-1], side="right"))
        symbols[far[:j]] = lo + 1 + np.searchsorted(block, u[:j], side="left")
        far, lo, last = far[j:], hi, block[-1]
    symbols[far] = cap + 1
    symbols.setflags(write=False)
    return symbols


def _past_cap(probs: ProbVector, umax: float) -> bool:
    """Whether ``umax`` exceeds the inverse-square float CDF at the cap."""
    # Past zeta_tail's fsum range, edge = 1 - zeta_tail(cap) decides without
    # the CDF.  With u = 2^-53 the CDF's last value lies within (cap - 1) u of
    # edge for recursive summation of partial sums below 1 (Higham, Accuracy
    # and Stability of Numerical Algorithms, 4.2), + 3u for the terms
    # 1/((C k) k), + 4u for float C against zeta(2), + u for 1 - tail; the
    # Euler-Maclaurin remainder (< 1/(42 cap^7)) is far below an ulp.  The
    # margin is twice that sum; only a draw inside it walks the CDF to the cap.
    cap = MAX_SYMBOL
    if cap > 10_000:
        edge = 1.0 - zeta_tail(cap)
        if abs(umax - edge) > (cap + 8) * 2.0 ** -52:
            return umax > edge
    return _symbols(np.array([umax]), probs)[0] > cap


class SceneryPath:
    """Finite prefix of a scenery (int64 symbols >= 1).

    Built from explicit symbols, or by :func:`sample_scenery` from uniform
    draws and their probability vector.  In the second case the leading
    draws are inverted on demand, growing by doubling, so reading a prefix
    of ``k`` symbols inverts at most ``2k`` draws.
    Symbol arrays handed out are read-only.
    """

    def __init__(self, symbols: np.ndarray):
        if len(symbols) and symbols.min() < 1:
            raise ValueError("scenery symbols must be >= 1")
        symbols.setflags(write=False)
        self._head = symbols
        self._length = len(symbols)
        self._draws, self._probs = None, None

    @classmethod
    def from_draws(cls, draws: np.ndarray, probs: ProbVector) -> SceneryPath:
        path = cls(np.empty(0, dtype=np.int64))
        path._draws, path._probs, path._length = draws, probs, len(draws)
        return path

    def __len__(self) -> int:
        return self._length

    def head(self, k: int) -> np.ndarray:
        """The first ``k`` symbols, inverting more draws if needed.

        Once every draw is inverted the draws are dropped: no later read
        needs them, and the CSV of a whole path is built after such a read.
        """
        if len(self._head) < min(k, len(self)):
            n = min(len(self), max(k, 2 * len(self._head)))
            self._head = _symbols(self._draws[:n], self._probs)
            if n == len(self):
                self._draws = None
        return self._head[:k]

    @property
    def symbols(self) -> np.ndarray:
        return self.head(len(self))

    @cached_property
    def prefix_means(self) -> np.ndarray:
        return np.cumsum(self.symbols) / np.arange(1, len(self) + 1)


def sample_scenery(probs: ProbVector, length: int, seed: int) -> SceneryPath:
    """Draw a scenery of ``length`` i.i.d. symbols by inverse CDF.

    For the inverse-square vector, a largest uniform variate past the CDF of
    the cap (:data:`MAX_SYMBOL`) raises :class:`RareTailError` naming it.
    The verdict is certified against the law's closed-form tail; only a
    variate within rounding of it walks the CDF to the cap.  Every uniform
    is drawn here; the path inverts them on demand.
    """
    if length < 1:
        raise ValueError("scenery length must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(length)
    if not probs.is_finite and _past_cap(probs, umax := float(u.max())):
        raise RareTailError(umax, MAX_SYMBOL)
    return SceneryPath.from_draws(u, probs)


@dataclass(frozen=True)
class RecordPair:
    """One step of the record recursion.

    ``position`` is the first index achieving the running maximum over the
    window [1, window]; the value there sets the next window size.
    """

    window: int    # a_n
    position: int  # b_n


@dataclass(frozen=True)
class RecordSequences:
    """Windows and record positions extracted from a scenery prefix.

    Every returned pair n satisfies four clauses:
      1. position_n <= window_n, and window_1 is the domination start;
      2. the symbol at position_n is >= window_n;
      3. position_n is the first argmax over [1, window_n], so everything
         strictly before it is strictly smaller;
      4. windows and positions are strictly increasing across pairs.

    ``degenerate`` marks a prefix whose recursion stalled before ``count``
    pairs: the last record is still the first argmax of the next window.
    The returned pairs still satisfy all four clauses.  ``truncated`` marks a
    window that outran the horizon.
    """

    start: int
    pairs: tuple[RecordPair, ...]
    degenerate: bool
    truncated: bool


def record_sequences(path: SceneryPath, count: int) -> RecordSequences:
    """Greedy record recursion: window_1 = N, position = first argmax,
    next window = symbol at the record + 1.

    The recursion almost surely stops after a few pairs.  With N = 1 the
    first pair is (1, 1); if its symbol is k, the second window [1, k + 1]
    repeats the argmax exactly when the k symbols after it are all <= k.
    So under i.i.d. sampling from p with CDF F, a scenery long enough for
    that window stalls (``degenerate``) after one pair with probability
    sum_k p_k F(k)^k, which is 0.5912 for the inverse-square law
    (``tests/test_sampler.py`` checks the rate over 4000 seeds).

    It stalls only on a repeated argmax, and clause 2 holds unchecked.  The
    first value is >= 1, the first window.  After a record of value v (at
    least its own window and position) the next window [1, v + 1] contains
    it, so a first argmax past it is > v, at least the window; one before it
    would lie in the last window, contradicting the record's first argmax.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    # symbols >= 1 make every prefix sum dominate its length: the domination
    # start is 1, and the recursion reads the path only up to each window
    start = 1
    horizon = len(path)
    pairs: list[RecordPair] = []
    a = start
    prev_b = 0
    degenerate = truncated = False
    while len(pairs) < count:
        if a > horizon:
            truncated = True
            break
        window = path.head(a)
        b = int(np.argmax(window)) + 1
        if b <= prev_b:
            degenerate = True
            break
        pairs.append(RecordPair(window=a, position=b))
        prev_b = b
        a = int(window[b - 1]) + 1
    return RecordSequences(
        start=start, pairs=tuple(pairs), degenerate=degenerate, truncated=truncated
    )


def scenery_csv(path: SceneryPath) -> str:
    """CSV with one row per prefix: n, symbol, prefix_sum, prefix_mean.

    Rows are formatted :data:`_CSV_BLOCK` at a time by one ``%`` over the
    row template repeated, from cells interleaved out of ``tolist()``
    columns; the bytes are a per-row f-string's (``%d`` prints an int as
    ``str`` does, ``%r`` is ``repr``, and the int64 / int64 quotient is the
    one IEEE division ``float(ps) / n`` makes, exact cast below 2^53).  Each
    block carries its prefix sums on from the last one's int64 total (exact,
    so equal to one ``np.cumsum`` of the symbols) and divides its own means,
    so only the symbols are held whole.  Blocks are appended with
    ``text +=``, which CPython grows in place (once the loop is specialized)
    while nothing else refers to ``text``: never alias it.
    The CLI writes the ``str`` in slices and the tracer reads its length.
    """
    symbols, sums = path.symbols, [0]  # sums[-1] is the running total
    text = "n,omega_n,prefix_sum,prefix_mean\n"
    for lo in range(0, len(path), _CSV_BLOCK):
        hi = min(lo + _CSV_BLOCK, len(path))
        n = np.arange(lo + 1, hi + 1)
        sums = np.cumsum(symbols[lo:hi]) + sums[-1]
        cells = [None] * (4 * (hi - lo))
        cells[0::4] = n.tolist()
        cells[1::4] = symbols[lo:hi].tolist()
        cells[2::4] = sums.tolist()
        cells[3::4] = (sums / n).tolist()
        text += "%d,%d,%d,%r\n" * (hi - lo) % tuple(cells)
    return text

"""Independent reference computations used to freeze expected values.

Everything here deliberately avoids the library's numeric machinery: plain
integers, fractions, float log arithmetic and mpmath only, so that a test
comparing the two catches bugs on either side rather than sharing them.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import struct
from fractions import Fraction

import mpmath
import numpy as np

_LOG2 = math.log2


def brute_force_refined_sum(flags: list[bool], d: int, t: float) -> float:
    """Sum of (2^-m)^t over every refined word, by explicit enumeration.

    fsum keeps the accumulation exactly rounded; naive addition drifts a few
    parts in 1e12 over 10^5 equal terms, which the comparisons here resolve.
    """
    m = len(flags)
    alphabets = [
        list(itertools.product((0, 1), repeat=d)) if full else [(0,) * d]
        for full in flags
    ]
    return math.fsum(
        (2.0 ** -m) ** t for _word in itertools.product(*alphabets)
    )


def brute_force_cubes(flags: list[bool], d: int) -> set[tuple[Fraction, ...]]:
    """Exact corners of all depth-m cylinder images via map composition.

    Each step applies x -> (x + v)/2 coordinatewise; the image of [0,1]^d
    under the composition for word (v_1, ..., v_m) has its lower corner at
    the image of 0, computed right to left in exact rationals.
    """
    alphabets = [
        list(itertools.product((0, 1), repeat=d)) if full else [(0,) * d]
        for full in flags
    ]
    corners = set()
    for word in itertools.product(*alphabets):
        point = tuple(Fraction(0) for _ in range(d))
        for vec in reversed(word):
            point = tuple((x + v) / 2 for x, v in zip(point, vec))
        corners.add(point)
    return corners


def minimal_frame_pairs(levels: int) -> list[tuple[int, int]]:
    """Tight growth schedule by direct big-integer recursion."""
    pairs = []
    u = 1
    for n in range(1, levels + 1):
        v = n * u
        pairs.append((u, v))
        u = (u + v) ** 3
    return pairs


def minimal_frame_log2(levels: int) -> list[tuple[float, float]]:
    """Float-only recursion for levels too deep for exact integers."""
    out = []
    lu = 0.0
    for n in range(1, levels + 1):
        lv = lu + _LOG2(n)
        out.append((lu, lv))
        lu = 3.0 * _log2_sum(lu, lv)
    return out



def minimal_frame_terms(p_at_level: dict[int, float]) -> list[tuple[float, int | None, Fraction]]:
    """(p_n, U_n, V_n/U_n = n) for the minimal frame's charged levels: U_n as
    an integer through level 7, and None from level 8 on, where
    U_8 = (8*U_7)**3 has 4121 bits."""
    pairs = minimal_frame_pairs(7)
    return [(p, pairs[n - 1][0] if n <= 7 else None, Fraction(n))
            for n, p in sorted(p_at_level.items())]


def _float_at(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def _mauldin_sum_above_one(d: int, levels, t: float) -> bool:
    """Is sum_i p_i * 2**x_i > 1 at t, where x_i = U_i*((d-t)*r_i - t)?"""
    t = Fraction(t)
    negligible, moderate = 0, []
    for p, u, r in levels:
        c = (d - t) * r - t
        if u is None and c != 0:
            # |x_i| > 2**4096 * |c| >= 2**4096 / (2**1074 * denominator(r))
            if c > 0:
                return True
            negligible += 1
            continue
        x = 0 if u is None else u * c
        if x > 1100:  # p_i >= 2**-1074
            return True
        if x < -(1 << 16):
            negligible += 1
        else:
            moderate.append((Fraction(p), Fraction(x)))
    with mpmath.workprec(256):
        total = mpmath.fsum(
            mpmath.mpf(p.numerator) / p.denominator
            * mpmath.power(2, mpmath.mpf(x.numerator) / x.denominator)
            for p, x in moderate)
        if abs(total - 1) > mpmath.mpf(2) ** -200:
            return total > 1
    assert all(x.denominator == 1 for _, x in moderate), f"undecided at t = {float(t)!r}"
    total = sum(p * Fraction(2) ** int(x) for p, x in moderate)
    return total > 1 or (total == 1 and negligible > 0)


def mauldin_root_reference(d: int, levels) -> float:
    """Smallest float t >= 0 with sum_i p_i * 2**((d-t)*V_i - t*U_i) <= 1.

    ``levels`` holds (p_i, U_i, r_i) per charged frame level: r_i = V_i/U_i
    as a Fraction, and U_i an integer, or None for a level known only to
    lie past 2**4096.  At each probed t each exponent is decided from
    integers: exactly as a Fraction for an integer U_i, and by the sign of
    (d-t)*r_i - t, with a magnitude past 2**3000, otherwise.  An exponent
    past 1100 alone makes the sum exceed 1; one below -2**16 adds less than
    2**-65536; mpmath sums the rest at 256 bits, and an exact sum of powers
    of two settles a tie.  The search bisects the bit patterns of the
    nonnegative floats, which sort as the floats do.
    """
    if not _mauldin_sum_above_one(d, levels, 0.0):
        return 0.0
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", 2.0 ** 61))[0]
    assert not _mauldin_sum_above_one(d, levels, _float_at(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _mauldin_sum_above_one(d, levels, _float_at(mid)):
            lo = mid
        else:
            hi = mid
    return _float_at(hi)


def _log2_sum(a: float, b: float) -> float:
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + _LOG2(1.0 + 2.0 ** (lo - hi))


def pair_two_stall_probability(kmax: int = 10 ** 5) -> float:
    """sum_k p_k F(k)^k for the inverse-square law, truncated at k = kmax.

    p_k = 1/(C k^2) with C = pi^2/6 and F its CDF.  The dropped terms are
    at most sum_{k > kmax} p_k < 1/(C kmax), about 6.1e-6 at the default.
    """
    k = np.arange(1, kmax + 1, dtype=np.float64)
    p = 1.0 / (math.pi ** 2 / 6 * k * k)
    return math.fsum(p * np.cumsum(p) ** k)


def independent_record_check(symbols, seqs) -> None:
    """Re-verify every returned record pair by rescanning prefix maxima.

    Raises AssertionError on any clause violation; shares no code with the
    sampler's recursion.
    """
    prev_window = prev_pos = None
    for idx, pair in enumerate(seqs.pairs):
        a, b = pair.window, pair.position
        assert 1 <= b <= a, f"pair {idx}: position outside window"
        if idx == 0:
            assert a == seqs.start, f"first window must be the domination start"
        window_vals = [int(symbols[k]) for k in range(a)]
        peak = max(window_vals)
        value = int(symbols[b - 1])
        assert value == peak, f"pair {idx}: not a window maximum"
        assert value >= a, f"pair {idx}: record value below window size"
        for k in range(b - 1):
            assert int(symbols[k]) < value, f"pair {idx}: not the first argmax"
        if prev_window is not None:
            assert a > prev_window and b > prev_pos, f"pair {idx}: not increasing"
            assert a == prev_value + 1, f"pair {idx}: window != previous record + 1"
        prev_window, prev_pos, prev_value = a, b, value


def record_pairs_reference(symbols, count: int):
    """Direct reimplementation of the greedy record recursion."""
    pairs = []
    a, prev_b = 1, 0
    L = len(symbols)
    degenerate = truncated = False
    while len(pairs) < count:
        if a > L:
            truncated = True
            break
        window = [int(symbols[k]) for k in range(a)]
        peak = max(window)
        b = window.index(peak) + 1
        if b <= prev_b or peak < a:
            degenerate = True
            break
        pairs.append((a, b))
        prev_b, a = b, peak + 1
    return pairs, degenerate, truncated


def oracle_dimension_estimates(symbols, d: int = 1, count: int = 2):
    """Direct evaluation of d*B_m/m at each detected special time.

    Uses exact integers while every needed level stays at or below 12 and
    float log2 recursion beyond; returns the list of per-time exponents.
    """
    pairs, _deg, _trunc = record_pairs_reference(symbols, count)
    if not pairs:
        return []
    needed = max(int(symbols[b - 1]) for (_a, b) in pairs)
    exponents = []
    if needed <= 12:
        frame = minimal_frame_pairs(needed)
        for (_a, b) in pairs:
            j_before = sum(frame[int(symbols[k]) - 1][0] + frame[int(symbols[k]) - 1][1]
                           for k in range(b - 1))
            branches = sum(frame[int(symbols[k]) - 1][1] for k in range(b - 1))
            m = j_before + frame[int(symbols[b - 1]) - 1][0]
            exponents.append(d * branches / m)
    else:
        frame = minimal_frame_log2(needed)
        for (_a, b) in pairs:
            lj = -math.inf
            lb = -math.inf
            for k in range(b - 1):
                lu, lv = frame[int(symbols[k]) - 1]
                lj = _log2_sum(lj, _log2_sum(lu, lv)) if lj != -math.inf else _log2_sum(lu, lv)
                lb = _log2_sum(lb, lv) if lb != -math.inf else lv
            lu_rec = frame[int(symbols[b - 1]) - 1][0]
            lm = _log2_sum(lj, lu_rec) if lj != -math.inf else lu_rec
            exponents.append(0.0 if lb == -math.inf else d * 2.0 ** (lb - lm))
    return exponents


def inverse_square_cdf(n: int) -> np.ndarray:
    """One-shot float cumsum of p_k = 1/(C k^2) over k = 1..n, C = pi^2/6."""
    k = np.arange(1, n + 1, dtype=np.float64)
    return np.cumsum(1.0 / (math.pi ** 2 / 6 * k * k))


def past_cap(umax: float, cap: int) -> bool:
    """The symbol-cap rule read off the whole capped CDF: a largest draw past
    its last value needs a symbol past the cap."""
    return umax > float(inverse_square_cdf(cap)[-1])


# -- cover writers before block writing --------------------------------------------
# Copies of the row-at-a-time writers that ``cover enum`` and ``cover points``
# used before they wrote in blocks; the block writers must match them byte for byte.


def cover_enum_reference(corners: np.ndarray, depth: int) -> str:
    """``cover enum``'s document: one dict per word, encoded whole by
    ``json.dump``; the open-set flag is read off distinct rows directly."""
    rows = corners.tolist()
    doc = {
        "schema": "rifs-lab/1",
        "depth": depth,
        "count": len(rows),
        "osc": len(set(map(tuple, rows))) == len(rows),
        "cubes": [{"level": depth, "corner": row} for row in rows],
    }
    fh = io.StringIO()
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
    return fh.getvalue()


def cover_points_reference(corners: np.ndarray, level: int) -> str:
    """``cover points``'s CSV: every coordinate divided and printed with
    ``%r``, one row at a time."""
    d = corners.shape[1]
    line = ",".join(["%r"] * d) + f",{2.0 ** -level!r}\n"
    header = ",".join(["x", "y", "z"][:d]) + ",side\n"
    coords = (corners / (1 << level)).tolist()
    return header + "".join([line % tuple(row) for row in coords])


# -- scenery writer before block writing --------------------------------------------


def prefix_sums(path) -> np.ndarray:
    """The scenery's prefix sums S_n = omega_1 + ... + omega_n, one cumsum."""
    return np.cumsum(path.symbols)


def scenery_csv_reference(path) -> str:
    """``sample``'s CSV as the row-at-a-time writer built it: one f-string
    per row, the mean divided in Python floats."""
    sums = prefix_sums(path)
    buf = io.StringIO()
    buf.write("n,omega_n,prefix_sum,prefix_mean\n")
    for i, (s, ps) in enumerate(zip(path.symbols, sums), start=1):
        buf.write(f"{i},{int(s)},{int(ps)},{float(ps) / i!r}\n")
    return buf.getvalue()

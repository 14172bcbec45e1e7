"""Checks of the CLI's outputs against the oracle and against invariants.

Each check returns a list of problems; an empty list means the output
passed.  The checks read only the documents and files the CLI wrote and the
oracle's predictions, never a stored copy of earlier output.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from oracle import SYMBOL_CAP, InverseSquareCDF, SeedOutcome, scenery_symbols

LN2 = math.log(2.0)
REL_TOL = 1e-8
#: Slack of the per-time pressure bound, as the method states it.
BOUND_TOL = 1e-12

CSV_HEADER = "n,record_pos,record_symbol,j_before,m,m_form,t,exponent,lhs,bound_rhs,holds,ratio"
SCENERY_HEADER = "n,omega_n,prefix_sum,prefix_mean"


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Relative agreement, with a floor for values in the subnormal range."""
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-300


def _hybrid_field(text: str) -> tuple[int | None, float]:
    """A j_before/m cell: a decimal integer, or the repr of a log2 magnitude."""
    if text.lstrip("-").isdigit():
        value = int(text)
        return value, (-math.inf if value == 0 else math.log2(value))
    return None, float(text)


def _oracle_log2(value: object) -> float:
    if isinstance(value, int):
        return -math.inf if value == 0 else math.log2(value)
    return float(value)


def _quotient(j: tuple[int | None, float], m: tuple[int | None, float]) -> float:
    if j[0] == 0:
        return 0.0
    if j[0] is not None and m[0] is not None:
        return float(Fraction(j[0], m[0]))
    return 2.0 ** (j[1] - m[1])


# -- counterexample sweeps -------------------------------------------------------


def expected_error(o: SeedOutcome, overflow_level: int) -> str:
    """The per-seed error text the CLI must report for a predicted fault."""
    if o.kind == "F2":
        return f"RareTailError: uniform draw {o.umax!r} falls in the tail beyond symbol {SYMBOL_CAP}"
    return (f"FrameDepthError: position {o.f1_position} (symbol {o.f1_symbol}): "
            f"frame level {overflow_level} exceeds representable magnitude")


def check_seed_csv(text: str, o: SeedOutcome, d: int, t_grid: list[float]) -> tuple[list[str], list[float], int]:
    """One seed's bound rows; returns (problems, exponents by time, false rows)."""
    problems: list[str] = []
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        return [f"seed {o.seed}: CSV header is {lines[:1]}"], [], 0
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(o.pairs) * len(t_grid):
        return [f"seed {o.seed}: {len(rows)} CSV rows for {len(o.pairs)} times"], [], 0
    exponents: list[float] = []
    false_rows = 0
    for i, row in enumerate(rows):
        k, t_idx = divmod(i, len(t_grid))
        where = f"seed {o.seed} row {i + 1}"
        n, pos, sym, jb, m, m_form, t, e, lhs, rhs, holds, _ratio = row
        t, e, lhs, rhs = float(t), float(e), float(lhs), float(rhs)
        if (int(n), int(pos), int(sym)) != (k + 1, o.pairs[k][1], o.record_symbols[k]):
            problems.append(f"{where}: time {n} at position {pos} symbol {sym}, oracle "
                            f"{k + 1} at {o.pairs[k][1]} symbol {o.record_symbols[k]}")
            continue
        if t != t_grid[t_idx]:
            problems.append(f"{where}: t = {t}, expected {t_grid[t_idx]}")
        if not close(e, o.exponents[k]):
            problems.append(f"{where}: exponent {e!r}, oracle {o.exponents[k]!r}")
        if t_idx == 0:
            exponents.append(e)
        jf, mf = _hybrid_field(jb), _hybrid_field(m)
        if (m_form == "dec") != (mf[0] is not None):
            problems.append(f"{where}: m_form {m_form} does not match m = {m}")
        for label, got, want in (("j_before", jf, o.j_before[k]), ("m", mf, o.m[k])):
            if got[0] is not None and isinstance(want, int):
                ok = got[0] == want
            else:
                ok = close(got[1], _oracle_log2(want), 1e-12)
            if not ok:
                problems.append(f"{where}: {label} {got} disagrees with the oracle")
        # the bound recomputed from the row's own fields
        q = _quotient(jf, mf)
        if abs(lhs - (e - t) * LN2) > 1e-15:
            problems.append(f"{where}: lhs {lhs!r} is not (exponent - t) log 2")
        if abs(rhs - (-t + q) * LN2) > 1e-9 * max(1.0, abs(rhs)):
            problems.append(f"{where}: bound_rhs {rhs!r} is not (j_before/m - t) log 2")
        flag = {"true": True, "false": False}.get(holds)
        if flag is None or flag != (lhs <= rhs + BOUND_TOL):
            problems.append(f"{where}: holds = {holds} but lhs <= rhs + tol is {lhs <= rhs + BOUND_TOL}")
        false_rows += flag is False
        # d*B_m <= j_before is a theorem for d = 1 only; d*B_m <= d*j_before
        # holds in every dimension.
        if d == 1 and not flag:
            problems.append(f"{where}: the d = 1 bound fails")
        if lhs > (-t + d * q) * LN2 + BOUND_TOL:
            problems.append(f"{where}: lhs exceeds the d-scaled budget")
    return problems, exponents, false_rows


def check_sweep(summary: dict, outcomes: list[SeedOutcome], d: int, horizon: int,
                t_grid: list[float], overflow_level: int,
                csvs: dict[int, str] | None = None) -> list[str]:
    """A counterexample summary (and per-seed CSVs, when written) for one call."""
    problems: list[str] = []
    if summary.get("bowen") != float(d) or not isinstance(summary.get("bowen"), float):
        problems.append(f"bowen = {summary.get('bowen')!r}, expected exactly {float(d)}")
    if summary.get("d") != d or summary.get("horizon") != horizon:
        problems.append("summary d or horizon differs from the call")
    records = summary.get("per_seed", [])
    if [r.get("seed") for r in records] != [o.seed for o in outcomes]:
        return problems + ["per_seed does not list the called seeds in order"]
    failed = violations = truncated = 0
    estimates = []
    for rec, o in zip(records, outcomes):
        if o.kind != "ok":
            failed += 1
            want = expected_error(o, overflow_level)
            if not str(rec.get("error", "")).startswith(want):
                problems.append(f"seed {o.seed}: oracle predicts {o.kind} ({want!r}), "
                                f"got {rec.get('error', 'success')!r}")
            continue
        if "error" in rec:
            problems.append(f"seed {o.seed}: unexpected error {rec['error']!r}")
            continue
        if (rec.get("pairs"), rec.get("degenerate"), rec.get("truncated")) != (
                len(o.pairs), o.degenerate, o.truncated):
            problems.append(f"seed {o.seed}: pairs/degenerate/truncated "
                            f"{rec.get('pairs')}/{rec.get('degenerate')}/{rec.get('truncated')}, "
                            f"oracle {len(o.pairs)}/{o.degenerate}/{o.truncated}")
        est = rec.get("estimate")
        if not isinstance(est, float) or not close(est, min(o.exponents)):
            problems.append(f"seed {o.seed}: estimate {est!r}, oracle minimum {min(o.exponents)!r}")
        if csvs is not None:
            if o.seed not in csvs:
                problems.append(f"seed {o.seed}: no CSV written")
                continue
            p, exps, false_rows = check_seed_csv(csvs[o.seed], o, d, t_grid)
            problems += p
            if exps and est != min(exps):
                problems.append(f"seed {o.seed}: estimate is not the minimum of its exponents")
            if rec.get("bound_violations") != false_rows:
                problems.append(f"seed {o.seed}: bound_violations {rec.get('bound_violations')} "
                                f"for {false_rows} false rows")
        violations += rec.get("bound_violations", 0)
        truncated += bool(rec.get("truncated"))
        estimates.append(est)
    if csvs is not None:
        extra = set(csvs) - {o.seed for o in outcomes if o.kind == "ok"}
        if extra:
            problems.append(f"CSV written for seeds that should have failed: {sorted(extra)}")
    counts = (summary.get("seeds"), summary.get("failed_seeds"), summary.get("bound_violations"),
              summary.get("truncated_seeds"))
    if counts != (len(outcomes), failed, violations, truncated):
        problems.append(f"summary counts {counts}, expected {(len(outcomes), failed, violations, truncated)}")
    est_doc = summary.get("estimates", {})
    if est_doc.get("count") != len(estimates) or (
            estimates and est_doc.get("max") != max(estimates)):
        problems.append("summary estimates do not match the per-seed records")
    return problems


# -- cylinder covers -----------------------------------------------------------------


def enum_corners(doc: dict) -> np.ndarray:
    return np.asarray([c["corner"] for c in doc["cubes"]], dtype=np.int64)


def check_cover_enum(doc: dict, flags: list[bool], d: int, oracle_corners: np.ndarray) -> list[str]:
    problems = []
    depth = len(flags)
    want = 2 ** (d * sum(flags))
    cubes = doc.get("cubes", [])
    if doc.get("count") != want or len(cubes) != want:
        return [f"enum count {doc.get('count')} with {len(cubes)} cubes, expected 2^(d*B_m) = {want}"]
    if doc.get("depth") != depth or any(c["level"] != depth for c in cubes):
        problems.append(f"cube levels differ from the depth {depth}")
    if doc.get("osc") is not True:
        problems.append("osc is not true")
    corners = enum_corners(doc)
    if corners.shape != (want, d):
        return problems + [f"corner array has shape {corners.shape}"]
    if len(np.unique(corners, axis=0)) != want:
        problems.append("corners are not pairwise distinct")
    got = corners[np.lexsort(corners.T[::-1])]
    ref = oracle_corners[np.lexsort(oracle_corners.T[::-1])]
    if not np.array_equal(got, ref):
        problems.append("corner set differs from the bits-times-weights reconstruction")
    return problems


def check_cover_points(text: str, corners: np.ndarray, depth: int) -> list[str]:
    """Each row is the enum cube's corner / 2^m with side 2^-m, in enum order."""
    d = corners.shape[1]
    header, _, body = text.partition("\n")
    if header != ",".join("xyz"[:d]) + ",side":
        return [f"points header is {header!r}"]
    values = np.loadtxt(body.splitlines(), delimiter=",", ndmin=2)
    if values.shape != (len(corners), d + 1):
        return [f"points has shape {values.shape}, expected {(len(corners), d + 1)}"]
    problems = []
    if not np.array_equal(values[:, :d], corners * 2.0 ** -depth):
        problems.append("a points row is not its cube's corner / 2^m")
    if not np.all(values[:, d] == 2.0 ** -depth):
        problems.append("a points side is not 2^-m")
    return problems


# -- scenery CSV ---------------------------------------------------------------------


def check_scenery(text: str, cdf: InverseSquareCDF, seed: int, horizon: int) -> list[str]:
    header, _, body = text.partition("\n")
    if header != SCENERY_HEADER:
        return [f"seed {seed}: header is {header!r}"]
    lines = body.splitlines()
    ints = np.loadtxt(lines, delimiter=",", usecols=(0, 1, 2), dtype=np.int64, ndmin=2)
    means = np.loadtxt(lines, delimiter=",", usecols=(3,), dtype=np.float64, ndmin=1)
    if ints.shape != (horizon, 3):
        return [f"seed {seed}: {ints.shape[0]} rows, expected {horizon}"]
    problems = []
    n, omega, psum = ints[:, 0], ints[:, 1], ints[:, 2]
    if not np.array_equal(n, np.arange(1, horizon + 1)):
        problems.append(f"seed {seed}: n does not run 1..{horizon}")
    if not np.array_equal(psum, np.cumsum(omega)):
        bad = int(np.flatnonzero(psum != np.cumsum(omega))[0]) + 1
        problems.append(f"seed {seed}: prefix_sum is not the cumsum of omega_n (row {bad})")
    if not np.array_equal(means, psum / n):
        problems.append(f"seed {seed}: prefix_mean does not round-trip as prefix_sum/n")
    scen = scenery_symbols(cdf, seed, horizon)
    if scen is None:
        problems.append(f"seed {seed}: the oracle puts a draw past the symbol cap")
    else:
        ref, ambiguous = scen
        off = omega != ref
        if np.any(off & ~ambiguous) or np.any(np.abs(omega - ref)[off] > 1):
            problems.append(f"seed {seed}: omega_n differs from the inverse CDF "
                            f"at {int(np.count_nonzero(off & ~ambiguous))} settled draws")
    p1 = 6 / math.pi ** 2
    freq = float(np.mean(omega == 1))
    if abs(freq - p1) > 4 * math.sqrt(p1 * (1 - p1) / horizon):
        problems.append(f"seed {seed}: frequency of symbol 1 is {freq}, outside 4 sigma of 6/pi^2")
    return problems


def check_tail_fault(rc: int, doc: dict, umax: float) -> list[str]:
    """``sample`` on a seed whose largest draw lies past the symbol cap."""
    if rc != 2 or doc.get("variate") != umax or doc.get("cap") != SYMBOL_CAP:
        return [f"tail fault: exit {rc}, variate {doc.get('variate')!r}, cap {doc.get('cap')!r}; "
                f"oracle variate {umax!r}"]
    if "falls in the tail beyond symbol" not in doc.get("error", ""):
        return [f"tail fault: error {doc.get('error')!r}"]
    return []

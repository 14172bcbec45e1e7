"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Statistical criteria run on pinned seed bases chosen by
a pre-registered scan; the per-seed table for the dimension-gap criterion
was frozen from an independent brute-force run (tests/data).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rifs_lab import (
    ProbVector,
    bowen_parameter,
    build_branch_profile,
    expected_log_fitness,
    mauldin_dimension,
    minimal_frame,
    osc_check,
    sample_scenery,
    scenery_csv,
)
from rifs_lab.cover import enumerate_cylinders, step_flags
from rifs_lab.pressure import (
    ratio_floor_holds,
    refined_log_sum,
    run_seed,
)
from rifs_lab.rifs import validate_spec, zeta_probability
from rifs_lab.sampler import record_sequences

from conftest import DATA, frame_family_doc, two_ifs_doc
from oracles import brute_force_refined_sum, independent_record_check

LN2 = math.log(2.0)


def _report(criterion: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"{criterion}: {elapsed:.2f}s exceeded the {limit:.0f}s budget"
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {limit:.0f}s)")


def test_criterion_1_bowen_root_finder_golden_values():
    started = time.perf_counter()
    spec = validate_spec(two_ifs_doc())
    b = bowen_parameter(spec)
    m = mauldin_dimension(spec)
    assert b == pytest.approx(0.666666667, abs=1e-8)
    assert m == pytest.approx(0.694241914, abs=1e-6)
    _report("1 bowen-root-finder-golden", started, 1.0)


def test_criterion_2_counterexample_bowen_parameter():
    started = time.perf_counter()
    for depth in (5, 6):
        for d in (1, 2, 3):
            spec = validate_spec(frame_family_doc(levels=depth, d=d))
            at_d = expected_log_fitness(spec, float(d))
            below = expected_log_fitness(spec, 0.99 * d)
            assert at_d.kind == "diverges_minus", (depth, d)
            assert below.kind == "diverges_plus", (depth, d)
            assert bowen_parameter(spec) == float(d)
    _report("2 counterexample-bowen-parameter", started, 1.0)


@pytest.fixture(scope="module")
def pseudo_sweep(pseudo_frame):
    """Criterion 3/8 sweep: pseudo-frame enumerations for d in {1, 2}, m <= 14."""
    sweep = {}
    for d in (1, 2):
        profile = build_branch_profile((1, 2, 3, 1, 2), pseudo_frame, d)
        cubes = {m: enumerate_cylinders(profile, m, budget=2 ** 20)
                 for m in range(1, 15)}
        sweep[d] = (profile, cubes)
    return sweep


def test_criterion_3_symbolic_geometric_agreement(pseudo_sweep):
    started = time.perf_counter()
    for d, (profile, cubes) in pseudo_sweep.items():
        for t in (0.0, 0.5, 1.0, float(d)):
            for m in range(1, 15):
                symbolic = math.exp(refined_log_sum(profile, m, t))
                flags = step_flags(profile, m)
                enumerated = brute_force_refined_sum(flags, d, t)
                geometric = math.fsum((2.0 ** -m) ** t for _ in cubes[m])
                assert geometric == pytest.approx(symbolic, rel=1e-12), (d, t, m)
                assert enumerated == pytest.approx(symbolic, rel=1e-12), (d, t, m)
    _report("3 symbolic-geometric-agreement", started, 10.0)


def test_criterion_4_lemma_property_suite():
    started = time.perf_counter()
    probs = ProbVector("inverse_square")
    minimal_frame(5)  # the experiment's frame; the clauses are sampler-level
    checked = 0
    for seed in range(19_000, 20_000):
        path = sample_scenery(probs, 10_000, seed=seed)
        seqs = record_sequences(path, 3)
        independent_record_check(path.symbols, seqs)
        checked += len(seqs.pairs)
    assert checked >= 1000
    _report("4 lemma-property-suite", started, 30.0)


def _rounded_quotient(num: int, den: int) -> float:
    """num/den correctly rounded; inf past float max or for a zero den."""
    if num == 0:
        return 0.0
    if den == 0:
        return math.inf
    try:
        return float(Fraction(num, den))
    except OverflowError:
        return math.inf


def test_criterion_5_subsequence_bound():
    started = time.perf_counter()
    spec = validate_spec(frame_family_doc(levels=5, d=1))
    times_checked = 0
    floors_checked = 0
    quotients_checked = 0
    for seed in range(600, 700):
        run = run_seed(spec, seed, 10_000, 3)
        for st, t, chk in run.checks:
            # the budget recomputed from the time's raw fields
            if st.j_before.is_exact and st.m.is_exact:
                jb_over_m = float(Fraction(st.j_before.as_int(), st.m.as_int()))
            else:
                jb_over_m = (0.0 if st.j_before.is_zero
                             else 2.0 ** (st.j_before.log2 - st.m.log2))
            assert chk.lhs <= -t * LN2 + jb_over_m * LN2 + 1e-12, (seed, st.n, t)
            assert chk.holds, (seed, st.n, t)
            times_checked += 1
        for st in run.times:
            if st.n >= 2:
                assert ratio_floor_holds(run.profile, st, spec.frame), (seed, st.n)
                floors_checked += 1
            run_at = run.profile.runs[st.record_pos - 1]
            operands = (run_at.branch_start, run_at.flat_len, st.j_before, st.m)
            if all(x.is_exact for x in operands):
                b_m, u, j_before, m = (x.as_int() for x in operands)
                assert st.exponent == _rounded_quotient(spec.d * b_m, m), (seed, st.n)
                assert st.budget == _rounded_quotient(j_before, m), (seed, st.n)
                assert st.ratio == _rounded_quotient(u, j_before), (seed, st.n)
                quotients_checked += 1
    assert times_checked >= 300
    assert floors_checked >= 20
    assert quotients_checked >= 100
    _report("5 subsequence-bound", started, 30.0)


def test_criterion_6_dimension_gap_at_desk_scale():
    started = time.perf_counter()
    pinned = json.loads((DATA / "dim_estimates_base600.json").read_text())
    assert pinned["base"] == 600 and pinned["count"] == 100
    spec = validate_spec(frame_family_doc(levels=5, d=1))
    assert bowen_parameter(spec) == 1.0

    estimates = {}
    for seed in range(600, 700):
        run = run_seed(spec, seed, pinned["horizon"], pinned["pairs"])
        estimates[seed] = {
            "estimate": run.estimate,
            "exponents": [st.exponent for st in run.times],
        }

    below = sum(1 for v in estimates.values() if v["estimate"] < 0.2)
    assert below >= 95, f"only {below} seeds below 0.2"
    for seed, got in estimates.items():
        want = pinned["per_seed"][str(seed)]
        assert got["estimate"] == pytest.approx(want["estimate"], rel=1e-8, abs=1e-12)
        assert len(got["exponents"]) == len(want["exponents"])
        for g, w in zip(got["exponents"], want["exponents"]):
            assert g == pytest.approx(w, rel=1e-8, abs=1e-12)
    _report("6 dimension-gap-desk-scale", started, 60.0)


def test_criterion_7_sampler_law_and_determinism():
    started = time.perf_counter()
    probs = ProbVector("inverse_square")
    draws = 10 ** 6
    path = sample_scenery(probs, draws, seed=7)
    p1 = zeta_probability(1)
    sigma = math.sqrt(p1 * (1.0 - p1) / draws)
    freq = float(np.mean(path.symbols == 1))
    assert abs(freq - p1) <= 3.0 * sigma

    first = scenery_csv(sample_scenery(probs, 10_000, seed=42))
    second = scenery_csv(sample_scenery(probs, 10_000, seed=42))
    assert first.encode() == second.encode()
    # the first ten rows also match the frozen golden file
    golden_head = (DATA / "scenery_seed42_len10.csv").read_text().strip().split("\n")
    assert first.split("\n")[:11] == golden_head
    _report("7 sampler-law", started, 10.0)


def test_criterion_8_osc_and_nesting_invariants(pseudo_sweep):
    started = time.perf_counter()
    for d, (_profile, cubes) in pseudo_sweep.items():
        for m, family in cubes.items():
            assert osc_check(family), (d, m)
        for m in range(1, 14):
            parents = set(map(tuple, cubes[m].tolist()))
            for child in (cubes[m + 1] >> 1).tolist():
                assert tuple(child) in parents, (d, m)
    _report("8 osc-and-nesting", started, 30.0)

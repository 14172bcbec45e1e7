import math

import numpy as np
import pytest

from rifs_lab import Frame, HybridNumber, build_branch_profile
from rifs_lab.pressure import (
    CoverageError,
    coarse_log_sum,
    dim_upper_estimate,
    ratio_floor_holds,
    refined_log_sum,
    run_seed,
    special_times,
    subsequence_bound_check,
    time_exponent,
)
from rifs_lab.sampler import RecordPair, RecordSequences, SceneryPath, record_sequences
from rifs_lab.cover import step_flags

from oracles import brute_force_refined_sum

LN2 = math.log(2.0)


def path_of(*symbols) -> SceneryPath:
    return SceneryPath(np.asarray(symbols, dtype=np.int64))


class TestBranchProfile:
    def test_unit_runs(self, frame5):
        profile = build_branch_profile((1, 1), frame5, 1)
        assert [(r.symbol, r.flat_len.as_int(), r.branch_len.as_int())
                for r in profile.runs] == [(1, 1, 1), (1, 1, 1)]
        assert profile.j_of_run(1).as_int() == 2
        assert profile.j_of_run(2).as_int() == 4

    def test_level_two_run(self, frame5):
        profile = build_branch_profile((2, 1), frame5, 1)
        assert profile.runs[0].flat_len.as_int() == 8
        assert profile.runs[0].branch_len.as_int() == 16
        assert profile.j_of_run(1).as_int() == 24

    def test_branch_count_queries(self, frame5):
        profile = build_branch_profile((1, 1), frame5, 1)
        assert profile.branch_count_at(1).as_int() == 0
        assert profile.branch_count_at(2).as_int() == 1
        assert profile.branch_count_at(3).as_int() == 1
        assert profile.branch_count_at(4).as_int() == 2

    def test_branch_count_inside_long_run(self, frame5):
        profile = build_branch_profile((2,), frame5, 1)
        # steps 1..8 are single-map, 9..24 branch
        for m, b in ((1, 0), (8, 0), (9, 1), (20, 12), (24, 16)):
            assert profile.branch_count_at(m).as_int() == b

    def test_branch_count_log_form_query(self, frame5):
        profile = build_branch_profile((2,), frame5, 1)
        m = HybridNumber.from_log2(math.log2(20.0))
        assert profile.branch_count_at(m).to_float() == pytest.approx(12.0, rel=1e-9)

    def test_coverage_errors(self, frame5):
        profile = build_branch_profile((1,), frame5, 1)
        with pytest.raises(CoverageError):
            profile.branch_count_at(3)
        with pytest.raises(CoverageError):
            profile.j_of_run(2)

    def test_depth_error_names_symbol(self):
        explicit = Frame.explicit([(1, 1), (8, 16)])
        with pytest.raises(Exception, match="symbol 3"):
            build_branch_profile((1, 3), explicit, 1)

    def test_cumulative_fields_consistent(self, frame5):
        profile = build_branch_profile((3, 1, 2), frame5, 1)
        j = 0
        b = 0
        for run in profile.runs:
            assert run.j_start.as_int() == j
            assert run.branch_start.as_int() == b
            j += run.flat_len.as_int() + run.branch_len.as_int()
            b += run.branch_len.as_int()
            assert run.j_end.as_int() == j
            assert run.branch_end.as_int() == b


class TestRefinedLogSum:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_matches_brute_force_enumeration(self, pseudo_frame, d, t):
        profile = build_branch_profile((1, 2, 3, 1, 2, 1), pseudo_frame, d)
        for m in range(1, 21):
            flags = step_flags(profile, m)
            direct = brute_force_refined_sum(flags, d, t)
            assert refined_log_sum(profile, m, t) == pytest.approx(
                math.log(direct), abs=1e-12
            )

    def test_single_nonbranching_step(self, frame5):
        profile = build_branch_profile((2,), frame5, 1)
        for t in (0.0, 0.7, 2.0):
            assert refined_log_sum(profile, 1, t) == pytest.approx(-t * LN2, abs=1e-13)

    def test_one_branching_step_doubles(self, frame5):
        profile = build_branch_profile((1,), frame5, 1)
        assert refined_log_sum(profile, 2, 0.0) == pytest.approx(LN2, rel=1e-13)

    def test_unit_path_closed_form(self, frame5):
        profile = build_branch_profile((1, 2), frame5, 1)
        # m = j_2 = 26, t = 1: (1*17 - 26) log 2
        assert refined_log_sum(profile, 26, 1.0) == pytest.approx(-9 * LN2, rel=1e-13)

    def test_coarse_scale_consistency(self, frame5):
        # at m = j_n the refined sum equals the aggregate per-run total
        profile = build_branch_profile((1, 2, 3), frame5, 1)
        for n in (1, 2, 3):
            m = profile.j_of_run(n).as_int()
            for t in (0.0, 0.5, 1.0):
                assert refined_log_sum(profile, m, t) == pytest.approx(
                    coarse_log_sum(profile, n, t), rel=1e-12, abs=1e-12
                )


class TestSpecialTimes:
    def test_first_record_has_empty_prefix(self, frame5):
        path = path_of(3, 1, 1, 1)
        profile = build_branch_profile(path.symbols, frame5, 1)
        seqs = record_sequences(path, 1)
        st = special_times(profile, seqs)[0]
        assert st.record_pos == 1
        assert st.j_before.is_zero
        assert st.m.as_int() == 13824  # U at level 3

    def test_hand_trace_record_at_three(self, frame5):
        # prefix (1, 2) then the record symbol 3: m = j_2 + U_3
        symbols = (1, 2, 3, 1)
        seqs = RecordSequences(
            start=1, pairs=(RecordPair(window=1, position=1),
                            RecordPair(window=2, position=3)),
            degenerate=False, truncated=False,
        )
        profile = build_branch_profile(symbols, frame5, 1)
        times = special_times(profile, seqs)
        assert times[1].j_before.as_int() == 26
        assert times[1].m.as_int() == 26 + 13824

    def test_times_strictly_increase(self, frame_family_spec):
        for seed in range(40):
            run = run_seed(frame_family_spec, seed, 5000, 3, ())
            ms = [st.m for st in run.times]
            assert all(a < b for a, b in zip(ms, ms[1:]))

    def test_truncation_flag_when_profile_short(self, frame5):
        symbols = (1, 2, 3)
        seqs = RecordSequences(
            start=1, pairs=(RecordPair(window=1, position=1),
                            RecordPair(window=2, position=5)),
            degenerate=False, truncated=False,
        )
        profile = build_branch_profile(symbols, frame5, 1)
        with pytest.raises(CoverageError):
            special_times(profile, seqs)


class TestSubsequenceBound:
    def test_first_record_is_exact_equality(self, frame5):
        path = path_of(5, 1)
        profile = build_branch_profile(path.symbols, frame5, 1)
        seqs = record_sequences(path, 1)
        st = special_times(profile, seqs)[0]
        for t in (0.0, 0.5, 1.0):
            chk = subsequence_bound_check(profile, st, t)
            assert chk.lhs == chk.rhs == pytest.approx(-t * LN2, abs=1e-15)
            assert chk.holds and chk.ratio == math.inf

    def test_holds_across_seeds_and_exponents(self, frame_family_spec):
        # quantified property: 100 seeds x all special times x 3 exponents
        for seed in range(600, 700):
            run = run_seed(frame_family_spec, seed, 10_000, 3, (0.0, 0.5, 1.0))
            assert len(run.checks) == 3 * len(run.times)
            for st, t, chk in run.checks:
                assert chk.holds, (seed, st.n, t)

    def test_branch_total_bounded_by_prefix_length(self, frame_family_spec):
        # at special times B_m counts a subset of the j_before steps
        for seed in range(40):
            run = run_seed(frame_family_spec, seed, 5000, 2, ())
            for st in run.times:
                bm = run.profile.branch_upto_run(st.record_pos - 1)
                assert bm <= st.j_before or st.j_before.is_zero

    def test_ratio_floor_holds_exactly(self, frame_family_spec):
        # records past the first: U_record / j_before >= V_{record-1} / 2
        checked = 0
        for seed in range(600, 700):
            run = run_seed(frame_family_spec, seed, 10_000, 3, ())
            for st in run.times:
                if st.n >= 2:
                    assert ratio_floor_holds(run.profile, st, frame_family_spec.frame)
                    checked += 1
        assert checked > 30

    def test_higher_dimension_budget_is_a_d1_inequality(self, frame5):
        # the stated budget amounts to d*B_m <= j_before, a theorem for d = 1;
        # for d = 2 the prefix (2, 1) has B_m = 17, j_before = 26, and
        # 2*17 > 26 breaks it
        symbols = (2, 1, 3)
        seqs = RecordSequences(
            start=1, pairs=(RecordPair(window=3, position=3),),
            degenerate=False, truncated=False,
        )
        d1 = build_branch_profile(symbols, frame5, 1)
        d2 = build_branch_profile(symbols, frame5, 2)
        st1 = special_times(d1, seqs)[0]
        st2 = special_times(d2, seqs)[0]
        assert subsequence_bound_check(d1, st1, 0.5).holds
        assert not subsequence_bound_check(d2, st2, 0.5).holds

    def test_zero_exponent_bound_via_branch_ratio(self, frame_family_spec):
        # (1/m) log-sum at t=0, normalized by d log 2, is at most 2/V_{record-1}
        for seed in range(600, 650):
            run = run_seed(frame_family_spec, seed, 10_000, 2, ())
            for st in run.times:
                if st.n < 2:
                    continue
                e = time_exponent(run.profile, st) / run.profile.d
                v_prev = frame_family_spec.frame.entry(st.record_symbol - 1).v
                assert e <= 2.0 * 2.0 ** -v_prev.log2 + 1e-15


class TestDimUpperEstimate:
    def test_zero_when_first_record_opens(self, frame5):
        path = path_of(4, 1, 1)
        profile = build_branch_profile(path.symbols, frame5, 1)
        seqs = record_sequences(path, 1)
        assert dim_upper_estimate(profile, special_times(profile, seqs)) == 0.0

    def test_synthetic_late_first_record(self, frame5):
        # record at position 3 with symbol 3 after a (1, 2) prefix:
        # estimate <= j_before/(j_before + U_3) with j_before = 26
        symbols = (1, 2, 3)
        seqs = RecordSequences(
            start=1, pairs=(RecordPair(window=3, position=3),),
            degenerate=False, truncated=False,
        )
        profile = build_branch_profile(symbols, frame5, 1)
        est = dim_upper_estimate(profile, special_times(profile, seqs))
        assert 0.0 < est <= 26.0 / (26.0 + 13824.0)
        assert est == pytest.approx(17.0 / (26.0 + 13824.0), rel=1e-12)

    def test_estimate_within_unit_interval(self, frame_family_spec):
        for seed in range(40):
            assert 0.0 <= run_seed(frame_family_spec, seed, 5000, 2, ()).estimate <= 1.0

    def test_inconclusive_without_times(self, frame5):
        profile = build_branch_profile((1,), frame5, 1)
        with pytest.raises(ValueError):
            dim_upper_estimate(profile, ())

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from rifs_lab.frame import (
    Frame,
    FrameDepthError,
    FrameError,
    frame_from_doc,
    minimal_frame,
    validate_frame,
)
from rifs_lab.numerics import HybridNumber

from oracles import minimal_frame_pairs


class TestValidateFrame:
    def test_tight_two_levels_valid(self):
        assert validate_frame([(1, 1), (8, 16)]) == []

    def test_growth_clause_violation(self):
        violations = validate_frame([(1, 1), (7, 16)])
        assert violations
        v = violations[0]
        assert v["level"] == 1 and "(U_n+V_n)^3" in v["clause"] and "8" in v["detail"]

    def test_first_entry_boundary(self):
        violations = validate_frame([(0, 1)])
        assert violations
        assert any(v["clause"] == "positive" for v in violations)
        assert any(v["clause"] == "U_1 >= 1" for v in violations)

    def test_empty_rejected(self):
        assert validate_frame([]) != []

    def test_ratio_clause_violation(self):
        violations = validate_frame([(2, 1)])
        assert violations
        assert any("n*U_n" in v["clause"] for v in violations)

    def test_reports_every_violation_with_level(self):
        violations = validate_frame([(1, 1), (7, 5)])
        clauses = {(v["level"], v["clause"]) for v in violations}
        assert (1, "(U_n+V_n)^3 <= U_{n+1}") in clauses
        assert (2, "n*U_n <= V_n") in clauses

    @given(st.integers(min_value=1, max_value=7))
    def test_minimal_frames_always_validate(self, k):
        pairs = minimal_frame_pairs(k)
        assert validate_frame(pairs) == []


class TestMinimalFrame:
    def test_two_levels(self):
        f = minimal_frame(2)
        assert [(lvl.u.as_int(), lvl.v.as_int()) for lvl in (f.entry(1), f.entry(2))] \
            == [(1, 1), (8, 16)]

    def test_three_levels_bigint_oracle(self):
        f = minimal_frame(3)
        assert f.entry(3).u.as_int() == 24 ** 3 == 13824
        assert f.entry(3).v.as_int() == 41472

    def test_level_four_cube_oracle(self):
        f = minimal_frame(4)
        assert f.entry(4).u.as_int() == 55296 ** 3 == 169075682574336
        assert f.entry(4).v.as_int() == 676302730297344

    def test_matches_reference_recursion(self):
        f = minimal_frame(6)
        for n, (u, v) in enumerate(minimal_frame_pairs(6), start=1):
            assert f.entry(n).u.as_int() == u
            assert f.entry(n).v.as_int() == v

    def test_ratio_is_level_index_while_exact(self):
        f = minimal_frame(7)
        for n in range(1, 8):
            lvl = f.entry(n)
            assert lvl.v.as_int() == n * lvl.u.as_int()

    def test_lazy_extension(self):
        f = minimal_frame(2)
        assert len(f) == 2
        f.entry(5)
        assert len(f) == 5
        assert f.entry(4).u.as_int() == 169075682574336

    def test_deep_levels_promote_but_stay_finite(self):
        f = minimal_frame(2)
        lvl = f.entry(40)
        assert not lvl.u.is_exact
        assert lvl.u.log2 > 1e15  # ~3**39 growth

    def test_extension_past_float_range_raises(self):
        f = minimal_frame(2)
        with pytest.raises(FrameDepthError):
            f.entry(700)

    def test_slack_frame_still_valid(self):
        f = minimal_frame(4, slack=(2, 3))
        pairs = [(lvl.u.as_int(), lvl.v.as_int()) for lvl in (f.entry(n) for n in range(1, 5))]
        assert validate_frame(pairs) == []
        assert f.rule == "custom-slack"

    def test_zero_levels_rejected(self):
        with pytest.raises(FrameError):
            minimal_frame(0)


class TestEntryLog2:
    def test_levels_one_and_two(self):
        f = minimal_frame(3)
        assert (f.entry(1).u.log2, f.entry(1).v.log2) == (0.0, 0.0)
        assert (f.entry(2).u.log2, f.entry(2).v.log2) == (3.0, 4.0)

    def test_level_three(self):
        f = minimal_frame(3)
        assert f.entry(3).u.log2 == pytest.approx(13.754887502163468, abs=1e-12)
        assert f.entry(3).v.log2 == pytest.approx(15.339850002884624, abs=1e-12)

    def test_out_of_range_explicit(self):
        f = Frame.explicit([(1, 1), (8, 16)])
        with pytest.raises(FrameDepthError):
            f.entry(3)


class TestConcurrentExtension:
    def test_readers_observe_consistent_prefix(self):
        import threading

        frame = minimal_frame(2)
        results = []

        def reader():
            lvl = frame.entry(12)
            results.append((lvl.u.log2, lvl.v.log2))

        threads = [threading.Thread(target=reader) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1
        assert len(frame) == 12


class TestSharedLevelTable:
    """Generated frames of one rule read one process-wide level table."""

    def test_depth_stays_per_frame(self):
        minimal_frame(2).entry(40)
        f = minimal_frame(2)
        assert len(f) == 2
        assert f.to_doc() == {"rule": "minimal", "levels": 2}

    def test_minimal_and_slack_frames_never_share_levels(self):
        slack = minimal_frame(5, slack=(2, 1))
        tight = minimal_frame(5)
        u, want = 1, []
        for n in range(1, 6):  # U_{n+1} = 2 (U_n + V_n)^3, V_n = n U_n
            want.append((u, n * u))
            u = 2 * (u + n * u) ** 3
        for n in range(1, 6):
            assert (slack.entry(n).u.as_int(), slack.entry(n).v.as_int()) == want[n - 1]
            assert (tight.entry(n).u.as_int(), tight.entry(n).v.as_int()) \
                == minimal_frame_pairs(5)[n - 1]
        assert minimal_frame(5).entry(5) is tight.entry(5)
        assert slack.entry(5) is not tight.entry(5)

    def test_failed_level_raises_on_every_request(self):
        f = minimal_frame(2)
        for frame in (f, f, minimal_frame(2)):
            with pytest.raises(FrameDepthError, match="level 647 exceeds"):
                frame.entry(647)
        assert f.entry(646).u.log2 > 0
        assert len(f) == 646
        with pytest.raises(FrameDepthError, match="level 647 exceeds"):
            minimal_frame(647)

    def test_concurrent_frames_extend_one_table_in_order(self):
        import sys
        import threading

        slack = (5, 7)  # a rule no other test uses, so its table starts empty
        depths = [40, 25, 60, 10, 55, 33, 48, 60, 17, 29, 60, 5]
        seen = {}
        start = threading.Barrier(len(depths))

        def reader(i, n):
            frame = minimal_frame(1, slack=slack)
            start.wait(timeout=30)
            seen[i] = frame.entry(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i, n))
                       for i, n in enumerate(depths)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        f = minimal_frame(1, slack=slack)
        assert all(seen[i] is f.entry(n) for i, n in enumerate(depths))
        # each level appended once, in order: the serial recursion, step by step
        u = HybridNumber.from_int(1)
        for n in range(1, 61):
            v = u.scale(7 * n)
            assert (f.entry(n).u.log2, f.entry(n).v.log2) == (u.log2, v.log2)
            u = u.add(v).pow3().scale(5)


class TestPromotedLevelAxioms:
    def test_tight_rule_holds_in_log_space(self):
        # beyond the exact range the axioms hold with equality by construction
        frame = minimal_frame(2)
        for n in range(8, 30):
            lu, lv = frame.entry(n).u.log2, frame.entry(n).v.log2
            assert lv == pytest.approx(lu + __import__("math").log2(n), rel=1e-12)
            lu_next = frame.entry(n + 1).u.log2
            both = frame.entry(n).u.add(frame.entry(n).v)
            assert lu_next == pytest.approx(3.0 * both.log2, rel=1e-12)


class TestAuxiliaryBound:
    def test_v_k_exceeds_k_plus_one(self):
        # follows from the axioms; assert on generated frames
        f = minimal_frame(7)
        for k in range(2, 8):
            v = f.entry(k).v
            assert v.as_int() >= k + 1


class TestSerialization:
    def test_explicit_round_trip(self):
        f = Frame.explicit([(1, 1), (8, 16)])
        doc = f.to_doc()
        assert doc == [["1", "1"], ["8", "16"]]
        g = frame_from_doc(doc)
        assert g.entry(2).v.as_int() == 16

    def test_rule_shorthand_round_trip(self):
        f = minimal_frame(4)
        doc = f.to_doc()
        assert doc == {"rule": "minimal", "levels": 4}
        g = frame_from_doc(doc)
        assert g.entry(4).u.as_int() == f.entry(4).u.as_int()

    def test_slack_shorthand(self):
        f = minimal_frame(3, slack=(2, 1))
        g = frame_from_doc(f.to_doc())
        assert g.entry(3).u.as_int() == f.entry(3).u.as_int()

    def test_from_doc_rejects_invalid_pairs(self):
        with pytest.raises(FrameError):
            frame_from_doc([["1", "1"], ["7", "16"]])

    def test_big_entries_as_decimal_strings(self):
        f = minimal_frame(5)
        doc = json.loads(json.dumps(Frame.explicit(
            [(lvl.u.as_int(), lvl.v.as_int()) for lvl in (f.entry(n) for n in range(1, 6))]
        ).to_doc()))
        g = frame_from_doc(doc)
        assert g.entry(5).u.as_int() == f.entry(5).u.as_int()


class TestPseudoFrames:
    def test_bypass_flag_admits_small_pairs(self, pseudo_frame):
        # the plain constructor is the bypass: it takes levels as given
        assert pseudo_frame.entry(3).v.as_int() == 3

    def test_production_path_rejects_them(self):
        with pytest.raises(FrameError):
            Frame.explicit([(1, 1), (2, 2), (3, 3)])

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from rifs_lab import build_branch_profile, minimal_frame
from rifs_lab.cover import (
    BLOCK,
    BudgetError,
    CylinderCode,
    PointExportError,
    box_exponents,
    cylinder_to_cube,
    emit_points,
    enumerate_cylinders,
    osc_check,
    step_flags,
)
from rifs_lab.pressure import refined_log_sum

from oracles import brute_force_cubes, cover_points_reference


class TestCylinderToCube:
    def test_single_zero_step(self):
        code = CylinderCode(word=((0,),), full_step=(True,))
        assert cylinder_to_cube(code) == (0,)
        assert code.depth == 1

    def test_two_ones(self):
        code = CylinderCode(word=((1,), (1,)), full_step=(True, True))
        assert cylinder_to_cube(code) == (3,)

    def test_d2_unit_vector(self):
        code = CylinderCode(word=(((1, 0)),), full_step=(True,))
        assert cylinder_to_cube(code) == (1, 0)

    def test_corner_only_steps_must_be_zero(self):
        with pytest.raises(ValueError, match="zero vector"):
            CylinderCode(word=((1,),), full_step=(False,))

    def test_matches_fraction_composition_oracle(self):
        # exact rational map composition over all words at depth 5, d = 2
        flags = [True, False, True, True, False]
        oracle = brute_force_cubes(flags, 2)
        words = itertools.product(*[
            list(itertools.product((0, 1), repeat=2)) if f else [(0, 0)]
            for f in flags
        ])
        got = set()
        for word in words:
            code = CylinderCode(word=tuple(word), full_step=tuple(flags))
            got.add(tuple(Fraction(c, 2 ** code.depth) for c in cylinder_to_cube(code)))
        assert got == oracle


class TestEnumerateCylinders:
    def test_two_cubes_after_one_branch(self, frame5):
        profile = build_branch_profile((1, 1), frame5, 1)
        cubes = enumerate_cylinders(profile, 2)
        assert cubes.tolist() == [[0], [1]]
        assert {(c / 4, c / 4 + 0.25) for c in cubes[:, 0].tolist()} \
            == {(0.0, 0.25), (0.25, 0.5)}

    def test_corner_only_prefix_single_cube(self, frame5):
        profile = build_branch_profile((2,), frame5, 1)
        cubes = enumerate_cylinders(profile, 8)
        assert cubes.tolist() == [[0]]

    @pytest.mark.parametrize("d", [1, 2])
    def test_count_always_matches_branch_total(self, pseudo_frame, d):
        profile = build_branch_profile((1, 2, 3, 2), pseudo_frame, d)
        for m in range(1, 15):
            flags = step_flags(profile, m)
            cubes = enumerate_cylinders(profile, m, budget=2 ** 22)
            assert len(cubes) == 2 ** (d * sum(flags))

    def test_long_run_beyond_depth_not_materialised(self, frame5):
        # the level-4 single-map run has ~1.7e14 steps; three are needed
        profile = build_branch_profile((1, 4), frame5, 1)
        assert step_flags(profile, 3) == [False, True, False]
        assert enumerate_cylinders(profile, 3).tolist() == [[0], [2]]

    def test_no_branching_step_builds_no_alphabet(self):
        # a one-word cover at d = 16: the 2^16-row alphabet alone took 21 MiB
        profile = build_branch_profile((1,), minimal_frame(1), 16)
        tracemalloc.start()
        try:
            cubes = enumerate_cylinders(profile, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cubes.tolist() == [[0] * 16]
        assert peak < 2 ** 20

    def test_budget_error_names_required(self, pseudo_frame):
        profile = build_branch_profile((3, 3, 3, 3), pseudo_frame, 2)
        with pytest.raises(BudgetError) as err:
            enumerate_cylinders(profile, 20, budget=64)
        assert err.value.required == 2 ** (2 * 9)

    def test_lexicographic_order_is_deterministic(self, pseudo_frame):
        profile = build_branch_profile((2, 2), pseudo_frame, 1)
        a = enumerate_cylinders(profile, 8)
        b = enumerate_cylinders(profile, 8)
        assert np.array_equal(a, b)
        corners = a[:, 0].tolist()
        assert corners == sorted(corners)

    def test_rows_follow_word_order_d2(self, pseudo_frame):
        # row i is the i-th word of itertools.product; the CLI bytes depend on it
        profile = build_branch_profile((1, 2, 3), pseudo_frame, 2)
        m = 9
        flags = step_flags(profile, m)
        words = itertools.product(*[
            list(itertools.product((0, 1), repeat=2)) if f else [(0, 0)]
            for f in flags
        ])
        want = [list(cylinder_to_cube(CylinderCode(word=w, full_step=tuple(flags))))
                for w in words]
        assert enumerate_cylinders(profile, m, budget=2 ** 22).tolist() == want

    @pytest.mark.parametrize("m, dtype", [(62, np.int64), (63, object), (100, object)])
    def test_depth_picks_exact_dtype(self, frame5, m, dtype):
        # one branching step at depth 2, then the level-3 single-map run
        profile = build_branch_profile((1, 3), frame5, 2)
        cubes = enumerate_cylinders(profile, m)
        assert cubes.dtype == dtype
        flags = step_flags(profile, m)
        got = {tuple(Fraction(c, 2 ** m) for c in row) for row in cubes.tolist()}
        assert got == brute_force_cubes(flags, 2)

    def test_matches_fraction_oracle(self, pseudo_frame):
        profile = build_branch_profile((1, 2, 3), pseudo_frame, 2)
        m = 9
        flags = step_flags(profile, m)
        got = {
            tuple(Fraction(c, 2 ** m) for c in row)
            for row in enumerate_cylinders(profile, m, budget=2 ** 22).tolist()
        }
        assert got == brute_force_cubes(flags, 2)


class TestOSC:
    def test_full_level_one_family(self):
        cubes = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.int64)
        assert osc_check(cubes)

    def test_duplicate_fails(self):
        cubes = np.array([[0], [0]], dtype=np.int64)
        assert not osc_check(cubes)

    @pytest.mark.parametrize("dtype", [np.int64, object])
    def test_nonadjacent_duplicate_fails(self, dtype):
        top = 1 << 40 if dtype is np.int64 else 1 << 80
        cubes = np.array([[top, 1], [1, top], [top, 0], [top, 1]], dtype=dtype)
        assert not osc_check(cubes)
        assert osc_check(cubes[:3])

    def test_all_enumerations_pass(self, pseudo_frame):
        profile = build_branch_profile((1, 2, 3, 1), pseudo_frame, 1)
        for m in range(1, 14):
            assert osc_check(enumerate_cylinders(profile, m, budget=2 ** 22))


class TestNesting:
    def test_every_child_in_exactly_one_parent(self, pseudo_frame):
        profile = build_branch_profile((1, 2, 3), pseudo_frame, 2)
        for m in range(1, 12):
            parents = set(map(tuple, enumerate_cylinders(profile, m, budget=2 ** 22).tolist()))
            children = enumerate_cylinders(profile, m + 1, budget=2 ** 22)
            for child in (children >> 1).tolist():
                assert tuple(child) in parents


class TestCoverSumIdentity:
    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0, 2.0])
    def test_geometric_sum_equals_symbolic(self, pseudo_frame, t):
        profile = build_branch_profile((1, 2, 3, 1), pseudo_frame, 1)
        for m in range(1, 13):
            cubes = enumerate_cylinders(profile, m, budget=2 ** 22)
            geometric = math.fsum((2.0 ** -m) ** t for _ in cubes)
            symbolic = math.exp(refined_log_sum(profile, m, t))
            assert geometric == pytest.approx(symbolic, rel=1e-12)


class TestBoxExponents:
    def test_alternating_path_exponent_half(self, frame5):
        profile = build_branch_profile([1] * 10, frame5, 1)
        pairs = box_exponents(profile, [2 * n for n in range(1, 11)])
        for _, e in pairs:
            assert e == pytest.approx(0.5, rel=1e-12)

    def test_corner_run_decreases_exponent(self, frame5):
        profile = build_branch_profile((1, 2), frame5, 1)
        # branch-run end at m=2, then the level-2 corner run begins
        (_, at_branch_end), (_, inside_corner) = box_exponents(profile, [2, 6])
        assert inside_corner < at_branch_end

    def test_mixed_path_exponent(self, frame5):
        profile = build_branch_profile((1, 2), frame5, 1)
        [(_, e)] = box_exponents(profile, [10])
        assert e == pytest.approx(0.1, rel=1e-12)

    def test_exponents_within_ambient_dimension(self, pseudo_frame):
        profile = build_branch_profile((3, 2, 1), pseudo_frame, 2)
        for _, e in box_exponents(profile, list(range(1, 13))):
            assert 0.0 <= e <= 2.0

    def test_promoted_depth_in_log_space(self):
        # level 12 entries are promoted (~253000 bits) but log2 stays sharp
        frame = minimal_frame(2)
        profile = build_branch_profile((12,), frame, 1)
        assert not profile.runs[0].flat_len.is_exact
        m = profile.j_of_run(1)
        [(_, e)] = box_exponents(profile, [m])
        assert e == pytest.approx(12.0 / 13.0, rel=1e-9)  # V/(U+V) at level 12

    def test_astronomic_depth_clamped_into_range(self):
        # at level 30 the log2 ulp (~0.016) swamps the true gap; the clamp
        # keeps the reported exponent inside [0, d]
        frame = minimal_frame(2)
        profile = build_branch_profile((30,), frame, 1)
        m = profile.j_of_run(1)
        [(_, e)] = box_exponents(profile, [m])
        assert 0.9 <= e <= 1.0


class TestEmitPoints:
    def test_rows_and_header_d1(self, frame5):
        profile = build_branch_profile((1, 1), frame5, 1)
        cubes = enumerate_cylinders(profile, 2)
        text = emit_points(cubes, 2)
        lines = text.strip().split("\n")
        assert lines[0] == "x,side"
        assert len(lines) == 1 + len(cubes)
        assert lines[1] == "0.0,0.25"

    def test_full_level_one_square(self):
        cubes = np.array(list(itertools.product((0, 1), repeat=2)), dtype=np.int64)
        text = emit_points(cubes, 1)
        lines = text.strip().split("\n")
        assert lines[0] == "x,y,side"
        assert len(lines) == 5

    def test_rejects_high_dimensions(self):
        with pytest.raises(PointExportError):
            emit_points(np.zeros((1, 4), dtype=np.int64), 0)

    def test_both_dtypes_emit_the_same_bytes(self, pseudo_frame):
        profile = build_branch_profile((1, 2, 3), pseudo_frame, 2)
        cubes = enumerate_cylinders(profile, 9)
        text = emit_points(cubes, 9)
        assert emit_points(cubes.astype(object), 9) == text
        # each coordinate is the float of numerator * 2^-level
        row = [repr(c * 2.0 ** -9) for c in cubes[5].tolist()]
        assert text.split("\n")[6] == ",".join(row) + "," + repr(2.0 ** -9)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("level", [1, 62, 63, 1074])
    def test_matches_row_writer_on_arbitrary_corners(self, d, level):
        # unordered numerators, each column drawn from a pool of 40 values so
        # that cells repeat, in more rows than one block holds
        rng = random.Random(1000 * level + d)
        pools = [[rng.getrandbits(level) for _ in range(40)] for _ in range(d)]
        rows = [[rng.choice(pool) for pool in pools] for _ in range(BLOCK + 7)]
        corners = np.array(rows, dtype=np.int64 if level <= 62 else object)
        assert emit_points(corners, level) == cover_points_reference(corners, level)

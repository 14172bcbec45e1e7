import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rifs_lab.numerics import (
    DEFAULT_EXACT_BITS,
    ZERO,
    HybridNumber,
    log2_int,
    log_sum_exp2_values,
)

H = HybridNumber.from_int


class TestLog2Int:
    def test_powers_of_two_exact(self):
        for k in (0, 1, 10, 100, 5000, 100_000):
            assert log2_int(1 << k) == float(k)

    def test_matches_math_log2_small(self):
        for n in range(1, 4000, 7):
            assert log2_int(n) == pytest.approx(math.log2(n), rel=1e-15)

    @given(st.integers(min_value=1, max_value=1 << 20000))
    def test_relative_accuracy_any_width(self, n):
        # compare against exact rational log via frexp-style reduction
        nb = n.bit_length()
        approx = log2_int(n)
        lo, hi = nb - 1, nb  # log2(n) lies in [nb-1, nb]
        assert lo <= approx <= hi
        # scale down exactly by 2**(nb-53) and compare in machine range
        ref = math.log2(n >> (nb - 53)) + (nb - 53) if nb > 53 else math.log2(n)
        assert approx == pytest.approx(ref, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_int(0)


class TestHybridBasics:
    def test_add_exact(self):
        assert H(8).add(H(16)).as_int() == 24

    def test_add_identity(self):
        x = H(123456)
        assert ZERO.add(x) == x
        assert x.add(ZERO) == x

    def test_add_promoted_closed_form(self):
        a = HybridNumber.from_log2(5000.0)
        assert a.add(a).log2 == pytest.approx(5001.0, abs=1e-9)

    def test_pow3_small(self):
        assert H(2).pow3().as_int() == 8

    def test_pow3_bigint_oracle(self):
        assert H(55296).pow3().as_int() == 55296 ** 3 == 169075682574336

    def test_pow3_log_law(self):
        a = HybridNumber.from_log2(100.0)
        assert a.pow3().log2 == 300.0

    def test_promotion_is_one_way(self):
        wide = H(1 << 5000)
        assert not wide.is_exact
        assert wide.log2 == 5000.0
        # arithmetic on promoted values stays promoted
        assert not wide.add(H(1)).is_exact

    def test_exact_below_threshold(self):
        n = (1 << 4095) + 12345
        assert H(n).is_exact
        assert H(n).as_int() == n

    def test_threshold_boundary(self):
        widest = (1 << DEFAULT_EXACT_BITS) - 1  # 4096 bits
        assert H(widest).is_exact
        assert not H(widest + 1).is_exact  # 4097 bits
        assert H(widest).sub(H(1)).add(H(1)).is_exact
        assert not H(widest).add(H(1)).is_exact

    def test_sub_exact_and_log(self):
        assert H(24).sub(H(8)).as_int() == 16
        a, b = HybridNumber.from_log2(300.0), HybridNumber.from_log2(299.0)
        assert a.sub(b).log2 == pytest.approx(299.0, abs=1e-12)
        with pytest.raises(ValueError):
            H(8).sub(H(24))

    def test_scale(self):
        assert H(13824).scale(3).as_int() == 41472

    def test_from_log2_rejects_inf(self):
        with pytest.raises(ValueError):
            HybridNumber.from_log2(math.inf)

    def test_zero_flags(self):
        assert ZERO.is_zero and not H(1).is_zero
        assert ZERO.mul(H(5)).is_zero


@st.composite
def hybrid_numbers(draw):
    kind = draw(st.sampled_from(["small", "wide", "log"]))
    if kind == "small":
        return H(draw(st.integers(min_value=0, max_value=10 ** 12)))
    if kind == "wide":
        return H(draw(st.integers(min_value=1 << 512, max_value=1 << 600)))
    return HybridNumber.from_log2(draw(st.floats(min_value=-100.0, max_value=9000.0)))


class TestHybridProperties:
    @given(st.integers(min_value=0, max_value=1 << 2000),
           st.integers(min_value=0, max_value=1 << 2000))
    def test_exact_ops_agree_with_bigints(self, a, b):
        hs = H(a).add(H(b))
        hp = H(a).mul(H(b))
        if (a + b).bit_length() <= DEFAULT_EXACT_BITS:
            assert hs.as_int() == a + b
        if (a * b).bit_length() <= DEFAULT_EXACT_BITS:
            assert hp.as_int() == a * b

    @given(st.integers(min_value=1, max_value=1 << 1300))
    def test_exact_cube_agrees_with_bigints(self, a):
        cube = H(a).pow3()
        if (a ** 3).bit_length() <= DEFAULT_EXACT_BITS:
            assert cube.as_int() == a ** 3
        else:
            assert cube.log2 == pytest.approx(3 * log2_int(a), rel=1e-14)

    @given(st.integers(min_value=1, max_value=1 << 600),
           st.integers(min_value=0, max_value=2000))
    def test_mixed_relative_error_bound(self, n, shift):
        # exact operand + promoted operand, result magnitude <= ~2**11:
        # relative error of the represented magnitude stays below 2**-40
        a = H(n % (1 << 11) + 1)
        b = HybridNumber.from_log2(log2_int((n >> shift) + 1) % 2000.0)
        if b.log2 > 2011:
            return
        got = a.add(b)
        exact_log2 = _reference_log2_sum(a.as_int(), b.log2)
        rel = abs(2.0 ** (got.log2 - exact_log2) - 1.0)
        assert rel <= 2.0 ** -40

    @given(st.integers(min_value=0, max_value=1 << 4000),
           st.integers(min_value=0, max_value=1 << 4000),
           st.integers(min_value=0, max_value=1 << 4000))
    def test_add_is_monotone_exact_regime(self, a, b, c):
        lo, hi = sorted((a, b))
        assert H(lo).add(H(c)) <= H(hi).add(H(c))

    @given(hybrid_numbers(), hybrid_numbers(), hybrid_numbers())
    def test_add_is_monotone_up_to_log_ulp(self, a, b, c):
        # in the promoted regime monotonicity is guaranteed to 1 ulp of the
        # stored log2 magnitude (see HybridNumber.add)
        lo, hi = (a, b) if a <= b else (b, a)
        x, y = lo.add(c), hi.add(c)
        if x.is_exact and y.is_exact:
            assert x <= y
        else:
            # zero carries log2 = -inf, below every promoted value (promoted
            # values below 1 have negative log2); y is nonzero here, since
            # y == 0 forces lo == hi == c == 0, the exact branch
            lx, ly = x.log2, y.log2
            assert lx <= ly + 2.0 ** -48 * max(1.0, abs(ly))

    @given(hybrid_numbers(), hybrid_numbers())
    def test_comparisons_total(self, a, b):
        assert (a <= b) or (b <= a)
        assert (a == b) == (a <= b and b <= a)

    @given(st.integers(min_value=0, max_value=1 << 200),
           st.integers(min_value=0, max_value=1 << 200))
    def test_comparison_agrees_with_integers(self, a, b):
        assert (H(a) < H(b)) == (a < b)
        assert (H(a) == H(b)) == (a == b)


def _reference_log2_sum(n: int, l2: float) -> float:
    # high-precision reference via Fraction-free mpmath-style: use math on
    # integers when possible, otherwise split the exponent
    import mpmath

    with mpmath.workdps(60):
        return float(mpmath.log(mpmath.mpf(n) + mpmath.power(2, l2), 2))


class TestLogSumExp2Values:
    def test_log_sum_exp2_pair_of_ones(self):
        assert log_sum_exp2_values([0.0, 0.0]) == 1.0

    def test_log_sum_exp2_empty(self):
        assert log_sum_exp2_values([]) == -math.inf

    def test_log_sum_exp2_many_small(self):
        # 65536 copies of 2**-24 sum to exactly 2**-8
        direct = math.fsum(2.0 ** -24 for _ in range(65536))
        out = log_sum_exp2_values([-24.0] * 65536)
        assert out == pytest.approx(-8.0, abs=1e-12)
        assert 2.0 ** out == pytest.approx(direct, rel=1e-12)

    def test_left_to_right_accumulation_documented_order(self):
        # permuting equal-magnitude inputs must not change the result
        logs = [-1.0, -1.0, -2.0]
        assert log_sum_exp2_values(logs) == log_sum_exp2_values(list(reversed(logs)))

    @given(st.lists(st.floats(min_value=-300, max_value=300), max_size=40))
    @settings(max_examples=200)
    def test_log_sum_exp2_matches_direct_sum(self, logs):
        out = log_sum_exp2_values(logs)
        direct = math.fsum(2.0 ** x for x in logs)
        if not logs:
            assert out == -math.inf
        else:
            assert 2.0 ** out == pytest.approx(direct, rel=1e-12)

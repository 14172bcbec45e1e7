import math
from fractions import Fraction

import pytest

from rifs_lab import (
    MauldinDomainError,
    ProbVector,
    bowen_parameter,
    expected_log_fitness,
    mauldin_dimension,
    minimal_frame,
)
from rifs_lab.bowen import log_fitness
from rifs_lab.frame import FrameDepthError
from rifs_lab.rifs import MapAggregate, RIFSSpec, validate_spec

from conftest import frame_family_doc

LN2 = math.log(2.0)

# closed-form oracles for the golden two-system mix
BOWEN_GOLDEN = 2.0 / 3.0                                # solve log2 = t*(3/2)*log2
MAULDIN_GOLDEN = math.log2((1.0 + math.sqrt(5.0)) / 2)  # x + x^2 = 1, x = 2^-t


def explicit(*pairs) -> RIFSSpec:
    """A spec whose one system is the given (log2 ratio, multiplicity) maps."""
    return RIFSSpec(ProbVector("finite", (1.0,)),
                    systems=(tuple(MapAggregate(r, m) for r, m in pairs),))


def frame_spec(frame, d: int) -> RIFSSpec:
    return RIFSSpec(ProbVector("inverse_square"), frame=frame, d=d)


class TestLogFitness:
    def test_frame_level_one_t_zero(self, frame5):
        assert log_fitness(frame_spec(frame5, 1), 1, 0.0) == pytest.approx(LN2, rel=1e-14)

    def test_frame_level_one_t_one(self, frame5):
        assert log_fitness(frame_spec(frame5, 1), 1, 1.0) == pytest.approx(-LN2, rel=1e-14)

    def test_two_half_ratio_maps_unity(self):
        assert log_fitness(explicit((-1.0, 2)), 1, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_matches_direct_sum_on_aggregates(self):
        spec = explicit((-1.0, 2), (-2.5, 3), (-0.25, 1))
        for t in (0.0, 0.3, 1.0, 2.7):
            direct = math.log(math.fsum(
                a.multiplicity * (2.0 ** a.log2_ratio) ** t for a in spec.systems[0]
            ))
            assert log_fitness(spec, 1, t) == pytest.approx(direct, rel=1e-13)

    def test_frame_closed_form_matches_aggregate_view(self, frame5):
        # level 2, d = 1: 2^16 maps of ratio 2^-24
        for t in (0.0, 0.5, 1.0, 2.0):
            direct = math.log(65536.0 * (2.0 ** -24) ** t)
            assert log_fitness(frame_spec(frame5, 1), 2, t) == pytest.approx(direct, rel=1e-13)

    def test_deep_level_saturates_with_correct_sign(self):
        spec = frame_spec(minimal_frame(2), 1)
        assert log_fitness(spec, 60, 0.5) == math.inf
        assert log_fitness(spec, 60, 1.0) == -math.inf

    def test_saturated_signs_follow_the_axioms(self):
        # a generated level has V_n = n*sv*U_n exactly, so (d-t)*V_n - t*U_n
        # has the sign of (d-t)*n*sv - t; float log2 U_n cannot carry the
        # factor n past level ~33
        saturated = 0
        for slack in ((1, 1), (2, 3)):
            for d in (1, 2, 3):
                spec = frame_spec(minimal_frame(1, slack=slack), d)
                for t in (0.0, 0.5 * d, 0.99 * d, float(d)):
                    for n in range(1, 10 ** 4):
                        try:
                            value = log_fitness(spec, n, t)
                        except FrameDepthError:
                            break
                        if math.isinf(value):
                            saturated += 1
                            axiom = (d - Fraction(t)) * n * slack[1] - Fraction(t)
                            assert (value > 0) == (axiom > 0) and axiom != 0, (slack, d, t, n)
        assert saturated > 10 ** 4

    def test_rejects_negative_exponent(self, frame5):
        with pytest.raises(ValueError):
            log_fitness(frame_spec(frame5, 1), 1, -0.1)


class TestExpectedLogFitness:
    def test_finite_mix_t_zero(self, two_ifs_spec):
        verdict = expected_log_fitness(two_ifs_spec, 0.0)
        assert verdict.kind == "converges"
        assert verdict.value == pytest.approx(LN2, rel=1e-14)

    def test_finite_closed_form_along_t(self, two_ifs_spec):
        # E(t) = (1 - 3t/2) log 2
        for t in (0.0, 0.4, 2.0 / 3.0, 1.0):
            verdict = expected_log_fitness(two_ifs_spec, t)
            assert verdict.value == pytest.approx((1 - 1.5 * t) * LN2, abs=1e-13)

    def test_frame_diverges_minus_at_d(self, frame_family_spec):
        verdict = expected_log_fitness(frame_family_spec, 1.0, truncation=50)
        assert verdict.kind == "diverges_minus"
        assert verdict.terms_used == 50
        assert verdict.partial_sum == -math.inf

    def test_frame_diverges_plus_below_d(self, frame_family_spec):
        verdict = expected_log_fitness(frame_family_spec, 0.5, truncation=50)
        assert verdict.kind == "diverges_plus"

    def test_partial_sum_matches_direct_accumulation_small_m(self, frame_family_spec):
        from rifs_lab.rifs import zeta_probability

        t, M = 0.75, 5
        direct = math.fsum(
            zeta_probability(k) * log_fitness(frame_family_spec, k, t)
            for k in range(1, M + 1)
        )
        verdict = expected_log_fitness(frame_family_spec, t, truncation=M)
        assert verdict.partial_sum == pytest.approx(direct, rel=1e-13)

    def test_classifier_certificates_on_valid_frames(self):
        # any valid frame, d in {1,2,3}: minus at t=d, plus at t=0.99d
        for slack in (None, (2, 3)):
            for d in (1, 2, 3):
                doc = frame_family_doc(levels=5, d=d)
                if slack:
                    doc["family"]["frame"] = {"rule": "custom-slack", "levels": 5,
                                              "slack": list(slack)}
                spec = validate_spec(doc)
                assert expected_log_fitness(spec, float(d), 50).kind == "diverges_minus"
                assert expected_log_fitness(spec, 0.99 * d, 50).kind == "diverges_plus"


class TestBowenParameter:
    def test_golden_two_ifs(self, two_ifs_spec):
        assert bowen_parameter(two_ifs_spec, tol=1e-10) == pytest.approx(
            BOWEN_GOLDEN, abs=1e-9
        )

    def test_single_binary_halving(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0]},
            "family": {"kind": "explicit",
                       "ifs": [{"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]}]},
        }
        assert bowen_parameter(validate_spec(doc), tol=1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_frame_family_returns_exactly_d(self):
        for d in (1, 2, 3):
            spec = validate_spec(frame_family_doc(levels=5, d=d))
            assert bowen_parameter(spec) == float(d)

    def test_monotone_expectation_grid(self, two_ifs_spec):
        values = [expected_log_fitness(two_ifs_spec, t / 50).value for t in range(100)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMauldinDimension:
    def test_golden_quadratic(self, two_ifs_spec):
        assert mauldin_dimension(two_ifs_spec, tol=1e-9) == pytest.approx(
            MAULDIN_GOLDEN, abs=1e-8
        )

    def test_degenerate_probabilities_reduce_to_first_system(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0, 0.0]},
            "family": {"kind": "explicit", "ifs": [
                {"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]},
                {"maps": [{"log2_ratio": -3.0, "multiplicity": 5}]},
            ]},
        }
        spec = validate_spec(doc)
        b = bowen_parameter(spec, tol=1e-10)
        m = mauldin_dimension(spec, tol=1e-10)
        assert b == pytest.approx(1.0, abs=1e-9)
        assert m == pytest.approx(1.0, abs=1e-9)
        assert abs(b - m) <= 2e-9

    def test_single_system_equals_bowen(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0]},
            "family": {"kind": "explicit",
                       "ifs": [{"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]}]},
        }
        spec = validate_spec(doc)
        assert mauldin_dimension(spec) == pytest.approx(1.0, abs=1e-8)

    def test_frame_family_rejected(self, frame_family_spec):
        with pytest.raises(MauldinDomainError):
            mauldin_dimension(frame_family_spec)

    def test_monotone_weighted_sum_grid(self, two_ifs_spec):
        # the linear-space sum p-weighted over systems is strictly decreasing
        def weighted(t):
            return 0.5 * 2 * 2.0 ** (-t) + 0.5 * 2 * 4.0 ** (-t)

        grid = [weighted(t / 50) for t in range(100)]
        assert all(a > b for a, b in zip(grid, grid[1:]))

    def test_multiplicity_overflow_safe(self):
        # large multiplicities stay in log space until the final comparison
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0]},
            "family": {"kind": "explicit",
                       "ifs": [{"maps": [{"log2_ratio": -24.0, "multiplicity": 65536}]}]},
        }
        spec = validate_spec(doc)
        assert mauldin_dimension(spec, tol=1e-10) == pytest.approx(16.0 / 24.0, abs=1e-9)


class TestJensenGap:
    def test_bowen_strictly_below_mauldin(self, two_ifs_spec):
        b = bowen_parameter(two_ifs_spec, tol=1e-10)
        m = mauldin_dimension(two_ifs_spec, tol=1e-10)
        assert b < m - 0.02

import json
import math
from fractions import Fraction

import pytest

from rifs_lab import (
    Frame,
    ProbVector,
    bowen_parameter,
    expected_log_fitness,
    mauldin_dimension,
    minimal_frame,
)
from rifs_lab.bowen import log_fitness
from rifs_lab.frame import FrameDepthError, frame_from_doc
from rifs_lab.rifs import MapAggregate, RIFSSpec, validate_spec

from conftest import frame_family_doc, load_json
from oracles import mauldin_root_reference, minimal_frame_pairs, minimal_frame_terms

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


def charged_levels(d: int = 1, integers: bool = False, **p_at_level: float) -> RIFSSpec:
    """The minimal frame under finite probabilities ``p_at_level``, keyed
    ``L<level>``; with ``integers`` as an explicit frame of its integer levels."""
    levels = {int(k[1:]): p for k, p in p_at_level.items()}
    values = [levels.get(n, 0.0) for n in range(1, max(levels) + 1)]
    frame = (Frame.explicit(minimal_frame_pairs(len(values))) if integers
             else minimal_frame(len(values)))
    return RIFSSpec(ProbVector("finite", tuple(values)), frame=frame, d=d)


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
        verdict = expected_log_fitness(frame_family_spec, 1.0)
        assert verdict.kind == "diverges_minus"
        assert verdict.to_dict() == {"kind": "diverges_minus", "from_level": 1}

    def test_frame_diverges_plus_below_d(self, frame_family_spec):
        verdict = expected_log_fitness(frame_family_spec, 0.5)
        assert verdict.kind == "diverges_plus"

    def test_classifier_certificates_on_valid_frames(self):
        # any valid frame, d in {1,2,3}: minus at t=d, plus at t=0.99d
        for slack in (None, (2, 3)):
            for d in (1, 2, 3):
                doc = frame_family_doc(levels=5, d=d)
                if slack:
                    doc["family"]["frame"] = {"rule": "custom-slack", "levels": 5,
                                              "slack": list(slack)}
                spec = validate_spec(doc)
                assert expected_log_fitness(spec, float(d)).kind == "diverges_minus"
                assert expected_log_fitness(spec, 0.99 * d).kind == "diverges_plus"

    @pytest.mark.parametrize("t, d, level", [
        (0.7777777777777778, 1, 9),  # float ceil((1+t)/(d-t)) gives 8
        (5e-324, 1, 2),              # and 1 here
        (0.99, 1, 199),
        (1.98, 2, 149),
        (0.0, 1, 1),
        (1.0, 1, 1),
        (2.0, 2, 1),
        (7.5, 2, 1),
    ])
    def test_certificate_level_is_exact(self, t, d, level):
        # M_t = ceil((1+t)/(d-t)) below d, from t's exact rational value;
        # level 1 at t >= d
        verdict = expected_log_fitness(frame_spec(minimal_frame(1), d), t)
        assert verdict.from_level == level
        assert verdict.kind == ("diverges_plus" if t < d else "diverges_minus")
        if t < d:
            assert level == math.ceil((1 + Fraction(t)) / (d - Fraction(t)))

    def test_certificate_terms_have_the_verdict_sign(self):
        # every term from the certified level on has the verdict's sign
        for slack in ((1, 1), (2, 3)):
            for d in (1, 2, 3):
                spec = frame_spec(minimal_frame(1, slack=slack), d)
                for t in (0.0, 5e-324, 0.25 * d, 0.7777777777777778 * d, 0.99 * d,
                          float(d), 1.5 * d):
                    verdict = expected_log_fitness(spec, t)
                    sign = 1 if verdict.kind == "diverges_plus" else -1
                    for k in range(verdict.from_level, verdict.from_level + 31):
                        assert sign * log_fitness(spec, k, t) > 0, (slack, d, t, k)


class TestBowenParameter:
    def test_golden_two_ifs(self, two_ifs_spec):
        assert bowen_parameter(two_ifs_spec) == pytest.approx(
            BOWEN_GOLDEN, abs=1e-9
        )

    def test_single_binary_halving(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0]},
            "family": {"kind": "explicit",
                       "ifs": [{"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]}]},
        }
        assert bowen_parameter(validate_spec(doc)) == pytest.approx(1.0, abs=1e-9)

    def test_frame_family_returns_exactly_d(self):
        for d in (1, 2, 3):
            spec = validate_spec(frame_family_doc(levels=5, d=d))
            assert bowen_parameter(spec) == float(d)

    @pytest.mark.parametrize("spec, root", [
        (charged_levels(L60=0.5, L70=0.5), Fraction(70, 71)),
        (charged_levels(L1=0.5, L60=0.5), Fraction(60, 61)),
        (charged_levels(L7=0.5, L8=0.5), Fraction(8, 9)),
        # level 7 (log2 U ~ 1371) charged with the least float does not
        # outweigh level 6, so the exact sum decides
        (charged_levels(L6=1.0, L7=5e-324), Fraction(6, 7)),
        (charged_levels(L6=1.0, L7=5e-324, integers=True), Fraction(6, 7)),
        (charged_levels(d=2, L2=0.25, L61=0.75), Fraction(2 * 61, 62)),
    ], ids=["levels-60-70", "levels-1-60", "levels-7-8", "tiny-level-7", "explicit-tiny-level-7",
         "d2-levels-2-61"])
    def test_levels_past_float_range_keep_the_exact_root(self, spec, root):
        # the deepest charged level decides the sign of the sum: below its
        # root d*n/(n+1) its positive term outweighs every shallower one,
        # which float addition of +inf and -inf turned into nan
        b = bowen_parameter(spec)
        assert abs(Fraction(b) - root) <= math.ulp(b)
        for t in (0.0, b, math.nextafter(b, 0.0)):
            assert not math.isnan(expected_log_fitness(spec, t).value)
        assert expected_log_fitness(spec, math.nextafter(b, 0.0)).value > 0
        assert expected_log_fitness(spec, b).value <= 0

    def test_monotone_expectation_grid(self, two_ifs_spec):
        values = [expected_log_fitness(two_ifs_spec, t / 50).value for t in range(100)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestMauldinDimension:
    def test_golden_quadratic(self, two_ifs_spec):
        assert mauldin_dimension(two_ifs_spec) == pytest.approx(
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
        b = bowen_parameter(spec)
        m = mauldin_dimension(spec)
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

    def test_frame_family_is_exactly_d(self):
        # inverse-square probabilities: S(d) <= 2^-d < 1, and below d the
        # term at M_t alone exceeds 1, so the infimum is d, as for Bowen
        for slack in (None, (2, 3)):
            for d in (1, 2, 3):
                spec = RIFSSpec(ProbVector("inverse_square"),
                                frame=minimal_frame(1, slack=slack), d=d)
                assert mauldin_dimension(spec) == bowen_parameter(spec) == float(d)

    def test_finite_probability_frame_family_is_bisected(self):
        # level 2 alone at d = 1: S(t) = 2^(16 - 24t), root 2/3, so the
        # bisection ends at the least float not below 2/3
        m = mauldin_dimension(charged_levels(L2=1.0))
        assert Fraction(math.nextafter(m, 0.0)) < Fraction(2, 3) <= Fraction(m)

    @pytest.mark.parametrize("spec, d, terms, root", [
        (validate_spec(load_json("dimensions_digests.json")["explicit-frame-levels-1-3"]["doc"]),
         2, [(0.5, 1, Fraction(1)), (0.5, 13824, Fraction(3))], None),
        (charged_levels(L2=1.0), 1, minimal_frame_terms({2: 1.0}), Fraction(2, 3)),
        (charged_levels(L1=0.5, L60=0.5), 1, minimal_frame_terms({1: 0.5, 60: 0.5}),
         Fraction(60, 61)),
        (charged_levels(L60=0.5, L70=0.5), 1, minimal_frame_terms({60: 0.5, 70: 0.5}),
         Fraction(70, 71)),
    ], ids=["explicit-frame-levels-1-3", "minimal-frame-level-2", "levels-1-60",
         "levels-60-70"])
    def test_finite_frame_roots_match_the_exact_reference(self, spec, d, terms, root):
        m = mauldin_dimension(spec)
        assert abs(m - mauldin_root_reference(d, terms)) <= math.ulp(m)
        if root is not None:
            assert abs(Fraction(m) - root) <= math.ulp(m)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("integers", [True, False], ids=["explicit", "generated"])
    @pytest.mark.parametrize("p_at_level", [{"L1": 0.5, "L7": 0.5}, {"L7": 1.0}],
                             ids=["levels-1-7", "level-7"])
    def test_exact_level_past_float_range_gives_the_exact_root(self, d, integers, p_at_level):
        # level 7 (U_7 ~ 2^1370) is an exact integer: its exponent
        # (d-t)*7*U_7 - t*U_7 is zero at t = 7d/8, a float, and its sign is
        # decided from integers, not from float log2 magnitudes
        spec = charged_levels(d=d, integers=integers, **p_at_level)
        assert bowen_parameter(spec) == mauldin_dimension(spec) == 7 * d / 8

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
        assert mauldin_dimension(spec) == pytest.approx(16.0 / 24.0, abs=1e-9)


class TestExplicitFramePastExactRange:
    """The minimal frame written out as an explicit 8-level frame: U_8 has
    4121 bits, so level 8's entries hold only their log2 magnitudes."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_roots_equal_the_generated_frame(self, d):
        # the sign of (d-t)*V_8 - t*U_8 comes from the kept integers; from
        # float log2 magnitudes both roots read 521 ulps high at d = 1
        explicit = charged_levels(d=d, integers=True, L1=0.5, L8=0.5)
        generated = charged_levels(d=d, L1=0.5, L8=0.5)
        assert not explicit.frame.entry(8).u.is_exact
        b = bowen_parameter(generated)
        assert abs(Fraction(b) - Fraction(8 * d, 9)) <= math.ulp(b)
        assert bowen_parameter(explicit) == b
        assert mauldin_dimension(explicit) == mauldin_dimension(generated)

    def test_round_trips_through_its_document(self):
        pairs = minimal_frame_pairs(8)
        doc = json.loads(json.dumps(Frame.explicit(pairs).to_doc()))
        assert frame_from_doc(doc).pairs == tuple(pairs)


class TestSaturatedVerdict:
    @pytest.mark.parametrize("spec, level", [
        (charged_levels(L1=0.5, L60=0.5), 60),
        (charged_levels(L60=0.5, L70=0.5), 70),
        (charged_levels(L1=0.5, L7=0.5, integers=True), 7),
        (charged_levels(L6=1.0, L7=5e-324, integers=True), 7),
    ], ids=["levels-1-60", "levels-60-70", "explicit-levels-1-7", "explicit-tiny-level-7"])
    def test_names_the_deciding_level_instead_of_an_infinity(self, spec, level):
        # the deepest log-form level with a nonzero term decides, or else
        # the exact integer sum, named by its deepest level
        b = bowen_parameter(spec)
        for t in (0.0, math.nextafter(b, 0.0)):
            assert expected_log_fitness(spec, t).to_dict() == {
                "kind": "converges", "sign": 1, "from_level": level}
        # at the root the sum is decided the same way, or is a finite value
        at_root = expected_log_fitness(spec, b).to_dict()
        assert at_root.get("sign", -1) == -1 and -math.inf < at_root.get("value", 0.0) <= 0.0


class TestJensenGap:
    def test_bowen_strictly_below_mauldin(self, two_ifs_spec):
        b = bowen_parameter(two_ifs_spec)
        m = mauldin_dimension(two_ifs_spec)
        assert b < m - 0.02

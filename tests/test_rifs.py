import math

import mpmath
import numpy as np
import pytest

from rifs_lab import (
    ProbVector,
    SpecValidationError,
    check_bowen_hypothesis,
    load_spec,
    sample_scenery,
    scenery_csv,
)
from rifs_lab.bowen import log_fitness
from rifs_lab.frame import FrameDepthError
from rifs_lab.rifs import (
    INVERSE_SQUARE_C,
    INVERSE_SQUARE_CDF,
    MapAggregate,
    _count_label,
    validate_spec,
    zeta_probability,
    zeta_tail,
)

from conftest import DATA, frame_family_doc, two_ifs_doc


class TestZetaProbability:
    def test_first_symbol(self):
        # partial-sum oracle for the normalizer
        with mpmath.workdps(40):
            c_ref = float(mpmath.zeta(2))
        assert zeta_probability(1) == pytest.approx(1.0 / c_ref, rel=1e-14)
        assert zeta_probability(1) == pytest.approx(0.60792710185, abs=1e-11)

    def test_second_symbol_quarter_of_first(self):
        assert zeta_probability(2) == pytest.approx(zeta_probability(1) / 4, rel=1e-15)
        assert zeta_probability(2) == pytest.approx(0.15198177546, abs=1e-11)

    def test_tail_between_integral_bounds(self):
        c = math.pi ** 2 / 6
        for n in (1, 2, 10, 500, 10_000, 100_000):
            tail = zeta_tail(n)
            assert 1.0 / (c * (n + 1)) < tail < 1.0 / (c * n)

    def test_tail_against_partial_sum_oracle(self):
        # direct summation to K plus integral bounds on the remainder
        c = math.pi ** 2 / 6
        K = 2_000_000
        for n in (3, 47, 1000):
            direct = math.fsum(1.0 / (c * k * k) for k in range(n + 1, K + 1))
            assert direct + 1.0 / (c * (K + 1)) < zeta_tail(n) < direct + 1.0 / (c * K)


class TestProbVector:
    def test_finite_must_sum_to_one(self):
        with pytest.raises(SpecValidationError, match="sum"):
            ProbVector("finite", (0.6, 0.6))

    def test_finite_allows_zero_entries(self):
        pv = ProbVector("finite", (1.0, 0.0))
        assert pv.support() == [1]

    def test_cdf_deterministic_under_growth(self):
        # inverting a scenery with draws far past the table walks cdf_block
        pv = ProbVector("inverse_square")
        first = pv.prefix_cdf(1000).copy()
        sample_scenery(pv, 10 ** 6, seed=2).symbols
        assert (pv.prefix_cdf(1000) == first).all()
        with pytest.raises(ValueError):
            pv.prefix_cdf(50_000)

    def test_cdf_grown_by_extension_equals_one_shot(self):
        pv = ProbVector("inverse_square")
        table = len(INVERSE_SQUARE_CDF)
        for n in (1024, 3000, 2 ** 20, 10 ** 6):
            parts = [pv.prefix_cdf(min(n, table))]
            for lo in range(table, n, table):
                parts.append(pv.cdf_block(lo, min(lo + table, n), parts[-1][-1]))
            k = np.arange(1, n + 1, dtype=np.float64)
            assert np.array_equal(np.concatenate(parts),
                                  np.cumsum(1.0 / (INVERSE_SQUARE_C * k * k)))
        golden = (DATA / "scenery_seed42_len10.csv").read_text()
        assert scenery_csv(sample_scenery(pv, 10, seed=42)) == golden

    def test_inverse_square_probabilities(self):
        pv = ProbVector("inverse_square")
        assert pv.probability(3) == pytest.approx(zeta_probability(3), rel=1e-15)


class TestCounterexampleIFS:
    """Level i of a frame family on [0,1]^d: 2^(d*V_i) maps of ratio 2^-(U_i+V_i)."""

    def test_level_one_d_one(self, frame_family_spec):
        assert _count_label(frame_family_spec, 1) == "2"
        level = frame_family_spec.frame.entry(1)
        assert level.u.as_int() + level.v.as_int() == 2  # ratio 2^-(U+V)

    def test_level_two_d_one(self, frame_family_spec):
        assert _count_label(frame_family_spec, 2) == "65536"
        level = frame_family_spec.frame.entry(2)
        assert level.u.as_int() + level.v.as_int() == 24

    def test_level_one_d_two(self):
        assert _count_label(validate_spec(frame_family_doc(d=2)), 1) == "4"

    def test_bad_indices(self, frame_family_spec):
        with pytest.raises(SpecValidationError):
            validate_spec(frame_family_doc(d=0))
        with pytest.raises(FrameDepthError):
            log_fitness(frame_family_spec, 0, 0.5)


class TestValidateSpec:
    def test_golden_two_ifs(self, two_ifs_spec):
        assert two_ifs_spec.systems == ((MapAggregate(-1.0, 2),), (MapAggregate(-2.0, 2),))

    def test_probability_sum_error(self):
        doc = two_ifs_doc()
        doc["probabilities"]["values"] = [0.6, 0.6]
        with pytest.raises(SpecValidationError, match="sum"):
            validate_spec(doc)

    def test_non_contraction_error(self):
        doc = two_ifs_doc()
        doc["family"]["ifs"][0]["maps"][0]["log2_ratio"] = 0.0
        with pytest.raises(SpecValidationError, match="contraction"):
            validate_spec(doc)

    def test_single_map_error(self):
        doc = two_ifs_doc()
        doc["family"]["ifs"][0]["maps"][0]["multiplicity"] = 1
        with pytest.raises(SpecValidationError, match="at least 2"):
            validate_spec(doc)

    def test_inverse_square_needs_frame_family(self):
        doc = two_ifs_doc()
        doc["probabilities"] = {"kind": "inverse_square"}
        with pytest.raises(SpecValidationError, match="frame"):
            validate_spec(doc)

    def test_mass_beyond_family_rejected(self):
        doc = two_ifs_doc()
        doc["probabilities"]["values"] = [0.5, 0.25, 0.25]
        with pytest.raises(SpecValidationError, match="beyond"):
            validate_spec(doc)

    @pytest.mark.parametrize("probabilities", [
        {"kind": "inverse_square"}, {"kind": "finite", "values": [0.0, 1.0]},
    ], ids=["inverse-square", "level-two"])
    def test_mass_beyond_explicit_frame_rejected(self, probabilities):
        doc = {"probabilities": probabilities,
               "family": {"kind": "frame", "frame": [["1", "1"]], "d": 1}}
        with pytest.raises(SpecValidationError, match="past the explicit frame's last level 1"):
            validate_spec(doc)

    @pytest.mark.parametrize("doc, section, extra, message", [
        (two_ifs_doc(), None, {"etaa": 0.3, "probabilites": {"kind": "inverse_square"}},
         "config has unknown key(s) 'etaa', 'probabilites'"),
        (two_ifs_doc(), "probabilities", {"etaa": 0.3},
         "'probabilities' has unknown key(s) 'etaa'"),
        # values are read only under finite probabilities
        (frame_family_doc(), "probabilities", {"values": [1.0]},
         "'probabilities' has unknown key(s) 'values'"),
        (two_ifs_doc(), "family", {"etaa": 0.3}, "'family' has unknown key(s) 'etaa'"),
        (frame_family_doc(), "family", {"etaa": 0.3}, "'family' has unknown key(s) 'etaa'"),
    ], ids=["top-level", "finite-probabilities", "inverse-square", "explicit-family",
            "frame-family"])
    def test_unknown_key_is_named(self, doc, section, extra, message):
        (doc if section is None else doc[section]).update(extra)
        with pytest.raises(SpecValidationError) as exc:
            validate_spec(doc)
        assert str(exc.value) == message

    def test_frame_family(self, frame_family_spec):
        assert frame_family_spec.is_frame_family
        assert frame_family_spec.d == 1
        assert _count_label(frame_family_spec, 2) == "65536"


class TestSerializationRoundTrip:
    def test_load_spec_rejects_bad_json(self):
        with pytest.raises(SpecValidationError):
            load_spec("{oops")


class TestHypothesisCheck:
    def test_equal_counts_hold(self, two_ifs_spec):
        assert check_bowen_hypothesis(two_ifs_spec) == {"holds": True, "reasons": []}

    def test_counterexample_fails_with_counts_named(self, frame_family_spec):
        report = check_bowen_hypothesis(frame_family_spec)
        assert not report["holds"]
        assert any("2 vs 65536" in r for r in report["reasons"])

    def test_single_system_holds(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0]},
            "family": {"kind": "explicit",
                       "ifs": [{"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]}]},
        }
        assert check_bowen_hypothesis(validate_spec(doc))["holds"]

    def test_mismatch_only_counts_positive_probability(self):
        doc = {
            "probabilities": {"kind": "finite", "values": [1.0, 0.0]},
            "family": {"kind": "explicit", "ifs": [
                {"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]},
                {"maps": [{"log2_ratio": -1.0, "multiplicity": 4}]},
            ]},
        }
        assert check_bowen_hypothesis(validate_spec(doc))["holds"]

    @pytest.mark.parametrize("frame", [{"rule": "minimal", "levels": 1}, [["1", "1"]]],
                             ids=["minimal-frame", "one-level-explicit-frame"])
    def test_frame_with_one_charged_level_holds(self, frame):
        # level 2 carries no mass, so its map count is not compared
        doc = {"probabilities": {"kind": "finite", "values": [1.0]},
               "family": {"kind": "frame", "frame": frame, "d": 1}}
        assert check_bowen_hypothesis(validate_spec(doc))["holds"]

    def test_frame_compares_charged_levels(self):
        doc = {"probabilities": {"kind": "finite", "values": [0.5, 0.0, 0.5]},
               "family": {"kind": "frame", "frame": {"rule": "minimal", "levels": 1}, "d": 1}}
        report = check_bowen_hypothesis(validate_spec(doc))
        assert not report["holds"]
        assert report["reasons"][0].startswith("map counts differ between levels 1 and 3")

    @pytest.mark.parametrize("probabilities, frame, d, reason", [
        ({"kind": "inverse_square"}, {"rule": "minimal", "levels": 1}, 1,
         "levels 1 and 2 (2 vs 65536)"),
        ({"kind": "finite", "values": [0.5, 0.0, 0.5]},
         [["1", "1"], ["8", "16"], ["13824", "41472"]], 2, "levels 1 and 3 (4 vs 2^82944)"),
        ({"kind": "finite", "values": [0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.5]},
         {"rule": "minimal", "levels": 1}, 1, "levels 1 and 7 (2 vs 2^(d*V_7))"),
    ], ids=["decimal", "power-of-two", "past-float-range"])
    def test_count_labels(self, probabilities, frame, d, reason):
        # one label per form: a decimal below 2^64, 2^x, and 2^(d*V_i) once
        # d*V_i leaves float range
        doc = {"probabilities": probabilities,
               "family": {"kind": "frame", "frame": frame, "d": d}}
        report = check_bowen_hypothesis(validate_spec(doc))
        assert report["reasons"][0] == "map counts differ between " + reason

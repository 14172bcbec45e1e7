import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rifs_lab import (Frame, ProbVector, bowen, build_branch_profile, cli, cover,
                      enumerate_cylinders, minimal_frame, pressure, sample_scenery, sampler,
                      scenery_csv)
from rifs_lab.cover import BLOCK
from rifs_lab.cli import main

from conftest import frame_family_doc, load_json, two_ifs_doc
from oracles import (brute_force_cubes, cover_enum_reference, cover_points_reference,
                     minimal_frame_pairs)

D1_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "counterexample_d1.json")
D2_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "counterexample_d2.json")
TWO_IFS_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "two_ifs.json")
ROOT = Path(__file__).resolve().parent.parent


def _charged_frame_doc(p_at_level: dict[int, float], frame) -> dict:
    """A d = 1 frame config whose finite probabilities charge ``p_at_level``."""
    values = [p_at_level.get(n, 0.0) for n in range(1, max(p_at_level) + 1)]
    return {"probabilities": {"kind": "finite", "values": values},
            "family": {"kind": "frame", "frame": frame, "d": 1}}


# frame configs that charge a level past float range: the minimal frame's
# log-form level 60, and the exact level 7 of the minimal frame written out
# as an explicit 7-level frame
_PAST_FLOAT_RANGE = {
    "LEVELS_1_60": _charged_frame_doc({1: 0.5, 60: 0.5}, {"rule": "minimal", "levels": 1}),
    "EXPLICIT_LEVELS_1_7": _charged_frame_doc(
        {1: 0.5, 7: 0.5}, [[str(u), str(v)] for u, v in minimal_frame_pairs(7)]),
}


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def two_ifs_path(tmp_path):
    p = tmp_path / "two_ifs.json"
    p.write_text(json.dumps(two_ifs_doc()))
    return str(p)


@pytest.fixture
def frame_family_path(tmp_path):
    p = tmp_path / "frame_family.json"
    p.write_text(json.dumps(frame_family_doc()))
    return str(p)


class TestFrameCommand:
    def test_gen_minimal_three_levels(self, capsys):
        code, doc = run_json(capsys, "frame", "gen", "--levels", "3")
        assert code == 0
        assert doc["schema"] == "rifs-lab/1"
        assert doc["frame"] == {"rule": "minimal", "levels": 3}
        assert [e["U"] for e in doc["entries"]] == ["1", "8", "13824"]

    def test_gen_rejects_zero_levels(self, capsys):
        code, doc = run_json(capsys, "frame", "gen", "--levels", "0")
        assert code != 0 and "error" in doc

    def test_validate_good_file(self, capsys, tmp_path):
        p = tmp_path / "good.json"
        p.write_text(json.dumps([["1", "1"], ["8", "16"]]))
        code, doc = run_json(capsys, "frame", "validate", str(p))
        assert code == 0 and doc["valid"]

    def test_validate_bad_file_reports_clause(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps([["1", "1"], ["7", "16"]]))
        code, doc = run_json(capsys, "frame", "validate", str(p))
        assert code != 0
        assert not doc["valid"]
        assert any("(U_n+V_n)^3" in v["clause"] for v in doc["violations"])

    def test_validate_rejects_what_a_config_rejects(self, capsys, tmp_path):
        # two strings are not a list of [U, V] pairs, in a file as in a config
        p = tmp_path / "unpaired.json"
        p.write_text(json.dumps(["11", "89"]))
        code, doc = run_json(capsys, "frame", "validate", str(p))
        assert code == 2
        assert doc["error"] == "level 1: expected a [U, V] pair"

    @pytest.mark.parametrize("frame, keys", [
        ({"rule": "minimal", "levels": 5, "slack": [2, 3], "levles": 9}, "'levles', 'slack'"),
        ({"rule": "custom-slack", "levels": 5, "slack": [2, 3], "d": 1}, "'d'"),
    ], ids=["minimal-rule", "custom-slack-rule"])
    def test_shorthand_key_is_named(self, capsys, tmp_path, frame, keys):
        # a key the rule does not read is an input error, in a frame file
        # and in a config alike, not a silently dropped slack
        config = frame_family_doc()
        config["family"]["frame"] = frame
        (tmp_path / "frame.json").write_text(json.dumps(frame))
        (tmp_path / "config.json").write_text(json.dumps(config))
        for argv in (["frame", "validate", "frame.json"], ["dimensions", "config.json"]):
            code, doc = run_json(capsys, *argv[:-1], str(tmp_path / argv[-1]))
            assert (code, doc["error"]) == (2, f"frame shorthand has unknown key(s) {keys}")


class TestDimensionsCommand:
    def test_two_ifs_golden(self, capsys, two_ifs_path):
        code, doc = run_json(capsys, "dimensions", two_ifs_path)
        assert code == 0
        assert doc["bowen"] == pytest.approx(0.666667, abs=1e-6)
        assert doc["mauldin"] == pytest.approx(0.694242, abs=1e-6)
        assert doc["hypothesis"]["holds"]

    def test_counterexample_family(self, capsys, frame_family_path):
        code, doc = run_json(capsys, "dimensions", frame_family_path)
        assert code == 0
        assert doc["bowen"] == 1.0
        assert doc["mauldin"] == 1.0
        assert not doc["hypothesis"]["holds"]
        assert doc["verdicts"] == [{"t": 1.0, "kind": "diverges_minus", "from_level": 1},
                                   {"t": 0.99, "kind": "diverges_plus", "from_level": 199}]

    @pytest.mark.parametrize("config", [TWO_IFS_CONFIG, D1_CONFIG, D2_CONFIG,
                                        *_PAST_FLOAT_RANGE])
    def test_no_field_is_saturated_or_constant(self, capsys, tmp_path, config):
        # a verdict is a value, a decided sign with its level, or a
        # certificate level, never a bare infinity; both roots are numbers
        if config in _PAST_FLOAT_RANGE:
            (tmp_path / "c.json").write_text(json.dumps(_PAST_FLOAT_RANGE[config]))
            config = str(tmp_path / "c.json")
        code, out = run(capsys, "dimensions", config)
        doc = json.loads(out)
        assert code == 0
        for token in ('"inf"', '"-inf"', "Infinity", "NaN", "null"):
            assert token not in out
        assert set(doc) == {"schema", "bowen", "mauldin", "hypothesis", "verdicts"}
        assert type(doc["bowen"]) is type(doc["mauldin"]) is float
        for verdict in doc["verdicts"]:
            keys = {"from_level"} if verdict["kind"] != "converges" else (
                {"value"} if "value" in verdict else {"sign", "from_level"})
            assert set(verdict) == {"t", "kind", *keys}
        if config == TWO_IFS_CONFIG:
            assert doc["hypothesis"] == {"holds": True, "reasons": []}

    @pytest.mark.parametrize("config, d", [(D1_CONFIG, 1.0), (D2_CONFIG, 2.0)])
    def test_inverse_square_roots_are_both_d(self, capsys, config, d):
        # S(d) <= 2^-d < 1 and the term at M_t exceeds 1 below d: the
        # random-recursive infimum is d, as the Bowen parameter is
        code, doc = run_json(capsys, "dimensions", config)
        assert code == 0 and doc["bowen"] == doc["mauldin"] == d

    def test_mauldin_root_past_the_bracket_ends_in_error_document(self, capsys, tmp_path):
        # the Bowen root is 71, but S(t) = 2^-t + 2^(69 - 1e-17 t) stays
        # above 1 until t ~ 6.9e18, past the 2^60 bracket cap
        config = tmp_path / "c.json"
        config.write_text(json.dumps({
            "probabilities": {"kind": "finite", "values": [0.5, 0.5]},
            "family": {"kind": "explicit", "ifs": [
                {"maps": [{"log2_ratio": -1.0, "multiplicity": 2}]},
                {"maps": [{"log2_ratio": -1e-17, "multiplicity": 2 ** 70}]}]}}))
        code, doc = run_json(capsys, "dimensions", str(config))
        assert code == 2
        assert doc["error"].startswith("weighted ratio-power sum stayed positive up to t = ")

    def test_levels_past_float_range_print_no_nan(self, capsys, tmp_path):
        # levels 60 and 70 of the minimal frame both lie past float range;
        # the deeper one decides, so the root is 70/71 and no verdict is nan
        config = tmp_path / "levels_60_70.json"
        doc = frame_family_doc()
        values = [0.0] * 70
        values[59] = values[69] = 0.5
        doc["probabilities"] = {"kind": "finite", "values": values}
        config.write_text(json.dumps(doc))
        code, out = run(capsys, "dimensions", str(config))
        bowen, mauldin = json.loads(out)["bowen"], json.loads(out)["mauldin"]
        assert code == 0 and "nan" not in out
        assert abs(Fraction(bowen) - Fraction(70, 71)) <= math.ulp(bowen)
        assert mauldin == bowen

    def test_invalid_config_nonzero(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        doc = two_ifs_doc()
        doc["probabilities"]["values"] = [0.6, 0.6]
        p.write_text(json.dumps(doc))
        code, out = run_json(capsys, "dimensions", str(p))
        assert code != 0 and "error" in out

    @pytest.mark.parametrize("name", list(load_json("dimensions_digests.json")))
    def test_output_matches_pinned_digest(self, capsys, tmp_path, name):
        # the inverse-square configs' roots and verdicts are certificates
        # that evaluate no term, and the finite ones charge no frame level
        # past float range, so no saturated float enters these bytes
        pinned = load_json("dimensions_digests.json")[name]
        config = ROOT / pinned["config"] if "config" in pinned else tmp_path / "c.json"
        if "doc" in pinned:
            config.write_text(json.dumps(pinned["doc"]))
        code, out = run(capsys, "dimensions", str(config), *pinned["argv"])
        data = out.encode()
        assert code == 0
        assert len(data) == pinned["bytes"]
        assert hashlib.sha256(data).hexdigest() == pinned["sha256"]

    def test_roots_are_bisected_to_adjacent_floats(self, capsys):
        # no tolerance is set or reported: each root is the float at which
        # bisection's ends meet
        code, doc = run_json(capsys, "dimensions", TWO_IFS_CONFIG)
        assert code == 0 and "tolerance" not in doc
        bowen, mauldin = 2 / 3, math.log2((1 + math.sqrt(5)) / 2)
        assert abs(doc["bowen"] - bowen) <= math.ulp(bowen)
        assert abs(doc["mauldin"] - mauldin) <= math.ulp(mauldin)

    @pytest.mark.parametrize("tol", ["1e-20", "5e-324"])
    def test_tol_below_the_float_spacing_returns(self, tol):
        # these once were --tol values finer than the float spacing at the
        # roots; bisection now always runs to adjacent floats, so it must
        # also end, and exactly, at a root where the spacing is that small
        root = float(tol)
        assert bowen._bisect_root(lambda t: root - t, what="root - t") == root


class TestCounterexampleCommand:
    def test_summary_demonstrates_gap(self, capsys, frame_family_path, tmp_path):
        out_dir = tmp_path / "run"
        code, _ = run(capsys, "counterexample", frame_family_path,
                      "--seeds", "600:5", "--horizon", "5000", "--out", str(out_dir))
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["bowen"] == 1.0
        assert summary["bound_violations"] == 0
        assert summary["estimates"]["count"] == 5
        assert summary["estimates"]["max"] < 0.2

    def test_byte_identical_reruns(self, capsys, frame_family_path, tmp_path):
        # the rerun rewrites the first run's files, each made longer first
        out_dir = tmp_path / "run"
        files = [out_dir / "seed_607.csv", out_dir / "summary.json"]
        outs = []
        for _ in range(2):
            code, _ = run(capsys, "counterexample", frame_family_path,
                          "--seeds", "607", "--horizon", "4000", "--out", str(out_dir))
            assert code == 0
            outs.append([p.read_bytes() for p in files])
            for p in files:
                with p.open("ab") as fh:
                    fh.write(b"junk\n" * 5000)
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("name", list(load_json("counterexample_digests.json")["runs"]))
    def test_outputs_match_pinned_digests(self, capsys, tmp_path, name):
        pinned = load_json("counterexample_digests.json")
        want = pinned["runs"][name]
        code, _ = run(capsys, "counterexample", str(ROOT / want["config"]),
                      "--seeds", want["seeds"], *pinned["argv"], "--out", str(tmp_path))
        assert code == want["exit"]
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
        assert got == want["files"]

    def test_csv_columns(self, capsys, frame_family_path, tmp_path):
        out_dir = tmp_path / "cols"
        run(capsys, "counterexample", frame_family_path,
            "--seeds", "600", "--horizon", "4000", "--out", str(out_dir))
        header = (out_dir / "seed_600.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "n", "record_pos", "record_symbol", "j_before", "m", "m_form",
            "t", "exponent", "lhs", "bound_rhs", "holds", "ratio",
        ]

    def test_requires_frame_family(self, capsys, two_ifs_path):
        code, doc = run_json(capsys, "counterexample", two_ifs_path)
        assert code != 0 and "error" in doc

    def test_dimension_two_gap(self, capsys, tmp_path):
        config = tmp_path / "d2.json"
        config.write_text(json.dumps(frame_family_doc(levels=5, d=2)))
        code, doc = run_json(capsys, "counterexample", str(config),
                             "--seeds", "600:5", "--horizon", "4000")
        assert code == 0
        assert doc["bowen"] == 2.0
        assert doc["estimates"]["max"] < 0.4

    def test_documented_faults_fail_only_their_seeds(self, capsys):
        # seed 884 draws past the symbol cap; seed 891 needs frame level 647
        code, doc = run_json(capsys, "counterexample", D1_CONFIG, "--seeds", "884:8",
                             "--horizon", "10000", "--pairs", "3")
        assert code == 1
        assert doc["failed_seeds"] == 2
        errors = {r["seed"]: r["error"] for r in doc["per_seed"] if "error" in r}
        assert sorted(errors) == [884, 891]
        assert errors[884].startswith("RareTailError")
        assert errors[891].startswith("FrameDepthError")

    def test_programming_error_is_not_a_failed_seed(self, capsys, monkeypatch):
        def broken(profile, seqs):
            raise TypeError("broken special times")

        monkeypatch.setattr(pressure, "special_times", broken)
        with pytest.raises(TypeError, match="broken special times"):
            main(["counterexample", D1_CONFIG, "--seeds", "600:2", "--horizon", "2000"])

    def test_special_times_once_per_completed_seed(self, capsys, monkeypatch):
        calls = []
        original = pressure.special_times

        def counting(profile, seqs):
            calls.append(profile)
            return original(profile, seqs)

        monkeypatch.setattr(pressure, "special_times", counting)
        _, doc = run_json(capsys, "counterexample", D1_CONFIG, "--seeds", "600:20",
                          "--horizon", "10000")
        completed = doc["seeds"] - doc["failed_seeds"]
        assert completed > 0
        assert len(calls) == completed

    @pytest.mark.parametrize("flag, value", [
        ("--horizon", "0"), ("--pairs", "0"), ("--seeds", "-1"),
        # the bound grid is a constant now, so these end as unknown flags
        ("--t-grid", "0,-1"), ("--t-grid", "a"), ("--t-grid", ""),
    ])
    def test_out_of_range_arguments_rejected(self, capsys, flag, value):
        code, doc = run_json(capsys, "counterexample", D1_CONFIG, flag, value)
        assert code == 2 and "error" in doc


class TestCoverCommand:
    def test_enum_pinned_count(self, capsys):
        # three unit levels at d=2: branch steps at depths 2, 4, 6
        code, doc = run_json(capsys, "cover", "enum", "--symbols", "1,1,1",
                             "--d", "2", "--depth", "6")
        assert code == 0
        assert doc["count"] == 64
        assert doc["osc"] is True

    def test_budget_exceeded_names_required(self, capsys):
        code, doc = run_json(capsys, "cover", "enum", "--symbols", "2,2",
                             "--d", "1", "--depth", "48", "--budget", "16")
        assert code != 0
        assert doc["required_budget"] == 2 ** 32
        assert "needs 2^32 words" in doc["error"]

    @pytest.mark.parametrize("d, depth", [(1, cover.MAX_ENUM_BITS), (2, cover.MAX_ENUM_BITS // 2)])
    def test_enum_at_the_print_limit(self, capsys, d, depth):
        # one branching step, at step 2: the last corner numerator is 2^(depth-2)
        code, doc = run_json(capsys, "cover", "enum", "--symbols", "1,4", "--d", str(d),
                             "--depth", str(depth))
        assert code == 0 and doc["count"] == 2 ** d
        assert doc["cubes"][-1]["corner"] == [2 ** (depth - 2)] * d

    @pytest.mark.parametrize("argv", [
        ["enum", "--symbols", "1,x", "--depth", "2"],
        ["exponents", "--symbols", "1,2", "--depths", "a"],
    ])
    def test_malformed_integer_lists_rejected(self, capsys, argv):
        code, doc = run_json(capsys, "cover", *argv)
        assert code == 2 and "comma-separated int" in doc["error"]

    # 4 words at depth 100: one branching step, weight 2^98, past int64
    DEEP = ["--symbols", "1,3", "--d", "2", "--depth", "100"]
    DEEP_CORNERS = [[0, 0], [0, 2 ** 98], [2 ** 98, 0], [2 ** 98, 2 ** 98]]
    DEEP_POINTS = ("x,y,side\n"
                   "0.0,0.0,7.888609052210118e-31\n"
                   "0.0,0.25,7.888609052210118e-31\n"
                   "0.25,0.0,7.888609052210118e-31\n"
                   "0.25,0.25,7.888609052210118e-31\n")

    def test_deep_enum_matches_oracle(self, capsys):
        code, doc = run_json(capsys, "cover", "enum", *self.DEEP)
        assert code == 0
        corners = [c["corner"] for c in doc["cubes"]]
        assert corners == self.DEEP_CORNERS
        assert {c["level"] for c in doc["cubes"]} == {100}
        assert doc["count"] == 4 and doc["osc"] is True
        flags = [False, True] + [False] * 98
        assert {tuple(Fraction(c, 2 ** 100) for c in row) for row in corners} \
            == brute_force_cubes(flags, 2)

    def test_deep_points_matches_oracle(self, capsys):
        code, out = run(capsys, "cover", "points", *self.DEEP)
        assert code == 0
        assert out == self.DEEP_POINTS
        flags = [False, True] + [False] * 98
        rows = [tuple(float(x) for x in line.split(",")[:2]) for line in out.split("\n")[1:-1]]
        assert set(rows) == {tuple(float(x) for x in c) for c in brute_force_cubes(flags, 2)}

    def test_points_past_float_range(self, capsys):
        # corner numerator 2^1068 has no float; its coordinate 1/4 does, and
        # the side 2^-1070 is a nonzero subnormal
        code, out = run(capsys, "cover", "points", "--symbols", "1,3", "--d", "1",
                        "--depth", "1070")
        assert code == 0
        rows = [[float(x) for x in line.split(",")] for line in out.split("\n")[1:-1]]
        flags = [False, True] + [False] * 1068
        assert [x for x, _ in rows] == sorted(float(x) for (x,) in brute_force_cubes(flags, 1))
        assert rows == [[0.0, 2.0 ** -1070], [0.25, 2.0 ** -1070]]

    @pytest.mark.parametrize("depth", ["1075", "2000"])
    def test_points_past_smallest_side_rejected(self, capsys, depth):
        # from depth 1075 on the side 2^-depth rounds to 0.0
        code, doc = run_json(capsys, "cover", "points", "--symbols", "1,3", "--d", "1",
                             "--depth", depth)
        assert code == 2 and "depth <= 1074" in doc["error"]

    def test_points_csv(self, capsys):
        code, out = run(capsys, "cover", "points", "--symbols", "1,1",
                        "--d", "1", "--depth", "2")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,side"
        assert len(lines) == 3

    @pytest.mark.parametrize("argv, message", [
        (["--symbols", "1,1,1,1", "--d", "4", "--depth", "8"], "d <= 3"),
        (["--symbols", "1,3", "--d", "1", "--depth", "1075"], "depth <= 1074"),
    ])
    def test_points_rejected_before_enumeration(self, capsys, argv, message):
        # both covers exceed a one-word budget, so enumerating first would
        # end in a budget error instead
        code, doc = run_json(capsys, "cover", "points", *argv, "--budget", "1")
        assert code == 2 and message in doc["error"]
        assert "required_budget" not in doc

    @pytest.mark.parametrize("depths", ["0", "3,0", "-2"])
    def test_exponents_reject_depths_below_one(self, capsys, depths):
        # d*B_0/0 is 0/0, so no exponent is printed for depth 0
        code, doc = run_json(capsys, "cover", "exponents", "--symbols", "1,2",
                             "--depths", depths)
        assert code == 2 and doc["error"] == (
            f"argument --depths: expects comma-separated int values >= 1, got {depths!r}")

    def test_exponent_csv(self, capsys):
        code, out = run(capsys, "cover", "exponents", "--symbols", "1,2",
                        "--d", "1", "--depths", "2,10")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "m,exponent"
        assert lines[1] == "2,0.5"
        assert lines[2] == "10,0.1"


class TestCoverWriters:
    """``cover enum`` and ``cover points`` write in blocks; their bytes are
    those of the row-at-a-time writers they replaced."""

    # (symbols, d, depth, words): int64 corners through depth 62, Python ints beyond
    COVERS = [
        ((2, 1), 1, 18, 2 ** 10),
        ((2, 1), 2, 12, 2 ** 8),
        ((2, 1), 3, 12, 2 ** 12),
        ((1, 3), 2, 100, 4),
        ((1, 3), 3, 100, 8),
        ((3, 1), 2, 5, 1),
        ((3, 1), 3, 70, 1),
        ((2, 3), 1, 80, 2 ** 16),  # more words than one block holds
    ]

    @pytest.mark.parametrize("symbols, d, depth, words", COVERS)
    def test_match_row_writers(self, capsys, symbols, d, depth, words):
        profile = build_branch_profile(symbols, minimal_frame(1), d)
        corners = enumerate_cylinders(profile, depth)
        assert len(corners) == words
        assert corners.dtype == (object if depth > 62 else np.int64)
        argv = ["--symbols", ",".join(map(str, symbols)), "--d", str(d), "--depth", str(depth)]
        assert run(capsys, "cover", "enum", *argv) == (0, cover_enum_reference(corners, depth))
        assert run(capsys, "cover", "points", *argv) == (0, cover_points_reference(corners, depth))

    def test_enum_writes_the_same_bytes_to_stdout_and_out(self, capsys, tmp_path):
        argv = ["cover", "enum", "--symbols", "2,3", "--d", "1", "--depth", "40"]
        code, out = run(capsys, *argv)
        path = tmp_path / "enum.json"
        path.write_text("9" * (len(out) + 12345))  # an older, longer file is rewritten
        assert code == 0 and main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == out

    def test_points_writes_the_same_bytes_to_stdout_and_out(self, capsys, tmp_path):
        argv = ["cover", "points", "--symbols", "2,1", "--d", "2", "--depth", "15"]
        code, out = run(capsys, *argv)
        # several slices, the last one short
        assert len(out) > 3 * cli._WRITE_SLICE and len(out) % cli._WRITE_SLICE
        path = tmp_path / "points.csv"
        path.write_text("9" * (len(out) + 12345))  # an older, longer file is rewritten
        assert code == 0 and main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == out

    def test_outputs_match_pinned_digests(self, capsys):
        # the first cover (d = 2, 2^16 words) was recorded from the
        # row-at-a-time writers; the others (d = 1 in two blocks, d = 3 in
        # exactly one, and Python-int corners at depth 100) from the
        # %-template enum writer that the shared row renderer replaced
        pinned = load_json("cover_digests.json")
        assert pinned[0]["words"] > BLOCK and pinned[2]["words"] == BLOCK
        for entry in pinned:
            for cmd in ("enum", "points"):
                code, out = run(capsys, "cover", cmd, *entry["argv"])
                data = out.encode()
                assert code == 0 and len(data) == entry[cmd]["bytes"]
                assert hashlib.sha256(data).hexdigest() == entry[cmd]["sha256"]


class TestSampleCommand:
    def test_golden_csv(self, capsys):
        from conftest import DATA

        code, out = run(capsys, "sample", "--seed", "42", "--horizon", "10")
        assert code == 0
        assert out == (DATA / "scenery_seed42_len10.csv").read_text()

    def test_deterministic_file_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            code, _ = run(capsys, "sample", "--seed", "42", "--horizon", "1000",
                          "--out", str(target))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, value", [("--horizon", "0"), ("--seed", "-1")])
    def test_out_of_range_arguments_rejected(self, capsys, flag, value):
        code, doc = run_json(capsys, "sample", flag, value)
        assert code == 2 and "error" in doc

    def test_stdout_matches_out_file(self, capsys, tmp_path):
        argv = ["sample", "--seed", "0", "--horizon", "100000"]
        code, out = run(capsys, *argv)
        path = tmp_path / "scenery.csv"
        path.write_text("9" * (len(out) + 12345))  # an older, longer file is rewritten
        assert code == 0 and main(argv + ["--out", str(path)]) == 0
        capsys.readouterr()
        assert path.read_text() == out

    @pytest.mark.parametrize("law", ["inverse_square", "configs/two_ifs.json"])
    def test_output_matches_pinned_digest(self, capsys, tmp_path, law):
        # recorded from the row-at-a-time writer, on 10^5 rows
        pinned = load_json("sample_digests.json")
        config = [] if law == "inverse_square" else [str(ROOT / law)]
        path = tmp_path / "scenery.csv"
        assert main(["sample", *config, *pinned["argv"], "--out", str(path)]) == 0
        capsys.readouterr()
        data = path.read_bytes()
        assert len(data) == pinned[law]["bytes"]
        assert hashlib.sha256(data).hexdigest() == pinned[law]["sha256"]

    @pytest.mark.parametrize("seed", [0, 42])
    def test_out_report(self, capsys, tmp_path, seed):
        path = tmp_path / "scenery.csv"
        code, doc = run_json(capsys, "sample", "--seed", str(seed), "--horizon", "1000",
                             "--out", str(path))
        assert code == 0
        assert doc == {"schema": "rifs-lab/1", "written": str(path), "seed": seed,
                       "horizon": 1000, "domination_start": 1}

    def test_config_probabilities(self, capsys, two_ifs_path):
        code, out = run(capsys, "sample", two_ifs_path, "--seed", "5",
                        "--horizon", "50")
        assert code == 0
        symbols = {int(line.split(",")[1]) for line in out.strip().split("\n")[1:]}
        assert symbols <= {1, 2}


# configs whose probabilities charge a level past a one-level explicit frame
_PAST_EXPLICIT_FRAME = {
    "INVERSE_SQUARE_ON_ONE_LEVEL": {"kind": "inverse_square"},
    "LEVEL_TWO_ON_ONE_LEVEL": {"kind": "finite", "values": [0.0, 1.0]},
}

# edits of a config that make one of its numbers, or its keys, malformed
_MALFORMED_CONFIGS = {
    "STRING_PROBABILITY": lambda doc: doc["probabilities"].update(values=["a", 0.5]),
    "NAN_PROBABILITY": lambda doc: doc["probabilities"].update(values=[1.0, math.nan]),
    "INFINITE_LOG2_RATIO": lambda doc: doc["family"]["ifs"][0]["maps"][0].update(
        log2_ratio=-math.inf),
    "FRACTIONAL_MULTIPLICITY": lambda doc: doc["family"]["ifs"][0]["maps"][0].update(
        multiplicity=2.7),
    # two maps, so a true read as 1 still passes the at-least-two-maps check
    "BOOLEAN_MULTIPLICITY": lambda doc: doc["family"]["ifs"][0].update(maps=[
        {"log2_ratio": -1.0, "multiplicity": True}, {"log2_ratio": -1.0, "multiplicity": 1}]),
    "BOOLEAN_DIMENSION": lambda doc: doc.update(frame_family_doc(d=True)),
    "BOOLEAN_FRAME_LEVELS": lambda doc: doc.update(frame_family_doc(levels=True)),
    # a misspelt key, and a key no version reads, beside the right ones
    "UNKNOWN_KEYS": lambda doc: doc.update(etaa=0.3, probabilites={"kind": "inverse_square"}),
    # a misspelt key, and a slack the minimal rule would drop, in a frame shorthand
    "UNKNOWN_FRAME_KEYS": lambda doc: doc.update(family={"kind": "frame", "d": 1, "frame": {
        "rule": "minimal", "levels": 5, "slack": [2, 3], "levles": 9}}),
}


# a config or frame file given to each command that reads one, holding
# bytes that are not UTF-8
_NOT_UTF8_ARGVS = [
    ["dimensions", "NOT_UTF8"],
    ["counterexample", "NOT_UTF8"],
    ["sample", "NOT_UTF8"],
    ["frame", "validate", "NOT_UTF8"],
    ["cover", "enum", "--symbols", "1", "--depth", "1", "--frame", "NOT_UTF8"],
]


def _not_utf8(tmp_path) -> str:
    path = tmp_path / "not_utf8.json"
    path.write_bytes(b"\xff\xfe")
    return str(path)


class TestOutsideInput:
    @pytest.mark.parametrize("argv", [
        ["frame", "validate", "MISSING"],
        ["cover", "enum", "--symbols", "1,2", "--depth", "2", "--frame", "MISSING"],
        ["cover", "enum", "--symbols", "1,2", "--depth", "2", "--d", "0"],
        ["cover", "exponents", "--symbols", "1,2", "--depths", "0,-1"],
        ["frame", "gen", "--levels", "2", "--out", "UNWRITABLE"],
        ["dimensions", D1_CONFIG, "--out", "UNWRITABLE"],
        ["counterexample", D1_CONFIG, "--seeds", "600", "--horizon", "100",
         "--out", "UNWRITABLE"],
        ["cover", "enum", "--symbols", "1,2", "--depth", "2", "--out", "UNWRITABLE"],
        ["cover", "exponents", "--symbols", "1,2", "--depths", "2", "--out", "UNWRITABLE"],
        ["cover", "points", "--symbols", "1,2", "--depth", "2", "--out", "UNWRITABLE"],
        ["sample", "--horizon", "10", "--out", "UNWRITABLE"],
        ["dimensions", "INVERSE_SQUARE_ON_ONE_LEVEL"],
        ["counterexample", "INVERSE_SQUARE_ON_ONE_LEVEL", "--horizon", "100"],
        ["dimensions", "LEVEL_TWO_ON_ONE_LEVEL"],
        ["counterexample", "LEVEL_TWO_ON_ONE_LEVEL", "--horizon", "100"],
        ["dimensions", D1_CONFIG, "--tol", "1e-9"],
        ["dimensions", D1_CONFIG, "--truncation", "0"],
        ["counterexample", D1_CONFIG, "--seeds", "600", "--horizon", "100", "--t-grid", "0"],
        ["dimensions", "STRING_PROBABILITY"],
        ["dimensions", "NAN_PROBABILITY"],
        ["dimensions", "INFINITE_LOG2_RATIO"],
        ["dimensions", "FRACTIONAL_MULTIPLICITY"],
        ["dimensions", "BOOLEAN_MULTIPLICITY"],
        ["dimensions", "BOOLEAN_DIMENSION"],
        ["dimensions", "BOOLEAN_FRAME_LEVELS"],
        ["dimensions", "UNKNOWN_KEYS"],
        ["dimensions", "UNKNOWN_FRAME_KEYS"],
        # numbers past CPython's 4300-digit int printing limit: a corner
        # numerator, and the word count of a budget error
        ["cover", "enum", "--symbols", "1,4", "--d", "1", "--depth", "15000"],
        ["cover", "enum", "--symbols", "1,3", "--d", "1", "--depth", "28826"],
        # usage errors: an ill-typed value, a missing argument or subcommand,
        # an unknown flag or subcommand, a value out of its flag's bounds
        ["cover", "enum", "--symbols", "1", "--depth", "x"],
        ["sample", "--horizon", "1e3"],
        ["counterexample", D1_CONFIG, "--pairs", "two"],
        ["counterexample"],
        ["cover"],
        ["sample", "--bogus"],
        ["bogus"],
        ["counterexample", D1_CONFIG, "--seeds", "5:0"],
        ["counterexample", D1_CONFIG, "--seeds", "-1:2"],
        ["cover", "enum", "--symbols", "1", "--depth", "1", "--frame", "MALFORMED"],
        *_NOT_UTF8_ARGVS,
    ], ids=["frame-validate-missing-file", "cover-missing-frame-file", "cover-d-zero",
            "exponents-negative-depth", "frame-gen-unwritable-out",
            "dimensions-unwritable-out", "counterexample-unwritable-out",
            "cover-enum-unwritable-out", "cover-exponents-unwritable-out",
            "cover-points-unwritable-out", "sample-unwritable-out",
            "dimensions-inverse-square-past-explicit-frame",
            "counterexample-inverse-square-past-explicit-frame",
            "dimensions-level-two-past-explicit-frame",
            "counterexample-level-two-past-explicit-frame",
            "dimensions-tol-unknown-flag", "dimensions-truncation-unknown-flag",
            "counterexample-t-grid-unknown-flag",
            "string-probability", "nan-probability", "infinite-log2-ratio",
            "fractional-multiplicity", "boolean-multiplicity", "boolean-dimension",
            "boolean-frame-levels", "unknown-keys", "unknown-frame-keys",
            "cover-enum-corner-past-print-range",
            "cover-enum-word-count-past-print-range",
            "ill-typed-int", "float-for-int", "word-for-int", "missing-config",
            "missing-subcommand", "unknown-flag", "unknown-command", "seeds-count-zero",
            "seeds-negative-base", "cover-malformed-frame-file",
            *(f"{argv[0]}-not-utf8" for argv in _NOT_UTF8_ARGVS)])
    def test_ends_in_error_document(self, capsys, tmp_path, argv):
        (tmp_path / "regular_file").write_text("")
        (tmp_path / "malformed.json").write_text("{bad")
        paths = {
            "MISSING": str(tmp_path / "missing.json"),
            "MALFORMED": str(tmp_path / "malformed.json"),
            "NOT_UTF8": _not_utf8(tmp_path),
            # a path under a regular file can be neither created nor written
            "UNWRITABLE": str(tmp_path / "regular_file" / "out"),
        }
        for name, probabilities in _PAST_EXPLICIT_FRAME.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({
                "probabilities": probabilities,
                "family": {"kind": "frame", "frame": [["1", "1"]], "d": 1},
            }))
        for name, edit in _MALFORMED_CONFIGS.items():
            doc = two_ifs_doc()
            edit(doc)
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        code = main([paths.get(a, a) for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and "error" in json.loads(out) and err == ""

    @pytest.mark.parametrize("argv", [
        ["frame", "validate"],
        ["cover", "points", "--symbols", "1", "--depth", "1", "--frame"],
    ])
    def test_malformed_frame_file_is_named_so(self, capsys, tmp_path, argv):
        path = tmp_path / "malformed.json"
        path.write_text("{bad")
        code, doc = run_json(capsys, *argv, str(path))
        assert code == 2 and doc["error"].startswith("not valid JSON: ")

    @pytest.mark.parametrize("argv", _NOT_UTF8_ARGVS, ids=lambda argv: argv[0])
    def test_non_utf8_file_is_named_so(self, capsys, tmp_path, argv):
        path = _not_utf8(tmp_path)
        code, doc = run_json(capsys, *[path if a == "NOT_UTF8" else a for a in argv])
        assert code == 2
        assert doc["error"] == f"{path}: not UTF-8 text (invalid start byte at byte 0)"

    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: "
             "{frame,dimensions,counterexample,cover,sample}"),
        (["cover"], "the following arguments are required: {enum,exponents,points}"),
        (["frame"], "the following arguments are required: {gen,validate}"),
        (["dimensions", D1_CONFIG, "--truncation", "50"],
         "unrecognized arguments: --truncation 50"),
        (["dimensions", D1_CONFIG, "--tol", "1e-9"], "unrecognized arguments: --tol 1e-9"),
        (["counterexample", D1_CONFIG, "--t-grid", "0"], "unrecognized arguments: --t-grid 0"),
    ], ids=["no-command", "cover", "frame", "dimensions-truncation", "dimensions-tol",
            "counterexample-t-grid"])
    def test_usage_error_message(self, capsys, argv, message):
        # a missing subcommand is named by its choices, not the parser's dest
        code = main(argv)
        out, err = capsys.readouterr()
        assert (code, err) == (2, "")
        assert json.loads(out) == {"schema": "rifs-lab/1", "error": message}

    def test_usage_error_in_a_process(self):
        proc = subprocess.run([sys.executable, "-m", "rifs_lab.cli", "sample", "--seed", "x"],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (2, "")
        assert json.loads(proc.stdout) == {
            "schema": "rifs-lab/1", "error": "argument --seed: expects one int >= 0, got 'x'"}

    def test_help_prints_usage_and_exits_0(self):
        proc = subprocess.run([sys.executable, "-m", "rifs_lab.cli", "cover", "enum", "--help"],
                              env=_child_env(), capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: rifs-lab cover enum")


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of Python-allocated bytes while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWriterMemory:
    """The CSV writers hold their text once: no list of blocks beside the
    joined text, and no encoded copy of it on the way to a file.  Blocks are
    made small so that the text spans many of them: the block temporaries
    stay far below its size, and so do the copies that ``text +=`` makes
    before CPython has specialized the loop (its first few appends)."""

    def test_scenery_csv_grows_one_text(self, monkeypatch):
        monkeypatch.setattr(sampler, "_CSV_BLOCK", 1 << 11)
        path = sample_scenery(ProbVector("inverse_square"), 2 ** 18, seed=0)
        path.symbols  # the input array, inverted before tracing starts
        text, peak = _traced_peak(scenery_csv, path)
        assert text.count("\n") == 1 + 2 ** 18
        assert peak < 1.5 * len(text)

    def test_emit_points_grows_one_text(self, monkeypatch):
        monkeypatch.setattr(cover, "BLOCK", 1 << 12)
        corners = enumerate_cylinders(build_branch_profile((2, 1), minimal_frame(1), 2), 17)
        assert len(corners) == 2 ** 18
        text, peak = _traced_peak(cover.emit_points, corners, 17)
        assert peak < 1.5 * len(text)

    def test_cover_enum_streams_to_a_file(self, monkeypatch, capsys, tmp_path):
        # the cubes go out block by block: the peak holds the corners and
        # the open-set key, far less than the document
        monkeypatch.setattr(cover, "BLOCK", 1 << 12)
        path = tmp_path / "enum.json"
        code, peak = _traced_peak(main, ["cover", "enum", "--symbols", "2,1", "--d", "2",
                                         "--depth", "17", "--out", str(path)])
        capsys.readouterr()
        assert code == 0 and json.loads(path.read_text())["count"] == 2 ** 18
        assert peak < path.stat().st_size / 2

    def test_write_text_to_a_file_makes_no_full_copy(self, capsys, tmp_path):
        text = "0123456789,abcd\n" * (2 ** 19 + 3)  # 8 MiB and 48 bytes
        path = tmp_path / "big.csv"
        _, peak = _traced_peak(cli._write_text, text, path)
        capsys.readouterr()
        assert path.read_text() == text
        assert peak < len(text) / 8


class TestFileWriter:
    """Every ``--out`` file is rewritten in place by ``cli._write`` and cut
    to the bytes written."""

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "42", "--horizon", "10000"],
        ["cover", "enum", "--symbols", "2,1", "--d", "2", "--depth", "12"],
    ])
    def test_short_writes_keep_the_bytes(self, capsys, tmp_path, monkeypatch, argv):
        _, want = run(capsys, *argv)
        path = tmp_path / "out"
        path.write_text("9" * (len(want) + 12345))
        real, counts = os.write, []

        def short_write(fd, data):
            counts.append(real(fd, data[:1000]))
            return counts[-1]

        monkeypatch.setattr(os, "write", short_write)
        assert main(argv + ["--out", str(path)]) == 0
        monkeypatch.undo()
        capsys.readouterr()
        assert path.read_text() == want
        assert len(counts) > len(want) // 1000

    def test_piece_raising_midway_cuts_the_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_text("old\n" * cli._WRITE_SLICE)

        def pieces():
            yield "a" * (cli._WRITE_SLICE + 10)
            yield "b" * 5
            raise RuntimeError("renderer failed")

        with pytest.raises(RuntimeError, match="renderer failed"):
            cli._write(pieces(), path)
        assert path.read_text() == "a" * (cli._WRITE_SLICE + 10) + "b" * 5

    @pytest.mark.parametrize("argv", [
        ["sample", "--horizon", "10"],
        ["cover", "points", "--symbols", "2,1", "--d", "2", "--depth", "6"],
        ["dimensions", TWO_IFS_CONFIG],
    ])
    def test_device_target_is_written_and_not_cut(self, capsys, argv):
        # a device is written but never cut: ftruncate on one raises EINVAL
        code, _ = run(capsys, *argv, "--out", os.devnull)
        assert code == 0


def _child_env(**extra) -> dict:
    """This environment for a ``python -m rifs_lab.cli`` child, with ``extra``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


#: A summary of about 150 KiB on stdout: seeds 0..999 all complete at horizon 1.
_BIG_SUMMARY = ["counterexample", D1_CONFIG, "--seeds", "0:1000", "--horizon", "1"]


class TestClosedPipe:
    # each output is more than a pipe and one write slice hold
    @pytest.mark.parametrize("argv", [
        ["cover", "enum", "--symbols", "2,1", "--d", "2", "--depth", "16"],
        ["sample", "--seed", "0", "--horizon", "100000"],
        _BIG_SUMMARY,
    ])
    def test_reader_closing_early_ends_quietly(self, argv):
        # buffered stdout, as Python sets it up by default
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.Popen([sys.executable, "-m", "rifs_lab.cli", *argv], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["sample", "--seed", "0", "--horizon", "100000"],
        ["cover", "points", "--symbols", "2,1", "--d", "2", "--depth", "16"],
        _BIG_SUMMARY,
    ])
    def test_reader_closing_early_ends_quietly_unbuffered(self, argv):
        # an unbuffered stdout ignores a short write, so a single write of
        # the whole CSV would drop the rest and exit 0
        proc = subprocess.Popen([sys.executable, "-m", "rifs_lab.cli", *argv],
                                env=_child_env(PYTHONUNBUFFERED="1"),
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""

    def test_big_summary_exits_0_when_read_whole(self, capsys):
        # so exit 1 above comes from the closed pipe, not from a failed seed
        code, out = run(capsys, *_BIG_SUMMARY)
        assert code == 0 and len(out) > 2 * cli._WRITE_SLICE


class TestSharedConstants:
    """In-process calls share the parser and the generated frames' levels."""

    def test_frame_gen_after_deep_sweep_matches_a_fresh_process(self, capsys):
        # seed 891 unrolls the minimal frame to level 646 and fails at 647
        _, doc = run_json(capsys, "counterexample", D1_CONFIG, "--seeds", "891",
                          "--pairs", "3")
        assert "frame level 647" in doc["per_seed"][0]["error"]
        for argv in (["frame", "gen", "--levels", "3"],
                     ["frame", "gen", "--levels", "9", "--slack", "2", "1"]):
            _, here = run(capsys, *argv)
            fresh = subprocess.run([sys.executable, "-m", "rifs_lab.cli", *argv],
                                   env=_child_env(), capture_output=True, text=True,
                                   check=True).stdout
            assert here == fresh

    @pytest.fixture
    def parsers_built(self, monkeypatch):
        """The top-level parsers constructed while the test runs."""
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            if kwargs.get("prog") == "rifs-lab":
                built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    def test_second_sweep_materialises_no_level(self, capsys, monkeypatch):
        calls = []
        original = Frame._extend_one

        def counting(self):
            calls.append(len(self._levels))
            return original(self)

        argv = ["counterexample", D1_CONFIG, "--seeds", "600:20", "--pairs", "3"]
        first = run(capsys, *argv)
        monkeypatch.setattr(Frame, "_extend_one", counting)
        assert run(capsys, *argv) == first
        assert calls == []

    def test_parser_is_built_once(self, capsys, parsers_built):
        for _ in range(5):
            run_json(capsys, "frame", "gen", "--levels", "2")
        assert len(parsers_built) <= 1

    def test_handler_replaced_after_the_parser_is_built_runs(self, capsys, monkeypatch,
                                                              parsers_built):
        # as a tracer does: wrap a command on the module, then put it back
        argv = ["sample", "--seed", "3", "--horizon", "5"]
        _, plain = run(capsys, *argv)
        ran = []
        original = cli.cmd_sample
        monkeypatch.setattr(cli, "cmd_sample", lambda args: ran.append(args.seed) or 7)
        assert main(argv) == 7
        assert ran == [3]
        monkeypatch.setattr(cli, "cmd_sample", original)
        assert run(capsys, *argv) == (0, plain)
        assert ran == [3]
        assert len(parsers_built) <= 1


class TestSchemaDiscipline:
    def test_every_json_output_carries_schema(self, capsys, two_ifs_path):
        for argv in (
            ["frame", "gen", "--levels", "2"],
            ["dimensions", two_ifs_path],
        ):
            _, doc = run_json(capsys, *argv)
            assert doc["schema"] == "rifs-lab/1"

    def test_emit_streams_the_same_bytes_as_dumps(self, tmp_path):
        doc = {"b": [1.5, -0.0, repr(math.inf), repr(-math.inf), [[1, 2], []]],
               "a": {"z": True, "y": False, "x": None}, "c": 1e-320}
        out = tmp_path / "doc.json"
        cli._emit(doc, out)
        want = json.dumps({"schema": cli.SCHEMA, **doc}, indent=2, sort_keys=True) + "\n"
        assert out.read_text() == want

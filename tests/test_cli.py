import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from rifs_lab import (Frame, build_branch_profile, cli, enumerate_cylinders, minimal_frame,
                      pressure)
from rifs_lab.cover import BLOCK
from rifs_lab.cli import main

from conftest import frame_family_doc, load_json, two_ifs_doc
from oracles import brute_force_cubes, cover_enum_reference, cover_points_reference

D1_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "counterexample_d1.json")
TWO_IFS_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "two_ifs.json")
ROOT = Path(__file__).resolve().parent.parent


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
        assert doc["mauldin"] is None
        assert not doc["hypothesis"]["holds"]
        kinds = {v["t"]: v["kind"] for v in doc["verdicts"]}
        assert kinds[1.0] == "diverges_minus"
        assert kinds[0.99] == "diverges_plus"

    def test_invalid_config_nonzero(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        doc = two_ifs_doc()
        doc["probabilities"]["values"] = [0.6, 0.6]
        p.write_text(json.dumps(doc))
        code, out = run_json(capsys, "dimensions", str(p))
        assert code != 0 and "error" in out

    @pytest.mark.parametrize("name", list(load_json("dimensions_digests.json")))
    def test_output_matches_pinned_digest(self, capsys, tmp_path, name):
        # no charged frame level of these inputs leaves float range, so no
        # saturated log-fitness sign enters their bytes
        pinned = load_json("dimensions_digests.json")[name]
        config = ROOT / pinned["config"] if "config" in pinned else tmp_path / "c.json"
        if "doc" in pinned:
            config.write_text(json.dumps(pinned["doc"]))
        code, out = run(capsys, "dimensions", str(config), *pinned["argv"])
        data = out.encode()
        assert code == (2 if "--truncation" in pinned["argv"] else 0)
        assert len(data) == pinned["bytes"]
        assert hashlib.sha256(data).hexdigest() == pinned["sha256"]


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
        outs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code, _ = run(capsys, "counterexample", frame_family_path,
                          "--seeds", "607", "--horizon", "4000", "--out", str(out_dir))
            assert code == 0
            outs.append((
                (out_dir / "seed_607.csv").read_bytes(),
                (out_dir / "summary.json").read_bytes(),
            ))
        assert outs[0] == outs[1]

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
        ("--horizon", "0"), ("--pairs", "0"), ("--t-grid", "0,-1"), ("--seeds", "-1"),
        ("--t-grid", "a"), ("--t-grid", ""),
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
        assert code == 0 and main(argv + ["--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_text() == out

    def test_outputs_match_pinned_digests(self, capsys):
        # recorded from the row-at-a-time writers, on a cover of 2^16 words
        pinned = load_json("cover_digests.json")
        assert pinned["words"] > BLOCK
        for cmd in ("enum", "points"):
            code, out = run(capsys, "cover", cmd, *pinned["argv"])
            data = out.encode()
            assert code == 0 and len(data) == pinned[cmd]["bytes"]
            assert hashlib.sha256(data).hexdigest() == pinned[cmd]["sha256"]


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

# edits of a config that make one of its numbers malformed
_MALFORMED_NUMBERS = {
    "STRING_PROBABILITY": lambda doc: doc["probabilities"].update(values=["a", 0.5]),
    "STRING_ETA": lambda doc: doc.update(eta="x"),
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
}


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
        ["dimensions", D1_CONFIG, "--tol", "0"],
        ["dimensions", D1_CONFIG, "--truncation", "0"],
        ["counterexample", D1_CONFIG, "--seeds", "600", "--horizon", "100", "--t-grid", "nan"],
        ["counterexample", D1_CONFIG, "--seeds", "600", "--horizon", "100", "--t-grid", "inf"],
        ["dimensions", TWO_IFS_CONFIG, "--tol", "inf"],
        ["dimensions", "STRING_PROBABILITY"],
        ["dimensions", "STRING_ETA"],
        ["dimensions", "NAN_PROBABILITY"],
        ["dimensions", "INFINITE_LOG2_RATIO"],
        ["dimensions", "FRACTIONAL_MULTIPLICITY"],
        ["dimensions", "BOOLEAN_MULTIPLICITY"],
        ["dimensions", "BOOLEAN_DIMENSION"],
        ["dimensions", "BOOLEAN_FRAME_LEVELS"],
    ], ids=["frame-validate-missing-file", "cover-missing-frame-file", "cover-d-zero",
            "exponents-negative-depth", "frame-gen-unwritable-out",
            "dimensions-unwritable-out", "counterexample-unwritable-out",
            "cover-enum-unwritable-out", "cover-exponents-unwritable-out",
            "cover-points-unwritable-out", "sample-unwritable-out",
            "dimensions-inverse-square-past-explicit-frame",
            "counterexample-inverse-square-past-explicit-frame",
            "dimensions-level-two-past-explicit-frame",
            "counterexample-level-two-past-explicit-frame",
            "dimensions-tol-zero", "dimensions-truncation-zero",
            "counterexample-t-grid-nan", "counterexample-t-grid-inf", "dimensions-tol-inf",
            "string-probability", "string-eta", "nan-probability", "infinite-log2-ratio",
            "fractional-multiplicity", "boolean-multiplicity", "boolean-dimension",
            "boolean-frame-levels"])
    def test_ends_in_error_document(self, capsys, tmp_path, argv):
        (tmp_path / "regular_file").write_text("")
        paths = {
            "MISSING": str(tmp_path / "missing.json"),
            # a path under a regular file can be neither created nor written
            "UNWRITABLE": str(tmp_path / "regular_file" / "out"),
        }
        for name, probabilities in _PAST_EXPLICIT_FRAME.items():
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps({
                "probabilities": probabilities,
                "family": {"kind": "frame", "frame": [["1", "1"]], "d": 1},
            }))
        for name, edit in _MALFORMED_NUMBERS.items():
            doc = two_ifs_doc()
            edit(doc)
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(doc))
        code, doc = run_json(capsys, *[paths.get(a, a) for a in argv])
        assert code == 2 and "error" in doc


def _child_env(**extra) -> dict:
    """This environment for a ``python -m rifs_lab.cli`` child, with ``extra``."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


class TestClosedPipe:
    # each output is megabytes, far more than a pipe holds
    @pytest.mark.parametrize("argv", [
        ["cover", "enum", "--symbols", "2,1", "--d", "2", "--depth", "16"],
        ["sample", "--seed", "0", "--horizon", "100000"],
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

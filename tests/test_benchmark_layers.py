"""The benchmark tracer (perfbench/tracing.py) still finds every layer it wraps.

The tracer wraps library functions and methods by name from outside; a
rename or deletion in the library would otherwise surface only in a traced
benchmark run.  This test reads perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from rifs_lab import pressure, sampler
from rifs_lab.cli import main

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("cli", "sampler", "rifs", "frame", "numerics", "pressure", "bowen", "cover")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_and_reads_seeds(capsys):
    tracing = load_tracing()
    lib = {n: importlib.import_module(f"rifs_lab.{n}") for n in MODULES}
    originals = (sampler.sample_scenery, pressure.special_times, lib["cli"]._emit)
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        code = main(["counterexample", str(ROOT / "configs" / "counterexample_d1.json"),
                     "--seeds", "600:3", "--horizon", "2000"])
    finally:
        tracer.uninstall()
    completed = [r for r in json.loads(capsys.readouterr().out)["per_seed"] if "error" not in r]
    assert code == 0
    assert (sampler.sample_scenery, pressure.special_times, lib["cli"]._emit) == originals
    # the tracer keys each seed's span by the third positional argument of
    # sample_scenery
    assert [key for name, key, *_ in tracer.spans if name == "seed"] == [600, 601, 602]
    assert tracer.counts["pressure.special_times.calls"] == 3
    # one bound check per special time and value of pressure.T_GRID
    # (three), and one estimate per completed seed
    times = sum(r["pairs"] for r in completed)
    assert times >= 3
    assert tracer.counts["pressure.subsequence_bound_check.calls"] == 3 * times
    estimates = [s for s in tracer.spans if s[0] == "pressure.dim_upper_estimate"]
    assert len(estimates) == len(completed) == 3


def test_tracer_reads_cover_layers(capsys, tmp_path):
    tracing = load_tracing()
    lib = {n: importlib.import_module(f"rifs_lab.{n}") for n in MODULES}
    cover = lib["cover"]
    originals = (cover.enumerate_cylinders, cover.osc_check, cover.emit_points)
    common = ["--symbols", "1,1,1", "--d", "2", "--depth", "6"]
    points = tmp_path / "points.csv"
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        codes = [main(["cover", "enum", *common, "--out", str(tmp_path / "enum.json")]),
                 main(["cover", "points", *common, "--out", str(points)])]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    assert (cover.enumerate_cylinders, cover.osc_check, cover.emit_points) == originals
    # 64 words per command; the hooks read len() of the corners and of the CSV text
    assert tracer.counts["cover.words"] == 2 * 64
    assert tracer.counts["cover.points_bytes"] == len(points.read_text())
    spans = {name for name, *_ in tracer.spans}
    assert {"cover.enumerate_cylinders", "cover.osc_check", "cover.emit_points"} <= spans


def test_tracer_reads_scenery_csv(capsys, tmp_path):
    tracing = load_tracing()
    lib = {n: importlib.import_module(f"rifs_lab.{n}") for n in MODULES}
    original = sampler.scenery_csv
    out = tmp_path / "scenery.csv"
    tracer = tracing.Tracer()
    try:
        tracing.instrument(tracer, lib)
        code = main(["sample", "--seed", "3", "--horizon", "20000", "--out", str(out)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert sampler.scenery_csv is original
    # the hook reads len() of the returned text, which the CLI writes whole
    assert tracer.counts["sampler.csv_bytes"] == len(out.read_text())
    assert "sampler.scenery_csv" in {name for name, *_ in tracer.spans}

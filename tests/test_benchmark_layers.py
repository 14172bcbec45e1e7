"""The benchmark tracer (perfbench/tracing.py) still finds every layer it wraps.

The tracer wraps library functions and methods by name from outside; a
rename or deletion in the library would otherwise surface only in a traced
benchmark run.  This test reads perfbench/ and changes nothing in it.
"""

import importlib
import importlib.util
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
    capsys.readouterr()
    assert code == 0
    assert (sampler.sample_scenery, pressure.special_times, lib["cli"]._emit) == originals
    # the tracer keys each seed's span by the third positional argument of
    # sample_scenery
    assert [key for name, key, *_ in tracer.spans if name == "seed"] == [600, 601, 602]
    assert tracer.counts["pressure.special_times.calls"] == 3

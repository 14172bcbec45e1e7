"""Benchmark of the rifs-lab CLI: sweeps, cylinder covers and scenery CSV.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-h1e4 --seed 1 --seconds 10 --trace 0

The CLI runs in this process (``rifs_lab.cli.main``) on inputs made from
``--seed``.  Rounds of identical CLI calls repeat until ``--seconds`` have
passed; every output is then checked against the oracle.  With ``--trace 0``
the last line reports the end-to-end metrics; with ``--trace 1`` the same
rounds run again with every layer wrapped, and the last line reports the
per-layer metrics instead.  Everything the CLI writes goes under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 15


def measure(wl, cli, seconds: float):
    """Whole rounds until ``seconds`` have passed; per-round CPU and wall
    seconds, and tallies."""
    cpu, wall, tallies = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        c, w, tally = wl.run_round(cli, len(cpu))
        cpu.append(c)
        wall.append(w)
        tallies.append(tally)
        if time.perf_counter() >= deadline:
            return cpu, wall, tallies


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rifs_lab" / "cli.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no rifs_lab sources or configs under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer, instrument

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    run_dir = ROOT / ".perfbench_out"
    wl = workloads.make(args.workload, run_dir / args.workload, args.seed)
    wl.reset_out()

    setup = []
    for _ in range(SETUP_REPS):
        workloads.purge_library()
        gc.collect()
        t0 = time.perf_counter()
        lib = workloads.library()
        wl.setup(lib)
        setup.append(time.perf_counter() - t0)
    cli = lib["cli"]

    cpu, wall, tallies = measure(wl, cli, args.seconds)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    layers = None
    if args.trace:
        tracer = Tracer()
        instrument(tracer, lib)
        traced = []
        try:
            for i in range(len(wall)):
                _c, w, tally = wl.run_round(cli, i)
                traced.append(w)
                tallies.append(tally)
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics(len(wall))
        layers["trace.overhead_s"] = (sum(traced) - sum(wall)) / len(wall)
        tracer.write(run_dir / f"{args.workload}-trace.csv")

    problems = wl.check()
    first = tallies[0]
    if any(vars(t) != vars(first) for t in tallies):
        problems.append("rounds of the same make-up reported different failures")
    if first.other:
        problems.append(f"{first.other} operations per round failed for an unexpected reason")
    shutil.rmtree(wl.out, ignore_errors=True)

    total = workloads.Tally()
    for t in tallies:
        total.add(t)
    # The first round also warms the process's caches; it is left out when
    # other rounds exist.
    steady = slice(1, None) if len(cpu) > 1 else slice(None)
    rate = statistics.median(wl.items / c for c in cpu[steady])
    print(f"workload {wl.name}, seed {args.seed}: {len(cpu)} rounds of "
          f"{len(wl.calls_for(0))} CLI calls, {first.attempted} operations each")
    print(f"attempted {total.attempted}, failed {total.failed} "
          f"(F1 {total.f1}, F2 {total.f2}, other {total.other})")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if layers is None:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "items_per_cpu_s": (rate, "1/s"),
            "peak_rss_mib": (peak_mib, "MiB"),
        }
        print(f"{wl.unit}_per_s {rate:.6g} {wl.unit} per CPU second (items_per_cpu_s); "
              f"{statistics.median(wl.items / w for w in wall[steady]):.6g} per wall second")
    else:
        units = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (value, units[name]) for name, value in layers.items()}
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

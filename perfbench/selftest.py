"""Self-test of the benchmark: a smoke run of every workload, then mutations.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

The smoke run builds each workload at a tiny size, runs one round through
the CLI and requires every check to pass.  The mutation cases then corrupt
one output each and require the checks to reject it, which shows they are
not vacuous.  Exits 0 only when every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def main() -> int:
    results: list[tuple[str, bool]] = []

    def expect(label: str, ok: bool) -> None:
        results.append((label, ok))
        print(f"{'PASS' if ok else 'FAIL'} {label}", flush=True)

    frame = oracle.MinimalFrame()
    expect("oracle: the float log2 frame overflows at level 647", frame.overflow_level == 647)
    whole = oracle.draws(3, 70_000)
    expect("oracle: chunked PCG64 draws equal one long draw",
           oracle.max_draw(3, 70_000) == float(whole.max()))

    lib = workloads.library()
    cli = lib["cli"]
    out = ROOT / ".perfbench_out" / "selftest"
    built = {}
    for name in workloads.WORKLOADS:
        wl = workloads.make(name, out / name, SEED, smoke=True)
        wl.reset_out()
        wl.setup(lib)
        *_times, tally = wl.run_round(cli, 0)
        problems = wl.check()
        for p in problems[:5]:
            print(f"  {p}")
        expect(f"smoke {name}: every check passes", not problems)
        expect(f"smoke {name}: no failure outside F1/F2", tally.other == 0)
        built[name] = wl
    h4 = built["sweep-h1e4"]
    tally = h4.run_round(cli, 1)[2]
    expect("smoke sweep-h1e4: the fault block fails once with F1 and once with F2 per config",
           (tally.f1, tally.f2) == (2, 2))

    # -- mutations: each corrupted output must be rejected
    cover = built["cover-2e20"]
    doc = json.loads(cover.enum_path.read_text())
    doc["cubes"][1]["corner"][0] += 1
    flags = oracle.cover_schedule(cover.frame, cover.symbols, cover.depth)
    expect("mutation: a shifted cube corner is rejected",
           bool(checks.check_cover_enum(doc, flags, cover.D, oracle.cover_corners(flags, cover.D))))

    sample = built["sample-csv"]
    s = sample.seeds[0]
    lines = (sample.out / f"scenery_{s}.csv").read_text().splitlines()
    n, omega, psum, mean = lines[5].split(",")
    lines[5] = ",".join([n, omega, str(int(psum) + 1), mean])
    expect("mutation: an off-by-one prefix_sum is rejected",
           bool(checks.check_scenery("\n".join(lines) + "\n", sample.cdf, s, sample.horizon)))

    call = h4.calls_for(0)[0]
    d, seeds, where = call.d, call.seeds, call.where
    outcomes = [oracle.seed_outcome(h4.cdf, h4.frame, s, h4.horizon, workloads.PAIRS, d)
                for s in seeds]
    summary = json.loads((where / "summary.json").read_text())
    csvs = {s: (where / f"seed_{s}.csv").read_text() for s in seeds}
    victim = seeds[0]
    csvs[victim] = csvs[victim].replace(",true,", ",false,", 1)
    expect("mutation: a bound row with holds flipped is rejected",
           bool(checks.check_sweep(summary, outcomes, d, h4.horizon, workloads.T_GRID,
                                   h4.frame.overflow_level, csvs)))

    call = next(c for c in h4.calls_for(0) if c.seeds[0] == workloads.SWEEP_H1E4_FAULT[0])
    d, seeds, where = call.d, call.seeds, call.where
    outcomes = [oracle.seed_outcome(h4.cdf, h4.frame, s, h4.horizon, workloads.PAIRS, d)
                for s in seeds]
    f1 = next(o for o in outcomes if o.kind == "F1")
    summary = json.loads((where / "summary.json").read_text())
    summary["per_seed"] = [
        {"seed": f1.seed, "pairs": len(f1.pairs), "degenerate": f1.degenerate,
         "truncated": False, "estimate": 0.0, "bound_violations": 0}
        if rec["seed"] == f1.seed else rec
        for rec in summary["per_seed"]
    ]
    summary["failed_seeds"] -= 1
    csvs = {int(p.stem.split("_")[1]): p.read_text() for p in where.glob("seed_*.csv")}
    expect("mutation: an F1 seed reported as a success is rejected",
           bool(checks.check_sweep(summary, outcomes, d, h4.horizon, workloads.T_GRID,
                                   h4.frame.overflow_level, csvs)))

    shutil.rmtree(out, ignore_errors=True)
    failed = [label for label, ok in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test cases passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

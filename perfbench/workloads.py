"""The four workloads: their inputs, one round of CLI calls, and their checks.

Every round has the same make-up, so each run attempts whole rounds of the
same operations.  Seed-dependent operations are chosen among seeds the
oracle predicts to complete; the known faults F1 (FrameDepthError) and F2
(RareTailError) run every round on fixed seeds that do not depend on the
workload seed, so the failed share is the same in every run.

The sweeps and ``sample-csv`` take fresh seeds in every round, scanning
upward from a start drawn from the workload seed: a run then covers many
seeds, and the median over rounds is not set by the few seeds whose record
windows are long.  A traced phase replays the rounds already made.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import oracle

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
PAIRS = 3
T_GRID = [0.0, 0.5, 1.0]

#: Fixed fault blocks: seeds 884..891 at horizon 1e4 hold one F2 (884) and one
#: F1 (891); seeds 92..93 at horizon 1e6 are F2 then F1.
SWEEP_H1E4_FAULT = (884, 8)
SWEEP_H1E6_FAULT = (92, 2)
#: ``sample`` on seed 0 at horizon 1e6 draws past the symbol cap (F2).
SAMPLE_FAULT_SEED = 0


def purge_library() -> None:
    """Drop the library's modules so the next import executes them afresh."""
    for name in [m for m in sys.modules if m == "rifs_lab" or m.startswith("rifs_lab.")]:
        del sys.modules[name]


def library() -> dict:
    names = ("cli", "sampler", "rifs", "frame", "numerics", "pressure", "bowen", "cover")
    return {n: importlib.import_module(f"rifs_lab.{n}") for n in names}


def start_seed(seed: int) -> int:
    """Where the scan for seed-dependent program seeds begins."""
    return int(np.random.default_rng(seed).integers(10_000, 2 ** 31))


@dataclass
class Call:
    """One CLI invocation: its argv and the operations it attempts."""

    argv: list[str]
    ops: int
    rc: int = 0
    stdout: str = ""


@dataclass
class Tally:
    attempted: int = 0
    f1: int = 0
    f2: int = 0
    other: int = 0

    @property
    def failed(self) -> int:
        return self.f1 + self.f2 + self.other

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.f1 += other.f1
        self.f2 += other.f2
        self.other += other.other


class Workload:
    """A workload makes the calls of each round, runs them and checks them."""

    unit = ""   # what items_per_cpu_s counts
    items = 0   # items per round

    def __init__(self, name: str, out: Path):
        self.name, self.out = name, out
        self.rounds: list[list[Call]] = []

    def make_round(self, i: int) -> list[Call]:
        raise NotImplementedError

    def calls_for(self, i: int) -> list[Call]:
        while len(self.rounds) <= i:
            self.rounds.append(self.make_round(len(self.rounds)))
        return self.rounds[i]

    def run_round(self, cli, i: int) -> tuple[float, float, Tally]:
        """Run round ``i``; returns the CLI's CPU and wall seconds and the tally.

        CPU time (user + system) of this process leaves out the time the CLI
        waits on file creation, which on some sandboxes costs more than the
        program's own work for a seed and varies several-fold between runs.
        """
        cpu = wall = 0.0
        tally = Tally()
        for call in self.calls_for(i):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                c0, t0 = time.process_time(), time.perf_counter()
                call.rc = cli.main(list(call.argv))
                cpu += time.process_time() - c0
                wall += time.perf_counter() - t0
            call.stdout = buf.getvalue()
            tally.add(self.tally(call))
        return cpu, wall, tally

    def tally(self, call: Call) -> Tally:
        return Tally(call.ops, other=int(call.rc != 0))

    def reset_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)


def _failure_kind(error: str) -> str:
    if error.startswith("FrameDepthError"):
        return "f1"
    if error.startswith("RareTailError"):
        return "f2"
    return "other"


# -- counterexample sweeps ------------------------------------------------------------


def _precreate(where: Path, seeds) -> None:
    """Create the files a sweep call will write, before it is timed.

    Creating a file costs about 0.5 ms of CPU on the sandbox this was built
    on, and that cost grew from run to run within minutes, while rewriting
    an existing file costs a tenth of it.  The CLI then rewrites existing
    files, as a rerun into the same --out directory does.
    """
    where.mkdir(parents=True)
    (where / "summary.json").touch()
    for s in seeds:
        (where / f"seed_{s}.csv").touch()


@dataclass
class SweepCall(Call):
    d: int = 1
    seeds: list[int] = field(default_factory=list)
    where: Path | None = None  # --out directory, if per-seed CSVs are written

    def summary(self) -> dict:
        """The call's summary document; empty when the CLI wrote none."""
        text = (self.where / "summary.json").read_text() if self.where else self.stdout
        try:
            return json.loads(text)
        except ValueError:
            return {}


class Sweep(Workload):
    """``counterexample`` over blocks of consecutive seeds plus a fixed fault block.

    Every block is a run of consecutive seeds that the oracle predicts to
    complete; every round has the same number of blocks, all configs run the
    same blocks, and each config also runs the fault block.
    """

    unit = "seeds"

    def __init__(self, name: str, out: Path, seed: int, *, configs: list[int], horizon: int,
                 blocks: int, block_len: int, fault: tuple[int, int], write_csv: bool):
        super().__init__(name, out)
        self.horizon, self.configs, self.write_csv = horizon, configs, write_csv
        self.n_blocks, self.block_len, self.fault = blocks, block_len, fault
        self.cdf, self.frame = oracle.InverseSquareCDF(), oracle.MinimalFrame()
        self.cursor = start_seed(seed)
        self.items = len(configs) * (blocks * block_len + fault[1])
        self.fault_completes = [
            s for s in range(fault[0], fault[0] + fault[1])
            if oracle.seed_outcome(self.cdf, self.frame, s, horizon, PAIRS, 1).kind == "ok"]

    def _next_blocks(self) -> list[tuple[int, int]]:
        found: list[tuple[int, int]] = []
        s = run_start = self.cursor
        while len(found) < self.n_blocks:
            o = oracle.seed_outcome(self.cdf, self.frame, s, self.horizon, PAIRS, 1)
            s += 1
            if not (o.kind == "ok" and o.certain):
                run_start = s
            elif s - run_start == self.block_len:
                found.append((run_start, self.block_len))
                run_start = s
        self.cursor = s
        return found

    def make_round(self, i: int) -> list[Call]:
        calls: list[Call] = []
        blocks = self._next_blocks()
        # (block, seeds that complete and so write a CSV)
        plan = [((b, c), range(b, b + c)) for b, c in blocks] + [(self.fault, self.fault_completes)]
        for d in self.configs:
            for j, ((b, c), completes) in enumerate(plan):
                argv = ["counterexample", str(CONFIGS / f"counterexample_d{d}.json"),
                        "--seeds", f"{b}:{c}", "--horizon", str(self.horizon),
                        "--pairs", str(PAIRS)]
                where = self.out / f"r{i}" / f"d{d}-{j}" if self.write_csv else None
                if where is not None:
                    argv += ["--out", str(where)]
                    _precreate(where, completes)
                calls.append(SweepCall(argv, c, d=d, seeds=list(range(b, b + c)), where=where))
        return calls

    def setup(self, lib) -> None:
        for d in self.configs:
            spec = lib["rifs"].load_spec((CONFIGS / f"counterexample_d{d}.json").read_text())
            lib["bowen"].bowen_parameter(spec)
            spec.probabilities.prefix_cdf(1024)

    def tally(self, call: SweepCall) -> Tally:
        records = call.summary().get("per_seed")
        if records is None:
            return Tally(call.ops, other=call.ops)
        t = Tally(call.ops)
        for rec in records:
            if "error" in rec:
                kind = _failure_kind(rec["error"])
                setattr(t, kind, getattr(t, kind) + 1)
        return t

    def check(self) -> list[str]:
        problems = []
        for calls in self.rounds:
            for call in calls:
                outcomes = [oracle.seed_outcome(self.cdf, self.frame, s, self.horizon, PAIRS,
                                                call.d) for s in call.seeds]
                want_rc = 1 if any(o.kind != "ok" for o in outcomes) else 0
                if call.rc != want_rc:
                    problems.append(f"{' '.join(call.argv[:4])}: exit {call.rc}, expected {want_rc}")
                csvs = None
                if call.where is not None:
                    csvs = {int(p.stem.split("_")[1]): p.read_text()
                            for p in call.where.glob("seed_*.csv")}
                problems += checks.check_sweep(call.summary(), outcomes, call.d, self.horizon,
                                               T_GRID, self.frame.overflow_level, csvs)
        return problems


# -- cylinder covers -------------------------------------------------------------------


def cover_input(seed: int, frame: oracle.MinimalFrame, branch: int) -> tuple[list[int], int]:
    """A random prefix over symbols {1, 2} and a depth with exactly ``branch``
    branching steps, at most 62 deep so corners fit int64."""
    rng = np.random.default_rng(seed)
    while True:
        symbols = [int(s) for s in rng.integers(1, 3, size=branch + 1)]
        flags: list[bool] = []
        for s in symbols:
            u, v = frame.level_exact(s)
            flags += [False] * u + [True] * v
        ends = np.flatnonzero(flags)
        lo, hi = int(ends[branch - 1]) + 1, int(ends[branch])  # B_m = branch on [lo, hi]
        depth = int(rng.integers(lo, hi + 1))
        if depth <= 62:
            used, total = [], 0
            for s in symbols:
                used.append(s)
                total += sum(frame.level_exact(s))
                if total >= depth:
                    return used, depth


class Cover(Workload):
    """``cover enum`` then ``cover points`` on one d = 2 prefix, every round."""

    unit = "words"
    D = 2

    def __init__(self, name: str, out: Path, seed: int, *, branch: int):
        super().__init__(name, out)
        self.frame = oracle.MinimalFrame()
        self.symbols, self.depth = cover_input(seed, self.frame, branch)
        self.enum_path, self.points_path = out / "enum.json", out / "points.csv"
        self.items = 2 * 2 ** (self.D * branch)

    def make_round(self, i: int) -> list[Call]:
        common = ["--symbols", ",".join(map(str, self.symbols)), "--d", str(self.D),
                  "--depth", str(self.depth)]
        return [Call(["cover", "enum", *common, "--out", str(self.enum_path)], 1),
                Call(["cover", "points", *common, "--out", str(self.points_path)], 1)]

    def setup(self, lib) -> None:
        lib["frame"].minimal_frame(8)

    def check(self) -> list[str]:
        # Every round makes the same calls into the same files; the last
        # round's files are checked.
        problems = [f"{' '.join(c.argv[:2])}: exit {c.rc}" for calls in self.rounds
                    for c in calls if c.rc != 0]
        if problems:
            return problems
        flags = oracle.cover_schedule(self.frame, self.symbols, self.depth)
        doc = json.loads(self.enum_path.read_text())
        problems += checks.check_cover_enum(doc, flags, self.D, oracle.cover_corners(flags, self.D))
        corners = checks.enum_corners(doc)
        del doc
        problems += checks.check_cover_points(self.points_path.read_text(), corners, self.depth)
        return problems


# -- scenery CSV -----------------------------------------------------------------------


class Sample(Workload):
    """``sample --out`` on the next seed whose draws stay under the symbol cap,
    plus the fixed seed whose largest draw lies past it (F2), every round."""

    unit = "rows"

    def __init__(self, name: str, out: Path, seed: int, *, horizon: int):
        super().__init__(name, out)
        self.horizon = horizon
        self.cdf = oracle.InverseSquareCDF()
        self.cursor = start_seed(seed)
        self.seeds: list[int] = []
        self.fault_umax = oracle.max_draw(SAMPLE_FAULT_SEED, oracle.SYMBOL_CAP)
        self.items = horizon

    def make_round(self, i: int) -> list[Call]:
        s = self.cursor
        while self.cdf.tail_verdict(oracle.max_draw(s, self.horizon)) != "ok":
            s += 1
        self.cursor = s + 1
        self.seeds.append(s)
        return [Call(["sample", "--seed", str(s), "--horizon", str(self.horizon),
                      "--out", str(self.out / f"scenery_{s}.csv")], 1),
                Call(["sample", "--seed", str(SAMPLE_FAULT_SEED), "--horizon",
                      str(oracle.SYMBOL_CAP), "--out", str(self.out / "fault.csv")], 1)]

    def setup(self, lib) -> None:
        lib["rifs"].ProbVector("inverse_square").prefix_cdf(1024)

    def tally(self, call: Call) -> Tally:
        if call.argv[2] == str(SAMPLE_FAULT_SEED):
            tail = call.rc == 2 and "falls in the tail" in call.stdout
            return Tally(1, f2=int(tail), other=int(not tail))
        return Tally(1, other=int(call.rc != 0))

    def check(self) -> list[str]:
        problems = []
        for (call, fault), s in zip(self.rounds, self.seeds):
            doc = json.loads(call.stdout)
            if call.rc != 0 or doc.get("seed") != s or doc.get("domination_start") != 1:
                problems.append(f"sample --seed {s}: exit {call.rc}, report {doc}")
                continue
            text = (self.out / f"scenery_{s}.csv").read_text()
            problems += checks.check_scenery(text, self.cdf, s, self.horizon)
            problems += checks.check_tail_fault(fault.rc, json.loads(fault.stdout), self.fault_umax)
        return problems


# -- the table ---------------------------------------------------------------------------


def make(name: str, out: Path, seed: int, smoke: bool = False) -> Workload:
    """Build a workload; ``smoke`` shrinks the seed-dependent part only."""
    if name == "sweep-h1e4":
        return Sweep(name, out, seed, configs=[1, 2], horizon=10_000, blocks=1 if smoke else 3,
                     block_len=5 if smoke else 100, fault=SWEEP_H1E4_FAULT, write_csv=True)
    if name == "sweep-h1e6":
        return Sweep(name, out, seed, configs=[1], horizon=1_000_000, blocks=1 if smoke else 12,
                     block_len=2, fault=SWEEP_H1E6_FAULT, write_csv=False)
    if name == "cover-2e20":
        return Cover(name, out, seed, branch=3 if smoke else 10)
    if name == "sample-csv":
        return Sample(name, out, seed, horizon=1000 if smoke else 1_000_000)
    raise KeyError(name)


WORKLOADS = ["sweep-h1e4", "sweep-h1e6", "cover-2e20", "sample-csv"]

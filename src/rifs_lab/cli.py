"""Command-line front end: config ingestion, experiments, JSON/CSV reports.

Subcommands: frame {gen|validate}, dimensions, counterexample,
cover {enum|exponents|points}, sample.  Outputs are schema-versioned and
byte-identical across runs for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from pathlib import Path

from . import bowen, cover, pressure, sampler
from .frame import (
    Frame,
    FrameError,
    frame_from_doc,
    frame_pairs,
    minimal_frame,
    validate_frame,
)
from .rifs import (
    ProbVector,
    SpecValidationError,
    check_bowen_hypothesis,
    load_spec,
)

SCHEMA = "rifs-lab/1"


def _open_out(out: Path | None):
    """Text sink: the file ``out``, or stdout (left open) when ``out`` is None."""
    return contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")


def _emit(doc: dict, out: Path | None = None) -> None:
    """Stream ``doc`` with the schema tag as indented JSON to ``out`` or stdout."""
    with _open_out(out) as fh:
        json.dump({"schema": SCHEMA, **doc}, fh, indent=2, sort_keys=True)
        fh.write("\n")


#: Most characters handed to one ``sys.stdout.write``.  An unbuffered stdout
#: (``PYTHONUNBUFFERED``) passes each write to one raw ``write`` and ignores
#: a short count, so a reader that has gone must meet a later slice, which
#: raises ``BrokenPipeError``.
_STDOUT_SLICE = 1 << 16


def _write_text(text: str, out: Path | None, **fields) -> None:
    """Write CSV text to stdout, or to ``out`` and report it with ``fields``."""
    if out is None:
        for i in range(0, len(text), _STDOUT_SLICE):
            sys.stdout.write(text[i:i + _STDOUT_SLICE])
    else:
        out.write_text(text)
        _emit({"written": str(out), **fields})


def _fail(message: str, detail: dict | None = None) -> int:
    _emit({"error": message, **(detail or {})})
    return 2


def _parse_seeds(text: str) -> list[int]:
    base_str, _, count_str = text.partition(":")
    try:
        base, count = int(base_str), int(count_str or "1")
    except ValueError:
        raise SpecValidationError(f"--seeds expects BASE:COUNT, got {text!r}")
    if count < 1:
        raise SpecValidationError("--seeds count must be >= 1")
    return [base + i for i in range(count)]


def _parse_list(text: str, kind: type, flag: str) -> list:
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise SpecValidationError(
            f"{flag} expects comma-separated {kind.__name__} values, got {text!r}")


# -- frame -----------------------------------------------------------------


def cmd_frame(args: argparse.Namespace) -> int:
    if args.frame_cmd == "gen":
        if args.levels < 1:
            raise SpecValidationError("--levels must be >= 1")
        frame = minimal_frame(args.levels, slack=tuple(args.slack) if args.slack else None)
        _emit({"frame": frame.to_doc(), "entries": _frame_entries(frame)}, args.out)
        return 0

    try:
        doc = json.loads(Path(args.path).read_text())
    except json.JSONDecodeError as exc:
        raise FrameError(f"not valid JSON: {exc}") from exc
    if isinstance(doc, dict):
        frame_from_doc(doc)
        _emit({"valid": True, "rule": doc.get("rule")})
        return 0
    report = validate_frame(frame_pairs(doc))
    _emit(report.to_dict())
    return 0 if report.valid else 1


def _frame_entries(frame: Frame) -> list[dict]:
    out = []
    for n in range(1, len(frame) + 1):
        lvl = frame.entry(n)
        entry = {"level": n, "log2_U": lvl.u.log2, "log2_V": lvl.v.log2}
        if lvl.u.is_exact and lvl.u.as_int().bit_length() <= 256:
            entry["U"] = str(lvl.u.as_int())
            entry["V"] = str(lvl.v.as_int())
        out.append(entry)
    return out


# -- dimensions --------------------------------------------------------------


def cmd_dimensions(args: argparse.Namespace) -> int:
    spec = load_spec(Path(args.config).read_text())
    if not (math.isfinite(args.tol) and args.tol > 0) or args.truncation < 1:
        raise SpecValidationError("--tol must be finite and > 0, and --truncation >= 1")

    report: dict = {"tolerance": args.tol, "truncation": args.truncation,
                    "bowen": bowen.bowen_parameter(spec, tol=args.tol, truncation=args.truncation)}
    try:
        report["mauldin"] = bowen.mauldin_dimension(spec, tol=args.tol)
    except (bowen.MauldinDomainError, bowen.UnboundedDimensionError):
        report["mauldin"] = None
    report["hypothesis"] = check_bowen_hypothesis(spec).to_dict()

    verdicts = []
    if spec.is_frame_family and not spec.probabilities.is_finite:
        probes = [float(spec.d), 0.99 * spec.d]
    else:
        probes = [0.0, report["bowen"]]
    for t in probes:
        verdict = bowen.expected_log_fitness(spec, t, truncation=args.truncation)
        verdicts.append({"t": t, **verdict.to_dict()})
    report["verdicts"] = verdicts
    _emit(report, args.out)
    return 0


# -- counterexample -----------------------------------------------------------


def _rows_to_csv(run: pressure.SeedRun) -> str:
    """One bound row per (special time, t); ``j_before`` and ``m`` are decimal
    when exact and their log2 otherwise, and ``m_form`` names m's form."""
    lines = ["n,record_pos,record_symbol,j_before,m,m_form,t,exponent,lhs,bound_rhs,holds,ratio"]
    for st, t, chk in run.checks:
        j, m = (str(x.as_int()) if x.is_exact else repr(x.log2) for x in (st.j_before, st.m))
        lines.append(f"{st.n},{st.record_pos},{st.record_symbol},{j},{m},"
                     f"{'dec' if st.m.is_exact else 'log2'},{t!r},{chk.exponent!r},"
                     f"{chk.lhs!r},{chk.rhs!r},{'true' if chk.holds else 'false'},{chk.ratio!r}")
    return "\n".join(lines) + "\n"


def cmd_counterexample(args: argparse.Namespace) -> int:
    spec = load_spec(Path(args.config).read_text())
    seeds = _parse_seeds(args.seeds)
    t_grid = _parse_list(args.t_grid, float, "--t-grid")
    if not spec.is_frame_family:
        raise SpecValidationError("the counterexample experiment needs a frame-family config")
    if args.horizon < 1 or args.pairs < 1:
        raise SpecValidationError("--horizon and --pairs must be >= 1")
    if min(seeds) < 0 or not all(math.isfinite(t) and t >= 0 for t in t_grid):
        raise SpecValidationError("seeds must be >= 0 and --t-grid values finite and >= 0")
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    estimates = []
    violations = 0
    truncated_seeds = 0
    failed = 0
    for seed in seeds:
        record: dict = {"seed": seed}
        try:
            run = pressure.run_seed(spec, seed, args.horizon, args.pairs, t_grid)
        # a symbol past the sampler's cap or the frame's representable depth
        except (FrameError, sampler.RareTailError) as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
            failed += 1
            per_seed.append(record)
            continue
        record.update({
            "pairs": len(run.seqs.pairs),
            "degenerate": run.seqs.degenerate,
            "truncated": run.seqs.truncated,
            "estimate": run.estimate,
            "bound_violations": sum(not chk.holds for _, _, chk in run.checks),
        })
        violations += record["bound_violations"]
        truncated_seeds += record["truncated"]
        estimates.append(run.estimate)
        per_seed.append(record)
        if out_dir is not None:
            (out_dir / f"seed_{seed}.csv").write_text(_rows_to_csv(run))

    summary = {
        "bowen": bowen.bowen_parameter(spec),
        "d": spec.d,
        "seeds": len(seeds),
        "failed_seeds": failed,
        "truncated_seeds": truncated_seeds,
        "bound_violations": violations,
        "estimates": {
            "count": len(estimates),
            "max": max(estimates) if estimates else None,
            "below_0.2": sum(1 for e in estimates if e < 0.2),
        },
        "per_seed": per_seed,
        "horizon": args.horizon,
        "t_grid": t_grid,
    }
    _emit(summary, (out_dir / "summary.json") if out_dir is not None else None)
    if out_dir is not None:
        _emit({"written": str(out_dir)})
    return 0 if failed == 0 else 1


# -- cover ---------------------------------------------------------------------


def _profile_from_args(args: argparse.Namespace):
    symbols = _parse_list(args.symbols, int, "--symbols")
    if any(s < 1 for s in symbols):
        raise SpecValidationError("symbols are positive integers")
    if args.d < 1:
        raise SpecValidationError("--d must be >= 1")
    if args.frame:
        frame = frame_from_doc(json.loads(Path(args.frame).read_text()))
    else:
        frame = minimal_frame(1)  # generated frames extend on demand
    return pressure.build_branch_profile(symbols, frame, args.d)


def cmd_cover(args: argparse.Namespace) -> int:
    """``cover exponents``, ``enum`` or ``points`` on one symbol prefix.

    ``points`` checks d and the depth before it enumerates.  ``enum`` takes
    every byte from ``json.dumps(indent=2, sort_keys=True)``: the document
    is encoded once with a single probe cube whose corner entries are
    ``%d`` placeholders, and split into a head, that cube's template and a
    tail.  The cubes are then written :data:`cover.BLOCK` rows at a time,
    each block by one ``%`` over the template repeated (``%d`` prints a
    Python int as ``json`` does), so no per-word object is built and the
    document is never held whole in memory.
    """
    profile = _profile_from_args(args)
    if args.cover_cmd == "exponents":
        depths = _parse_list(args.depths, int, "--depths")
        if min(depths) < 0:
            raise SpecValidationError("--depths values must be >= 0")
        pairs = cover.box_exponents(profile, depths)
        lines = ["m,exponent"] + [f"{m},{e!r}" for m, e in pairs]
        _write_text("\n".join(lines) + "\n", args.out, rows=len(pairs))
        return 0
    if args.cover_cmd == "points":
        cover.PointExportError.check(args.d, args.depth)

    corners = cover.enumerate_cylinders(profile, args.depth, budget=args.budget)
    if args.cover_cmd == "points":
        _write_text(cover.emit_points(corners, args.depth), args.out, rows=len(corners))
        return 0

    text = json.dumps({
        "schema": SCHEMA,
        "depth": args.depth,
        "count": len(corners),
        "osc": cover.osc_check(corners),
        "cubes": [{"level": args.depth, "corner": ["%d"] * args.d}],
    }, indent=2, sort_keys=True)
    start = text.rindex("{", 0, text.index('"%d"'))
    end = text.index("}", text.rindex('"%d"')) + 1
    cube = text[start:end].replace('"%d"', "%d")
    sep = "," + text[text.rindex("\n", 0, start):start]  # between two cubes
    with _open_out(args.out) as fh:
        fh.write(text[:start])
        for i in range(0, len(corners), cover.BLOCK):
            rows = corners[i:i + cover.BLOCK]
            fh.write(sep if i else "")
            fh.write(sep.join([cube] * len(rows)) % tuple(rows.ravel().tolist()))
        fh.write(text[end:] + "\n")
    return 0


# -- sample ----------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    if args.horizon < 1 or args.seed < 0:
        raise SpecValidationError("--horizon must be >= 1 and --seed >= 0")
    if args.config:
        probs = load_spec(Path(args.config).read_text()).probabilities
    else:
        probs = ProbVector("inverse_square")
    path = sampler.sample_scenery(probs, args.horizon, args.seed)
    # symbols >= 1 make every prefix sum dominate its length from n = 1; the
    # constant field stays until the rifs-lab/2 schema, as the benchmark's
    # sample check reads it
    _write_text(sampler.scenery_csv(path), args.out, seed=args.seed,
                horizon=args.horizon, domination_start=1)
    return 0


# -- parser -------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call
    in the process; :func:`main` runs ``cmd_<command>`` for the command it
    parses, looked up when it runs."""
    parser = argparse.ArgumentParser(
        prog="rifs-lab",
        description="Random IFS lab: frames, dimension solvers, and the "
                    "dimension-drop experiment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_frame = sub.add_parser("frame", help="generate or validate frames")
    frame_sub = p_frame.add_subparsers(dest="frame_cmd", required=True)
    p_gen = frame_sub.add_parser("gen", help="generate a frame with tight axioms")
    p_gen.add_argument("--levels", type=int, required=True)
    p_gen.add_argument("--slack", type=int, nargs=2, metavar=("SU", "SV"),
                       help="multipliers on the tight choices")
    p_gen.add_argument("--out", type=Path)
    p_val = frame_sub.add_parser("validate", help="check a frame file")
    p_val.add_argument("path")

    p_dim = sub.add_parser("dimensions", help="Bowen and random-recursive dimensions")
    p_dim.add_argument("config", help="system config JSON")
    p_dim.add_argument("--tol", type=float, default=1e-9)
    p_dim.add_argument("--truncation", type=int, default=50)
    p_dim.add_argument("--out", type=Path)

    p_ce = sub.add_parser("counterexample",
                          help="per-seed dimension-drop experiment")
    p_ce.add_argument("config", help="frame-family config JSON")
    p_ce.add_argument("--seeds", default="0", metavar="BASE[:COUNT]",
                      help="seeds BASE..BASE+COUNT-1 (COUNT defaults to 1)")
    p_ce.add_argument("--horizon", type=int, default=10_000)
    p_ce.add_argument("--pairs", type=int, default=2,
                      help="record pairs (special times) per seed")
    p_ce.add_argument("--t-grid", default="0,0.5,1")
    p_ce.add_argument("--out", help="directory for per-seed CSV + summary.json")

    p_cov = sub.add_parser("cover", help="cylinder covers of a fixed prefix")
    cov_sub = p_cov.add_subparsers(dest="cover_cmd", required=True)
    for name, helptext in (
        ("enum", "enumerate cylinder cubes"),
        ("exponents", "covering exponents d*B_m/m"),
        ("points", "emit corner/side CSV for plotting"),
    ):
        pc = cov_sub.add_parser(name, help=helptext)
        pc.add_argument("--symbols", required=True, help="comma-separated prefix")
        pc.add_argument("--frame", help="frame file (JSON); default the minimal frame")
        pc.add_argument("--d", type=int, default=1)
        pc.add_argument("--out", type=Path)
        if name == "exponents":
            pc.add_argument("--depths", required=True, help="comma-separated depths")
        else:
            pc.add_argument("--depth", type=int, required=True)
            pc.add_argument("--budget", type=int, default=cover.DEFAULT_BUDGET)

    p_sam = sub.add_parser("sample", help="sample a scenery to CSV")
    p_sam.add_argument("config", nargs="?", help="optional config JSON for probabilities")
    p_sam.add_argument("--seed", type=int, default=0)
    p_sam.add_argument("--horizon", type=int, default=1000)
    p_sam.add_argument("--out", type=Path)

    return parser


#: Errors caused by outside input (a config, a flag, a frame file, an output
#: path) that end a command in an ``{"error": ...}`` document with exit 2.
#: Anything else is a fault of the program and propagates.
_INPUT_ERRORS = (SpecValidationError, FrameError, OSError, json.JSONDecodeError,
                 pressure.CoverageError, cover.PointExportError,
                 bowen.UnboundedDimensionError)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a reader gone before any write shows up here
        return code
    except BrokenPipeError:
        # the reader closed stdout: write nothing more, and point the real
        # stdout at devnull so the flush at exit raises nothing either
        if sys.stdout is sys.__stdout__:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except cover.BudgetError as exc:
        return _fail(str(exc), {"required_budget": exc.required})
    except sampler.RareTailError as exc:
        return _fail(str(exc), {"variate": exc.variate, "cap": exc.cap})
    except _INPUT_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())

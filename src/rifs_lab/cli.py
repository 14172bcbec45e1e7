"""Command-line front end: config ingestion, experiments, JSON/CSV reports.

Subcommands: frame {gen|validate}, dimensions, counterexample,
cover {enum|exponents|points}, sample.  Outputs are schema-versioned and
byte-identical across runs for identical configs and seeds.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import stat
import sys
from collections.abc import Iterable
from pathlib import Path

from . import bowen, cover, pressure, sampler
from .frame import Frame, FrameError, frame_from_doc, frame_pairs, minimal_frame, validate_frame
from .rifs import ProbVector, SpecValidationError, check_bowen_hypothesis, load_spec

SCHEMA = "rifs-lab/1"


#: Most characters handed to one ``write``.  An unbuffered stdout ignores a short
#: count, so a reader that has gone must meet a later slice (``BrokenPipeError``);
#: a file gets each slice encoded on its own, with no full-size bytes copy.
_WRITE_SLICE = 1 << 16


def _write(pieces: Iterable[str], out: Path | None = None) -> None:
    """Write the ``str`` pieces in slices to stdout, or over the file ``out``.

    The file is not truncated on open, which on ext4 makes ``close`` start its
    writeback; a regular file is cut to the bytes written afterwards, also when
    a piece raises.  So a process killed mid-write can leave the old tail after
    the new bytes, where ``O_TRUNC`` left a short file.  Nothing is synced.
    """
    slices = (piece[i:i + _WRITE_SLICE] for piece in pieces
              for i in range(0, len(piece), _WRITE_SLICE))
    if out is None:
        sys.stdout.writelines(slices)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    written = 0
    try:
        for text in slices:
            data = memoryview(text.encode())
            while data:
                n = os.write(fd, data)
                written, data = written + n, data[n:]
    finally:
        try:
            st = os.fstat(fd)  # a device is not cut, nor a file already as long
            if stat.S_ISREG(st.st_mode) and st.st_size > written:
                os.ftruncate(fd, written)
        finally:
            os.close(fd)


def _emit(doc: dict, out: Path | None = None) -> None:
    """Write ``doc`` with the schema tag as indented JSON to ``out`` or stdout."""
    _write([json.dumps({"schema": SCHEMA, **doc}, indent=2, sort_keys=True), "\n"], out)


def _write_text(text: str, out: Path | None, **fields) -> None:
    """Write CSV text to stdout, or to ``out`` and report it with ``fields``."""
    _write([text], out)
    if out is not None:
        _emit({"written": str(out), **fields})


def _fail(message: str, detail: dict | None = None) -> int:
    _emit({"error": message, **(detail or {})})
    return 2


def _read(path: str) -> str:
    """The text of a config or frame file, decoded as UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpecValidationError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_frame(path: str) -> object:
    """The JSON document in a frame file."""
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise FrameError(f"not valid JSON: {exc}") from exc


# -- frame -----------------------------------------------------------------


def cmd_frame(args: argparse.Namespace) -> int:
    if args.frame_cmd == "gen":
        frame = minimal_frame(args.levels, slack=tuple(args.slack) if args.slack else None)
        _emit({"frame": frame.to_doc(), "entries": _frame_entries(frame)}, args.out)
        return 0

    doc = _read_frame(args.path)
    if isinstance(doc, dict):
        frame_from_doc(doc)
        _emit({"valid": True, "rule": doc.get("rule")})
        return 0
    violations = validate_frame(frame_pairs(doc))
    _emit({"valid": not violations, "violations": violations})
    return 1 if violations else 0


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
    spec = load_spec(_read(args.config))
    root = bowen.bowen_parameter(spec)
    probes = ([float(spec.d), 0.99 * spec.d]
              if spec.is_frame_family and not spec.probabilities.is_finite else [0.0, root])
    _emit({"bowen": root, "mauldin": bowen.mauldin_dimension(spec),
           "hypothesis": check_bowen_hypothesis(spec),
           "verdicts": [{"t": t, **bowen.expected_log_fitness(spec, t).to_dict()}
                        for t in probes]}, args.out)
    return 0


# -- counterexample -----------------------------------------------------------


def _rows_to_csv(run: pressure.SeedRun) -> str:
    """One bound row per (special time, t); ``j_before`` and ``m`` are decimal
    when exact and their log2 otherwise, and ``m_form`` names m's form."""
    lines = ["n,record_pos,record_symbol,j_before,m,m_form,t,exponent,lhs,bound_rhs,holds,ratio"]
    for st, t, chk in run.checks:
        j, m = (str(x.as_int()) if x.is_exact else repr(x.log2) for x in (st.j_before, st.m))
        lines.append(f"{st.n},{st.record_pos},{st.record_symbol},{j},{m},"
                     f"{'dec' if st.m.is_exact else 'log2'},{t!r},{st.exponent!r},"
                     f"{chk.lhs!r},{chk.rhs!r},{'true' if chk.holds else 'false'},{st.ratio!r}")
    return "\n".join(lines) + "\n"


def cmd_counterexample(args: argparse.Namespace) -> int:
    spec = load_spec(_read(args.config))
    if not spec.is_frame_family:
        raise SpecValidationError("the counterexample experiment needs a frame-family config")
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    per_seed = []
    estimates = []
    violations = 0
    truncated_seeds = 0
    failed = 0
    for seed in args.seeds:
        record: dict = {"seed": seed}
        try:
            run = pressure.run_seed(spec, seed, args.horizon, args.pairs)
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
            _write([_rows_to_csv(run)], out_dir / f"seed_{seed}.csv")

    summary = {
        "bowen": bowen.bowen_parameter(spec),
        "d": spec.d,
        "seeds": len(args.seeds),
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
        # the constant grid stays until the rifs-lab/2 schema, as for
        # sample's domination_start
        "t_grid": pressure.T_GRID,
    }
    _emit(summary, (out_dir / "summary.json") if out_dir is not None else None)
    if out_dir is not None:
        _emit({"written": str(out_dir)})
    return 0 if failed == 0 else 1


# -- cover ---------------------------------------------------------------------


def cmd_cover(args: argparse.Namespace) -> int:
    """``cover exponents``, ``enum`` or ``points`` on one symbol prefix.

    ``points`` and ``enum`` check d and the depth before they enumerate, so
    that every number they print fits its format.  ``enum`` takes every byte
    from ``json.dumps(indent=2, sort_keys=True)`` of the document with two
    probe cubes whose corner values are ``"%d"``: the text before each value
    of the second cube is the cell prefix that :func:`cover.render_rows` puts
    before that column's values, and its blocks are written as they come, so
    the document is never held whole in memory.
    """
    # a generated frame extends on demand
    frame = frame_from_doc(_read_frame(args.frame)) if args.frame else minimal_frame(1)
    profile = pressure.build_branch_profile(args.symbols, frame, args.d)
    if args.cover_cmd == "exponents":
        pairs = cover.box_exponents(profile, args.depths)
        lines = ["m,exponent"] + [f"{m},{e!r}" for m, e in pairs]
        _write_text("\n".join(lines) + "\n", args.out, rows=len(pairs))
        return 0
    if args.cover_cmd == "points":
        cover.PointExportError.check(args.d, args.depth)
    elif args.d * args.depth > cover.MAX_ENUM_BITS:
        raise SpecValidationError(
            f"cover enum supports d * depth <= {cover.MAX_ENUM_BITS}, where its numbers "
            f"print; got {args.d} * {args.depth}")

    corners = cover.enumerate_cylinders(profile, args.depth, budget=args.budget)
    if args.cover_cmd == "points":
        _write_text(cover.emit_points(corners, args.depth), args.out, rows=len(corners))
        return 0

    parts = json.dumps({
        "schema": SCHEMA,
        "depth": args.depth,
        "count": len(corners),
        "osc": cover.osc_check(corners),
        "cubes": [{"level": args.depth, "corner": ["%d"] * args.d}] * 2,
    }, indent=2, sort_keys=True).split('"%d"')
    pieces = parts[args.d:-1]  # the text before each corner value of the second cube
    blocks = cover.render_rows(corners, lambda l, values: [
        pieces[l] + str(v) for v in values.tolist()])
    head = parts[0] + next(blocks)[len(pieces[0]):]  # the first cube follows the head
    _write(itertools.chain([head], blocks, [parts[-1] + "\n"]), args.out)
    return 0


# -- sample ----------------------------------------------------------------------


def cmd_sample(args: argparse.Namespace) -> int:
    if args.config:
        probs = load_spec(_read(args.config)).probabilities
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


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as :class:`SpecValidationError`, so that
    :func:`main` ends it in an error document; subparsers share the class."""

    def error(self, message: str):
        raise SpecValidationError(message)


def _bounded(low: int, *, many: bool = False):
    """A flag ``type``: an int at least ``low``, or with ``many`` a
    comma-separated list of them."""
    want = f"{'comma-separated int values' if many else 'one int'} >= {low}"

    def parse(text: str):
        try:
            values = [int(x) for x in text.split(",")] if many else [int(text)]
        except ValueError:
            values = [low - 1]  # fails the check below
        if min(values) < low:
            raise argparse.ArgumentTypeError(f"expects {want}, got {text!r}")
        return values if many else values[0]
    return parse


def _seeds(text: str) -> range:
    """The ``--seeds`` type: ``BASE[:COUNT]`` is seeds BASE..BASE+COUNT-1."""
    base, _, count = text.partition(":")
    try:
        seeds = range(int(base), int(base) + int(count or "1"))
    except ValueError:
        seeds = range(0)
    if not seeds or seeds.start < 0:
        raise argparse.ArgumentTypeError(
            f"expects BASE[:COUNT] with BASE >= 0 and COUNT >= 1, got {text!r}")
    return seeds


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call
    in the process; :func:`main` runs ``cmd_<command>`` for the command it
    parses, looked up when it runs."""
    parser = _Parser(
        prog="rifs-lab",
        description="Random IFS lab: frames, dimension solvers, and the "
                    "dimension-drop experiment.",
    )
    positive, positives = _bounded(1), _bounded(1, many=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_frame = sub.add_parser("frame", help="generate or validate frames")
    frame_sub = p_frame.add_subparsers(dest="frame_cmd", required=True)
    p_gen = frame_sub.add_parser("gen", help="generate a frame with tight axioms")
    p_gen.add_argument("--levels", type=positive, required=True)
    p_gen.add_argument("--slack", type=positive, nargs=2, metavar=("SU", "SV"),
                       help="multipliers on the tight choices")
    p_gen.add_argument("--out", type=Path)
    p_val = frame_sub.add_parser("validate", help="check a frame file")
    p_val.add_argument("path")

    p_dim = sub.add_parser("dimensions", help="Bowen and random-recursive dimensions")
    p_dim.add_argument("config", help="system config JSON")
    p_dim.add_argument("--out", type=Path)

    p_ce = sub.add_parser("counterexample",
                          help="per-seed dimension-drop experiment")
    p_ce.add_argument("config", help="frame-family config JSON")
    p_ce.add_argument("--seeds", type=_seeds, default="0", metavar="BASE[:COUNT]",
                      help="seeds BASE..BASE+COUNT-1 (COUNT defaults to 1)")
    p_ce.add_argument("--horizon", type=positive, default=10_000)
    p_ce.add_argument("--pairs", type=positive, default=2,
                      help="record pairs (special times) per seed")
    p_ce.add_argument("--out", help="directory for per-seed CSV + summary.json")

    p_cov = sub.add_parser("cover", help="cylinder covers of a fixed prefix")
    cov_sub = p_cov.add_subparsers(dest="cover_cmd", required=True)
    for name, helptext in (
        ("enum", "enumerate cylinder cubes"),
        ("exponents", "covering exponents d*B_m/m"),
        ("points", "emit corner/side CSV for plotting"),
    ):
        pc = cov_sub.add_parser(name, help=helptext)
        pc.add_argument("--symbols", type=positives, required=True, help="comma-separated prefix")
        pc.add_argument("--frame", help="frame file (JSON); default the minimal frame")
        pc.add_argument("--d", type=positive, default=1)
        pc.add_argument("--out", type=Path)
        if name == "exponents":
            pc.add_argument("--depths", type=positives, required=True,
                            help="comma-separated depths")
        else:
            pc.add_argument("--depth", type=positive, required=True)
            pc.add_argument("--budget", type=int, default=cover.DEFAULT_BUDGET)

    p_sam = sub.add_parser("sample", help="sample a scenery to CSV")
    p_sam.add_argument("config", nargs="?", help="optional config JSON for probabilities")
    p_sam.add_argument("--seed", type=_bounded(0), default=0)
    p_sam.add_argument("--horizon", type=positive, default=1000)
    p_sam.add_argument("--out", type=Path)

    # a missing subcommand is named by its choices, as usage names it, not by its dest
    for subs in (sub, frame_sub, cov_sub):
        subs.metavar = "{" + ",".join(subs.choices) + "}"
    return parser


#: Errors caused by outside input (a config, a flag, a frame file, an output
#: path) that end a command in an ``{"error": ...}`` document with exit 2.
#: Anything else is a fault of the program and propagates.
_INPUT_ERRORS = (SpecValidationError, FrameError, OSError, pressure.CoverageError,
                 cover.PointExportError, bowen.UnboundedDimensionError)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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

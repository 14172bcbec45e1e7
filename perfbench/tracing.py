"""Spans and counters recorded around the library's layers from outside.

The tracer replaces module-level functions and class methods of
``rifs_lab`` with wrappers for the duration of a traced phase and puts the
originals back afterwards; nothing inside the program changes.  Spans are
kept in memory, keyed by the seed (or the CLI command) they belong to, and
written out once at the end.  A span's self time is its duration minus the
time covered by its direct children.
"""

from __future__ import annotations

import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

#: Metric names reported per round, in output order.  Units live in
#: BENCHMARK.json; counts are per round, times are seconds per round.
SPAN_LAYERS = {
    "sampler.sample_scenery": "sampler.sample_scenery.self_s",
    "sampler.record_sequences": "sampler.record_sequences.self_s",
    "sampler.scenery_csv": "sampler.scenery_csv.self_s",
    "rifs.load_spec": "rifs.load_spec.self_s",
    "frame.entry": "frame.entry.self_s",
    "pressure.build_branch_profile": "pressure.build_branch_profile.self_s",
    "pressure.special_times": "pressure.special_times.self_s",
    "pressure.subsequence_bound_check": "pressure.subsequence_bound_check.self_s",
    "pressure.dim_upper_estimate": "pressure.dim_upper_estimate.self_s",
    "bowen.bowen_parameter": "bowen.bowen_parameter.self_s",
    "cover.enumerate_cylinders": "cover.enumerate_cylinders.self_s",
    "cover.osc_check": "cover.osc_check.self_s",
    "cover.emit_points": "cover.emit_points.self_s",
    "cli.rows_to_csv": "cli.rows_to_csv.self_s",
    "cli.emit": "cli.emit.self_s",
}

COUNTERS = [
    "sampler.sample_scenery.calls", "sampler.draws", "sampler.draws_read",
    "sampler.record_pairs", "sampler.degenerate_seeds", "sampler.rare_tail_errors",
    "sampler.csv_bytes", "rifs.prefix_cdf.calls", "frame.entry.calls",
    "frame.levels_materialized", "frame.depth_errors", "numerics.hybrid_ops",
    "numerics.log_form_results", "pressure.profile_runs", "pressure.special_times.calls",
    "pressure.subsequence_bound_check.calls", "cover.words", "cover.points_bytes",
]

# The CLI command span and the per-seed grouping span both count as CLI time.
_CLI = "cli"
_SEED = "seed"


class Tracer:
    """Installs wrappers, records spans and counts, and reports per layer."""

    def __init__(self):
        self.spans: list[list] = []  # [name, key, parent, start_ns, end_ns]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cdf_len = 0
        self.key: object = None      # key given to new spans
        self.cmd_key: object = None  # key of the running CLI command
        self._installed: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str, key: object = None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, self.key if key is None else key, parent,
                           perf_counter_ns(), 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter_ns()
        top = self.stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def close_seed(self) -> None:
        """End the open per-seed span, if the innermost span is one."""
        if self.stack and self.spans[self.stack[-1]][0] == _SEED:
            self.close(self.stack[-1])
            self.key = self.cmd_key

    # -- wrappers -----------------------------------------------------------

    def _install(self, owner, attr: str, wrapper) -> None:
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr: str, name: str, *, before=None, after=None,
             error=None) -> None:
        """Wrap ``owner.attr`` in a span; hooks see (args, kwargs[, result|exc])."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = self.open(name)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                self.close(idx)
                if error is not None:
                    error(args, kwargs, exc)
                raise
            self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        self._install(owner, attr, wrapper)

    def count(self, owner, attr: str, *, after=None, error=None) -> None:
        """Wrap ``owner.attr`` with hooks only, no span (for hot leaf calls)."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        def wrapper(*args, **kwargs):
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if error is not None:
                    error(args, kwargs, exc)
                raise
            if after is not None:
                after(args, kwargs, result)
            return result

        self._install(owner, attr, wrapper)

    def command(self, cli, attr: str) -> None:
        """A CLI command's span, keyed by the command; a seed span left open
        inside it ends with it."""
        orig = getattr(cli, attr)

        def wrapper(args):
            self.key = self.cmd_key = (f"cover {args.cover_cmd}" if args.command == "cover"
                                       else args.command)
            idx = self.open(_CLI)
            try:
                return orig(args)
            finally:
                self.close_seed()
                self.close(idx)
                self.key = self.cmd_key = None

        self._install(cli, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- reporting ------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round self times and counters, plus per-seed duration quantiles."""
        child = [0] * len(self.spans)
        for name, _key, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: Counter = Counter()
        seed_ms = []
        for i, (name, _key, _parent, t0, t1) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            self_ns[_CLI if name == _SEED else name] += own
            if name == _SEED:
                seed_ms.append((t1 - t0) / 1e6)
        out = {metric: self_ns[layer] / 1e9 / rounds for layer, metric in SPAN_LAYERS.items()}
        out["cli.self_s"] = self_ns[_CLI] / 1e9 / rounds
        for name in COUNTERS:
            out[name] = self.counts[name] / rounds
        draws = self.counts["sampler.draws"]
        out["sampler.draws_read_ratio"] = self.counts["sampler.draws_read"] / draws if draws else 0.0
        out["rifs.cdf_len"] = float(self.cdf_len)
        # The p99 of fewer than 1000 samples has under ten beyond it: reported as 0.
        out["cli.seed_ms.p50"] = statistics.median(seed_ms) if seed_ms else 0.0
        out["cli.seed_ms.p99"] = (statistics.quantiles(seed_ms, n=100)[98]
                                  if len(seed_ms) >= 1000 else 0.0)
        return out

    def write(self, path: Path) -> None:
        """One line per span: index, name, key, parent, start and end in ns."""
        with path.open("w") as fh:
            fh.write("span,name,key,parent,start_ns,end_ns\n")
            for i, (name, key, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{name},{key},{parent},{t0},{t1}\n")


def instrument(tracer: Tracer, lib) -> None:
    """Wrap every traced layer of the ``rifs_lab`` modules in ``lib``.

    ``lib`` maps short module names (cli, sampler, rifs, frame, numerics,
    pressure, bowen, cover) to the imported modules.
    """
    cli, sampler, rifs = lib["cli"], lib["sampler"], lib["rifs"]
    frame, numerics, pressure = lib["frame"], lib["numerics"], lib["pressure"]
    bowen, cover = lib["bowen"], lib["cover"]
    counts = tracer.counts

    def add(name: str, k: int = 1) -> None:
        counts[name] += k

    for cmd in ("cmd_counterexample", "cmd_cover", "cmd_sample"):
        tracer.command(cli, cmd)

    # -- sampler: a seed's span opens with its scenery draw
    def start_seed(args, kwargs):
        tracer.close_seed()
        seed = kwargs.get("seed", args[2] if len(args) > 2 else None)
        tracer.key = seed
        tracer.open(_SEED, seed)
        add("sampler.sample_scenery.calls")
        add("sampler.draws", int(kwargs.get("length", args[1] if len(args) > 1 else 0)))

    def rare_tail(args, kwargs, exc):
        if type(exc).__name__ == "RareTailError":
            add("sampler.rare_tail_errors")

    tracer.span(sampler, "sample_scenery", "sampler.sample_scenery",
                before=start_seed, error=rare_tail)

    def records(args, kwargs, res):
        path = args[0]
        add("sampler.record_pairs", len(res.pairs))
        add("sampler.degenerate_seeds", int(res.degenerate))
        if res.degenerate:
            read = int(path.symbols[res.pairs[-1].position - 1]) + 1 if res.pairs else res.start
        else:
            read = res.pairs[-1].window if res.pairs else 0
        add("sampler.draws_read", min(read, len(path.symbols)))

    tracer.span(sampler, "record_sequences", "sampler.record_sequences", after=records)
    tracer.span(sampler, "scenery_csv", "sampler.scenery_csv",
                after=lambda a, k, text: add("sampler.csv_bytes", len(text)))

    # -- rifs: the CLI imported load_spec by name, so both bindings are wrapped
    tracer.span(cli, "load_spec", "rifs.load_spec")
    tracer.span(rifs, "load_spec", "rifs.load_spec")

    def cdf(args, kwargs, res):
        add("rifs.prefix_cdf.calls")
        tracer.cdf_len = max(tracer.cdf_len, len(res))

    tracer.count(rifs.ProbVector, "prefix_cdf", after=cdf)

    # -- frame
    tracer.span(frame.Frame, "entry", "frame.entry",
                before=lambda a, k: add("frame.entry.calls"))

    def depth_error(args, kwargs, exc):
        if isinstance(exc, frame.FrameDepthError):
            add("frame.depth_errors")

    tracer.count(frame.Frame, "_extend_one",
                 after=lambda a, k, r: add("frame.levels_materialized"), error=depth_error)

    # -- numerics: counted only, these are the hottest calls
    def hybrid(args, kwargs, res):
        add("numerics.hybrid_ops")
        if res.exact is None:
            add("numerics.log_form_results")

    for op in ("add", "sub", "mul", "pow3"):
        tracer.count(numerics.HybridNumber, op, after=hybrid)

    # -- pressure
    tracer.span(pressure, "build_branch_profile", "pressure.build_branch_profile",
                after=lambda a, k, prof: add("pressure.profile_runs", prof.run_count))
    tracer.span(pressure, "special_times", "pressure.special_times",
                before=lambda a, k: add("pressure.special_times.calls"))
    tracer.span(pressure, "subsequence_bound_check", "pressure.subsequence_bound_check",
                before=lambda a, k: add("pressure.subsequence_bound_check.calls"))
    tracer.span(pressure, "dim_upper_estimate", "pressure.dim_upper_estimate")

    # -- bowen: runs after a sweep's last seed, so that seed's span ends first
    tracer.span(bowen, "bowen_parameter", "bowen.bowen_parameter",
                before=lambda a, k: tracer.close_seed())

    # -- cover
    tracer.span(cover, "enumerate_cylinders", "cover.enumerate_cylinders",
                after=lambda a, k, cubes: add("cover.words", len(cubes)))
    tracer.span(cover, "osc_check", "cover.osc_check")
    tracer.span(cover, "emit_points", "cover.emit_points",
                after=lambda a, k, text: add("cover.points_bytes", len(text)))

    # -- cli helpers
    tracer.span(cli, "_rows_to_csv", "cli.rows_to_csv")
    tracer.span(cli, "_emit", "cli.emit")

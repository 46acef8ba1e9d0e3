"""ENT benchmark: one seeded, layer-accounted run of one workload.

Run from the root of a checkout::

    python3 entbench/run.py --workload ent_exec --seed 7 --seconds 10 \\
        --trace 0

Workloads (``entbench/workloads.py``): ``ent_compile``, ``ent_exec``,
``fleet`` and ``paper_eval``.  Every input is a pure function of
``--seed``; every op's output is checked against a reference that does
not come from the code under test.

``--trace 0`` measures with tracing off and reports the end-to-end
metrics of ``BENCHMARK.json``: ``op_ms`` (per-cell median op time,
geometric mean over the workload's cells), ``setup_s`` and
``peak_rss_mb``.  The workload's own figures (``compile_ms``,
``exec_<engine>_ms``, ``profile_ms``, ``devices_per_s``,
``e1_s``..``e3_s``, ``failed_frac``) and a median/tail/count row per
cell are printed above the result line and written to
``entbench/out/``.

``--trace 1`` runs every op twice, untraced and then traced, and
reports the per-layer metrics: mean self time per op of each layer's
spans, counts per op, and the tracing overhead.  The spans go through
``repro.obs.tracer.Tracer`` and are exported as a Chrome trace.

Times are normalised by an interleaved CPU-speed probe (see
``entbench/stats.py``); the detail file records the scale factor, so
a raw time is the reported value divided by it.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Set-up repetitions; ``setup_s`` reports their median.
SETUP_REPS = 3

#: Imports timed in a fresh interpreter, normalised by that
#: interpreter's own speed probe; prints normalised seconds.
_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:3]
import workloads
seconds = time.perf_counter() - start
import stats
probe = stats.SpeedProbe()
for _ in range(10):
    probe.sample()
print(seconds * probe.factor())
"""

#: Spans kept for the exported Chrome trace (the rest are folded into
#: the per-layer sums and discarded).
EXPORT_SPANS = 50_000

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = (("op_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

#: (name, unit) of every per-layer metric, in BENCHMARK.json order.
_SELF = ("lexer", "parser", "typechecker", "analysis.obligations",
         "analysis.cost", "analysis.plan", "interp.construct", "bytecode",
         "jit", "exec.walk", "exec.vm", "exec.jit", "oracle", "spec",
         "device", "shard", "service.fold", "embedded.reset_device",
         "embedded.snapshot", "embedded.booted", "embedded.mcase",
         "platform.reset", "platform.cpu_work", "platform.net_bytes",
         "platform.sleep", "platform.drain", "workloads.execute", "eval",
         "bench")
_COUNTS = ("lexer.tokens", "parser.decls", "analysis.sites",
           "bytecode.bodies", "bytecode.instructions", "jit.compiles",
           "jit.bailouts", "jit.deopts", "checks.dfall", "checks.bound",
           "checks.shallow", "checks.elided", "checks.copies",
           "checks.messages", "fleet.steps", "embedded.snapshots",
           "embedded.dfall_checks", "embedded.energy_exceptions")
_RATIOS = ("analysis.elided_ratio", "embedded.dfall_memo_hit_ratio")
_OVERHEADS = ("prof.walk.overhead_x", "prof.vm.overhead_x",
              "prof.jit.overhead_x", "trace.overhead_x")
PER_LAYER = (tuple((f"{name}.self_ms", "ms") for name in _SELF)
             + tuple((name, "count") for name in _COUNTS)
             + tuple((name, "ratio") for name in _RATIOS)
             + (("fleet.step_us", "us"),)
             + tuple((name, "x") for name in _OVERHEADS))

#: Workload names (``workloads.WORKLOADS`` needs the repository).
WORKLOADS = ("ent_compile", "ent_exec", "fleet", "paper_eval")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(BENCH / "out"),
                        help="directory for the detail and trace files")
    return parser.parse_args(argv)


def _import_seconds() -> float:
    """Median normalised import time over ``SETUP_REPS`` fresh
    interpreters (imports cannot be repeated in this process)."""
    import subprocess
    import stats
    times = []
    for _ in range(SETUP_REPS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"),
             str(BENCH)], capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(done.stdout.split()[-1]))
    return stats.median(times)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Layers:
    """Per-op self times and counts of the traced ops."""

    def __init__(self) -> None:
        #: One {span name: self seconds} dict per traced op.
        self.per_op = []
        self.counts = defaultdict(int)
        self.device_s = 0.0
        self.ops = 0
        self.residual_violations = 0
        self.traced_s = 0.0
        self.untraced_s = 0.0
        self.exported = []

    def fold(self, spans, counts, untraced_s, tolerance) -> None:
        from tracing import self_times
        own, inclusive, residual = self_times(spans)
        if abs(residual) > tolerance:
            self.residual_violations += 1
        self.per_op.append(own)
        self.ops += 1
        for name, value in counts.items():
            self.counts[name] += value
        self.device_s += inclusive.get("device", 0.0)
        self.traced_s += sum(s.dur for s in spans
                             if s.args["parent"] == 0)
        self.untraced_s += untraced_s
        if len(self.exported) < EXPORT_SPANS:
            self.exported.extend(spans[:EXPORT_SPANS - len(self.exported)])

    def metrics(self, scale: float, prof_overheads) -> dict:
        from repro.advise.propagate import Uncertain
        ops = max(self.ops, 1)
        out, detail = {}, {}
        for name in _SELF:
            ms = [own.get(name, 0.0) * scale * 1e3
                  for own in self.per_op] or [0.0]
            spread = Uncertain.from_samples(ms)
            # The interval of the mean per op, not of one op's draw.
            value = Uncertain(spread.mean, spread.var / spread.n, spread.n)
            out[f"{name}.self_ms"] = value.mean
            detail[f"{name}.self_ms"] = value.as_dict(digits=6)
        for name in _COUNTS:
            out[name] = self.counts.get(name, 0) / ops
            detail[name] = {"total": self.counts.get(name, 0),
                            "ops": self.ops}
        c = self.counts
        out["analysis.elided_ratio"] = (
            c["analysis.elided"] / c["analysis.sites"]
            if c["analysis.sites"] else 0.0)
        out["embedded.dfall_memo_hit_ratio"] = (
            c["embedded.dfall_memo_hits"] / c["embedded.dfall_checks"]
            if c["embedded.dfall_checks"] else 0.0)
        out["fleet.step_us"] = (self.device_s * scale * 1e6
                                / c["fleet.steps"]
                                if c["fleet.steps"] else 0.0)
        for engine in ("walk", "vm", "jit"):
            out[f"prof.{engine}.overhead_x"] = prof_overheads.get(engine,
                                                                  0.0)
        out["trace.overhead_x"] = (self.traced_s / self.untraced_s
                                   if self.untraced_s else 0.0)
        return out, detail


def _unmeasured(workload: str, layers: _Layers) -> dict:
    notes = {
        "fleet.scaling": f"multi-shard fleet runs are out of scope: every "
                         f"workload runs in one process (shards=1), and "
                         f"this host has {os.cpu_count()} cores",
    }
    if layers.counts.get("jit.deopts_unmeasured"):
        notes["jit.deopts"] = "the JIT tier exposes no jit_deopts counter"
    if workload != "ent_exec":
        notes["prof.*.overhead_x"] = "only ent_exec runs the profiler"
    return notes


class _Run:
    """What the timed region produced."""

    def __init__(self) -> None:
        #: cell key -> one dict of timed parts per successful op.
        self.samples = defaultdict(list)
        self.layers = _Layers()
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def op(self, cell, rec=None):
        """Run one op; returns its wall seconds, or None if it failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            parts = cell.run(rec)
        except Exception as exc:  # noqa: BLE001 - an op failure
            self.failed += 1
            traced = " (traced)" if rec is not None else ""
            self.errors.append(f"{cell.key}{traced}: {exc!r}")
            return None
        if rec is None:
            self.samples[cell.key].append(parts)
        return time.perf_counter() - start


def _measure(workload, seconds: float, trace: bool, probe) -> _Run:
    """Round-robin over the cells until ``seconds`` have passed (whole
    rounds only).  Traced runs follow each op with a traced twin."""
    import tracing
    cells = workload.cells()
    run = _Run()
    rec = wrappers = None
    if trace:
        rec = tracing.SpanRecorder()
        wrappers = tracing.Wrappers(rec)
    deadline = time.perf_counter() + seconds
    while True:
        for cell in cells:
            probe.maybe_sample()
            untraced_s = run.op(cell)
            if rec is None or untraced_s is None:
                continue
            rec.begin_op(run.attempted + 1)
            wrappers.install()
            try:
                run.op(cell, rec)
            finally:
                wrappers.remove()
                tracing.finish_runtimes(rec)
                spans = rec.end_op()
            run.layers.fold(spans, rec.counts, untraced_s,
                            tracing.SELF_TIME_TOLERANCE_S)
        if time.perf_counter() >= deadline:
            break
    extra, extra_failed, extra_errors = workload.finish()
    run.attempted += extra
    run.failed += extra_failed
    run.errors.extend(extra_errors)
    return run


def _end_to_end(workload, run: _Run, scale: float, setup_s: float):
    """(metrics, detail figures, printed lines) of an untraced run."""
    import stats
    samples = run.samples
    figures = dict(workload.metrics(samples, scale))
    op_ms = stats.geomean([
        stats.median([s["total"] for s in ops])
        for ops in samples.values()]) * scale * 1e3
    figures["failed_frac"] = (run.failed / run.attempted, "ratio")
    values = {"op_ms": op_ms, "setup_s": setup_s,
              "peak_rss_mb": _peak_rss_mb()}
    figures.update({name: (values[name], unit)
                    for name, unit in END_TO_END})
    lines = []
    for key, ops in sorted(samples.items()):
        for part in ops[0]:
            row = stats.summary([s[part] for s in ops], scale * 1e3)
            tail = row["tail"]
            tail = ("n/a" if tail is None
                    else f"p{tail['pct']:g}={tail['value']:.4f}")
            lines.append(f"cell {key} {part}_ms median={row['median']:.4f} "
                         f"tail={tail} n={row['n']}")
    for name in workload.figures + ("failed_frac",) + tuple(
            name for name, _ in END_TO_END):
        value, unit = figures[name]
        lines.append(f"metric {name} {value:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    return metrics, figures, lines


def _per_layer(workload, run: _Run, scale: float):
    """(metrics, detail, printed lines) of a traced run."""
    overheads = {}
    if workload.name == "ent_exec":
        overheads = workload.profiler_overheads(run.samples)
    values, detail = run.layers.metrics(scale, overheads)
    lines = []
    for name, unit in PER_LAYER:
        line = f"layer {name} {values[name]:.6g} {unit}"
        info = detail.get(name, {})
        if "ci_hi" in info:
            line += (f" (99% CI {info['ci_lo']:.6g}..{info['ci_hi']:.6g}, "
                     f"n={info['n']})")
        elif "total" in info:
            line += f" (total {info['total']} over {info['ops']} ops)"
        lines.append(line)
    unmeasured = _unmeasured(workload.name, run.layers)
    for name, reason in unmeasured.items():
        lines.append(f"unmeasured {name}: {reason}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in PER_LAYER}
    return metrics, {"layers": detail, "unmeasured": unmeasured}, lines


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"entbench: no repro package under {ROOT / 'src'}; run "
              f"from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import stats
    import tracing
    import workloads
    import_s = _import_seconds()

    probe = stats.SpeedProbe()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    setup_reps = []
    for _ in range(SETUP_REPS):
        probe.sample()
        start = time.perf_counter()
        workload.setup()
        setup_reps.append(time.perf_counter() - start)
    run = _measure(workload, args.seconds, bool(args.trace), probe)
    probe.sample()
    scale = probe.factor()

    errors = run.errors
    missing = [c.key for c in workload.cells() if not run.samples[c.key]]
    errors += [f"{key}: no successful op" for key in missing]
    if run.layers.residual_violations:
        errors.append(f"{run.layers.residual_violations} traced ops whose "
                      f"self times do not sum to the op duration")
    correct = run.failed == 0 and not missing \
        and not run.layers.residual_violations
    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": {"cpu_count": os.cpu_count(),
                 "python": platform.python_version()},
        "probe": {"seconds": probe.seconds(), "scale": scale,
                  "loops_s": [stats.median(s) for s in probe.samples],
                  "samples": len(probe.samples[0])},
        "setup": {"import_s": import_s, "reps_s": setup_reps},
        "self_time_tolerance_s": tracing.SELF_TIME_TOLERANCE_S,
        "errors": errors[:50],
        "cells": {key: {part: stats.summary([s[part] for s in ops],
                                            scale * 1e3)
                        for part in ops[0]}
                  for key, ops in sorted(run.samples.items())},
    }
    lines = [f"host cpu_count={os.cpu_count()} "
             f"python={platform.python_version()} probe_scale={scale:.4f}"]
    lines += [f"error {error}" for error in errors[:20]]
    metrics = {}
    if missing:
        pass  # no figures without every cell: the result says why
    elif args.trace:
        metrics, layer_detail, more = _per_layer(workload, run, scale)
        detail.update(layer_detail)
        lines += more
    else:
        setup_s = import_s + stats.median(setup_reps) * scale
        metrics, figures, more = _end_to_end(workload, run, scale, setup_s)
        detail["figures"] = {name: {"value": value, "unit": unit}
                             for name, (value, unit) in figures.items()}
        lines += more

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(detail, handle, indent=1, sort_keys=True)
    if args.trace:
        from repro.obs.export import write_trace
        write_trace(run.layers.exported, str(out / f"{stem}.chrome.json"),
                    fmt="chrome")
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - set-up errors: no result line
        traceback.print_exc()
        sys.exit(1)

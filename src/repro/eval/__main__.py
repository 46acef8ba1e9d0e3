"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.eval figure9                 # print one figure
    python -m repro.eval figure8 --jobs 0        # fan out across cores
    python -m repro.eval all                     # print every artifact
    python -m repro.eval export --dir results    # write .json + .txt
    python -m repro.eval drain --benchmark jspider crypto --jobs 2
    python -m repro.eval episode --experiment e3 --benchmark sunflow \\
        --trace /tmp/e3.jsonl            # traced single episode

Every row of :data:`repro.eval.export.ARTIFACTS` prints under ``all``
exactly as ``export`` writes it to ``results/<name>.txt``, and each
figure row also has a subcommand of its own.  ``stddev_bands`` and the
two ablations keep their protocol's seeds and run no traced episodes,
so ``--seed`` and ``--trace`` reach the figures only.  ``--jobs N``
fans the episode grid out over a process pool (``0`` = one worker per
core; results are bit-identical to serial — see
:mod:`repro.eval.parallel`).
``episode`` runs one E1/E2/E3 episode with a tracer attached and writes
the event trace (analyse it with ``python -m repro obs report``); the
figure commands accept ``--trace`` too, with per-worker rings merged
into one stream.  Errors go through :func:`repro.cli.guarded`, the
handler ``python -m repro eval`` uses, so both report them alike.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cli import bounded_float, bounded_int, guarded
from repro.eval.config import e3_benchmarks
from repro.eval.export import ARTIFACTS
from repro.obs.export import opened, write_trace
from repro.workloads.base import BATTERY_MODES
from repro.workloads.registry import ALL_WORKLOADS

_JOBS_HELP = "parallel episode workers (default: serial, 0 = all cores)"
_SEED_HELP = ("figure episode seed (stddev_bands and the ablations keep "
              "their protocol's seeds)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.eval",
        description="Regenerate the ENT paper's evaluation "
                    "(Figures 6-11, section 5's bands, ablations)")
    sub = parser.add_subparsers(dest="command", required=True)
    workloads = [workload.name for workload in ALL_WORKLOADS]

    figures = [name for name in ARTIFACTS if name.startswith("figure")]
    for name in (*figures, "all"):
        cmd = sub.add_parser(name, help=f"print {name}")
        cmd.add_argument("--seed", type=int, default=0,
                         help=_SEED_HELP if name == "all" else None)
        cmd.add_argument("--jobs", type=bounded_int(0), default=None,
                         help=_JOBS_HELP)
        cmd.add_argument("--trace", metavar="PATH", default=None,
                         help="record the (merged) figure episode trace")
        cmd.add_argument("--trace-format", choices=["jsonl", "chrome"],
                         default="jsonl")
        cmd.add_argument("--trace-capacity", type=bounded_int(1),
                         default=262144)
        artifact = ARTIFACTS.get(name)
        if artifact is not None and artifact.benchmarks is not None:
            cmd.add_argument("--benchmarks", nargs="*", default=None,
                             choices=artifact.benchmarks,
                             help="restrict to these benchmarks")

    export = sub.add_parser(
        "export", help="write every artifact as .json and .txt")
    export.add_argument("--dir", default="results")
    export.add_argument("--seed", type=int, default=0, help=_SEED_HELP)
    export.add_argument("--figures", nargs="*", default=None,
                        choices=ARTIFACTS)
    export.add_argument("--jobs", type=bounded_int(0), default=None,
                        help=_JOBS_HELP)

    drain = sub.add_parser(
        "drain", help="adaptive run across a battery discharge")
    drain.add_argument("--benchmark", nargs="+", default=["jspider"],
                       choices=workloads,
                       help="benchmark(s); several run as a sweep")
    drain.add_argument("--system", choices=["A", "B", "C"], default="A")
    drain.add_argument("--iterations", type=bounded_int(1), default=40)
    drain.add_argument("--battery-scale",
                       type=bounded_float(0.0, open_lo=True),
                       default=0.003)
    drain.add_argument("--seed", type=int, default=0)
    drain.add_argument("--jobs", type=bounded_int(0), default=None,
                       help=_JOBS_HELP)

    episode = sub.add_parser(
        "episode", help="run one traced E1/E2/E3 episode")
    episode.add_argument("--experiment", choices=["e1", "e2", "e3"],
                         required=True)
    episode.add_argument("--benchmark", default=None, choices=workloads,
                         help="workload name (default: jspider for "
                              "e1/e2, sunflow for e3)")
    episode.add_argument("--system", choices=["A", "B", "C"], default="A",
                         help="platform (e1/e2; e3 always runs on A)")
    episode.add_argument("--boot", default="full_throttle",
                         choices=BATTERY_MODES, help="boot mode (e1/e2)")
    episode.add_argument("--workload-mode", default="full_throttle",
                         choices=BATTERY_MODES,
                         help="workload attribution mode (e1/e2)")
    episode.add_argument("--variant", choices=["ent", "java"],
                         default="ent", help="e3 variant")
    episode.add_argument("--units", type=bounded_int(1), default=None,
                         help="e3 work units (default: benchmark's)")
    episode.add_argument("--silent", action="store_true",
                         help="e1 silent build")
    episode.add_argument("--seed", type=int, default=0)
    episode.add_argument("--trace", metavar="PATH", required=True,
                         help="write the episode trace to PATH")
    episode.add_argument("--trace-format", choices=["jsonl", "chrome"],
                         default="jsonl")
    episode.add_argument("--trace-capacity", type=bounded_int(1),
                         default=65536)

    return parser


def _run_episode(args, trace_out) -> int:
    from repro.eval.runner import (run_e1_episode, run_e2_episode,
                                   run_e3_episode)
    from repro.obs.tracer import Tracer
    from repro.workloads import get_workload

    default_bench = "sunflow" if args.experiment == "e3" else "jspider"
    workload = get_workload(args.benchmark or default_bench)
    tracer = Tracer(capacity=args.trace_capacity)
    if args.experiment == "e1":
        result = run_e1_episode(workload, args.system, args.boot,
                                args.workload_mode, silent=args.silent,
                                seed=args.seed, tracer=tracer)
        summary = (f"e1 {result.benchmark} system={result.system} "
                   f"boot={result.boot_mode} "
                   f"workload={result.workload_mode} "
                   f"qos={result.qos_mode} "
                   f"exception={result.exception_raised} "
                   f"E={result.energy_j:.2f}J "
                   f"t={result.duration_s:.3f}s")
    elif args.experiment == "e2":
        result = run_e2_episode(workload, args.system, args.boot,
                                args.workload_mode, seed=args.seed,
                                tracer=tracer)
        summary = (f"e2 {result.benchmark} system={result.system} "
                   f"boot={result.boot_mode} qos={result.qos_mode} "
                   f"E={result.energy_j:.2f}J "
                   f"t={result.duration_s:.3f}s")
    else:
        result = run_e3_episode(workload, variant=args.variant,
                                seed=args.seed, units=args.units,
                                tracer=tracer)
        summary = (f"e3 {result.benchmark} variant={result.variant} "
                   f"sleeps={result.sleeps} "
                   f"E={result.energy_j:.2f}J "
                   f"t={result.duration_s:.3f}s")
    count = write_trace(tracer.events(), trace_out,
                        fmt=args.trace_format)
    print(summary)
    print(f"trace: {count} events -> {args.trace} "
          f"({args.trace_format}, {tracer.dropped} dropped)")
    return 0


def _figure_tracer(args):
    """A Tracer when ``--trace`` was given, else None (NULL)."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs.tracer import Tracer
    return Tracer(capacity=args.trace_capacity)


def _write_figure_trace(args, tracer, trace_out) -> None:
    if tracer is None:
        return
    count = write_trace(tracer.events(), trace_out,
                        fmt=args.trace_format)
    print(f"[trace: {count} events -> {args.trace} "
          f"({args.trace_format}, {tracer.dropped} dropped)]",
          file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "export":
        from repro.eval.export import export_all
        written = export_all(directory=args.dir, seed=args.seed,
                             figures=args.figures, jobs=args.jobs)
        for name, paths in written.items():
            print(f"{name}: {' '.join(paths)}")
        return 0
    if args.command == "drain":
        from repro.eval.sweeps import drain_sweep
        runs = drain_sweep(args.benchmark, systems=(args.system,),
                           iterations=args.iterations,
                           battery_scale=args.battery_scale,
                           seed=args.seed, jobs=args.jobs)
        for run in runs:
            print(f"{run.benchmark} on System {run.system}: "
                  f"{len(run.steps)} iterations")
            for step in run.steps:
                print(f"  {step.index:>3} "
                      f"battery={step.battery_before:.0%} "
                      f"mode={step.boot_mode:<14} "
                      f"qos={step.qos_mode:<14} "
                      f"E={step.energy_j:.1f}J")
            print(f"monotone downward: {run.monotone_downward()}")
        return 0
    if args.command == "episode":
        if (args.experiment == "e3" and args.benchmark is not None
                and args.benchmark not in e3_benchmarks()):
            parser.error(f"argument --benchmark: {args.benchmark} has no "
                         f"unit-of-work decomposition for e3 (choose "
                         f"from {', '.join(e3_benchmarks())})")
        # The trace path opens before the episode runs, so a bad path
        # fails at once rather than after the work.
        with opened(args.trace) as trace_out:
            return _run_episode(args, trace_out)
    tracer = _figure_tracer(args)
    everything = args.command == "all"
    with opened(args.trace) as trace_out:
        for name in ARTIFACTS if everything else [args.command]:
            artifact = ARTIFACTS[name]
            print(artifact.to_text(artifact.compute(
                args.seed, args.jobs, tracer,
                getattr(args, "benchmarks", None))))
            if everything:
                print()
        _write_figure_trace(args, tracer, trace_out)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(guarded(main))

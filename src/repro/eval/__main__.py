"""Regenerate the paper's tables and figures from the command line.

Usage::

    python -m repro.eval figure9                 # print one figure
    python -m repro.eval figure8 --jobs 0        # fan out across cores
    python -m repro.eval all                     # print everything
    python -m repro.eval export --dir results    # write JSON data
    python -m repro.eval drain --benchmark jspider crypto --jobs 2
    python -m repro.eval episode --experiment e3 --benchmark sunflow \\
        --trace /tmp/e3.jsonl            # traced single episode

Figures print in the same text form the benchmark harness writes to
``results/figure*.txt``.  ``--jobs N`` fans the episode grid out over a
process pool (``0`` = one worker per core; results are bit-identical
to serial — see :mod:`repro.eval.parallel`).  ``episode`` runs one
E1/E2/E3 episode with a tracer attached and writes the event trace
(analyse it with ``python -m repro obs report``); the figure commands
accept ``--trace`` too, with per-worker rings merged into one stream.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.eval",
        description="Regenerate the ENT paper's evaluation "
                    "(Figures 6-11)")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("figure6", "figure7", "figure8", "figure9", "figure10",
                 "figure11", "all"):
        cmd = sub.add_parser(name, help=f"regenerate {name}")
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--jobs", type=int, default=None,
                         help="parallel episode workers (default: "
                              "serial, 0 = all cores)")
        cmd.add_argument("--trace", metavar="PATH", default=None,
                         help="record the (merged) episode trace")
        cmd.add_argument("--trace-format", choices=["jsonl", "chrome"],
                         default="jsonl")
        cmd.add_argument("--trace-capacity", type=int, default=262144)
        if name in ("figure8", "figure11"):
            cmd.add_argument("--benchmarks", nargs="*", default=None,
                             help="restrict to these benchmarks")

    export = sub.add_parser("export", help="write figure data as JSON")
    export.add_argument("--dir", default="results")
    export.add_argument("--seed", type=int, default=0)
    export.add_argument("--figures", nargs="*", default=None)
    export.add_argument("--jobs", type=int, default=None,
                        help="parallel episode workers (default: "
                             "serial, 0 = all cores)")

    drain = sub.add_parser(
        "drain", help="adaptive run across a battery discharge")
    drain.add_argument("--benchmark", nargs="+", default=["jspider"],
                       help="benchmark(s); several run as a sweep")
    drain.add_argument("--system", default="A")
    drain.add_argument("--iterations", type=int, default=40)
    drain.add_argument("--battery-scale", type=float, default=0.003)
    drain.add_argument("--seed", type=int, default=0)
    drain.add_argument("--jobs", type=int, default=None,
                       help="parallel sweep workers (default: serial, "
                            "0 = all cores)")

    from repro.lang.engines import ENGINES

    advise = sub.add_parser(
        "advise",
        help="Pareto mode advisor over a battery episode grid "
             "(repro.advise; docs/ADVISE.md)")
    advise.add_argument("--file", default="examples/ent/crawler.ent",
                        help="ENT program to advise "
                             "(default examples/ent/crawler.ent)")
    advise.add_argument("--system", choices=["A", "B", "C"],
                        default="A")
    advise.add_argument("--batteries", type=float, nargs="+",
                        default=[1.0, 0.6, 0.3],
                        help="battery levels forming the episode "
                             "grid (default 1.0 0.6 0.3)")
    advise.add_argument("--arch",
                        choices=["sim45nm", "skylake", "cortex-a53"],
                        default="sim45nm")
    advise.add_argument("--engine", default=None,
                        choices=list(ENGINES))
    advise.add_argument("--runs", type=int, default=2,
                        help="calibration runs per battery level")
    advise.add_argument("--samples", type=int, default=128,
                        help="Monte-Carlo draws per pinned class")
    advise.add_argument("--seed", type=int, default=0)
    advise.add_argument("--jobs", type=int, default=None,
                        help="parallel calibration workers (default: "
                             "serial, 0 = all cores; results are "
                             "bit-identical for any value)")
    advise.add_argument("--json", action="store_true",
                        help="emit the full result as one JSON object")

    episode = sub.add_parser(
        "episode", help="run one traced E1/E2/E3 episode")
    episode.add_argument("--experiment", choices=["e1", "e2", "e3"],
                         required=True)
    episode.add_argument("--benchmark", default=None,
                         help="workload name (default: jspider for "
                              "e1/e2, sunflow for e3)")
    episode.add_argument("--system", choices=["A", "B", "C"], default="A",
                         help="platform (e1/e2; e3 always runs on A)")
    episode.add_argument("--boot", default="full_throttle",
                         help="boot mode (e1/e2)")
    episode.add_argument("--workload-mode", default="full_throttle",
                         help="workload attribution mode (e1/e2)")
    episode.add_argument("--variant", choices=["ent", "java"],
                         default="ent", help="e3 variant")
    episode.add_argument("--units", type=int, default=None,
                         help="e3 work units (default: benchmark's)")
    episode.add_argument("--silent", action="store_true",
                         help="e1 silent build")
    episode.add_argument("--seed", type=int, default=0)
    episode.add_argument("--trace", metavar="PATH", required=True,
                         help="write the episode trace to PATH")
    episode.add_argument("--trace-format", choices=["jsonl", "chrome"],
                         default="jsonl")
    episode.add_argument("--trace-capacity", type=int, default=65536)

    return parser


def _run_advise(args) -> int:
    """Advise over a battery episode grid (``repro.eval advise``).

    The grid plays the role of the drain sweep's episodes: each
    candidate assignment is calibrated at every battery level, so the
    frontier reflects the program's behaviour across the discharge,
    not a single lucky episode.  Output is bit-identical for any
    ``--jobs`` value.
    """
    from repro.advise import AdviseConfig, advise_file, builtin_model
    from repro.lang.engines import resolve_engine

    config = AdviseConfig(
        arch=args.arch,
        engine=resolve_engine(args.engine),
        system=args.system,
        seed=args.seed,
        runs=args.runs,
        samples=args.samples,
        batteries=tuple(args.batteries),
        jobs=args.jobs if args.jobs is not None else 1)
    result = advise_file(args.file, config=config,
                         model=builtin_model(args.arch))
    if args.json:
        print(result.to_json())
    else:
        print(result.render())
    return 0


def _run_episode(args) -> int:
    from repro.eval.runner import (run_e1_episode, run_e2_episode,
                                   run_e3_episode)
    from repro.obs.export import write_trace
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
    count = write_trace(tracer.events(), args.trace,
                        fmt=args.trace_format)
    print(summary)
    print(f"trace: {count} events -> {args.trace} "
          f"({args.trace_format}, {tracer.dropped} dropped)")
    return 0


def _print_figure(name: str, seed: int, jobs=None, tracer=None,
                  benchmarks=None) -> None:
    from repro.eval import (figure6, figure8, figure9, figure10,
                            figure11, format_figure6, format_figure7,
                            format_figure8, format_figure9,
                            format_figure10, format_figure11)
    if name == "figure6":
        print(format_figure6(figure6(seed=seed)))
    elif name == "figure7":
        print(format_figure7())
    elif name == "figure8":
        print(format_figure8(figure8("A", seed=seed, jobs=jobs,
                                     tracer=tracer,
                                     benchmarks=benchmarks)))
    elif name == "figure9":
        print(format_figure9(figure9(seed=seed, jobs=jobs,
                                     tracer=tracer)))
    elif name == "figure10":
        print(format_figure10(figure10(seed=seed, jobs=jobs,
                                       tracer=tracer)))
    elif name == "figure11":
        print(format_figure11(figure11(seed=seed, jobs=jobs,
                                       tracer=tracer,
                                       benchmarks=benchmarks)))


def _figure_tracer(args):
    """A Tracer when ``--trace`` was given, else None (NULL)."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs.tracer import Tracer
    return Tracer(capacity=args.trace_capacity)


def _write_figure_trace(args, tracer) -> None:
    if tracer is None:
        return
    from repro.obs.export import write_trace
    count = write_trace(tracer.events(), args.trace,
                        fmt=args.trace_format)
    print(f"[trace: {count} events -> {args.trace} "
          f"({args.trace_format}, {tracer.dropped} dropped)]",
          file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "all":
        tracer = _figure_tracer(args)
        for name in ("figure7", "figure6", "figure8", "figure9",
                     "figure10", "figure11"):
            _print_figure(name, args.seed, jobs=args.jobs, tracer=tracer)
            print()
        _write_figure_trace(args, tracer)
        return 0
    if args.command == "export":
        from repro.eval.export import export_all
        written = export_all(directory=args.dir, seed=args.seed,
                             figures=args.figures, jobs=args.jobs)
        for name, path in written.items():
            print(f"{name}: {path}")
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
    if args.command == "advise":
        return _run_advise(args)
    if args.command == "episode":
        return _run_episode(args)
    tracer = _figure_tracer(args)
    _print_figure(args.command, args.seed, jobs=args.jobs, tracer=tracer,
                  benchmarks=getattr(args, "benchmarks", None))
    _write_figure_trace(args, tracer)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

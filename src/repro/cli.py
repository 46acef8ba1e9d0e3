"""Command-line interface for the ENT language.

Usage (installed as ``python -m repro``)::

    python -m repro check  program.ent          # typecheck only
    python -m repro run    program.ent [args]   # typecheck + run
    python -m repro analyze program.ent         # residual-check report
    python -m repro analyze --embedded prog.py  # lint embedded-API code
    python -m repro disasm program.ent          # register bytecode
    python -m repro pretty program.ent          # parse + pretty-print
    python -m repro tokens program.ent          # lex only
    python -m repro obs report trace.jsonl      # analyse a trace
    python -m repro obs convert t.jsonl t.json  # JSONL -> Perfetto
    python -m repro profile program.ent         # cross-engine profiler
    python -m repro eval figure8 --jobs 0       # parallel evaluation
    python -m repro fleet run --devices 100000 --shards 8
                                                # fleet-scale simulation

``run`` options mirror the paper's build/runtime configurations:

    --silent        ignore EnergyExceptions (the E1 silent build)
    --baseline      no tagging bookkeeping (the Figure 6 baseline)
    --eager-copy    disable the lazy-copy optimization
    --system A|B|C  attach a platform simulator (battery/thermal/energy)
    --battery F     initial battery fraction for the platform
    --seed N        RNG / platform seed
    --stats         print run statistics as one JSON object (stderr);
                    under --engine jit it carries the tier counters
    --no-elide      keep every dynamic check (disable repro.analysis)
    --engine E      execution engine: walk, vm or jit
                    (docs/VM.md, docs/PERFORMANCE.md)

``disasm`` lowers a program to the VM's register bytecode and
pretty-prints every body with check-instruction annotations; with the
elision planner on (the default), proven-safe checks are annotated
as elided.  ``disasm --jit`` runs the program under the JIT tier
first, then prints the specialized Python source the JIT emitted for
each body (bodies that never got hot are emitted speculatively from
their cold inline caches), followed by each loop region the JIT
compiled on its own (``;; Body loop@head``).

``analyze`` runs the static-analysis subsystem (``repro.analysis``)
and prints one line per dynamic-check obligation — elided checks are
the ones ``run`` skips; residual ones name the reason they must stay.
``--json`` emits the machine-readable report, ``--embedded`` routes a
Python file through the embedded-API linter instead (see
``docs/ANALYSIS.md``).

``fleet run`` simulates a whole device population — each device a
platform model plus an embedded-ENT workload plus a drain profile —
sharded across worker processes (docs/FLEET.md).  Aggregates are
bit-identical for any ``--shards`` value; ``--metrics-out`` exports
them in Prometheus text format.

Output paths (``--trace``, ``--out``, ``--metrics-out``) are opened
before the work, so a path that cannot be written fails at once.

``run`` observability options (see ``docs/OBSERVABILITY.md``):

    --trace PATH            record a trace of the run to PATH
    --trace-format FORMAT   "jsonl" (default; for ``repro obs report``)
                            or "chrome" (opens in Perfetto /
                            ``chrome://tracing``)

``obs report`` renders the mode timeline, per-mode dwell times, the
energy-attribution table, and trace-derived counters/histograms from a
JSONL trace; ``--scope`` selects a specific timeline (``closure`` or
``object:<Class>``).

``profile`` runs a program under the cross-engine profiler
(docs/PROFILING.md): per-opcode/node time, call-site inline-cache hit
rates (vm), and per-check-site residual counts, plus the
static-vs-observed diff against the elision planner's predictions
(exit 4 if a check fired at a site the analysis marked elided).
``--energy`` joins the profile with the platform's energy meter;
``--out``/``--format`` export JSON, collapsed stacks (flamegraphs), or
a Chrome ``trace_event`` file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, List, Optional

from repro.core.errors import EnergyException, EntError
from repro.lang.engines import ENGINES, resolve_engine
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.pretty import pretty_program
from repro.lang.typechecker import check_program
from repro.obs.export import opened


def bounded_float(lo: float, hi: float = math.inf, *,
                  open_lo: bool = False):
    """An argparse ``type=``: a finite float in ``[lo, hi]`` (``(lo,
    hi]`` with ``open_lo``), so a bad value is a usage error naming
    its flag rather than a traceback from deep inside a run."""
    def parse(text: str) -> float:
        value = float(text)
        above = lo < value if open_lo else lo <= value
        if not (math.isfinite(value) and above and value <= hi):
            left = "(" if open_lo else "["
            right = "]" if math.isfinite(hi) else ")"
            raise argparse.ArgumentTypeError(
                f"must be in {left}{lo:g}, {hi:g}{right}, got {text!r}")
        return value
    parse.__name__ = "float"
    return parse


def bounded_int(lo: int):
    """An argparse ``type=``: an integer ``>= lo``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(
                f"must be >= {lo}, got {text!r}")
        return value
    parse.__name__ = "int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="The ENT energy-aware language (PLDI 2017 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="typecheck a program")
    check.add_argument("file")

    run = sub.add_parser("run", help="typecheck and run a program")
    run.add_argument("file")
    run.add_argument("args", nargs="*", help="arguments passed to main")
    run.add_argument("--silent", action="store_true",
                     help="ignore EnergyExceptions (E1 silent build)")
    run.add_argument("--baseline", action="store_true",
                     help="disable runtime tagging (Fig 6 baseline)")
    run.add_argument("--eager-copy", action="store_true",
                     help="disable the lazy-copy optimization")
    run.add_argument("--engine", choices=list(ENGINES), default=None,
                     help="execution engine: walk (reference, default), "
                          "vm (register bytecode) or jit (VM + trace-JIT "
                          "tier, fastest on hot code) — see docs/VM.md")
    run.add_argument("--no-inline-caches", action="store_true",
                     help="disable the VM's and the JIT's call-site "
                          "inline caches; semantics are identical — see "
                          "docs/PERFORMANCE.md")
    run.add_argument("--checks", choices=["full", "transient"],
                     default="full",
                     help="dynamic-check depth: full (the paper's deep "
                          "checks, default) or transient (O(1) shallow "
                          "tag probes with blame tracking; see "
                          "docs/ANALYSIS.md)")
    run.add_argument("--fuel", type=bounded_int(1), default=None,
                     help="maximum evaluation steps")
    run.add_argument("--system", choices=["A", "B", "C"], default=None,
                     help="attach a platform simulator")
    run.add_argument("--battery", type=bounded_float(0.0, 1.0),
                     default=1.0,
                     help="initial battery fraction (with --system)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--stats", action="store_true",
                     help="print run statistics as JSON on stderr")
    run.add_argument("--no-elide", action="store_true",
                     help="run every dynamic check (skip the "
                          "repro.analysis elision planner)")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="record an execution trace to PATH")
    run.add_argument("--trace-format", choices=["jsonl", "chrome"],
                     default="jsonl",
                     help="trace format: jsonl (repro obs report) or "
                          "chrome (Perfetto)")
    run.add_argument("--trace-capacity", type=bounded_int(1),
                     default=65536,
                     help="trace ring-buffer capacity (events)")

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: report and plan dynamic-check elisions")
    analyze.add_argument("file")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as one JSON object")
    analyze.add_argument("--fuel", type=bounded_int(1), default=None,
                         help="cap unbounded (ω) loop/recursion "
                              "factors in the residual-cost bounds at "
                              "N, marking capped sites with *")
    analyze.add_argument("--embedded", action="store_true",
                         help="treat FILE as Python using the embedded "
                              "API and run the runtime linter instead")

    obs = sub.add_parser(
        "obs", help="observability: analyse and convert traces")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report", help="mode timeline + energy attribution from a trace")
    obs_report.add_argument("trace", help="a JSONL trace file")
    obs_report.add_argument("--scope", default=None,
                            help="timeline scope (closure or "
                                 "object:<Class>); default: busiest")
    obs_convert = obs_sub.add_parser(
        "convert", help="convert a JSONL trace to Chrome trace_event")
    obs_convert.add_argument("trace", help="a JSONL trace file")
    obs_convert.add_argument("output", help="Chrome trace JSON to write")

    profile = sub.add_parser(
        "profile",
        help="run under the cross-engine profiler (docs/PROFILING.md)")
    profile.add_argument("file")
    profile.add_argument("args", nargs="*",
                         help="arguments passed to main")
    profile.add_argument("--engine", choices=list(ENGINES), default=None,
                         help="execution engine to profile: walk "
                              "(default), vm or jit (the compiled tier, "
                              "with the VM's labels; the report ends "
                              "with the tier counters)")
    profile.add_argument("--top", type=bounded_int(1), default=15,
                         help="rows in the hot-label table (default 15)")
    profile.add_argument("--checks", action="store_true",
                         help="include the per-check-site table")
    profile.add_argument("--check-mode", choices=["full", "transient"],
                         default="full",
                         help="dynamic-check depth to profile under "
                              "(counters are mode-invariant, so the "
                              "static-vs-observed oracle applies to "
                              "both)")
    profile.add_argument("--energy", action="store_true",
                         help="attribute measured joules to labels "
                              "(implies a platform; default --system A)")
    profile.add_argument("--json", action="store_true",
                         help="emit profile + static-vs-observed diff "
                              "as one JSON object")
    profile.add_argument("--out", metavar="PATH", default=None,
                         help="also write the profile to PATH")
    profile.add_argument("--format", choices=["json", "collapsed",
                                              "chrome"],
                         default="json",
                         help="--out format: json, collapsed "
                              "(flamegraph stacks) or chrome "
                              "(Perfetto trace_event)")
    profile.add_argument("--silent", action="store_true",
                         help="ignore EnergyExceptions (E1 silent build)")
    profile.add_argument("--fuel", type=bounded_int(1), default=None,
                         help="maximum evaluation steps")
    profile.add_argument("--system", choices=["A", "B", "C"],
                         default=None,
                         help="attach a platform simulator")
    profile.add_argument("--battery", type=bounded_float(0.0, 1.0),
                         default=1.0,
                         help="initial battery fraction (with --system)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--no-elide", action="store_true",
                         help="run every dynamic check (also skips the "
                              "static-vs-observed diff)")
    profile.add_argument("--trace-capacity", type=bounded_int(1),
                         default=65536,
                         help="event capacity for the --energy tracer")

    advise = sub.add_parser(
        "advise",
        help="sweep static-vs-? mode assignments and report the "
             "energy/risk Pareto frontier (docs/ADVISE.md)")
    advise.add_argument("file")
    advise.add_argument("args", nargs="*",
                        help="arguments passed to main")
    advise.add_argument("--arch",
                        choices=["sim45nm", "skylake", "cortex-a53"],
                        default="sim45nm",
                        help="cost-model architecture table "
                             "(default sim45nm)")
    advise.add_argument("--engine", choices=list(ENGINES), default=None,
                        help="engine for the calibration runs")
    advise.add_argument("--samples", type=bounded_int(1), default=256,
                        help="Monte-Carlo draws per pinned class "
                             "(default 256)")
    advise.add_argument("--runs", type=bounded_int(1), default=4,
                        help="calibration runs per battery level "
                             "(default 4)")
    advise.add_argument("--seed", type=int, default=0)
    advise.add_argument("--system", choices=["A", "B", "C"],
                        default="A",
                        help="platform simulator for calibration "
                             "(default A)")
    advise.add_argument("--battery", type=bounded_float(0.0, 1.0),
                        action="append", default=None, metavar="F",
                        help="battery level for the calibration "
                             "episodes; repeat for a grid "
                             "(default 1.0)")
    advise.add_argument("--jobs", type=bounded_int(0), default=1,
                        help="parallel calibration workers; 0 = one "
                             "per CPU (results are identical for any "
                             "value)")
    advise.add_argument("--top", type=bounded_int(1), default=None,
                        help="candidate rows to print (frontier rows "
                             "always shown)")
    advise.add_argument("--json", action="store_true",
                        help="emit the full result as one JSON object")
    advise.add_argument("--out", metavar="PATH", default=None,
                        help="also write the JSON result to PATH")
    advise.add_argument("--calibrate-from", action="append",
                        default=None, metavar="PROFILE_JSON",
                        help="fold a `repro profile --json --energy` "
                             "payload into the cost table; repeatable")
    advise.add_argument("--cost-model", metavar="PATH", default=None,
                        help="load the cost model from a JSON file "
                             "instead of the built-in --arch table")
    advise.add_argument("--fuel", type=bounded_int(1), default=None,
                        help="maximum evaluation steps per "
                             "calibration run")

    disasm = sub.add_parser(
        "disasm",
        help="lower to register bytecode and pretty-print it")
    disasm.add_argument("file")
    disasm.add_argument("--no-elide", action="store_true",
                        help="show the bytecode with every dynamic "
                             "check (skip the elision planner)")
    disasm.add_argument("--jit", action="store_true",
                        help="run the program under --engine jit, then "
                             "print the specialized Python source the "
                             "JIT emitted per body (cold bodies are "
                             "emitted speculatively)")
    disasm.add_argument("--checks", choices=["full", "transient"],
                        default="full",
                        help="annotate residual checks for this "
                             "check depth: transient runs them as "
                             "shallow tag probes")

    pretty = sub.add_parser("pretty", help="parse and pretty-print")
    pretty.add_argument("file")

    tokens = sub.add_parser("tokens", help="print the token stream")
    tokens.add_argument("file")

    fleet = sub.add_parser(
        "fleet",
        help="fleet-scale device simulation (docs/FLEET.md)")
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    fleet_run = fleet_sub.add_parser(
        "run", help="simulate a device population across shards")
    fleet_run.add_argument("--devices", type=bounded_int(0),
                           default=10_000,
                           help="population size (default 10000)")
    fleet_run.add_argument("--shards", type=bounded_int(1), default=1,
                           help="worker processes; 1 runs in-process")
    fleet_run.add_argument("--engine", choices=["batched", "embedded"],
                           default="batched",
                           help="batched (shared platforms/runtime per "
                                "shard, default) or embedded (fresh "
                                "objects per device; the differential "
                                "reference)")
    fleet_run.add_argument("--seed", type=int, default=0)
    fleet_run.add_argument("--steps", type=bounded_int(1), default=16,
                           help="adaptive-loop iterations per device")
    fleet_run.add_argument("--json", action="store_true",
                           help="emit the full report as one JSON "
                                "object")
    fleet_run.add_argument("--digest", action="store_true",
                           help="emit only the deterministic aggregate "
                                "digest as JSON (for invariance checks)")
    fleet_run.add_argument("--metrics-out", metavar="PATH", default=None,
                           help="write aggregates in Prometheus text "
                                "exposition format to PATH")
    fleet_run.add_argument("--progress", action="store_true",
                           help="print one line per completed shard "
                                "(stderr)")

    evaluate = sub.add_parser(
        "eval", add_help=False,
        help="regenerate the paper's evaluation (repro.eval; "
             "--jobs N fans episodes out across cores)")
    evaluate.add_argument("eval_args", nargs=argparse.REMAINDER,
                          help="arguments passed to repro.eval "
                               "(e.g. figure8 --jobs 0)")

    return parser


def _read(path: str) -> str:
    """The UTF-8 source text of ``path`` (``-`` reads stdin)."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise EntError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                       f"{exc.start})") from None


def _checked(path: str):
    """Read and typecheck ``path``; syntax and type errors name it."""
    return check_program(_read(path), _source_name(path))


def _source_name(path: str) -> str:
    """The file name error spans report for ``path``."""
    return "<stdin>" if path == "-" else path


def _platform(system: Optional[str], args):
    """The simulator for ``--system`` (``None`` without one)."""
    if system is None:
        return None
    from repro.platform.systems import make_platform
    return make_platform(system, seed=args.seed,
                         battery_fraction=args.battery)


def _run_program(interp, args) -> int:
    """Run ``main``; status 3 on an uncaught ``EnergyException``."""
    try:
        interp.run(args.args)
    except EnergyException as exc:
        print(f"EnergyException: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_check(args) -> int:
    _checked(args.file)
    print(f"{args.file}: OK")
    return 0


def _cmd_run(args) -> int:
    checked = _checked(args.file)
    platform = _platform(args.system, args)
    tracer = None
    if args.trace is not None:
        from repro.obs.tracer import Tracer
        tracer = Tracer(capacity=args.trace_capacity)
    if not args.no_elide:
        from repro.analysis import plan_elisions
        plan_elisions(checked)
    engine = resolve_engine(args.engine)
    options = InterpOptions(silent=args.silent, baseline=args.baseline,
                            lazy_copy=not args.eager_copy,
                            fuel=args.fuel, engine=engine,
                            inline_caches=not args.no_inline_caches,
                            elide_checks=not args.no_elide,
                            checks=args.checks)
    interp = Interpreter(checked, platform=platform, options=options,
                         seed=args.seed, tracer=tracer)
    with opened(args.trace) as trace_out:
        status = _run_program(interp, args)
        for line in interp.output:
            print(line)
        if tracer is not None:
            from repro.obs.export import write_trace
            count = write_trace(tracer.events(), trace_out,
                                fmt=args.trace_format)
            print(f"[trace: {count} events -> {args.trace} "
                  f"({args.trace_format}, {tracer.dropped} dropped)]",
                  file=sys.stderr)
    if args.stats:
        payload = interp.stats.as_dict()
        if platform is not None:
            payload.update({
                "energy_j": round(platform.energy_total_j(), 4),
                "time_s": round(platform.now(), 6),
                "temp_c": round(platform.cpu_temperature(), 2),
                "battery": round(platform.battery_fraction(), 4),
            })
        if engine == "jit":
            payload["jit"] = interp._vm.tier_counters()
        print(json.dumps(payload), file=sys.stderr)
    return status


def _cmd_analyze(args) -> int:
    if args.embedded:
        return _analyze_embedded(args)
    from repro.analysis import analyze_program

    checked = _checked(args.file)
    report = analyze_program(checked, file=args.file,
                             fuel=args.fuel)
    if args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.render())
    return 0


def _analyze_embedded(args) -> int:
    from repro.runtime.lint import lint_source

    findings = lint_source(_read(args.file), filename=args.file)
    errors = [f for f in findings if f.code.startswith("E")]
    if args.json:
        print(json.dumps({
            "file": args.file,
            "findings": [f.as_dict() for f in findings],
            "errors": len(errors),
        }))
    else:
        for finding in findings:
            print(f"{args.file}:{finding}")
        if not findings:
            print(f"{args.file}: OK")
    return 1 if errors else 0


def _cmd_profile(args) -> int:
    """Run a program under the cross-engine profiler.

    Prints the hot-label table (opcodes for the vm and jit, AST node
    kinds for walk), the call-site inline-cache table, the
    per-check-site residual counts (with ``--checks``) and the JIT
    tier counters (with ``--engine jit``).  Unless
    ``--no-elide`` is given the same run's elision plan is diffed
    against the observed check firings; a check that fired at a site
    the analysis classified elided is a soundness violation and makes
    the command exit 4.
    """
    from repro.obs.prof import Profiler, energy_by_label, \
        render_profile, write_profile

    checked = _checked(args.file)
    system = args.system
    if args.energy and system is None:
        system = "A"
        print("[profile: --energy needs a platform; using --system A]",
              file=sys.stderr)
    platform = _platform(system, args)
    tracer = None
    if args.energy:
        from repro.obs.tracer import Tracer
        tracer = Tracer(capacity=args.trace_capacity)
    report = None
    if not args.no_elide:
        from repro.analysis import analyze_program
        report = analyze_program(checked, annotate=True, file=args.file)
    engine = resolve_engine(args.engine)
    profiler = Profiler(engine)
    options = InterpOptions(silent=args.silent, fuel=args.fuel,
                            engine=engine,
                            elide_checks=not args.no_elide,
                            checks=args.check_mode)
    interp = Interpreter(checked, platform=platform, options=options,
                         seed=args.seed, tracer=tracer, profiler=profiler)
    with opened(args.out) as profile_out:
        status = _run_program(interp, args)
        profile = profiler.profile
        if profile_out is not None:
            write_profile(profile, profile_out, fmt=args.format)
            print(f"[profile -> {args.out} ({args.format})]",
                  file=sys.stderr)
    energy = None
    intervals = None
    if args.energy and tracer is not None:
        from repro.advise import builtin_model, energy_intervals
        from repro.obs.report import energy_attribution
        _scope, attribution = energy_attribution(tracer.events())
        energy = energy_by_label(profile, attribution)
        intervals = energy_intervals(profile, attribution,
                                     builtin_model())
    diff = None
    if report is not None:
        from repro.analysis import static_vs_observed
        diff = static_vs_observed(report, profile)
    tier = interp._vm.tier_counters() if engine == "jit" else None
    if args.json:
        payload = {"file": args.file, "profile": profile.as_dict()}
        if tier is not None:
            payload["jit"] = tier
        if energy is not None:
            payload["energy_by_label"] = {
                label: round(joules, 9)
                for label, joules in sorted(energy.items())}
        if intervals is not None:
            payload["energy_intervals"] = {
                label: value.as_dict(digits=9)
                for label, value in sorted(intervals.items())}
        if diff is not None:
            payload["static_vs_observed"] = diff.as_dict()
        print(json.dumps(payload))
    else:
        print(render_profile(profile, top=args.top, checks=args.checks,
                             energy=intervals if intervals is not None
                             else energy))
        if tier is not None:
            print()
            print("JIT tier: " + ", ".join(
                f"{name}={count}" for name, count in tier.items()))
        if diff is not None:
            print()
            print(diff.render())
    if diff is not None and not diff.clean:
        return status or 4
    return status


def _cmd_advise(args) -> int:
    """Sweep per-class mode assignments and report the Pareto frontier.

    Each dynamic class either keeps ``?`` or is pinned to one of its
    attributor's reachable modes; candidates are calibrated empirically
    on the simulated platform (paired seeds — identical behaviour means
    bit-identical energy), residual checks are priced by the
    per-architecture cost model, and mode-violation risk is estimated
    by Monte-Carlo over the observed attributor distributions.  See
    ``docs/ADVISE.md``.
    """
    from repro.advise import (AdviseConfig, CostModel, advise_source,
                              builtin_model)
    from repro.advise.costmodel import read_json_object

    source = _read(args.file)
    if args.cost_model is not None:
        model = CostModel.load(args.cost_model)
    else:
        model = builtin_model(args.arch)
    for path in (args.calibrate_from or []):
        absorbed = read_json_object(path, "a profile payload",
                                    model.calibrate)
        print(f"[advise: calibrated {absorbed} label(s) from {path}]",
              file=sys.stderr)
    batteries = tuple(args.battery) if args.battery else (1.0,)
    config = AdviseConfig(
        arch=model.arch,
        engine=resolve_engine(args.engine),
        system=args.system,
        seed=args.seed,
        runs=args.runs,
        samples=args.samples,
        batteries=batteries,
        jobs=args.jobs,
        program_args=tuple(args.args))
    if args.fuel is not None:
        config.fuel = args.fuel
    with opened(args.out) as advise_out:
        result = advise_source(source, file=args.file, config=config,
                               model=model)
        if advise_out is not None:
            advise_out.write(result.to_json())
            advise_out.write("\n")
            print(f"[advise -> {args.out} (json)]", file=sys.stderr)
    if args.json:
        print(result.to_json())
    else:
        print(result.render(top=args.top))
    return 0


def _cmd_obs(args) -> int:
    from repro.obs.export import read_jsonl, write_chrome_trace

    try:
        events = read_jsonl(args.trace)
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise EntError(
            f"{args.trace} is not a JSONL trace "
            f"(record a trace with `repro run --trace`): {exc}") from exc
    if args.obs_command == "report":
        from repro.obs.report import render_report
        print(render_report(events, scope=args.scope))
        return 0
    if args.obs_command == "convert":
        write_chrome_trace(events, args.output)
        print(f"{args.output}: {len(events)} events")
        return 0
    raise EntError(f"unknown obs command {args.obs_command!r}")


def _cmd_disasm(args) -> int:
    """Lower every body to register bytecode and pretty-print it.

    Bodies appear in program order; check instructions carry ``;;``
    annotations, and checks the planner proved away read ``elided by
    repro.analysis`` (compare with and without ``--no-elide`` to see
    the handoff).

    With ``--jit`` the program first *runs* under ``--engine jit`` (so
    inline caches warm up and hot bodies actually compile), then each
    body prints as the specialized Python the JIT emitted — installed
    source for bodies that got hot, a speculative cold emission for the
    rest — each followed by the loop regions that compiled on their
    own (on-stack replacement of a hot loop).
    """
    from repro.lang.bytecode import disassemble

    checked = _checked(args.file)
    if not args.no_elide:
        from repro.analysis import plan_elisions
        plan_elisions(checked)
    engine = "jit" if args.jit else "vm"
    interp = Interpreter(
        checked,
        options=InterpOptions(engine=engine, fuel=5_000_000,
                              elide_checks=not args.no_elide,
                              checks=args.checks))
    vm = interp._vm
    if args.jit:
        from repro.core.errors import EntRuntimeError
        try:
            # Warm-up run: populates the per-site inline caches and
            # compiles whatever crosses the hotness thresholds.  The
            # program's own outcome (EnergyException, fuel, …) does not
            # matter here — only the compiled artifacts do.
            interp.run([])
        except EntRuntimeError:
            pass

    def render(code):
        if not args.jit:
            return disassemble(code, transient=interp._transient)
        title = code.name or "<body>"
        if code.jit_src is not None:
            text = (f";; {title} — compiled at runtime "
                    f"(version {code.jit_versions})\n{code.jit_src}")
        else:
            from repro.lang.jit import JITUnsupported, jit_source
            try:
                text = (f";; {title} — cold at runtime; speculative "
                        f"emission from the current inline caches\n"
                        f"{jit_source(vm, code)}")
            except JITUnsupported as exc:
                text = f";; {title} — JIT bailout: {exc}"
        for loop in vm.loop_regions(code):
            text += (f"\n\n;; {title} loop@{loop.head} — compiled at "
                     f"runtime (version {loop.jit_versions})\n"
                     f"{loop.jit_src}")
        return text

    chunks = []
    for cls in checked.program.classes:
        info = interp.table.get(cls.name)
        if cls.constructor is not None:
            ctor = cls.constructor
            chunks.append(render(vm._lower(
                ctor.body, [p.name for p in ctor.params], ())))
        if cls.attributor is not None:
            chunks.append(render(vm._lower(cls.attributor.body, [], ())))
        for method in cls.methods:
            minfo = info.methods[method.name]
            chunks.append(render(vm.code_for_method(minfo)))
            if method.attributor is not None:
                chunks.append(render(vm._lower(
                    method.attributor.body, minfo.param_names, minfo.wants)))
    print("\n\n".join(chunks))
    return 0


def _cmd_pretty(args) -> int:
    print(pretty_program(parse_program(_read(args.file),
                                       _source_name(args.file))), end="")
    return 0


def _cmd_tokens(args) -> int:
    for token in tokenize(_read(args.file), _source_name(args.file)):
        print(token)
    return 0


def _cmd_fleet(args) -> int:
    """Simulate a device population (``repro fleet run``)."""
    from repro.fleet import FleetSpec, run_fleet

    spec = FleetSpec(devices=args.devices, seed=args.seed,
                     steps=args.steps)
    progress = None
    if args.progress:
        def progress(result):
            rate = result.devices / result.seconds if result.seconds \
                else 0.0
            print(f"[fleet: shard {result.shard_index} done — "
                  f"{result.devices} devices in {result.seconds:.3f}s "
                  f"({rate:,.0f}/s)]", file=sys.stderr)
    with opened(args.metrics_out) as metrics_out:
        report = run_fleet(spec, shards=args.shards, engine=args.engine,
                           progress=progress)
        if metrics_out is not None:
            from repro.obs.export import render_prometheus
            metrics_out.write(render_prometheus(report.registry))
            print(f"[fleet: metrics -> {args.metrics_out} (prometheus)]",
                  file=sys.stderr)
    if args.digest:
        print(json.dumps(report.aggregate_digest(), sort_keys=True))
    elif args.json:
        print(json.dumps(report.as_dict()))
    else:
        print(report.render())
    return 0


def _cmd_eval(args) -> int:
    from repro.eval.__main__ import main as eval_main

    return eval_main(args.eval_args)


_COMMANDS = {
    "check": _cmd_check,
    "run": _cmd_run,
    "analyze": _cmd_analyze,
    "advise": _cmd_advise,
    "profile": _cmd_profile,
    "obs": _cmd_obs,
    "disasm": _cmd_disasm,
    "pretty": _cmd_pretty,
    "tokens": _cmd_tokens,
    "eval": _cmd_eval,
    "fleet": _cmd_fleet,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return guarded(_COMMANDS[args.command], args)


def guarded(command: Callable[..., int], *args) -> int:
    """``command(*args)``, with the errors a user can cause reported as
    ``error: …`` on stderr and an exit status, never a traceback."""
    try:
        return command(*args)
    except EntError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (e.g. ``repro disasm ... | head``).
        try:
            sys.stdout.close()
        except BrokenPipeError:
            pass
        return 0
    except OSError as exc:
        # After BrokenPipeError, which is an OSError too: a missing,
        # unreadable or unwritable path, or a directory given as a file.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""The four benchmark workloads and their correctness oracles.

A workload builds its inputs from the seed (:meth:`Workload.setup`),
lists its *cells* — one kind of op each — and runs one op of a cell on
request.  An op returns its timed parts in seconds (``total`` always)
and raises :class:`OracleError` when the program's output is wrong;
the harness in ``run.py`` counts any exception as a failed op.

All ops go through the repository's public entry points:

* ``ent_compile`` / ``ent_exec`` — the ``repro run`` path
  (``check_program`` → ``plan_elisions`` → ``Interpreter(...).run()``)
  and the ``repro profile`` path (``analyze_program(annotate=True)``,
  a run under ``Profiler``, ``static_vs_observed``);
* ``fleet`` — ``repro.fleet.run_fleet(..., shards=1)``;
* ``paper_eval`` — the E1/E2/E3 episode runners through
  ``repro.eval.parallel.run_episodes(..., jobs=None)``.

With a :class:`~tracing.SpanRecorder` the ENT ops split the compile
into the public calls ``check_program`` and ``plan_elisions`` make, so
each front-end layer gets its own span.
"""

from __future__ import annotations

import random
import re
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import gen
import stats
from repro.analysis import (AnalysisReport, ProgramAnalyzer,
                            analyze_program, apply_plan,
                            attach_cost_bounds, plan_elisions,
                            static_vs_observed)
from repro.analysis.obligations import ELIDED
from repro.eval.config import VIOLATING_COMBOS
from repro.eval.e3 import trace_stats
from repro.eval.parallel import EpisodeTask, run_episodes
from repro.fleet import FleetSpec, run_fleet
from repro.lang import jit as _jit  # noqa: F401  (imported before timing)
from repro.lang import vm as _vm  # noqa: F401
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.typechecker import TypeChecker, check_program
from repro.obs.prof import Profiler
from repro.platform.meter import EnergyLedger
from repro.workloads.base import BATTERY_MODES, ES, FT, MG

ENGINES = ("walk", "vm", "jit")

_clock = time.perf_counter

#: The documented suffix transient checks append to a failed check's
#: message (docs/ANALYSIS.md); outputs are compared without it.
_BLAME = re.compile(r" \[transient: [^\]]*\]")


class OracleError(Exception):
    """The program under test produced a wrong result."""


class SetupError(Exception):
    """The benchmark could not build its inputs."""


def _expect(got, expected, what: str) -> None:
    if got != expected:
        raise OracleError(f"{what}: expected {expected!r}, got {got!r}")


def _normalise(lines) -> Tuple[str, ...]:
    return tuple(_BLAME.sub("", line) for line in lines)


class Cell:
    """One kind of op: ``run(rec)`` executes one op and returns its
    timed parts; ``rec`` is a SpanRecorder in traced runs, else None."""

    __slots__ = ("key", "run")

    def __init__(self, key: str,
                 run: Callable[[object], Dict[str, float]]) -> None:
        self.key = key
        self.run = run


class Workload:
    name = ""
    #: The workload's own end-to-end figures, printed in every
    #: untraced run (see :meth:`metrics`).
    figures: Tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> None:
        """Build inputs and references and warm up; repeatable."""
        raise NotImplementedError

    def cells(self) -> List[Cell]:
        raise NotImplementedError

    def finish(self) -> Tuple[int, int, List[str]]:
        """Checks after the timed region: (attempted, failed, errors)."""
        return 0, 0, []

    def metrics(self, samples: Dict[str, List[Dict[str, float]]],
                scale: float) -> Dict[str, Tuple[float, str]]:
        """The workload's own end-to-end figures (normalised)."""
        raise NotImplementedError


# ----------------------------------------------------------------------
# ENT: the repro run / repro profile paths


def _decl_count(program) -> int:
    count = len(program.modes)
    for cls in program.classes:
        count += (1 + len(cls.fields) + len(cls.methods)
                  + (cls.constructor is not None)
                  + (cls.attributor is not None))
    return count


def _front_end(rec, source: str):
    """``check_program`` as its public calls, one span each."""
    with rec.span("lexer"):
        tokens = tokenize(source)
    rec.counts["lexer.tokens"] += len(tokens)
    with rec.span("parser"):
        program = Parser(tokens).parse_program()
    rec.counts["parser.decls"] += _decl_count(program)
    with rec.span("typechecker"):
        return TypeChecker(program).check()


def _analysis(rec, checked) -> AnalysisReport:
    """``analyze_program(annotate=True)`` as its public calls."""
    with rec.span("analysis.obligations"):
        analyzer = ProgramAnalyzer(checked)
        sites = analyzer.analyze()
    with rec.span("analysis.cost"):
        cost = attach_cost_bounds(analyzer)
    with rec.span("analysis.plan"):
        apply_plan(sites)
    rec.counts["analysis.sites"] += len(sites)
    rec.counts["analysis.elided"] += sum(site.status == ELIDED
                                         for site in sites)
    return AnalysisReport(sites=sites, file=None, cost=cost)


def _count_run(rec, interp) -> None:
    s = interp.stats
    counts = rec.counts
    counts["checks.dfall"] += s.dfall_checks
    counts["checks.bound"] += s.bound_checks
    counts["checks.shallow"] += s.shallow_checks
    counts["checks.elided"] += s.dfall_elided + s.bound_checks_elided
    counts["checks.copies"] += s.copies
    counts["checks.messages"] += s.messages
    vm = interp._vm
    if vm is not None and hasattr(vm, "jit_compiles"):
        counts["jit.compiles"] += vm.jit_compiles
        counts["jit.bailouts"] += vm.jit_bailouts
        deopts = getattr(vm, "jit_deopts", None)
        if deopts is None:
            counts["jit.deopts_unmeasured"] += 1
        else:
            counts["jit.deopts"] += deopts


def ent_run(program: gen.Program, engine: str, checks: str, plan: bool,
            rec=None) -> Dict[str, float]:
    """One ``repro run`` op (``plan=False`` is ``--no-elide``)."""
    options = InterpOptions(engine=engine, checks=checks,
                            elide_checks=plan)
    if rec is None:
        t0 = _clock()
        checked = check_program(program.source)
        if plan:
            plan_elisions(checked)
        t1 = _clock()
        interp = Interpreter(checked, options=options)
        interp.run()
        t2 = _clock()
    else:
        t0 = _clock()
        checked = _front_end(rec, program.source)
        if plan:
            _analysis(rec, checked)
        t1 = _clock()
        with rec.span("interp.construct"):
            interp = Interpreter(checked, options=options)
        with rec.span(f"exec.{engine}"):
            interp.run()
        t2 = _clock()
        _count_run(rec, interp)
    _expect(_normalise(interp.output), program.expected,
            f"{program.name} on {engine}")
    return {"compile": t1 - t0, "exec": t2 - t1, "total": t2 - t0}


def ent_profile(program: gen.Program, engine: str,
                rec=None) -> Dict[str, float]:
    """One ``repro profile`` op; ``profile`` times the profile path
    proper (analysis, profiled run, static-vs-observed oracle)."""
    options = InterpOptions(engine=engine)
    profiler = Profiler(engine)
    if rec is None:
        t0 = _clock()
        checked = check_program(program.source)
        t1 = _clock()
        report = analyze_program(checked, annotate=True)
        t2 = _clock()
        interp = Interpreter(checked, options=options, profiler=profiler)
        interp.run()
        t3 = _clock()
        diff = static_vs_observed(report, profiler.profile)
        t4 = _clock()
    else:
        t0 = _clock()
        checked = _front_end(rec, program.source)
        t1 = _clock()
        report = _analysis(rec, checked)
        t2 = _clock()
        with rec.span("interp.construct"):
            interp = Interpreter(checked, options=options,
                                 profiler=profiler)
        with rec.span(f"exec.{engine}"):
            interp.run()
        t3 = _clock()
        with rec.span("oracle"):
            diff = static_vs_observed(report, profiler.profile)
        t4 = _clock()
        _count_run(rec, interp)
    _expect(_normalise(interp.output), program.expected,
            f"profiled {program.name} on {engine}")
    if not diff.clean:
        raise OracleError(f"static-vs-observed violations on "
                          f"{program.name}/{engine}: {diff.render()}")
    return {"check": t1 - t0, "profile": t4 - t1, "run": t3 - t2,
            "total": t4 - t0}


def _medians(samples, key: str, part: str) -> float:
    return stats.median([s[part] for s in samples[key]])


class _EntWorkload(Workload):
    """Shared ENT plumbing: typecheck every input once in setup (a
    generated program that fails to typecheck is a set-up error)."""

    def _validate(self) -> None:
        for program in self.programs:
            try:
                check_program(program.source)
            except Exception as exc:
                raise SetupError(f"{program.name} does not typecheck: "
                                 f"{exc}") from exc

    def _exec_metrics(self, samples, scale, variants) -> Dict[str, tuple]:
        out: Dict[str, tuple] = {}
        compile_ms = [stats.median(times)
                      for times in self._compile_times(samples)]
        out["compile_ms"] = (stats.geomean(compile_ms) * scale * 1e3, "ms")
        for engine in ENGINES:
            cells = [_medians(samples, f"{v}/{engine}", "exec")
                     for v in variants]
            out[f"exec_{engine}_ms"] = (
                stats.geomean(cells) * scale * 1e3, "ms")
        return out


class EntCompile(_EntWorkload):
    """Large, execution-light generated programs plus the five
    examples, each run once per engine under full checks."""

    name = "ent_compile"
    figures = ("compile_ms", "exec_walk_ms", "exec_vm_ms", "exec_jit_ms")

    def setup(self) -> None:
        programs = gen.compile_corpus(self.seed)
        bench = Path(__file__).resolve().parent
        for path in sorted((self.root / "examples" / "ent").glob("*.ent")):
            expected = (bench / "expected" / f"{path.stem}.out")
            programs.append(gen.Program(
                path.stem, path.read_text(encoding="utf-8"),
                tuple(expected.read_text(encoding="utf-8").splitlines())))
        if len(programs) != len(gen.COMPILE_SIZES) + 5:
            raise SetupError("expected the five examples/ent programs")
        self.programs = programs
        self._validate()
        for engine in ENGINES:
            ent_run(programs[0], engine, "full", True)

    def cells(self) -> List[Cell]:
        return [Cell(f"{p.name}/{engine}",
                     lambda rec, p=p, engine=engine:
                     ent_run(p, engine, "full", True, rec))
                for p in self.programs for engine in ENGINES]

    def _compile_times(self, samples):
        # compile_ms is per program: pool its ops on all engines.
        return [[s["compile"] for engine in ENGINES
                 for s in samples[f"{p.name}/{engine}"]]
                for p in self.programs]

    def metrics(self, samples, scale):
        return self._exec_metrics(samples, scale,
                                  [p.name for p in self.programs])


#: ``ent_exec`` variants: (name, program, checks, plan).
EXEC_VARIANTS = (("send.elide", "send", "full", True),
                 ("send.noelide", "send", "full", False),
                 ("residual.full", "residual", "full", True),
                 ("residual.transient", "residual", "transient", True),
                 ("poly", "poly", "full", True))

#: Programs run under the profiler, and the exec variant each one's
#: profiling overhead is measured against.
PROFILED = (("send", "send.elide"), ("residual", "residual.full"))


class EntExec(_EntWorkload):
    """Small loop-heavy programs on every engine, plus the profiler."""

    name = "ent_exec"
    figures = ("compile_ms", "exec_walk_ms", "exec_vm_ms", "exec_jit_ms",
               "profile_ms")

    def setup(self) -> None:
        self.by_name = by_name = gen.exec_programs(self.seed)
        self.programs = list(by_name.values())
        self._validate()
        for engine in ENGINES:
            ent_run(by_name["send"], engine, "full", True)

    def cells(self) -> List[Cell]:
        cells = [Cell(f"{variant}/{engine}",
                      lambda rec, p=self.by_name[prog], engine=engine,
                      checks=checks, plan=plan:
                      ent_run(p, engine, checks, plan, rec))
                 for variant, prog, checks, plan in EXEC_VARIANTS
                 for engine in ENGINES]
        cells += [Cell(f"profile.{prog}/{engine}",
                       lambda rec, p=self.by_name[prog], engine=engine:
                       ent_profile(p, engine, rec))
                  for prog, _ in PROFILED for engine in ENGINES]
        return cells

    def _compile_times(self, samples):
        # Only variants that plan run both check_program and
        # plan_elisions; pool them per program.
        return [[s["compile"] for variant, name, _, plan in EXEC_VARIANTS
                 if name == prog and plan
                 for engine in ENGINES
                 for s in samples[f"{variant}/{engine}"]]
                for prog in self.by_name]

    def metrics(self, samples, scale):
        out = self._exec_metrics(samples, scale,
                                 [v[0] for v in EXEC_VARIANTS])
        profiled = [_medians(samples, f"profile.{prog}/{engine}",
                             "profile")
                    for prog, _ in PROFILED for engine in ENGINES]
        out["profile_ms"] = (stats.geomean(profiled) * scale * 1e3, "ms")
        return out

    def profiler_overheads(self, samples) -> Dict[str, float]:
        """Profiled ÷ unprofiled median run time, per engine (geometric
        mean over the profiled programs)."""
        out = {}
        for engine in ENGINES:
            ratios = [_medians(samples, f"profile.{prog}/{engine}", "run")
                      / _medians(samples, f"{variant}/{engine}", "exec")
                      for prog, variant in PROFILED]
            out[engine] = stats.geomean(ratios)
        return out


# ----------------------------------------------------------------------
# Fleet


def _fleet_oracle(report, devices: int) -> None:
    counters = report.registry.counters

    def count(name: str) -> int:
        counter = counters.get(name)
        return counter.value if counter is not None else 0

    _expect(count("fleet.devices"), devices, "fleet device count")
    if count("fleet.violations") > count("fleet.pushes"):
        raise OracleError("fleet: more violations than pushes")
    parts = sum(count(f"fleet.energy_uj.{c}")
                for c in EnergyLedger.COMPONENTS)
    _expect(parts, count("fleet.energy_uj.total"),
            "fleet energy components sum")


class Fleet(Workload):
    """Back-to-back ``run_fleet`` calls, one seeded population each."""

    name = "fleet"
    figures = ("devices_per_s",)
    DEVICES = 200
    #: Calls re-run on the reference ``embedded`` engine afterwards.
    CHECKED_CALLS = 3

    def setup(self) -> None:
        rng = random.Random(self.seed)
        self.call_seeds = [rng.getrandbits(32) for _ in range(100_000)]
        self.calls = 0
        self.digests: Dict[int, dict] = {}
        run_fleet(FleetSpec(devices=self.DEVICES // 5,
                            seed=rng.getrandbits(32)), shards=1)

    def _op(self, rec) -> Dict[str, float]:
        # A traced op re-runs the population of the untraced op before
        # it, so the two times compare like for like.
        if rec is None:
            self.calls += 1
        index = (self.calls - 1) % len(self.call_seeds)
        spec = FleetSpec(devices=self.DEVICES, seed=self.call_seeds[index])
        t0 = _clock()
        if rec is None:
            report = run_fleet(spec, shards=1)
        else:
            with rec.span("shard"):
                report = run_fleet(spec, shards=1)
        t1 = _clock()
        _fleet_oracle(report, self.DEVICES)
        if rec is not None:
            rec.counts["fleet.steps"] += \
                report.registry.counters["fleet.steps"].value
        else:
            self.digests[index] = report.aggregate_digest()
        return {"total": t1 - t0}

    def cells(self) -> List[Cell]:
        return [Cell("fleet", self._op)]

    def finish(self):
        """Re-run a seeded sample of the timed calls on the reference
        ``embedded`` engine; aggregates must be bit-identical."""
        rng = random.Random(self.seed ^ 0x5EED)
        picked = sorted(self.digests)
        picked = rng.sample(picked, min(self.CHECKED_CALLS, len(picked)))
        errors = []
        for index in picked:
            spec = FleetSpec(devices=self.DEVICES,
                             seed=self.call_seeds[index])
            try:
                report = run_fleet(spec, shards=1, engine="embedded")
                if report.aggregate_digest() != self.digests[index]:
                    errors.append(f"fleet call {index}: embedded digest "
                                  f"differs from batched")
            except Exception as exc:  # noqa: BLE001 - reported as failed
                errors.append(f"fleet call {index}: {exc!r}")
        return len(picked), len(errors), errors

    def metrics(self, samples, scale):
        ops = samples["fleet"]
        seconds = sum(s["total"] for s in ops) * scale
        return {"devices_per_s": (len(ops) * self.DEVICES / seconds, "1/s")}


# ----------------------------------------------------------------------
# Paper evaluation (E1/E2/E3)

#: (system, benchmark) strata drawn from.  The expensive benchmarks of
#: each grid are left out so one round of cells stays near a second;
#: every system and experiment is still covered.
E1_STRATA = (("A", "sunflow"), ("A", "findbugs"), ("A", "crypto"),
             ("B", "sunflow"), ("B", "crypto"), ("B", "camera"),
             ("B", "video"), ("B", "javaboy"), ("C", "newpipe"),
             ("C", "duckduckgo"), ("C", "soundrecorder"))
E2_STRATA = (("A", "sunflow"), ("A", "findbugs"), ("B", "sunflow"),
             ("B", "crypto"), ("B", "camera"), ("B", "video"),
             ("C", "newpipe"), ("C", "duckduckgo"),
             ("C", "soundrecorder"))
E3_STRATA = ("pagerank", "sunflow")

#: Full-throttle E1 cells by outcome.  The workload mode is fixed at
#: full_throttle so a cell's cost does not depend on the draw.
E1_RAISING = ((ES, FT, False), (MG, FT, False))
E1_QUIET = ((ES, FT, True), (MG, FT, True), (FT, FT, False),
            (FT, FT, True))


def _e1_cell(system, name, boot, wl, silent, seed):
    task = EpisodeTask(kind="e1", key=(system, name, boot, wl, silent),
                       benchmark=name,
                       params=dict(system=system, boot_mode=boot,
                                   workload_mode=wl, silent=silent,
                                   seed=seed))
    raises = not silent and (boot, wl) in VIOLATING_COMBOS

    def check(results):
        _expect(results[task.key].exception_raised, raises,
                f"E1 {system}/{name} {boot}/{wl} silent={silent} "
                f"EnergyException")
    return f"e1.{system}.{name}.{boot}.{silent}", "e1", [task], check


def _e2_cell(system, name, seed):
    tasks = [EpisodeTask(kind="e2", key=(system, name, boot),
                         benchmark=name,
                         params=dict(system=system, boot_mode=boot,
                                     workload_mode=FT, seed=seed))
             for boot in BATTERY_MODES]

    def check(results):
        es, mg, ft = (results[task.key].energy_j for task in tasks)
        if not es <= mg <= ft:
            raise OracleError(f"E2 {system}/{name}: energies not "
                              f"es <= mg <= ft: {es}, {mg}, {ft}")
    return f"e2.{system}.{name}", "e2", tasks, check


def _e3_cell(name, seed):
    tasks = [EpisodeTask(kind="e3", key=(name, variant), benchmark=name,
                         params=dict(variant=variant, seed=seed))
             for variant in ("ent", "java")]

    def check(results):
        ent, java = (results[task.key] for task in tasks)
        ent_tail = trace_stats(ent)["tail_mean_c"]
        java_tail = trace_stats(java)["tail_mean_c"]
        if not ent_tail < java_tail:
            raise OracleError(f"E3 {name}: ENT tail {ent_tail:.2f} C not "
                              f"below Java's {java_tail:.2f} C")
        if not (ent.sleeps > 0 and java.sleeps == 0):
            raise OracleError(f"E3 {name}: sleeps ent={ent.sleeps} "
                              f"java={java.sleeps}")
    return f"e3.{name}", "e3", tasks, check


class PaperEval(Workload):
    """A seeded draw of E1, E2 and E3 cells, run serially."""

    name = "paper_eval"
    figures = ("e1_s", "e2_s", "e3_s")

    def setup(self) -> None:
        rng = random.Random(self.seed)
        draws = []
        for system, name in E1_STRATA:
            for combos in (E1_RAISING, E1_QUIET):
                boot, wl, silent = rng.choice(combos)
                draws.append(_e1_cell(system, name, boot, wl, silent,
                                      rng.randrange(1 << 16)))
        for system, name in E2_STRATA:
            draws.append(_e2_cell(system, name, rng.randrange(1 << 16)))
        for name in E3_STRATA:
            draws.append(_e3_cell(name, rng.randrange(1 << 16)))
        self.draws = draws
        # Warm-up: one cell of each experiment.
        for group in ("e1", "e2", "e3"):
            _, _, tasks, check = next(d for d in draws if d[1] == group)
            check(run_episodes(tasks, jobs=None))

    @staticmethod
    def _op(tasks, check, rec) -> Dict[str, float]:
        t0 = _clock()
        if rec is None:
            results = run_episodes(tasks, jobs=None)
        else:
            with rec.span("eval"):
                results = run_episodes(tasks, jobs=None)
        t1 = _clock()
        check(results)
        return {"total": t1 - t0}

    def cells(self) -> List[Cell]:
        return [Cell(key, lambda rec, tasks=tasks, check=check:
                     self._op(tasks, check, rec))
                for key, group, tasks, check in self.draws]

    def metrics(self, samples, scale):
        out = {}
        for group in ("e1", "e2", "e3"):
            wall = sum(_medians(samples, key, "total")
                       for key, g, _, _ in self.draws if g == group)
            out[f"{group}_s"] = (wall * scale, "s")
        return out


WORKLOADS = {cls.name: cls for cls in (EntCompile, EntExec, Fleet,
                                       PaperEval)}


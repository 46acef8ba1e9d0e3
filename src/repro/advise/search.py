"""The mode-assignment sweep behind ``repro advise``.

The paper's central trade is *adaptivity vs. energy*: a ``?``-moded
class adapts at runtime but pays for residual dynamic checks and may
do more work than a statically pinned configuration; pinning saves
energy but risks running in the wrong mode.  The advisor makes that
trade explicit:

1. **Enumerate** candidate assignments: each dynamic class either
   keeps ``?`` or is pinned to one of its attributor's reachable modes
   (the class hull; all declared modes when the hull is unknown).
2. **Realize** each candidate as a program variant: pinning rewrites
   the class attributor to ``attributor { return <mode>; }`` at the
   token level and discharges the residual checks the pin proves away
   (:func:`repro.analysis.apply_assignment`).  Variants are fresh
   parses of fresh source — the advised program is never mutated, so
   advising is observation-only by construction.
3. **Calibrate** each variant empirically: ``runs`` executions per
   battery level on the simulated platform, with *paired* seeds
   (``derive_seed(seed, CAL_STREAM, run, battery)`` shared across
   candidates — common random numbers, so identical behaviour yields
   bit-identical energy).  Measured joules are the behavioural term;
   the cost model prices the residual checks that actually fired (the
   simulator charges checks nothing, so the two terms never double
   count).
4. **Score risk** by Monte-Carlo: per pinned class, draws from the
   Laplace-smoothed empirical attributor-mode distribution (observed
   on the dynamic baseline's trace) estimate the per-decision
   probability the attributor would have picked a different mode;
   observed new ``EnergyException``s add on top.
5. **Report** the Pareto frontier over (expected energy, risk).

Everything is deterministic for a fixed ``--seed``: candidate order,
RNG streams, and result assembly are independent of ``--jobs`` and of
worker completion order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import EnergyException, EntError
from repro.core.pool import run_keyed
from repro.core.rng import SplitMix64, derive_seed
from repro.lang.engines import DEFAULT_ENGINE, resolve_engine
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind

from repro.advise.costmodel import (DEFAULT_ARCH, CostModel,
                                    builtin_model)
from repro.advise.pareto import Candidate, pareto_frontier
from repro.advise.propagate import Uncertain, sum_uncertain, widen

__all__ = ["AdviseConfig", "AdviseResult", "pin_classes",
           "advise_source", "advise_file", "measure_assignment",
           "CAL_STREAM", "RISK_STREAM", "VALIDATE_STREAM"]

#: ``derive_seed`` stream constants scoping the advisor's RNG away
#: from the meter, fleet, and platform streams.
CAL_STREAM = 0x4144_5643       # calibration platform seeds
RISK_STREAM = 0x4144_564D      # per-candidate Monte-Carlo risk streams
VALIDATE_STREAM = 0x4144_5656  # held-out validation platform seeds

#: Calibration runs at full check depth (``InterpOptions.checks``).
CALIBRATION_CHECKS = "full"
#: The assignment space is truncated to this many candidates.
MAX_CANDIDATES = 128
#: Relative floor on each candidate's measured-energy interval, so a
#: handful of calibration runs cannot claim implausible precision.
CI_REL_FLOOR = 0.015
#: Event capacity of the baseline candidate's calibration tracer.
TRACE_CAPACITY = 65536


# ---------------------------------------------------------------------------
# Pinning: token-level attributor rewrite


def _line_offsets(source: str) -> List[int]:
    offsets = [0]
    for idx, ch in enumerate(source):
        if ch == "\n":
            offsets.append(idx + 1)
    return offsets


def _offset(offsets: List[int], line: int, column: int) -> int:
    return offsets[line - 1] + (column - 1)


def pin_classes(source: str, assignment: Dict[str, Optional[str]],
                filename: str = "<advise>") -> str:
    """Rewrite ``source`` so each pinned class's *class-level*
    attributor body becomes ``{ return <mode>; }``.

    Works on the token stream, not the AST, so the rewritten text
    round-trips through the normal front end and every span outside
    the replaced bodies is preserved.  The class attributor is the
    ``attributor`` keyword at class-body depth whose previous
    significant token is ``{``, ``}`` or ``;`` — method-level
    attributors follow a ``)`` and are left alone (they remain part of
    the candidate's dynamic semantics).
    """
    pins = {cls: mode for cls, mode in assignment.items()
            if mode is not None}
    if not pins:
        return source
    tokens = tokenize(source, filename)
    offsets = _line_offsets(source)
    replacements: List[Tuple[int, int, str]] = []
    seen: Dict[str, bool] = {cls: False for cls in pins}

    depth = 0
    current_class: Optional[str] = None
    class_depth = -1
    prev_kind: Optional[TokenKind] = None
    i = 0
    while i < len(tokens):
        tok = tokens[i]
        kind = tok.kind
        if kind == TokenKind.LBRACE:
            depth += 1
        elif kind == TokenKind.RBRACE:
            depth -= 1
            if current_class is not None and depth < class_depth:
                current_class = None
        elif kind == TokenKind.KW_CLASS and depth == 0:
            if i + 1 < len(tokens) \
                    and tokens[i + 1].kind == TokenKind.IDENT:
                current_class = tokens[i + 1].text
                class_depth = 1
        elif (kind == TokenKind.KW_ATTRIBUTOR
              and current_class in pins
              and depth == class_depth
              and prev_kind in (TokenKind.LBRACE, TokenKind.RBRACE,
                                TokenKind.SEMI)):
            # Find the attributor body: the next "{" through its
            # matching "}".
            j = i + 1
            while j < len(tokens) \
                    and tokens[j].kind != TokenKind.LBRACE:
                j += 1
            if j == len(tokens):
                raise EntError(
                    f"malformed attributor in class {current_class}")
            body_depth = 0
            k = j
            while k < len(tokens):
                if tokens[k].kind == TokenKind.LBRACE:
                    body_depth += 1
                elif tokens[k].kind == TokenKind.RBRACE:
                    body_depth -= 1
                    if body_depth == 0:
                        break
                k += 1
            if k == len(tokens):
                raise EntError(
                    f"unterminated attributor in class {current_class}")
            start = _offset(offsets, tok.span.line, tok.span.column)
            close = tokens[k]
            end = _offset(offsets, close.span.line,
                          close.span.column) + len(close.text)
            mode = pins[current_class]
            replacements.append(
                (start, end, f"attributor {{ return {mode}; }}"))
            seen[current_class] = True
            i = k + 1
            prev_kind = TokenKind.RBRACE
            continue
        prev_kind = kind
        i += 1

    missing = sorted(cls for cls, found in seen.items() if not found)
    if missing:
        raise EntError(
            "cannot pin class(es) without a class-level attributor: "
            + ", ".join(missing))
    out = source
    for start, end, text in sorted(replacements, reverse=True):
        out = out[:start] + text + out[end:]
    return out


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class AdviseConfig:
    arch: str = DEFAULT_ARCH
    engine: str = DEFAULT_ENGINE
    system: str = "A"
    seed: int = 0
    runs: int = 4                    # calibration runs per battery level
    samples: int = 256               # Monte-Carlo draws per pinned class
    batteries: Tuple[float, ...] = (1.0,)
    jobs: int = 1                    # 0 = one worker per CPU
    fuel: int = 5_000_000
    program_args: Tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# Calibration worker (top-level and pure so it pickles under --jobs N)


def _calibration_worker(task: Dict[str, object]) -> Dict[str, object]:
    """Run one (candidate, run, battery) cell and return its
    measurements.  Pure function of ``task`` — no shared state — so
    results are identical whether it runs inline or in a pool."""
    from repro.analysis import analyze_program, apply_assignment
    from repro.lang.interp import Interpreter, InterpOptions
    from repro.lang.typechecker import check_program
    from repro.obs.prof import Profiler
    from repro.platform.systems import make_platform

    assignment: Dict[str, Optional[str]] = task["assignment"]
    pinned = sorted(cls for cls, mode in assignment.items()
                    if mode is not None)
    source = pin_classes(task["source"], assignment,
                         filename=task["file"])
    checked = check_program(source, task["file"])
    report = analyze_program(checked, annotate=False, file=task["file"])
    discharged = apply_assignment(report.sites, pinned)
    platform = make_platform(task["system"], seed=task["platform_seed"],
                             battery_fraction=task["battery"])
    tracer = None
    if task["collect_events"]:
        from repro.obs.tracer import Tracer
        tracer = Tracer(capacity=TRACE_CAPACITY)
    profiler = Profiler(task["engine"])
    options = InterpOptions(engine=task["engine"], elide_checks=True,
                            fuel=task["fuel"],
                            checks=CALIBRATION_CHECKS)
    interp = Interpreter(checked, platform=platform, options=options,
                         seed=task["platform_seed"], tracer=tracer,
                         profiler=profiler)
    toplevel_exception = False
    try:
        interp.run(list(task["args"]))
    except EnergyException:
        toplevel_exception = True
    profile = profiler.profile
    result: Dict[str, object] = {
        "energy_j": platform.energy_total_j(),
        "check_executed": {
            sid: int(entry.get("executed", 0))
            for sid, entry in sorted(profile.check_sites.items())
            if int(entry.get("executed", 0)) > 0},
        "energy_exceptions": interp.stats.energy_exceptions,
        "steps": interp.stats.steps,
        "toplevel_exception": toplevel_exception,
        "discharged": discharged,
        "residual_sites": sorted(s.site_id for s in report.sites
                                 if s.status == "residual"
                                 and s.owner_class not in pinned),
    }
    if tracer is not None:
        counts: Dict[str, Dict[str, int]] = {}
        for event in tracer.events():
            if getattr(event, "kind", None) != "attributor":
                continue
            mode = event.mode
            if mode is None:
                continue
            per_cls = counts.setdefault(event.cls, {})
            per_cls[mode] = per_cls.get(mode, 0) + 1
        result["attributor_modes"] = counts
    return result


# ---------------------------------------------------------------------------
# Result


@dataclass
class AdviseResult:
    file: str
    config: AdviseConfig
    model: CostModel
    classes: Dict[str, List[str]]
    candidates: List[Candidate]
    frontier: List[Candidate]
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        cfg = self.config
        return {
            "file": self.file,
            "arch": self.model.arch,
            "engine": cfg.engine,
            "system": cfg.system,
            "seed": cfg.seed,
            "runs": cfg.runs,
            "samples": cfg.samples,
            "batteries": list(cfg.batteries),
            "classes": {cls: list(modes)
                        for cls, modes in sorted(self.classes.items())},
            "candidates": [c.as_dict() for c in self.candidates],
            "frontier": [c.as_dict() for c in self.frontier],
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    def render(self, top: Optional[int] = None) -> str:
        from repro.advise.propagate import format_interval

        lines = [f"advise {self.file} — arch {self.model.arch}, "
                 f"engine {self.config.engine}, system "
                 f"{self.config.system}, seed {self.config.seed}"]
        if self.classes:
            decls = ", ".join(f"{cls} ∈ {{?, {', '.join(modes)}}}"
                              for cls, modes
                              in sorted(self.classes.items()))
            lines.append(f"dynamic classes: {decls}")
        lines.append("")
        frontier_keys = {c.name for c in self.frontier}
        ranked = sorted(self.candidates,
                        key=lambda c: (c.energy.mean, c.risk, c.name))
        if top is not None and top < len(ranked):
            shown = [c for c in ranked if c.name in frontier_keys]
            extras = [c for c in ranked if c.name not in frontier_keys]
            shown += extras[:max(0, top - len(shown))]
            shown.sort(key=lambda c: (c.energy.mean, c.risk, c.name))
            dropped = len(ranked) - len(shown)
        else:
            shown, dropped = ranked, 0
        name_w = max(len("assignment"),
                     *(len(c.name) for c in shown)) if shown else 10
        lines.append(f"  {'assignment':<{name_w}}  "
                     f"{'energy (99% CI)':>28}  {'risk':>8}  frontier")
        for cand in shown:
            mark = "  *" if cand.name in frontier_keys else ""
            lines.append(
                f"  {cand.name:<{name_w}}  "
                f"{format_interval(cand.energy, 'J'):>28}  "
                f"{cand.risk:>8.4f}{mark}")
        if dropped:
            lines.append(f"  ... ({dropped} more candidates; "
                         f"raise --top)")
        lines.append("")
        lines.append(f"Pareto frontier: {len(self.frontier)} "
                     f"non-dominated assignment(s)")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The sweep


def _enumerate_candidates(classes: Dict[str, List[str]],
                          cap: int, notes: List[str]
                          ) -> List[Dict[str, Optional[str]]]:
    """All-dynamic first, then the cross product of per-class options
    in deterministic (class-name, mode-name) order, capped at ``cap``."""
    names = sorted(classes)
    options: List[List[Optional[str]]] = [
        [None] + list(classes[cls]) for cls in names]
    assignments: List[Dict[str, Optional[str]]] = []
    for combo in itertools.product(*options):
        assignments.append(dict(zip(names, combo)))
        if len(assignments) > cap:
            total = 1
            for opts in options:
                total *= len(opts)
            notes.append(f"assignment space truncated to {cap} of "
                         f"{total} candidates")
            return assignments[:cap]
    return assignments


def _mc_mismatch_rate(rng: SplitMix64, modes: Sequence[str],
                      weights: Sequence[float], pinned: str,
                      samples: int) -> float:
    """Monte-Carlo estimate of P(draw != pinned) under the smoothed
    attributor distribution."""
    total = sum(weights)
    mismatches = 0
    for _ in range(samples):
        u = rng.random() * total
        acc = 0.0
        drawn = modes[-1]
        for mode, weight in zip(modes, weights):
            acc += weight
            if u < acc:
                drawn = mode
                break
        if drawn != pinned:
            mismatches += 1
    return mismatches / samples if samples else 0.0


def advise_source(source: str, file: str = "<advise>",
                  config: Optional[AdviseConfig] = None,
                  model: Optional[CostModel] = None) -> AdviseResult:
    """Run the full sweep over ``source`` and return the scored result."""
    from repro.analysis.obligations import ProgramAnalyzer
    from repro.lang.typechecker import check_program

    cfg = config or AdviseConfig()
    cfg.engine = resolve_engine(cfg.engine)
    model = model or builtin_model(cfg.arch)
    notes: List[str] = []

    checked = check_program(source, file)
    analyzer = ProgramAnalyzer(checked)
    analyzer.analyze()
    declared = sorted(m.name for m in checked.lattice.declared_modes)
    hulls = analyzer.class_hulls()
    classes: Dict[str, List[str]] = {}
    for cls in analyzer.dynamic_classes():
        hull = hulls.get(cls)
        modes = sorted(m.name for m in hull) if hull else list(declared)
        classes[cls] = modes
    if not classes:
        notes.append("no dynamic classes; nothing to advise")

    assignments = _enumerate_candidates(classes, MAX_CANDIDATES, notes)

    # -- calibration ---------------------------------------------------
    tasks: Dict[Tuple[int, int, int], Dict[str, object]] = {}
    for cand_idx, assignment in enumerate(assignments):
        dynamic_baseline = all(m is None
                               for m in assignment.values())
        for run_idx in range(cfg.runs):
            for bat_idx, battery in enumerate(cfg.batteries):
                tasks[(cand_idx, run_idx, bat_idx)] = {
                    "source": source,
                    "file": file,
                    "assignment": assignment,
                    "engine": cfg.engine,
                    "system": cfg.system,
                    "battery": battery,
                    "platform_seed": derive_seed(
                        cfg.seed, CAL_STREAM, run_idx, bat_idx),
                    "fuel": cfg.fuel,
                    "args": tuple(cfg.program_args),
                    "collect_events": dynamic_baseline,
                }

    keys = sorted(tasks)
    results = {keys[index]: result for index, result in run_keyed(
        _calibration_worker, [tasks[k] for k in keys], cfg.jobs)}

    # -- baseline attributor distribution ------------------------------
    baseline_idx = next(
        (idx for idx, a in enumerate(assignments)
         if all(m is None for m in a.values())), None)
    attr_counts: Dict[str, Dict[str, int]] = {}
    baseline_exc = 0.0
    if baseline_idx is not None:
        cells = [results[k] for k in keys if k[0] == baseline_idx]
        for cell in cells:
            for cls, modes in cell.get("attributor_modes",
                                       {}).items():
                per_cls = attr_counts.setdefault(cls, {})
                for mode, count in modes.items():
                    per_cls[mode] = per_cls.get(mode, 0) + count
        if cells:
            baseline_exc = (sum(c["energy_exceptions"] for c in cells)
                            / len(cells))

    # -- scoring -------------------------------------------------------
    candidates: List[Candidate] = []
    for cand_idx, assignment in enumerate(assignments):
        cells = [results[k] for k in keys if k[0] == cand_idx]
        if not cells:
            continue
        energies = [c["energy_j"] for c in cells]
        measured = widen(Uncertain.from_samples(energies),
                         rel_floor=CI_REL_FLOOR)

        # Residual-check energy from the cost model: mean executed
        # count per site across cells, priced per check kind.  The
        # simulator charges checks zero joules, so this term never
        # double-counts the measured energy.
        check_means: Dict[str, float] = {}
        for cell in cells:
            for sid, count in cell["check_executed"].items():
                check_means[sid] = check_means.get(sid, 0.0) + count
        for sid in check_means:
            check_means[sid] /= len(cells)
        check_energy = sum_uncertain(
            model.cost_j("check." + sid, count)
            for sid, count in sorted(check_means.items()))
        energy = measured + check_energy

        # Monte-Carlo per-decision violation risk for each pin.
        rng = SplitMix64(derive_seed(cfg.seed, RISK_STREAM, cand_idx))
        risk = 0.0
        risk_by_class: Dict[str, float] = {}
        for cls in sorted(assignment):
            pinned_mode = assignment[cls]
            if pinned_mode is None:
                continue
            support = classes.get(cls, declared)
            observed = attr_counts.get(cls, {})
            weights = [observed.get(mode, 0) + 1.0 for mode in support]
            rate = _mc_mismatch_rate(rng, support, weights,
                                     pinned_mode, cfg.samples)
            risk_by_class[cls] = rate
            risk += rate
        exc = (sum(c["energy_exceptions"] for c in cells)
               / len(cells))
        exc_delta = max(0.0, exc - baseline_exc)
        risk += exc_delta

        detail = {
            "measured_j": measured.as_dict(),
            "check_model_j": check_energy.as_dict(),
            "check_executed_mean": {
                sid: round(v, 6)
                for sid, v in sorted(check_means.items())},
            "energy_exceptions_mean": round(exc, 6),
            "exception_risk": round(exc_delta, 6),
            "risk_by_class": {cls: round(v, 6)
                              for cls, v in
                              sorted(risk_by_class.items())},
            "residual_sites": cells[0]["residual_sites"],
            "steps_mean": round(sum(c["steps"] for c in cells)
                                / len(cells), 3),
        }
        candidates.append(Candidate(assignment=dict(assignment),
                                    energy=energy, risk=risk,
                                    detail=detail))

    frontier = pareto_frontier(candidates)
    return AdviseResult(file=file, config=cfg, model=model,
                        classes=classes, candidates=candidates,
                        frontier=frontier, notes=notes)


def measure_assignment(source: str,
                       assignment: Dict[str, Optional[str]],
                       config: AdviseConfig, platform_seed: int,
                       battery: Optional[float] = None,
                       file: str = "<advise>") -> Dict[str, object]:
    """Run one assignment once on a fresh platform seed and return its
    measurements (``energy_j``, ``check_executed``, stats).

    This is the frontier-validation entry point: advise, then replay a
    recommended assignment on *held-out* seeds (e.g. derived under
    :data:`VALIDATE_STREAM`) and check the measured joules land inside
    the reported confidence interval.
    """
    return _calibration_worker({
        "source": source,
        "file": file,
        "assignment": dict(assignment),
        "engine": resolve_engine(config.engine),
        "system": config.system,
        "battery": config.batteries[0] if battery is None else battery,
        "platform_seed": platform_seed,
        "fuel": config.fuel,
        "args": tuple(config.program_args),
        "collect_events": False,
    })


def advise_file(path: str, config: Optional[AdviseConfig] = None,
                model: Optional[CostModel] = None) -> AdviseResult:
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    return advise_source(source, file=path, config=config, model=model)

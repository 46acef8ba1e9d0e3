"""Compiler-pipeline microbenchmarks: lexing, parsing, typechecking and
interpretation throughput of the ENT implementation itself.

Not a paper figure — these benches track the reproduction's own
implementation quality (the compilers-PL equivalent of a perf suite),
and make pipeline regressions visible.  Run it as a script::

    PYTHONPATH=src python benchmarks/bench_lang_pipeline.py \\
        --out BENCH_lang.json

which times every pipeline stage (per-scenario min/mean/std over N
repeats) and writes the measurements in the same spirit as
``BENCH_eval.json``.  Every gate is a flag, and all of them run on the
one set of fresh numbers:

* ``--check BENCH_lang.json --max-regression 2.0`` fails when a smoke
  bench's *min* is more than 2x the committed baseline's, or when a
  smoke bench is missing from either report;
* ``--min-transient-speedup 1.3`` fails unless transient checking beats
  full checking by 1.3x on the residual hot loop (vm and jit);
* ``--min-jit-over-vm 1.5`` fails unless the JIT runs the hot loop 1.5x
  faster than the VM.
"""

from repro.lang.lexer import tokenize
from repro.lang.parser import parse_program
from repro.lang.typechecker import check_program
from repro.lang.interp import Interpreter, InterpOptions

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


def _synthesize_program(classes: int = 20) -> str:
    """A deterministic medium-sized ENT program."""
    parts = [MODES]
    for index in range(classes):
        parts.append(f"""
class Worker{index}@mode<?X> {{
    int load;
    attributor {{
        if (load > 100) {{ return full_throttle; }}
        if (load > 10) {{ return managed; }}
        return energy_saver;
    }}
    Worker{index}(int load) {{ this.load = load; }}
    mcase<int> factor = mcase{{
        energy_saver: 1; managed: 2; full_throttle: 4;
    }};
    int work(int amount) {{
        int acc = 0;
        int i = 0;
        while (i < amount) {{ acc = acc + factor; i = i + 1; }}
        return acc;
    }}
}}
""")
    body = []
    for index in range(classes):
        body.append(f"Worker{index} w{index} = "
                    f"snapshot (new Worker{index}@mode<?>({index * 9}));")
        body.append(f"total = total + w{index}.work(20);")
    parts.append("class Main { void main() { int total = 0; "
                 + " ".join(body) + " Sys.print(total); } }")
    return "".join(parts)


PROGRAM = _synthesize_program()
CHECKED = check_program(PROGRAM)


HOT_LOOP = MODES + """
class Acc@mode<full_throttle> {
    int total;
    int bump(int k) { total = total + k; return total; }
}
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 8000) { a.bump(i % 7); i = i + 1; }
        Sys.print(a.total);
    }
}
"""
HOT_CHECKED = check_program(HOT_LOOP)


def _hot_checked_elided():
    """A separately-checked copy of the hot loop with the elision plan
    applied (kept apart from ``HOT_CHECKED`` so the baseline benches
    keep executing every check)."""
    from repro.analysis import plan_elisions

    checked = check_program(HOT_LOOP)
    plan_elisions(checked)
    return checked


HOT_ELIDED = _hot_checked_elided()


HOT_RESIDUAL = MODES + """
class R@mode<?X> {
    int load;
    attributor {
        if (load > 100) { return full_throttle; }
        if (load > 10) { return managed; }
        return energy_saver;
    }
    R(int load) { this.load = load; }
    int get() { return load; }
}
class Main {
    void main() {
        R@mode<?> r = new R@mode<?>(50);
        int total = 0;
        int i = 0;
        while (i < 8000) {
            R s = snapshot r [managed, full_throttle];
            total = total + s.get();
            i = i + 1;
        }
        Sys.print(total);
    }
}
"""
RESIDUAL_CHECKED = check_program(HOT_RESIDUAL)


SMALLSTEP_SOURCE = MODES + """
class D@mode<?X> {
    int n;
    attributor { return managed; }
    D(int n) { this.n = n; }
    int work(int k) { return n + k; }
}
class Main {
    int main() {
        return (snapshot (new D@mode<?>(1))).work(
               (snapshot (new D@mode<?>(2))).work(
               (snapshot (new D@mode<?>(3))).work(0)));
    }
}
"""


# ---------------------------------------------------------------------------
# The BENCH_lang.json reporter.
# ---------------------------------------------------------------------------

#: Keys the CI smoke job guards against regression.  The interpreter hot
#: loop is the canonical "is the lang pipeline still fast?" signal.
SMOKE_KEYS = ("hot_loop_walk_s", "hot_loop_vm_s", "hot_loop_jit_s",
              "typechecker_s")

#: Execution engines every hot-loop scenario is measured under.
ENGINES = ("walk", "vm", "jit")

#: Engines the transient-speedup gate applies to: the perf bar of
#: transient checking is the vm's shallow opcodes and the jit's inlined
#: tag probes (the walk also wins, but is not gated).
TRANSIENT_GATED = ("vm", "jit")


def _sample(fn, repeats):
    """Time ``fn`` ``repeats`` times; returns ``{min, mean, std}``.

    CI gates on ``min`` (the least-noisy statistic on a shared
    runner); mean/std are recorded so the committed baseline shows the
    spread the min was drawn from.
    """
    import math
    import time

    # One untimed warmup repeat: the first run pays one-off costs
    # (lazy body lowering, cache population, allocator warmup) that
    # are not the steady-state signal and inflate both mean and std.
    fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    return {
        "min": round(min(samples), 6),
        "mean": round(mean, 6),
        "std": round(math.sqrt(var), 6),
    }


def _run_hot_loop(engine, checked=None):
    interp = Interpreter(
        checked if checked is not None else HOT_CHECKED,
        options=InterpOptions(fuel=10_000_000, engine=engine))
    interp.run()
    if interp.output != ["23997"]:
        raise AssertionError(
            f"hot loop produced {interp.output!r}, expected ['23997']")
    return interp


def _run_residual_loop(engine, checks):
    interp = Interpreter(
        RESIDUAL_CHECKED,
        options=InterpOptions(fuel=10_000_000, engine=engine,
                              checks=checks))
    interp.run()
    if interp.output != ["400000"]:
        raise AssertionError(
            f"residual loop produced {interp.output!r}, "
            f"expected ['400000']")
    return interp


def _check_counts():
    """Dynamic-check counts of the hot loop, with and without elision.

    Counted on every engine and asserted identical — the acceptance
    criterion that the engines differ only in speed, never in which
    checks run.
    """
    per_engine = {}
    for engine in ENGINES:
        plain = _run_hot_loop(engine)
        elided = _run_hot_loop(engine, HOT_ELIDED)
        per_engine[engine] = {
            "hot_loop": {
                "executed": plain.stats.dfall_checks
                + plain.stats.bound_checks,
                "elided": plain.stats.dfall_elided
                + plain.stats.bound_checks_elided,
            },
            "hot_loop_elide": {
                "executed": elided.stats.dfall_checks
                + elided.stats.bound_checks,
                "elided": elided.stats.dfall_elided
                + elided.stats.bound_checks_elided,
            },
        }
    reference = per_engine["walk"]
    for engine, counts in per_engine.items():
        if counts != reference:
            raise AssertionError(
                f"check counts differ: walk={reference} "
                f"{engine}={counts}")
    return reference


def measure(repeats=5):
    """Time each pipeline stage (min/mean/std over ``repeats``)."""
    import platform as host_platform

    from repro.lang import run_source
    from repro.lang.smallstep import run_kernel

    small_checked = check_program(SMALLSTEP_SOURCE)

    def run_interp():
        interp = Interpreter(CHECKED,
                             options=InterpOptions(fuel=10_000_000))
        interp.run()
        if not (interp.output and interp.output[0].isdigit()):
            raise AssertionError(f"unexpected output {interp.output!r}")

    benches = {
        "lexer_s": _sample(lambda: tokenize(PROGRAM), repeats),
        "parser_s": _sample(lambda: parse_program(PROGRAM), repeats),
        "typechecker_s": _sample(lambda: check_program(PROGRAM), repeats),
        "interpreter_s": _sample(run_interp, repeats),
        "end_to_end_s": _sample(lambda: run_source(PROGRAM), repeats),
        "smallstep_s": _sample(lambda: run_kernel(small_checked), repeats),
    }
    for engine in ENGINES:
        benches[f"hot_loop_{engine}_s"] = _sample(
            lambda engine=engine: _run_hot_loop(engine), repeats)
        benches[f"hot_loop_elide_{engine}_s"] = _sample(
            lambda engine=engine: _run_hot_loop(engine, HOT_ELIDED),
            repeats)
        benches[f"hot_loop_residual_{engine}_s"] = _sample(
            lambda engine=engine: _run_residual_loop(engine, "full"),
            repeats)
        benches[f"hot_loop_transient_{engine}_s"] = _sample(
            lambda engine=engine: _run_residual_loop(engine,
                                                     "transient"),
            repeats)
    return {
        "bench": "lang_pipeline",
        "repeats": repeats,
        "benches": benches,
        "checks": _check_counts(),
        "transient_speedup": {
            engine: round(
                benches[f"hot_loop_residual_{engine}_s"]["min"]
                / benches[f"hot_loop_transient_{engine}_s"]["min"], 3)
            for engine in ENGINES},
        "python": host_platform.python_version(),
        "machine": host_platform.machine(),
    }


def _min_of(entry):
    """Seconds to compare on: ``min`` of a stats dict, or the bare
    number old (pre-min/mean/std) reports recorded."""
    if isinstance(entry, dict):
        return entry["min"]
    return entry


def check_against(payload, baseline, max_regression):
    """Compare ``payload`` against a baseline report.

    Returns (ok, lines): ``ok`` is False when any SMOKE_KEYS bench's
    *min* is slower than ``max_regression`` times the baseline min —
    comparing minima keeps one noisy repeat on a shared CI runner from
    masking (or faking) a real regression — or when a SMOKE_KEYS bench
    is missing from the payload or the baseline, since a gate that
    cannot compare must not pass.
    """
    ok = True
    lines = []
    benches = payload.get("benches", {})
    base_benches = baseline.get("benches", {})
    for key in sorted(set(benches) | set(SMOKE_KEYS)):
        entry = benches.get(key)
        if entry is None:
            ok = False
            lines.append(f"{key:>26}: missing  <-- MISSING smoke bench")
            continue
        current = _min_of(entry)
        base_entry = base_benches.get(key)
        if not base_entry:
            marker = ""
            if key in SMOKE_KEYS:
                ok = False
                marker = "  <-- MISSING from baseline"
            lines.append(f"{key:>26}: {current:.6f}s (no baseline)"
                         f"{marker}")
            continue
        base = _min_of(base_entry)
        ratio = current / base
        marker = ""
        if key in SMOKE_KEYS and ratio > max_regression:
            ok = False
            marker = f"  <-- REGRESSION (> {max_regression:.1f}x)"
        lines.append(f"{key:>26}: {current:.6f}s vs {base:.6f}s "
                     f"baseline ({base / current:.2f}x speedup){marker}")
    return ok, lines


def check_ratios(payload, min_transient_speedup=None,
                 min_jit_over_vm=None):
    """Gate the speedup claims on the fresh numbers alone.

    Returns (ok, lines), like :func:`check_against`.  A ``None``
    threshold skips its gate; a ratio whose inputs are missing fails.

    * transient: ``transient_speedup`` (full / transient on the
      residual hot loop) must reach ``min_transient_speedup`` on every
      engine in TRANSIENT_GATED;
    * jit over vm: the hot loop's vm min over its jit min must reach
      ``min_jit_over_vm``.
    """
    gates = []  # (label, ratio or None when missing, minimum)
    if min_transient_speedup is not None:
        speedups = payload.get("transient_speedup", {})
        for engine in TRANSIENT_GATED:
            gates.append((f"transient speedup [{engine}]",
                          speedups.get(engine), min_transient_speedup))
    if min_jit_over_vm is not None:
        benches = payload.get("benches", {})
        vm = benches.get("hot_loop_vm_s")
        jit = benches.get("hot_loop_jit_s")
        ratio = (None if vm is None or jit is None
                 else _min_of(vm) / _min_of(jit))
        gates.append(("jit over vm [hot loop]", ratio, min_jit_over_vm))
    ok = True
    lines = []
    for label, ratio, minimum in gates:
        if ratio is None:
            ok = False
            lines.append(f"{label}: MISSING")
        elif ratio < minimum:
            ok = False
            lines.append(f"{label}: {ratio:.2f}x FAIL (< {minimum:.2f}x)")
        else:
            lines.append(f"{label}: {ratio:.2f}x ok")
    return ok, lines


def main(argv=None):
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="lang-pipeline wall-clock benchmark reporter")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per bench; min/mean/std "
                             "are recorded (default 5)")
    parser.add_argument("--out", default="BENCH_lang.json",
                        help="path of the JSON report to write")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a baseline BENCH_lang.json")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when a smoke bench is this many times "
                             "slower than the baseline (default 2.0)")
    parser.add_argument("--min-transient-speedup", type=float,
                        default=None, metavar="RATIO",
                        help="fail unless transient checking beats full "
                             "checking by at least RATIO on the residual "
                             "hot loop for the vm and jit engines")
    parser.add_argument("--min-jit-over-vm", type=float, default=None,
                        metavar="RATIO",
                        help="fail unless the jit runs the hot loop at "
                             "least RATIO times faster than the vm")
    args = parser.parse_args(argv)

    # Load the baseline up front: when --out and --check name the same
    # file (easy to do from CI) the comparison must use the numbers that
    # were there before this run, not the ones we are about to write.
    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    payload = measure(repeats=args.repeats)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"[written to {args.out}]")

    status = 0
    if baseline is not None:
        ok, lines = check_against(payload, baseline, args.max_regression)
        print(f"[baseline: {args.check}]")
        for line in lines:
            print(line)
        if not ok:
            print("ERROR: a lang-pipeline smoke bench regressed beyond "
                  f"{args.max_regression}x or is missing", file=sys.stderr)
            status = 1
    ok, lines = check_ratios(payload, args.min_transient_speedup,
                             args.min_jit_over_vm)
    for line in lines:
        print(line)
    if not ok:
        print("ERROR: a speedup ratio gate failed", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    import sys

    sys.exit(main())

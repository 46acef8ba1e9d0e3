"""The lang-pipeline speed gates, read from entbench's ``ent_exec`` cells.

entbench is the one timing harness for the ENT pipeline: ``ent_exec``
times a static send loop, a residual re-snapshot loop (full and
transient checks) and a polymorphic loop on walk, vm and jit, checks
every op against an oracle, normalises every time by an interleaved
CPU-speed probe, and writes each cell's median to a detail file.  This
script times nothing; it gates on those medians::

    python3 entbench/run.py --workload ent_exec --seed 0 --seconds 10 \\
        --trace 0 --out /tmp/entbench
    python3 benchmarks/bench_lang_pipeline.py \\
        /tmp/entbench/ent_exec-seed0-trace0.json \\
        --out BENCH_lang.current.json --check BENCH_lang.json \\
        --max-regression 1.5 --min-transient-speedup 1.3 \\
        --min-jit-over-vm 1.5

Every gate is a flag:

* ``--check BASELINE --max-regression R`` fails when the send loop's
  exec cell on walk, vm or jit, or the compile cell that stands in for
  the typechecker, is more than R times the baseline's;
* ``--min-transient-speedup`` fails unless ``residual.full`` over
  ``residual.transient`` exec reaches it on vm and on jit;
* ``--min-jit-over-vm`` fails unless the send loop's vm exec over its
  jit exec reaches it.

A gate whose cell is missing fails, and so does a detail file that
reports errors or whose workload, seed or trace setting differs from
the others' or the baseline's.  Given several detail files, each cell
is the median of their medians; ``--out BENCH_lang.json`` with the
files of a few runs re-pins the baseline.  Per-stage self times
(lexer, parser, typechecker, analysis, bytecode, jit) with 99%
intervals are what ``entbench/run.py --trace 1`` reports.
"""

import argparse
import json
import statistics
import sys

ENGINES = ("walk", "vm", "jit")

#: The send loop whose exec time is gated, per engine.
SEND = "send.elide"

#: The compile part (``check_program`` plus the elision planner) of
#: this cell stands in for the typechecker's time.  The polymorphic
#: program is the largest of ``ent_exec``, and its compile median the
#: steadiest across runs.
TYPECHECK = ("poly/walk", "compile")

#: (cell, part) pairs the regression gate compares to the baseline.
REGRESSION_CELLS = tuple((f"{SEND}/{engine}", "exec")
                         for engine in ENGINES) + (TYPECHECK,)

#: Engines the transient-speedup gate applies to: the perf bar of
#: transient checking is the vm's shallow opcodes and the jit's inlined
#: tag probes (the walk also wins, but is not gated).
TRANSIENT_GATED = ("vm", "jit")

#: (cell, part) pairs the ratio gates read.
RATIO_CELLS = tuple((f"residual.{checks}/{engine}", "exec")
                    for engine in TRANSIENT_GATED
                    for checks in ("full", "transient"))

#: Detail-file fields that must agree across files and with the baseline.
IDENTITY = ("workload", "seed", "trace")


def summarise(details):
    """The report of entbench detail payloads: their identity, their
    errors, and the median over the payloads of each gated cell's
    median (normalised ms).  A cell missing from any payload is left
    out, so the gates that read it fail."""
    report = {"bench": "lang_pipeline", "runs": len(details)}
    errors = []
    for field in IDENTITY:
        values = [detail.get(field) for detail in details]
        report[field] = values[0]
        if any(value != values[0] for value in values):
            errors.append(f"detail files differ in {field}: {values}")
    for detail in details:
        errors += detail.get("errors") or []
    report["errors"] = errors
    cells = {}
    for cell, part in sorted(set(REGRESSION_CELLS + RATIO_CELLS)):
        medians = [detail.get("cells", {}).get(cell, {}).get(part)
                   for detail in details]
        if all(medians):
            cells.setdefault(cell, {})[part] = round(statistics.median(
                m["median"] for m in medians), 4)
    report["cells"] = cells
    report["ratios"] = {label: None if ratio is None else round(ratio, 3)
                        for label, _, ratio in _ratios(report)}
    return report


def _cell(report, cell, part):
    return report.get("cells", {}).get(cell, {}).get(part)


def _quotient(report, num, den):
    top, bottom = _cell(report, *num), _cell(report, *den)
    return None if top is None or bottom is None else top / bottom


def _ratios(report):
    """(label, gate, ratio or None when a cell is missing) of each
    ratio gate."""
    out = [(f"transient speedup [{engine}]", "transient", _quotient(
        report, (f"residual.full/{engine}", "exec"),
        (f"residual.transient/{engine}", "exec")))
        for engine in TRANSIENT_GATED]
    out.append((f"jit over vm [{SEND}]", "jit_over_vm", _quotient(
        report, (f"{SEND}/vm", "exec"), (f"{SEND}/jit", "exec"))))
    return out


def check_against(report, baseline, max_regression):
    """Compare ``report`` with a baseline report.

    Returns (ok, lines): ``ok`` is False when a REGRESSION_CELLS cell
    is more than ``max_regression`` times the baseline's, is missing
    from either report, or when the two differ in an IDENTITY field
    (medians of another program, or of traced runs, do not compare).
    """
    ok = True
    lines = []
    for field in IDENTITY:
        if report.get(field) != baseline.get(field):
            ok = False
            lines.append(f"{field}: {report.get(field)!r} vs "
                         f"{baseline.get(field)!r} baseline  <-- MISMATCH")
    for cell, part in REGRESSION_CELLS:
        label = f"{cell} {part}"
        current = _cell(report, cell, part)
        base = _cell(baseline, cell, part)
        if current is None or base is None:
            ok = False
            where = "report" if current is None else "baseline"
            lines.append(f"{label:>24}: MISSING from the {where}")
            continue
        ratio = current / base
        marker = ""
        if ratio > max_regression:
            ok = False
            marker = f"  <-- REGRESSION (> {max_regression:.2f}x)"
        lines.append(f"{label:>24}: {current:.4f} ms vs {base:.4f} ms "
                     f"baseline ({ratio:.2f}x){marker}")
    return ok, lines


def check_ratios(report, min_transient_speedup=None, min_jit_over_vm=None):
    """Gate the speedup claims on the report alone.

    Returns (ok, lines), like :func:`check_against`.  A ``None``
    threshold skips its gate; a ratio whose cells are missing fails.
    """
    minimums = {"transient": min_transient_speedup,
                "jit_over_vm": min_jit_over_vm}
    ok = True
    lines = []
    for label, gate, ratio in _ratios(report):
        minimum = minimums[gate]
        if minimum is None:
            continue
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
    parser = argparse.ArgumentParser(
        description="lang-pipeline gates over entbench ent_exec detail "
                    "files")
    parser.add_argument("details", nargs="+", metavar="DETAIL_JSON",
                        help="detail file(s) of `entbench/run.py "
                             "--workload ent_exec --trace 0`")
    parser.add_argument("--out", default="BENCH_lang.json",
                        help="path of the JSON report to write")
    parser.add_argument("--check", default=None, metavar="BASELINE",
                        help="compare against a baseline BENCH_lang.json")
    parser.add_argument("--max-regression", type=float, default=1.5,
                        help="fail when a gated cell is more than this "
                             "many times the baseline's (default 1.5)")
    parser.add_argument("--min-transient-speedup", type=float,
                        default=None, metavar="RATIO",
                        help="fail unless transient checking beats full "
                             "checking by at least RATIO on the residual "
                             "loop for the vm and jit engines")
    parser.add_argument("--min-jit-over-vm", type=float, default=None,
                        metavar="RATIO",
                        help="fail unless the jit runs the send loop at "
                             "least RATIO times faster than the vm")
    args = parser.parse_args(argv)

    details = []
    for path in args.details:
        with open(path, "r", encoding="utf-8") as handle:
            details.append(json.load(handle))
    # Load the baseline before writing: --out and --check may name the
    # same file, and the comparison must use the numbers already there.
    baseline = None
    if args.check:
        with open(args.check, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)

    report = summarise(details)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"[written to {args.out}]")

    status = 0
    if report["errors"]:
        print("ERROR: the detail files report errors", file=sys.stderr)
        status = 1
    if baseline is not None:
        ok, lines = check_against(report, baseline, args.max_regression)
        print(f"[baseline: {args.check}]")
        for line in lines:
            print(line)
        if not ok:
            print("ERROR: a lang-pipeline cell regressed beyond "
                  f"{args.max_regression}x, is missing, or was measured "
                  f"on other inputs", file=sys.stderr)
            status = 1
    ok, lines = check_ratios(report, args.min_transient_speedup,
                             args.min_jit_over_vm)
    for line in lines:
        print(line)
    if not ok:
        print("ERROR: a speedup ratio gate failed", file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

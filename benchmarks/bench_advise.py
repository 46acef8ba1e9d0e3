"""Advisor sweep benchmark and CI reporter.

Measures the wall-time of a full ``repro advise`` sweep (candidate
enumeration + paired-seed calibration + Monte-Carlo risk + frontier)
per example and per ``jobs`` value, and writes ``BENCH_advise.json``::

    PYTHONPATH=src python benchmarks/bench_advise.py \\
        --jobs-counts 1,4 --out BENCH_advise.json

Two properties are checked on every run:

* **Invariance** — the full JSON result (every candidate score, every
  interval, the frontier) must be byte-identical across all swept
  ``jobs`` values; a mismatch is a correctness failure and exits 1.
* **Frontier floor** — every example must report at least three
  non-dominated assignments; an advisor whose frontier collapses to a
  single point has lost the energy/risk trade-off it exists to expose.
"""

import pathlib

from repro.advise import AdviseConfig, advise_file

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = ("examples/ent/crawler.ent", "examples/ent/sensors.ent")


def _fingerprint(result) -> str:
    import hashlib

    return hashlib.sha256(
        result.to_json().encode("utf-8")).hexdigest()


def measure(jobs_counts, runs=2, samples=64, seed=0,
            archs=("sim45nm",)):
    """Run the sweep grid; returns the BENCH_advise.json payload."""
    import os
    import platform as host_platform
    import time

    entries = []
    all_identical = True
    frontier_floor_ok = True
    for example in EXAMPLES:
        path = str(ROOT / example)
        for arch in archs:
            fingerprints = set()
            for jobs in jobs_counts:
                config = AdviseConfig(arch=arch, jobs=jobs, runs=runs,
                                      samples=samples, seed=seed)
                start = time.perf_counter()
                result = advise_file(path, config=config)
                elapsed = time.perf_counter() - start
                fingerprints.add(_fingerprint(result))
                candidates = len(result.candidates)
                entries.append({
                    "example": example,
                    "arch": arch,
                    "jobs": jobs,
                    "candidates": candidates,
                    "frontier": len(result.frontier),
                    "elapsed_s": round(elapsed, 6),
                    "candidates_per_sec":
                        round(candidates / elapsed, 2) if elapsed
                        else None,
                    "result_sha256": _fingerprint(result),
                })
                if len(result.frontier) < 3:
                    frontier_floor_ok = False
            if len(fingerprints) != 1:
                all_identical = False
    return {
        "bench": "advise",
        "runs": runs,
        "samples": samples,
        "seed": seed,
        "jobs_counts": list(jobs_counts),
        "entries": entries,
        "results_identical_across_jobs": all_identical,
        "frontier_floor_ok": frontier_floor_ok,
        "cpu_count": os.cpu_count(),
        "python": host_platform.python_version(),
        "machine": host_platform.machine(),
    }


def main(argv=None):
    import argparse
    import json
    import sys

    parser = argparse.ArgumentParser(
        description="advisor sweep benchmark reporter")
    parser.add_argument("--jobs-counts", default="1,4",
                        help="comma-separated jobs values to sweep "
                             "(default 1,4)")
    parser.add_argument("--runs", type=int, default=2,
                        help="calibration runs per battery level")
    parser.add_argument("--samples", type=int, default=64,
                        help="Monte-Carlo draws per pinned class")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--archs", default="sim45nm",
                        help="comma-separated cost-model archs")
    parser.add_argument("--out", default="BENCH_advise.json",
                        help="path of the JSON report to write")
    args = parser.parse_args(argv)

    jobs_counts = [int(v) for v in args.jobs_counts.split(",")]
    payload = measure(jobs_counts, runs=args.runs,
                      samples=args.samples, seed=args.seed,
                      archs=tuple(args.archs.split(",")))
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for entry in payload["entries"]:
        print(f"{entry['example']} arch={entry['arch']} "
              f"jobs={entry['jobs']}: {entry['candidates']} candidates "
              f"in {entry['elapsed_s']:.2f}s "
              f"({entry['candidates_per_sec']}/s), "
              f"frontier={entry['frontier']}")
    print(f"results identical across jobs: "
          f"{payload['results_identical_across_jobs']}")
    print(f"frontier floor (>=3) ok: {payload['frontier_floor_ok']}")
    print(f"wrote {args.out}")
    if not payload["results_identical_across_jobs"]:
        print("FAIL: results differ across --jobs values",
              file=sys.stderr)
        return 1
    if not payload["frontier_floor_ok"]:
        print("FAIL: an example's frontier has fewer than 3 points",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())

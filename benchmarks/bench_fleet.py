"""Fleet-service throughput benchmark and CI gate.

Measures devices/sec of ``repro.fleet.run_fleet`` per shard count and
per engine, and writes ``BENCH_fleet.json``::

    PYTHONPATH=src python benchmarks/bench_fleet.py \\
        --devices 10000 --shard-counts 1,2,4 --out BENCH_fleet.json

Two properties are checked on every run:

* **Invariance** — the aggregate digest (every counter, every
  histogram bucket) must be byte-identical across all shard counts
  and across both engines; a mismatch is a correctness failure and
  exits 1 unconditionally.
* **Scaling gate** — with ``--gate R``, devices/sec at the highest
  shard count must be at least ``R``x the single-shard rate.  The
  gate binds only when the machine actually has that many cores
  (``os.cpu_count() >= max shards``).  On smaller hosts the ratio
  would measure the pool's overhead, not scaling: it is recorded as
  ``"scaling_ratio": null`` with the reason under ``"unmeasured"``,
  and the gate as ``"skipped (N cores < M shards)"``.

The batched engine's single-shard rate is also compared against the
``embedded`` reference engine (fresh platform + runtime + class
instrumentation per device): that ratio is the construction-amortization
win and is recorded as ``batched_over_embedded``.
"""

from repro.fleet import FleetSpec, run_fleet


def _digest_fingerprint(report):
    import hashlib
    import json

    blob = json.dumps(report.aggregate_digest(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measure(devices, shard_counts, seed=0, steps=16,
            engines=("batched", "embedded")):
    """Run the sweep; returns the BENCH_fleet.json payload."""
    import os
    import platform as host_platform

    spec = FleetSpec(devices=devices, seed=seed, steps=steps)
    runs = []
    fingerprints = set()
    for engine in engines:
        for shards in shard_counts:
            # The embedded reference is only needed once for the
            # correctness differential; sweeping its shard counts
            # would double the (slow) part of the run for no signal.
            if engine == "embedded" and shards != shard_counts[0]:
                continue
            report = run_fleet(spec, shards=shards, engine=engine)
            fingerprint = _digest_fingerprint(report)
            fingerprints.add(fingerprint)
            runs.append({
                "engine": engine,
                "shards": report.shards,
                "devices": report.devices,
                "elapsed_s": round(report.elapsed_s, 6),
                "devices_per_sec": round(report.devices_per_sec, 1),
                "digest_sha256": fingerprint,
            })
    def rate(engine, shards):
        for entry in runs:
            if entry["engine"] == engine and entry["shards"] == shards:
                return entry["devices_per_sec"]
        return None

    base = rate("batched", min(shard_counts))
    peak = rate("batched", max(shard_counts))
    embedded = rate("embedded", shard_counts[0])
    scaling = round(peak / base, 3) if base else None
    unmeasured = {}
    cores = os.cpu_count() or 1
    if cores < max(shard_counts):
        scaling = None
        unmeasured["scaling_ratio"] = (
            f"{cores} cores < {max(shard_counts)} shards: the ratio "
            f"would measure pool overhead, not scaling")
    return {
        "bench": "fleet",
        "devices": devices,
        "steps": steps,
        "seed": seed,
        "shard_counts": list(shard_counts),
        "runs": runs,
        "scaling_ratio": scaling,
        "batched_over_embedded":
            round(base / embedded, 3) if embedded else None,
        "digests_identical": len(fingerprints) == 1,
        "cpu_count": os.cpu_count(),
        "unmeasured": unmeasured,
        "python": host_platform.python_version(),
        "machine": host_platform.machine(),
    }


def main(argv=None):
    import argparse
    import json
    import os
    import sys

    parser = argparse.ArgumentParser(
        description="fleet-service throughput benchmark reporter")
    parser.add_argument("--devices", type=int, default=10_000,
                        help="population size per run (default 10000)")
    parser.add_argument("--shard-counts", default="1,2,4",
                        help="comma-separated shard counts to sweep "
                             "(default 1,2,4)")
    parser.add_argument("--steps", type=int, default=16)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--skip-embedded", action="store_true",
                        help="skip the (slow) reference-engine runs")
    parser.add_argument("--out", default="BENCH_fleet.json",
                        help="path of the JSON report to write")
    parser.add_argument("--gate", type=float, default=None,
                        metavar="RATIO",
                        help="require devices/sec at the highest shard "
                             "count to be at least RATIO x the "
                             "single-shard rate (binds only when "
                             "cpu_count >= max shards)")
    args = parser.parse_args(argv)

    shard_counts = sorted({int(s) for s in
                           args.shard_counts.split(",") if s.strip()})
    if not shard_counts:
        parser.error("--shard-counts must name at least one count")
    engines = ("batched",) if args.skip_embedded \
        else ("batched", "embedded")

    payload = measure(args.devices, shard_counts, seed=args.seed,
                      steps=args.steps, engines=engines)

    cores = os.cpu_count() or 1
    status = 0
    if not payload["digests_identical"]:
        payload["gate"] = "FAILED: aggregate digests differ"
        print("ERROR: aggregate digests differ across shard counts / "
              "engines — the fleet fold is not order-independent",
              file=sys.stderr)
        status = 1
    elif args.gate is not None:
        ratio = payload["scaling_ratio"]
        if cores < max(shard_counts):
            payload["gate"] = (f"skipped ({cores} cores < "
                               f"{max(shard_counts)} shards)")
        elif ratio is not None and ratio < args.gate:
            payload["gate"] = (f"FAILED: {ratio:.2f}x < "
                               f"{args.gate:.2f}x at "
                               f"{max(shard_counts)} shards")
            print(f"ERROR: fleet scaling gate failed — "
                  f"{ratio:.2f}x devices/sec at {max(shard_counts)} "
                  f"shards over 1 shard (required {args.gate:.2f}x)",
                  file=sys.stderr)
            status = 1
        else:
            payload["gate"] = (f"passed ({ratio:.2f}x >= "
                               f"{args.gate:.2f}x)")

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(json.dumps(payload, indent=2))
    print(f"[written to {args.out}]")
    return status


if __name__ == "__main__":
    import sys

    sys.exit(main())

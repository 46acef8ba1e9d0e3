"""Fleet-scale device simulation: millions of devices, one governor.

The paper evaluates ENT on single-device episodes; this package turns
the reproduction into a serving-stack-shaped service that simulates a
whole device *population* — each device a platform model plus an
embedded-ENT workload plus a drain profile — sharded across worker
processes and batched within each shard.

Layers (see ``docs/FLEET.md``):

* :mod:`repro.fleet.spec` — the population description
  (:class:`FleetSpec`) and the splitmix-derived per-device parameters;
* :mod:`repro.fleet.device` — one device's ENT episode (the same code
  runs under both execution engines);
* :mod:`repro.fleet.shard` — the per-process worker: builds the
  shared immutable config once, then streams devices through it in
  batches;
* :mod:`repro.fleet.service` — the orchestrator: partitions the
  population, fans shards out through :mod:`repro.core.pool`, and
  folds the keyed aggregates back in arrival order (order-independence
  is guaranteed by construction — every aggregate is integer-exact).

Everything is deterministic from ``FleetSpec.seed``: the aggregates of
``repro fleet run`` are bit-identical for any ``--shards`` value and
any shard completion order.
"""

from repro.fleet.service import FleetReport, run_fleet
from repro.fleet.spec import DeviceParams, FleetSpec, device_params

__all__ = ["DeviceParams", "FleetReport", "FleetSpec", "device_params",
           "run_fleet"]

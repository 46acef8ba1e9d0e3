"""Per-architecture probabilistic energy cost tables.

A :class:`CostModel` maps *cost keys* — coarse operation families plus
the dynamic-check kinds — to per-execution energy **distributions** in
picojoules (mean + relative std, optionally an empirical histogram of
calibration samples).  Three built-in tables ship with the advisor:

* ``sim45nm`` — the simulated platform's nominal 45 nm-class budget
  (the default; matches the scale of ``repro.platform``'s ledger);
* ``skylake`` — desktop-class numbers in the spirit of the paper's
  System A/B host;
* ``cortex-a53`` — mobile-class numbers for the System C profile.

The numbers are *model priors*, not measurements: `repro advise
--calibrate-from profile.json` replaces them with empirical pJ/exec
samples computed from a ``repro profile --json --energy`` payload
(measured joules per label / execution counts), which is the paper's
"observe, then adapt" loop closed over the cost model itself.

Label resolution — how a profiler label finds its cost key::

    exact key match            "check.dfall", "native", ...
    op.<NAME>                  via the VM's OP_COST_KEYS families
    check.<kind>@<line>:<col>  -> "check.<kind>"
    label family               via repro.lang.engines.label_kind
    otherwise                  -> "default"

so every label any engine emits lands on a priced key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.errors import EntError
from repro.lang.bytecode import OP_COST_KEYS, OP_NAMES
from repro.lang.engines import label_kind

from repro.advise.propagate import Uncertain

__all__ = ["CostEntry", "CostModel", "ARCHS", "DEFAULT_ARCH",
           "builtin_model", "read_json_object", "PJ_TO_J"]

#: Picojoules to joules.
PJ_TO_J = 1e-12

#: ``op.<NAME>`` label -> cost-key family, derived from the VM's
#: per-opcode table so the two can never drift apart.
_OP_LABEL_KEYS: Dict[str, str] = {
    f"op.{OP_NAMES[op]}": key for op, key in OP_COST_KEYS.items()
}


@dataclass
class CostEntry:
    """One cost key's per-execution energy distribution (picojoules)."""

    mean_pj: float
    rel_std: float = 0.15
    samples: List[float] = field(default_factory=list)

    def distribution(self) -> Uncertain:
        if self.samples:
            base = Uncertain.from_samples(self.samples)
            if base.std > 0.0:
                return base
            # Degenerate empirical sample: keep the measured mean but
            # fall back to the prior's relative spread.
            std = abs(base.mean) * self.rel_std
            return Uncertain(base.mean, std * std, base.n)
        std = abs(self.mean_pj) * self.rel_std
        return Uncertain(self.mean_pj, std * std, 0)

    def as_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"mean_pj": self.mean_pj,
                                  "rel_std": self.rel_std}
        if self.samples:
            out["samples"] = list(self.samples)
        return out

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "CostEntry":
        return CostEntry(mean_pj=float(data["mean_pj"]),
                         rel_std=float(data.get("rel_std", 0.15)),
                         samples=[float(v)
                                  for v in data.get("samples", [])])


#: Cost keys every table must price.  ``check.*`` keys are the paper's
#: dynamic obligations; the rest are the engines' label families.
COST_KEYS = ("alu", "branch", "move", "field", "call", "native",
             "alloc", "control", "check.dfall", "check.snapshot_bound",
             "check.mcase_elim", "attributor", "node", "op", "default")


def _table(values: Dict[str, float], rel_std: float = 0.15
           ) -> Dict[str, CostEntry]:
    return {key: CostEntry(mean_pj=values[key], rel_std=rel_std)
            for key in COST_KEYS if key in values}


# Nominal per-execution costs in pJ.  Orders of magnitude follow the
# usual energy-per-op literature (simple ALU ops a few pJ at 45 nm,
# memory-touching ops 5-20x that, dispatch/dynamic checks dearer
# still); the mobile core is leaner per-op, the desktop core fatter.
_BUILTIN_TABLES: Dict[str, Dict[str, CostEntry]] = {
    "sim45nm": _table({
        "alu": 3.1, "branch": 4.6, "move": 2.2, "field": 11.0,
        "call": 24.0, "native": 95.0, "alloc": 58.0, "control": 1.8,
        "check.dfall": 31.0, "check.snapshot_bound": 26.0,
        "check.mcase_elim": 19.0, "attributor": 42.0, "node": 9.5,
        "op": 3.4, "default": 6.0,
    }),
    "skylake": _table({
        "alu": 24.0, "branch": 31.0, "move": 17.0, "field": 64.0,
        "call": 140.0, "native": 520.0, "alloc": 310.0, "control": 12.0,
        "check.dfall": 180.0, "check.snapshot_bound": 150.0,
        "check.mcase_elim": 110.0, "attributor": 240.0, "node": 55.0,
        "op": 21.0, "default": 35.0,
    }, rel_std=0.12),
    "cortex-a53": _table({
        "alu": 8.2, "branch": 11.0, "move": 6.1, "field": 27.0,
        "call": 61.0, "native": 230.0, "alloc": 130.0, "control": 4.9,
        "check.dfall": 74.0, "check.snapshot_bound": 63.0,
        "check.mcase_elim": 47.0, "attributor": 99.0, "node": 23.0,
        "op": 8.8, "default": 15.0,
    }, rel_std=0.2),
}

ARCHS = tuple(sorted(_BUILTIN_TABLES))
DEFAULT_ARCH = "sim45nm"


class CostModel:
    """An architecture's cost table plus the label-resolution chain."""

    def __init__(self, arch: str,
                 entries: Dict[str, CostEntry]) -> None:
        self.arch = arch
        self.entries = dict(entries)

    # -- resolution ----------------------------------------------------

    def resolve_key(self, label: str) -> str:
        """Map any profiler label (or cost key) to a priced key."""
        if label in self.entries:
            return label
        if label.startswith("op."):
            key = _OP_LABEL_KEYS.get(label)
            if key is not None and key in self.entries:
                return key
        if label.startswith("check."):
            # "check.<kind>@<line>:<col>" -> "check.<kind>"
            kind_key = label.split("@", 1)[0]
            if kind_key in self.entries:
                return kind_key
        family = label_kind(label)
        if family in self.entries:
            return family
        return "default"

    def cost(self, label: str) -> Uncertain:
        """Per-execution energy distribution for ``label``, in pJ."""
        return self.entries[self.resolve_key(label)].distribution()

    def cost_j(self, label: str, count: float) -> Uncertain:
        """Energy of ``count`` executions of ``label``, in joules."""
        return self.cost(label).times(count).scale(PJ_TO_J)

    def relative_std(self, label: str) -> float:
        dist = self.cost(label)
        return dist.std / abs(dist.mean) if dist.mean else 0.0

    # -- calibration ---------------------------------------------------

    def calibrate(self, profile_payload: Dict[str, object]) -> int:
        """Fold a ``repro profile --json --energy`` payload into the
        table: each label with measured joules and an execution count
        contributes one pJ/exec sample to its resolved key.  Returns
        the number of samples absorbed."""
        energy = profile_payload.get("energy_by_label") or {}
        profile = profile_payload.get("profile") or {}
        labels = profile.get("labels") or profile_payload.get("labels") \
            or {}
        absorbed = 0
        for label, joules in sorted(energy.items()):
            stats = labels.get(label) or {}
            count = int(stats.get("count", 0))
            if count <= 0 or not isinstance(joules, (int, float)):
                continue
            key = self.resolve_key(label)
            entry = self.entries[key]
            entry.samples.append(float(joules) / count / PJ_TO_J)
            absorbed += 1
        for entry in self.entries.values():
            if entry.samples:
                entry.mean_pj = sum(entry.samples) / len(entry.samples)
        return absorbed

    # -- serialization -------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        return {"arch": self.arch,
                "unit": "pJ",
                "entries": {key: self.entries[key].as_dict()
                            for key in sorted(self.entries)}}

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "CostModel":
        entries = {key: CostEntry.from_dict(value)
                   for key, value in data.get("entries", {}).items()}
        if "default" not in entries:
            raise EntError("cost model is missing the 'default' entry")
        return CostModel(str(data.get("arch", "custom")), entries)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path: str) -> "CostModel":
        return CostModel.from_dict(read_json_object(path, "a cost model"))


def read_json_object(path: str, what: str) -> Dict[str, object]:
    """The JSON object stored in ``path``; an :class:`EntError` naming
    the file and ``what`` it should hold when it holds anything else."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise EntError(f"{path}: not {what} ({exc})") from None
    if not isinstance(data, dict):
        raise EntError(f"{path}: not {what} (a JSON "
                       f"{type(data).__name__}, not an object)")
    return data


def builtin_model(arch: str = DEFAULT_ARCH) -> CostModel:
    """A fresh (mutable) copy of a built-in architecture table."""
    try:
        table = _BUILTIN_TABLES[arch]
    except KeyError:
        raise EntError(f"unknown architecture {arch!r}; expected one "
                       f"of {', '.join(ARCHS)}") from None
    entries = {key: CostEntry(entry.mean_pj, entry.rel_std,
                              list(entry.samples))
               for key, entry in table.items()}
    return CostModel(arch, entries)

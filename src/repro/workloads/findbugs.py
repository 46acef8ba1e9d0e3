"""findbugs: a static bug finder over compiled classes.

The paper analyzes drjava (5,363 classes), JavaRT (20,136) and jBoss
(56,704) at min/default/max analysis effort.  The kernel is a real —
miniature — bytecode analyzer: it generates a deterministic corpus of
synthetic "class files" (instruction streams over a small abstract
ISA) and runs bug detectors over them.  Analysis effort controls which
detector passes run, exactly like FindBugs' ``-effort`` flag:

* min     — linear scans (null-dereference, dead stores)
* default — plus an intraprocedural dataflow (reaching definitions)
* max     — plus a quadratic alias/escape approximation
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

#: Real in-memory corpus = paper class count / _SCALE.
_SCALE = 40.0

#: Abstract instructions: (opcode, operand register).
_OPCODES = ("load", "store", "getfield", "invoke", "branch", "const",
            "aload", "astore", "return")


def _gen_class(rng: random.Random) -> List[Tuple[str, int]]:
    length = 20 + rng.randrange(60)
    return [(_OPCODES[rng.randrange(len(_OPCODES))], rng.randrange(8))
            for _ in range(length)]


def _detect_null_deref(code: List[Tuple[str, int]]) -> int:
    """Registers loaded with const 0 then dereferenced: bug."""
    bugs = 0
    null_regs = set()
    for op, reg in code:
        if op == "const":
            null_regs.add(reg)
        elif op in ("store", "astore"):
            null_regs.discard(reg)
        elif op in ("getfield", "invoke") and reg in null_regs:
            bugs += 1
    return bugs


def _detect_dead_store(code: List[Tuple[str, int]]) -> int:
    bugs = 0
    pending: Dict[int, bool] = {}
    for op, reg in code:
        if op in ("store", "astore"):
            if pending.get(reg):
                bugs += 1
            pending[reg] = True
        elif op in ("load", "aload", "getfield", "invoke"):
            pending[reg] = False
    return bugs


def _reaching_definitions(code: List[Tuple[str, int]]) -> int:
    """A fixpoint dataflow over basic blocks split at branches."""
    blocks: List[List[Tuple[str, int]]] = [[]]
    for instr in code:
        blocks[-1].append(instr)
        if instr[0] == "branch":
            blocks.append([])
    defs_in: List[frozenset] = [frozenset() for _ in blocks]
    changed = True
    visits = 0
    while changed:
        changed = False
        carry: frozenset = frozenset()
        for index, block in enumerate(blocks):
            merged = carry | defs_in[index]
            if merged != defs_in[index]:
                defs_in[index] = merged
                changed = True
            live = set(merged)
            for op, reg in block:
                visits += 1
                if op in ("store", "astore"):
                    live.add(reg)
            carry = frozenset(live)
    return visits


def _alias_pass(code: List[Tuple[str, int]]) -> int:
    """Quadratic pairwise alias approximation (the 'max' pass)."""
    loads = [reg for op, reg in code if op in ("aload", "load")]
    pairs = 0
    for i in range(len(loads)):
        for j in range(i + 1, len(loads)):
            if loads[i] == loads[j]:
                pairs += 1
    return pairs


class FindBugs(Workload):
    name = "findbugs"
    description = "static analyzer"
    systems = ("A",)
    cloc = 147_896
    ent_changes = 55

    workload_kind = "code base (classes)"
    workload_labels = {ES: "drjava (5363)", MG: "JavaRT (20136)",
                       FT: "jBoss (56704)"}
    qos_kind = "analysis effort"
    qos_labels = {ES: "min", MG: "default", FT: "max"}

    # One counted op = one analyzed instruction on the full corpus.
    work_scale = 8.0e-3

    supports_temperature = True
    e3_units = 240

    _SIZES = {ES: 5_363, MG: 20_136, FT: 56_704}
    _QOS = {ES: 1.0, MG: 2.0, FT: 3.0}  # effort level
    _THRESHOLDS = {MG: 10_000, FT: 30_000}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        classes = max(1, int(size / _SCALE))
        rng = random.Random(seed * 65_537 + classes)
        effort = int(qos)
        bugs = 0
        analyzed_ops = 0
        platform.io_bytes(size * 1_500.0)  # read the class files
        for _ in range(classes):
            code = _gen_class(rng)
            # Class loading + the always-on linear detectors dominate,
            # as in real FindBugs; effort adds incremental passes.
            analyzed_ops += len(code) * 10
            bugs += _detect_null_deref(code)
            bugs += _detect_dead_store(code)
            if effort >= 2:
                analyzed_ops += _reaching_definitions(code)
            if effort >= 3:
                analyzed_ops += (int(_alias_pass(code) * 0.2)
                                 + len(code) * 2)
        # Scale the counted instructions back up to the full corpus.
        self.charge(platform, analyzed_ops * _SCALE)
        return TaskResult(units_done=classes,
                          detail={"bugs": float(bugs),
                                  "effort": float(effort)})

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """E3 unit: analyze one package worth of classes."""
        self.execute(platform, self._SIZES[FT] / 75.0, qos, seed=seed)

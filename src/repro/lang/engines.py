"""Execution-engine registry for the ENT interpreter.

Three engines execute typechecked programs with identical observable
behaviour (output, stats, exceptions — everything except ``steps``):

``walk``
    The reference tree-walking interpreter.  Slowest; easiest to audit
    against the paper's semantics.
``vm``
    The register-bytecode VM (``repro.lang.bytecode`` +
    ``repro.lang.vm``).  Dynamic checks are explicit, counted
    instructions.  See ``docs/VM.md``.
``jit``
    The VM plus the trace-JIT tier (``repro.lang.jit``): hot bodies
    compile to specialized Python with receiver-class guards and
    planner-proven checks elided, deoptimizing back to the VM when a
    guard fails.  Fastest on hot code; identical observables.

``resolve_engine`` validates an engine name and applies the default.
"""

from __future__ import annotations

from typing import Optional

ENGINES = ("walk", "vm", "jit")

DEFAULT_ENGINE = "walk"

#: Stable profiler-label families, shared by every engine.  The VM
#: emits ``op.<OPNAME>`` labels, the walk engine ``node.<NodeClass>``;
#: all engines share ``call.<Class>.<method>``,
#: ``check.<kind>@<line>:<column>``, ``native.<cls>.<method>`` and
#: ``attributor.<Class>`` — the cost model (``repro.advise``) resolves
#: labels to per-architecture cost keys through this vocabulary.
LABEL_KINDS = ("op", "node", "call", "check", "native", "attributor")


def label_kind(label: str) -> str:
    """First segment of a profiler label if it is a known family,
    ``'default'`` otherwise — the cost model's coarse fallback key."""
    head = label.split(".", 1)[0].split("@", 1)[0]
    return head if head in LABEL_KINDS else "default"


def resolve_engine(engine: Optional[str] = None) -> str:
    """Pick the engine: an explicit ``engine`` wins, otherwise the
    default."""
    if engine is None:
        return DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r} "
            f"(expected one of {', '.join(ENGINES)})")
    return engine

"""Order statistics, the CPU-speed probe, and timing normalisation.

The benchmark reports every time as a *normalised* time: the raw
``perf_counter`` reading scaled by ``PROBE_NOMINAL_S / probe``, where
``probe`` is the duration of fixed pure-Python reference loops timed
throughout the same process (:class:`SpeedProbe`).  On a shared host
the speed of a whole process can differ by 1.7x from the next one,
while the ratio of the program's time to the probe's stays within a
few percent; normalising removes the host's share of the spread and
keeps the program's.  The scale factor is recorded with every run, so
raw times can be recovered.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Dict, List, Optional, Sequence

#: Percentiles considered for the tail, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Samples that must lie beyond a percentile for it to be the tail.
TAIL_BEYOND = 10

#: The probe's median duration on the reference host (seconds); sets
#: the scale of every normalised time.
PROBE_NOMINAL_S = 0.00125

#: Minimum spacing between two probe samples (seconds of run time).
PROBE_EVERY_S = 0.1


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples
    beyond it (nearest rank), or None when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return {"pct": pct, "value": ordered[rank - 1]}
    return None


def summary(values: Sequence[float], scale: float = 1.0) -> Dict[str, object]:
    """Median, tail and sample count, each value times ``scale``."""
    row: Dict[str, object] = {"median": median(values) * scale,
                              "n": len(values)}
    t = tail(values)
    row["tail"] = (None if t is None
                   else {"pct": t["pct"], "value": t["value"] * scale})
    return row


class _Reg:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b


def _probe_dispatch() -> int:
    """Dict dispatch, slot loads and stores, small calls."""
    ops = {0: lambda r, k: r.a + k, 1: lambda r, k: r.b ^ k,
           2: lambda r, k: (r.a * 3 + r.b) & 0xFFFF}
    regs = [_Reg(i, i * 7) for i in range(16)]
    acc = 0
    for i in range(6000):
        reg = regs[i & 15]
        value = ops[i % 3](reg, i)
        reg.a, reg.b = reg.b & 0xFFF, value & 0xFFF
        acc = (acc + value) & 0xFFFFFF
    return acc


class _Obj:
    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


_FUNCS = {"f": ("x", ("+", ("v", "x"), ("n", 3))),
          "g": ("y", ("*", ("v", "y"), ("call", "f", ("v", "y"))))}
_PROGRAM = ("+", ("call", "g", ("v", "i")),
            ("obj", 2, ("call", "f", ("n", 5))))


def _eval(node, env):
    op = node[0]
    if op == "n":
        return node[1]
    if op == "v":
        return env[node[1]]
    if op == "+":
        return _eval(node[1], env) + _eval(node[2], env)
    if op == "*":
        return (_eval(node[1], env) * _eval(node[2], env)) & 0xFFFF
    if op == "call":
        param, body = _FUNCS[node[1]]
        return _eval(body, {param: _eval(node[2], env)})
    obj = _Obj(node[1], _eval(node[2], env))
    return obj.key + obj.value


def _probe_interp() -> int:
    """A recursive tree walk with environment dicts and allocation."""
    return sum(_eval(_PROGRAM, {"i": i}) for i in range(700))


PROBES = (_probe_dispatch, _probe_interp)


class SpeedProbe:
    """Samples the reference loops every ``PROBE_EVERY_S`` of run time.

    The speed estimate is the geometric mean of the two loops' median
    times: each tracks a different part of the program's mix, and
    together they follow it more closely than either alone (and than
    an allocation-heavy third loop, which over-corrects the fleet).
    """

    def __init__(self) -> None:
        self.samples: List[List[float]] = [[] for _ in PROBES]
        self._last = -math.inf

    def sample(self) -> None:
        # The loops free everything by reference counting; keeping the
        # cycle collector out keeps the size of the benchmark's own
        # heap out of the probe.
        gc.disable()
        try:
            for series, probe in zip(self.samples, PROBES):
                start = time.perf_counter()
                probe()
                series.append(time.perf_counter() - start)
        finally:
            gc.enable()
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def seconds(self) -> float:
        """The probe's current speed estimate (seconds)."""
        return geomean([median(series) for series in self.samples])

    def factor(self) -> float:
        """Multiply a raw time by this to normalise it."""
        return PROBE_NOMINAL_S / self.seconds()

"""Seeded ENT program generator with Python-computed expected outputs.

Every program is a pure function of its seed, and so is its expected
output: the generator evaluates each generated construct itself, in
Python, from the same drawn constants.  The reference is therefore
independent of the lexer, typechecker, analysis and engines it is used
to check.

Two families:

* :func:`compile_corpus` — large, execution-light programs (tens of
  classes each) for the ``ent_compile`` workload.  Each program is a
  shuffled mix of four unit kinds covering the language surface the
  front end must handle: dynamic ``@mode<?X>`` classes with attributors
  and ``mcase`` fields, snapshotted bounded or unbounded; fixed-mode
  classes with state; generic ``@mode<X>`` classes instantiated at a
  drawn mode; and two-class hierarchies whose subclass overrides the
  base method.  Main sends each unit's method from a ``while`` loop a
  drawn number of times (1-64, log-uniform), so some bodies cross the
  JIT's call threshold (16) and most do not.
* :func:`exec_programs` — small loop-heavy programs for ``ent_exec``:
  a static-mode send loop, a residual re-snapshot loop and a
  polymorphic-dispatch loop whose receivers switch from one class to
  three half-way through.

Draws that would change how much work a program does (class counts,
loop trip counts, the total of the send counts) are stratified, so the
corpus of every seed costs about the same and seeds are comparable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

MODES = ("energy_saver", "managed", "full_throttle")
HEADER = "modes { energy_saver <= managed; managed <= full_throttle; }\n"

#: Results are kept below this prime so every value stays a small int.
P = 1000003

#: Classes per generated ``ent_compile`` program (Main included).
COMPILE_SIZES = (13, 17, 21, 25, 29, 33, 37, 41)

KINDS = ("dyn", "static", "generic", "hier")

#: Largest number of sends from Main to one unit.
MAX_SENDS = 64

#: Loop trip counts of the ``ent_exec`` programs.
SEND_TRIPS = 2000
RESIDUAL_TRIPS = 1000
POLY_TRIPS = 2000


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    expected: Tuple[str, ...]


def _mode_of(load: int, t1: int, t2: int) -> int:
    """The generated attributor, evaluated in Python (a mode rank)."""
    if load > t2:
        return 2
    if load > t1:
        return 1
    return 0


def _mcase(values) -> str:
    return "mcase{ " + " ".join(
        f"{mode}: {value};" for mode, value in zip(MODES, values)) + " }"


def _attributor(t1: int, t2: int) -> str:
    return (f"    attributor {{\n"
            f"        if (load > {t2}) {{ return full_throttle; }}\n"
            f"        if (load > {t1}) {{ return managed; }}\n"
            f"        return energy_saver;\n"
            f"    }}\n")


def _send_loop(i: int, sends: int) -> str:
    return (f"        int j{i} = 0;\n"
            f"        while (j{i} < {sends}) {{\n"
            f"            t{i} = (t{i} + o{i}.work(j{i})) % {P};\n"
            f"            j{i} = j{i} + 1;\n"
            f"        }}\n")


def _unit(rng: random.Random, kind: str, i: int,
          sends: int) -> Tuple[List[str], str, int]:
    """One unit: (class declarations, Main section, expected total)."""
    if kind == "dyn":
        t1 = rng.randrange(5, 60)
        t2 = t1 + rng.randrange(5, 60)
        load = rng.randrange(0, t2 + 40)
        factors = [rng.randrange(1, 10) for _ in MODES]
        mode = _mode_of(load, t1, t2)
        decl = (f"class D{i}@mode<?X> {{\n    int load;\n"
                + _attributor(t1, t2)
                + f"    D{i}(int load) {{ this.load = load; }}\n"
                f"    mcase<int> f = {_mcase(factors)};\n"
                f"    int work(int k) {{ int m = f; "
                f"return k * m + load; }}\n}}\n")
        bounds = rng.choice((None, (None, 2), (1, None), (0, 1), (1, 2)))
        total = 0
        for j in range(sends):
            total = (total + j * factors[mode] + load) % P
        new = f"snapshot (new D{i}@mode<?>({load}))"
        if bounds is None:
            section = (f"        D{i} o{i} = {new};\n"
                       f"        int t{i} = 0;\n" + _send_loop(i, sends))
        else:
            lo, hi = bounds
            names = ["_" if b is None else MODES[b] for b in bounds]
            ok = ((lo is None or lo <= mode) and (hi is None or mode <= hi))
            if not ok:
                total = -1
            loop = "".join("    " + line + "\n" for line in
                           _send_loop(i, sends).splitlines())
            section = (f"        int t{i} = 0;\n"
                       f"        try {{\n"
                       f"            D{i} o{i} = {new} "
                       f"[{names[0]}, {names[1]}];\n" + loop +
                       f"        }} catch (EnergyException e{i}) {{\n"
                       f"            t{i} = 0 - 1;\n"
                       f"        }}\n")
        return [decl], section, total
    if kind == "static":
        mode = rng.randrange(3)
        c = rng.randrange(1, 20)
        decl = (f"class S{i}@mode<{MODES[mode]}> {{\n    int acc;\n"
                f"    int work(int k) {{ acc = (acc + k * {c}) % {P}; "
                f"return acc; }}\n}}\n")
        section = (f"        S{i} o{i} = new S{i}();\n"
                   f"        int t{i} = 0;\n" + _send_loop(i, sends))
        acc = total = 0
        for j in range(sends):
            acc = (acc + j * c) % P
            total = (total + acc) % P
        return [decl], section, total
    mode = rng.randrange(3)
    tiers = [rng.randrange(1, 10) for _ in MODES]
    if kind == "generic":
        d = rng.randrange(0, 50)
        decl = (f"class G{i}@mode<X> {{\n"
                f"    mcase<int> g = {_mcase(tiers)};\n"
                f"    int work(int k) {{ int m = g; "
                f"return (k + {d}) * m; }}\n}}\n")
        section = (f"        G{i} o{i} = new G{i}@mode<{MODES[mode]}>();\n"
                   f"        int t{i} = 0;\n" + _send_loop(i, sends))
        total = 0
        for j in range(sends):
            total = (total + (j + d) * tiers[mode]) % P
        return [decl], section, total
    c1 = rng.randrange(1, 20)
    c2 = rng.randrange(1, 20)
    base = (f"class B{i}@mode<X> {{\n"
            f"    mcase<int> tier = {_mcase(tiers)};\n"
            f"    int work(int k) {{ int m = tier; "
            f"return k + m * {c1}; }}\n}}\n")
    derived = (f"class E{i}@mode<X> extends B{i} {{\n"
               f"    int work(int k) {{ int m = tier; "
               f"return k * {c2} + m; }}\n}}\n")
    section = (f"        B{i}@mode<{MODES[mode]}> o{i} = "
               f"new E{i}@mode<{MODES[mode]}>();\n"
               f"        int t{i} = 0;\n" + _send_loop(i, sends))
    total = 0
    for j in range(sends):
        total = (total + j * c2 + tiers[mode]) % P
    return [base, derived], section, total


def _kinds_for(rng: random.Random, classes: int) -> List[str]:
    """A balanced, shuffled kind list filling ``classes - 1`` classes
    (``hier`` units take two)."""
    kinds: List[str] = []
    budget = classes - 1
    while budget > 0:
        for kind in KINDS:
            need = 2 if kind == "hier" else 1
            if need <= budget:
                kinds.append(kind)
                budget -= need
    rng.shuffle(kinds)
    return kinds


def _send_counts(rng: random.Random, units: int) -> List[int]:
    """Jittered-stratified log-uniform draws on [1, MAX_SENDS]."""
    top = math.log(MAX_SENDS)
    counts = [max(1, min(MAX_SENDS, int(round(math.exp(
        top * (u + rng.random()) / units))))) for u in range(units)]
    rng.shuffle(counts)
    return counts


def generate_program(seed: int, classes: int,
                     name: Optional[str] = None) -> Program:
    """One ``ent_compile`` program with ``classes`` classes."""
    rng = random.Random(seed)
    kinds = _kinds_for(rng, classes)
    sends = _send_counts(rng, len(kinds))
    decls: List[str] = []
    sections: List[str] = []
    expected: List[str] = []
    for i, (kind, count) in enumerate(zip(kinds, sends)):
        unit_decls, section, total = _unit(rng, kind, i, count)
        decls.extend(unit_decls)
        sections.append(section + f'        Sys.print("u{i} " + t{i});\n')
        expected.append(f"u{i} {total}")
    source = (HEADER + "".join(decls) + "class Main {\n    void main() {\n"
              + "".join(sections) + "    }\n}\n")
    return Program(name or f"gen{classes}", source, tuple(expected))


def compile_corpus(seed: int,
                   sizes: Tuple[int, ...] = COMPILE_SIZES) -> List[Program]:
    """The ``ent_compile`` corpus of ``seed``: one program per size."""
    rng = random.Random(seed)
    return [generate_program(rng.getrandbits(48), size, f"gen{size}")
            for size in sizes]


def send_loop(rng: random.Random, trips: int = SEND_TRIPS) -> Program:
    """The static-mode send loop (every dfall provable, so elidable)."""
    a = rng.randrange(1, 50)
    k = rng.randrange(3, 17)
    source = HEADER + f"""class Acc@mode<full_throttle> {{
    int total;
    int bump(int k) {{ total = (total + k * {a}) % {P}; return total; }}
}}
class Main {{
    void main() {{
        Acc a = new Acc();
        int i = 0;
        while (i < {trips}) {{ a.bump(i % {k}); i = i + 1; }}
        Sys.print(a.total);
    }}
}}
"""
    total = 0
    for i in range(trips):
        total = (total + (i % k) * a) % P
    return Program("send", source, (str(total),))


def residual_loop(rng: random.Random,
                  trips: int = RESIDUAL_TRIPS) -> Program:
    """Re-snapshots one dynamic object per iteration: the bound check
    and the dfall guard stay residual (the attributor's hull is wider
    than the bounds)."""
    t1 = rng.randrange(5, 40)
    t2 = t1 + rng.randrange(10, 60)
    load = rng.randrange(t1 + 1, t2 + 30)
    c = rng.randrange(1, 10)
    hi = rng.choice(("full_throttle", "_"))
    source = HEADER + f"""class R@mode<?X> {{
    int load;
{_attributor(t1, t2)}    R(int load) {{ this.load = load; }}
    int get() {{ return load; }}
}}
class Main {{
    void main() {{
        R@mode<?> r = new R@mode<?>({load});
        int total = 0;
        int i = 0;
        while (i < {trips}) {{
            R s = snapshot r [managed, {hi}];
            total = (total + s.get() * {c}) % {P};
            i = i + 1;
        }}
        Sys.print(total);
    }}
}}
"""
    total = 0
    for _ in range(trips):
        total = (total + load * c) % P
    return Program("residual", source, (str(total),))


def poly_loop(rng: random.Random, trips: int = POLY_TRIPS) -> Program:
    """A send site that is monomorphic for the first half of the loop
    and cycles through three receiver classes in the second half."""
    a, b, c, d, e = (rng.randrange(1, 30) for _ in range(5))
    half = trips // 2
    source = HEADER + f"""class Shape@mode<full_throttle> {{
    int area(int k) {{ return k; }}
}}
class Sq@mode<full_throttle> extends Shape {{
    int area(int k) {{ return k * {a} + {b}; }}
}}
class Ci@mode<full_throttle> extends Shape {{
    int area(int k) {{ return k * {c} + {d}; }}
}}
class Tr@mode<full_throttle> extends Shape {{
    int area(int k) {{ return k + {e}; }}
}}
class Main {{
    void main() {{
        Shape q = new Sq();
        Shape c = new Ci();
        Shape t = new Tr();
        int total = 0;
        int i = 0;
        while (i < {trips}) {{
            Shape s = q;
            if (i >= {half}) {{
                int r = i % 3;
                if (r == 1) {{ s = c; }}
                if (r == 2) {{ s = t; }}
            }}
            total = (total + s.area(i)) % {P};
            i = i + 1;
        }}
        Sys.print(total);
    }}
}}
"""
    total = 0
    for i in range(trips):
        r = i % 3 if i >= half else 0
        value = (i * a + b, i * c + d, i + e)[r]
        total = (total + value) % P
    return Program("poly", source, (str(total),))


def exec_programs(seed: int) -> Dict[str, Program]:
    """The three ``ent_exec`` loops of ``seed``, by name."""
    rng = random.Random(seed)
    programs = (send_loop(rng), residual_loop(rng), poly_loop(rng))
    return {program.name: program for program in programs}

"""jython: a Python-to-JVM compiler (DaCapo).

The kernel is a genuine miniature compiler front end: it generates
deterministic Python-like modules, tokenizes them, parses them into an
AST (expressions with precedence, assignments, ``if``/``while``
blocks), and emits a stack bytecode.  jython participates in Figure 6
(overhead) and the E3 temperature-casing runs (one compiled module is
the unit of work); the E1/E2 battery experiments use size knobs too so
the benchmark is runnable everywhere.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.workloads.base import ES, FT, MG, TaskResult, Workload

_SCALE = 25.0


def _gen_module(rng: random.Random, statements: int) -> str:
    lines: List[str] = []
    names = ["a", "b", "c", "total", "x", "y"]
    for index in range(statements):
        name = names[index % len(names)]
        left = names[rng.randrange(len(names))]
        right = rng.randrange(100)
        roll = rng.random()
        if roll < 0.6:
            lines.append(f"{name} = {left} + {right} * 2 - 1")
        elif roll < 0.8:
            lines.append(f"if {left} < {right} : {name} = {right}")
        else:
            lines.append(f"while {name} < {right} : {name} = {name} + 1")
    return "\n".join(lines)


def _tokenize(source: str) -> List[str]:
    tokens: List[str] = []
    for raw in source.replace("\n", " ; ").split():
        tokens.append(raw)
    return tokens


class _Parser:
    """Statement/expression parser emitting stack bytecode."""

    def __init__(self, tokens: List[str]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.code: List[Tuple[str, str]] = []

    def peek(self) -> str:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else ""

    def take(self) -> str:
        token = self.peek()
        self.pos += 1
        return token

    def parse(self) -> List[Tuple[str, str]]:
        while self.pos < len(self.tokens):
            self.statement()
        return self.code

    def statement(self) -> None:
        token = self.take()
        if token == ";" or not token:
            return
        if token == "if":
            self.expression()
            self.code.append(("jmp_false", "end"))
            assert self.take() == ":"
            self.statement()
            return
        if token == "while":
            self.expression()
            self.code.append(("jmp_false", "end"))
            assert self.take() == ":"
            self.statement()
            self.code.append(("jmp", "loop"))
            return
        # assignment: NAME = expr
        name = token
        assert self.take() == "="
        self.expression()
        self.code.append(("store", name))

    def expression(self) -> None:
        self.term()
        while self.peek() in ("+", "-", "<", ">"):
            op = self.take()
            self.term()
            self.code.append(("binop", op))

    def term(self) -> None:
        self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            self.factor()
            self.code.append(("binop", op))

    def factor(self) -> None:
        token = self.take()
        if token.isdigit():
            self.code.append(("const", token))
        else:
            self.code.append(("load", token))


class Jython(Workload):
    name = "jython"
    description = "compiler"
    systems = ("A",)
    cloc = 215_749
    ent_changes = 33

    workload_kind = "source modules"
    workload_labels = {ES: "400", MG: "1200", FT: "2400"}
    qos_kind = "optimization passes"
    qos_labels = {ES: "0", MG: "1", FT: "2"}

    # One counted op = one token/instruction handled, full corpus.
    work_scale = 2.6e-2

    supports_temperature = True
    e3_units = 240

    _SIZES = {ES: 400, MG: 1200, FT: 2400}
    _QOS = {ES: 0, MG: 1, FT: 2}
    _THRESHOLDS = {MG: 700, FT: 1600}

    def execute(self, platform, size: float, qos: float,
                seed: int = 0) -> TaskResult:
        modules = max(1, int(size / _SCALE))
        passes = int(qos)
        rng = random.Random(seed * 131 + modules)
        handled = 0
        emitted = 0
        platform.io_bytes(size * 900.0)  # read the sources
        for _ in range(modules):
            source = _gen_module(rng, 12 + rng.randrange(10))
            tokens = _tokenize(source)
            code = _Parser(tokens).parse()
            handled += len(tokens) + len(code)
            for _ in range(passes):
                # Peephole pass: constant folding over const/const/binop.
                folded: List[Tuple[str, str]] = []
                for instr in code:
                    if (instr[0] == "binop" and len(folded) >= 2
                            and folded[-1][0] == "const"
                            and folded[-2][0] == "const"):
                        rhs = int(folded.pop()[1])
                        lhs = int(folded.pop()[1])
                        value = lhs + rhs if instr[1] == "+" else lhs
                        folded.append(("const", str(value)))
                    else:
                        folded.append(instr)
                handled += len(code)
                code = folded
            emitted += len(code)
        self.charge(platform, handled * _SCALE)
        platform.io_bytes(emitted * _SCALE * 16.0)  # write class files
        return TaskResult(units_done=modules,
                          detail={"instructions": float(emitted)})

    def execute_unit(self, platform, qos: float, seed: int = 0) -> None:
        """E3 unit: compile one batch of modules."""
        self.execute(platform, self._SIZES[FT] / 3.6, qos, seed=seed)

"""The ENT language: lexer, parser, mixed typechecker, and interpreter.

Typical use::

    from repro.lang import check_program, Interpreter, run_source

    interp = run_source(source_text)
    print(interp.output)
"""

from repro.lang.interp import (Interpreter, InterpOptions, NullPlatform,
                               run_source)
from repro.lang.lexer import tokenize
from repro.lang.parser import parse_expression, parse_program
from repro.lang.typechecker import CheckedProgram, TypeChecker, check_program

__all__ = [
    "CheckedProgram",
    "Interpreter",
    "InterpOptions",
    "NullPlatform",
    "TypeChecker",
    "check_program",
    "parse_expression",
    "parse_program",
    "run_source",
    "tokenize",
]

"""Regression tests for the latent engine bugs swept alongside the
trace-JIT tier:

* ``id()``-keyed code caches (``VM._codes``/``_expr_codes``) could
  alias after the garbage collector reused an address — a dead AST
  node's code could run for a brand-new node with the same ``id``.
  The fix pins every cached key's node with a strong reference; these
  tests assert the pin invariant directly and hammer the build-run-drop
  cycle that used to recycle addresses.
* ``VM.call_body`` silently truncated over-arity argument lists where
  every other engine raised; all three engines now raise the same
  ``StuckError``.
* Inline caches grew without bound at megamorphic sites; they are now
  capped at the profiler's mega threshold with extra receiver classes
  dispatching uncached.
"""

import gc

import pytest

from repro.core.errors import StuckError
from repro.lang import ast_nodes as ast
from repro.lang.bytecode import CallSite
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
from repro.lang.typechecker import check_program
from repro.obs.prof import Profiler, ic_class

ENGINES = ("walk", "vm", "jit")

HEADER = "modes { low <= mid; mid <= high; }\n"


def _interp(source, engine, **opts):
    return Interpreter(check_program(source), platform=NullPlatform(),
                       options=InterpOptions(engine=engine, fuel=500_000,
                                             **opts))


# ----------------------------------------------------------------------
# id()-keyed caches


_COUNTING = HEADER + """
class Box@mode<high> {
    int seed;
    int bonus = 7;
    Box(int seed) { this.seed = seed; }
    int get() { return seed + bonus; }
}
class Main {
    void main() {
        int total = 0;
        int i = 0;
        while (i < 30) { total = total + new Box(i).get(); i = i + 1; }
        Sys.print(total);
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_build_and_drop_programs_in_a_loop(engine):
    """The historical failure mode: typecheck, run, drop, and rebuild
    programs so the allocator recycles AST-node addresses.  Each fresh
    program must print its own answer, never a stale cache's."""
    expected = str(sum(i + 7 for i in range(30)))
    for _ in range(12):
        interp = _interp(_COUNTING, engine)
        interp.run()
        assert interp.output == [expected]
        del interp
        gc.collect()


@pytest.mark.parametrize("engine", ["vm", "jit"])
def test_vm_code_caches_pin_their_keys(engine):
    """Every ``id()`` key in the VM's code caches must be backed by a
    strong reference in the pin list — otherwise the key could outlive
    its node and alias a reused address."""
    interp = _interp(_COUNTING, engine)
    interp.run()
    vm = interp._vm
    pinned = {id(obj) for obj in vm._pins}
    assert vm._codes, "the run should have lowered at least one body"
    assert set(vm._codes.keys()) <= pinned
    assert {key[0] for key in vm._expr_codes.keys()} <= pinned


# ----------------------------------------------------------------------
# Arity mismatches


_ARITY = HEADER + """
class Adder@mode<high> {
    Adder() { }
    int add(int a, int b) { return a + b; }
}
class Main {
    void main() {
        Adder x = new Adder();
        Sys.print(x.add(3, 4));
    }
}
"""


def _mutated_arity_program(extra):
    """Typecheck the well-formed program, then grow or shrink the
    ``x.add(3, 4)`` argument list behind the typechecker's back (the
    static checker would reject it, so runtime arity blame can only be
    tested on a mutated AST)."""
    checked = check_program(_ARITY)
    call = None
    for cls in checked.program.classes:
        for method in cls.methods:
            for node in ast_walk(method.body):
                if isinstance(node, ast.MethodCall) and \
                        node.name == "add":
                    call = node
    assert call is not None
    if extra > 0:
        for _ in range(extra):
            call.args.append(ast.IntLit(value=99))
    else:
        del call.args[extra:]
    return checked


def ast_walk(node):
    yield node
    for value in vars(node).values():
        if isinstance(value, ast.Expr) or isinstance(value, ast.Stmt):
            yield from ast_walk(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, (ast.Expr, ast.Stmt)):
                    yield from ast_walk(item)


@pytest.mark.parametrize("extra", [2, -1], ids=["over", "under"])
def test_arity_mismatch_agrees_across_engines(extra):
    """Over- and under-application must raise the same ``StuckError``
    with the same message on all three engines — the VM used to
    silently truncate extra arguments."""
    messages = []
    for engine in ENGINES:
        checked = _mutated_arity_program(extra)
        interp = Interpreter(checked, platform=NullPlatform(),
                             options=InterpOptions(engine=engine,
                                                   fuel=500_000))
        if engine == "jit":
            interp._vm._hot_call = 1
            interp._vm._hot_loop = 1
        with pytest.raises(StuckError) as excinfo:
            interp.run()
        assert interp.output == []
        messages.append(str(excinfo.value))
    assert len(set(messages)) == 1, messages
    assert "expects 2 argument(s)" in messages[0]
    assert f"got {2 + extra}" in messages[0]


# ----------------------------------------------------------------------
# Inline-cache cap


def _mega_program(n_classes):
    classes = "".join(
        f"class Shape{i}@mode<high> extends Shape@mode<high> {{\n"
        f"    Shape{i}() {{ }}\n"
        f"    int area() {{ return {i + 1}; }}\n"
        f"}}\n" for i in range(n_classes))
    dispatch = "".join(
        f"        total = total + this.measure(new Shape{i}());\n"
        for i in range(n_classes))
    return (HEADER + """
class Shape@mode<high> {
    Shape() { }
    int area() { return 0; }
}
""" + classes + """
class Main {
    int measure(Shape s) { return s.area(); }
    void main() {
        int total = 0;
""" + dispatch + """
        Sys.print(total);
    }
}
""")


def _call_sites(vm):
    sites = []
    for code in vm._codes.values():
        for inst in code.instrs:
            for operand in inst:
                if isinstance(operand, CallSite):
                    sites.append(operand)
    return sites


@pytest.mark.parametrize("engine", ["vm", "jit"])
def test_inline_cache_capped_at_mega_threshold(engine):
    """Six receiver classes through one ``s.area()`` site: the cache
    stops growing at the profiler's mega threshold (4) and the extra
    classes still dispatch correctly, uncached."""
    n = 6
    interp = _interp(_mega_program(n), engine)
    interp.run()
    assert interp.output == [str(sum(range(1, n + 1)))]
    sites = _call_sites(interp._vm)
    assert sites, "lowering should have produced call sites"
    assert all(len(site.ic) <= 4 for site in sites)
    assert any(len(site.ic) == 4 for site in sites)


def test_capped_site_still_classified_mega():
    """The profiler must keep seeing megamorphic sites as ``mega``
    even though the cache itself is capped below the miss count."""
    profiler = Profiler("vm")
    interp = Interpreter(check_program(_mega_program(6)),
                         platform=NullPlatform(),
                         options=InterpOptions(engine="vm", fuel=500_000),
                         profiler=profiler)
    interp.run()
    area_sites = [entry for entry in
                  profiler.profile.call_sites.values()
                  if entry["name"] == "area"]
    assert area_sites
    classes = {ic_class(entry["ic_entries"]) for entry in area_sites}
    assert "mega" in classes

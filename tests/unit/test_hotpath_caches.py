"""Unit tests for the PR-3 hot-path caches: flattened method tables,
per-call-site inline caches, slot-resolved frames, the dfall memo, and
the ``--no-inline-caches`` escape hatch (see docs/PERFORMANCE.md)."""

import pytest

from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions, run_source
from repro.lang.typechecker import check_program

HEADER = """
modes { low <= mid; mid <= high; }
"""

POLYMORPHIC = HEADER + """
class Shape@mode<high> {
    Shape() { }
    int area() { return 0; }
    int doubled() { return this.area() * 2; }
}
class Square@mode<high> extends Shape@mode<high> {
    int side;
    Square(int side) { this.side = side; }
    int area() { return side * side; }
}
class Circle@mode<high> extends Shape@mode<high> {
    int r;
    Circle(int r) { this.r = r; }
    int area() { return 3 * r * r; }
}
class Main {
    int measure(Shape s) { return s.doubled(); }
    void main() {
        List shapes = [new Square(3), new Circle(2), new Square(5)];
        int total = 0;
        foreach (Shape s : shapes) { total = total + this.measure(s); }
        Sys.print(total);
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("inline_caches", [True, False])
def test_polymorphic_call_site_dispatches_per_class(engine,
                                                    inline_caches):
    """One call site, three receivers of two classes: the inline cache
    must re-dispatch on the receiver's class, never reuse a stale hit."""
    interp = run_source(POLYMORPHIC, options=InterpOptions(
        engine=engine, inline_caches=inline_caches))
    assert interp.output == [str((9 + 12 + 25) * 2)]


OVERRIDE = HEADER + """
class Base@mode<high> {
    Base() { }
    int f() { return 1; }
    int g() { return this.f() + 10; }
}
class Derived@mode<high> extends Base@mode<high> {
    int f() { return 2; }
}
class Main {
    void main() {
        Base b = new Base();
        Derived d = new Derived();
        Sys.print(b.g());
        Sys.print(d.g());
    }
}
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_flattened_method_table_respects_overrides(engine):
    interp = run_source(OVERRIDE, options=InterpOptions(engine=engine))
    assert interp.output == ["11", "12"]


SIBLING_SCOPES = HEADER + """
class Main {
    void main() {
        int sum = 0;
        { int x = 10; sum = sum + x; }
        { int x = 100; sum = sum + x; }
        int i = 0;
        while (i < 3) {
            int x = i * 1000;
            sum = sum + x;
            i = i + 1;
        }
        Sys.print(sum);
    }
}
"""


def test_slot_resolved_frames_keep_sibling_scopes_apart():
    """The VM resolves each declaration to its own register slot; the
    same name declared in sibling blocks (and re-declared on every loop
    iteration) must stay independent, as in the walk's scope chain."""
    outputs = [run_source(SIBLING_SCOPES,
                          options=InterpOptions(engine=engine)).output
               for engine in ENGINES]
    assert outputs == [[str(10 + 100 + 3000)]] * len(ENGINES)


def test_dfall_memo_populates_and_stays_consistent():
    source = HEADER + """
class Hot@mode<high> {
    Hot() { }
    int ping() { return 1; }
}
class Main {
    void main() {
        Hot h = new Hot();
        int i = 0;
        while (i < 25) { h.ping(); i = i + 1; }
    }
}
"""
    checked = check_program(source)
    interp = Interpreter(checked, options=InterpOptions())
    interp.run()
    # Constructor + 25 pings: 26 checks, but only two distinct
    # (guard, sender) pairs — the memo stays tiny no matter how hot
    # the loop is.
    assert interp.stats.dfall_checks == 26
    assert len(interp._dfall_cache) == 2
    assert all(interp._dfall_cache.values())

    uncached = Interpreter(check_program(source),
                           options=InterpOptions(inline_caches=False))
    uncached.run()
    assert uncached.stats.dfall_checks == 26
    assert len(uncached._dfall_cache) == 0


def test_cli_no_inline_caches_flag(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "prog.ent"
    path.write_text(POLYMORPHIC)
    assert main(["run", str(path), "--no-inline-caches"]) == 0
    assert capsys.readouterr().out.strip() == str((9 + 12 + 25) * 2)

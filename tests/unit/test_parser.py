"""Unit tests for the ENT parser."""

import pytest

from repro.analysis import analyze_program
from repro.core.errors import EntSyntaxError
from repro.lang import ast_nodes as ast
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.parser import parse_expression, parse_program
from repro.lang.typechecker import check_program

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


class TestModesDecl:
    def test_pairs(self):
        program = parse_program(MODES)
        assert program.modes[0].pairs == [
            ("energy_saver", "managed"), ("managed", "full_throttle")]

    def test_chain_clause(self):
        program = parse_program("modes { a <= b <= c; }")
        assert program.modes[0].pairs == [("a", "b"), ("b", "c")]

    def test_singleton(self):
        program = parse_program("modes { solo; }")
        assert program.modes[0].singletons == ["solo"]

    def test_missing_semicolon(self):
        with pytest.raises(EntSyntaxError):
            parse_program("modes { a <= b }")


class TestClassDecl:
    def test_plain_class(self):
        program = parse_program("class C { }")
        cls = program.classes[0]
        assert cls.name == "C"
        assert cls.mode_param is None
        assert cls.superclass == "Object"

    def test_concrete_mode(self):
        cls = parse_program("class C@mode<managed> { }").classes[0]
        assert cls.mode_param.var == "managed"
        assert not cls.mode_param.dynamic

    def test_dynamic_anonymous(self):
        cls = parse_program("class C@mode<?> { attributor { return x; } }"
                            ).classes[0]
        assert cls.mode_param.dynamic
        assert cls.mode_param.var is None

    def test_dynamic_named(self):
        cls = parse_program("class C@mode<?X> { attributor { return x; } }"
                            ).classes[0]
        assert cls.mode_param.dynamic
        assert cls.mode_param.var == "X"

    def test_bounded_parameter(self):
        cls = parse_program("class C@mode<lo <= X <= hi> { }").classes[0]
        param = cls.mode_param
        assert (param.lower, param.var, param.upper) == ("lo", "X", "hi")

    def test_upper_bounded_parameter(self):
        cls = parse_program("class C@mode<X <= hi> { }").classes[0]
        assert cls.mode_param.var == "X"
        assert cls.mode_param.upper == "hi"
        assert cls.mode_param.lower is None

    def test_multiple_parameters(self):
        cls = parse_program("class C@mode<?X, Y> { attributor "
                            "{ return x; } }").classes[0]
        assert cls.mode_param.var == "X"
        assert cls.extra_params[0].var == "Y"

    def test_extends_with_mode_args(self):
        cls = parse_program(
            "class C@mode<X> extends D@mode<X> { }").classes[0]
        assert cls.superclass == "D"
        assert cls.super_mode_args[0].name == "X"

    def test_fields_methods_constructor_attributor(self):
        source = """
        class C@mode<?X> {
            int count;
            String name = "c";
            attributor { return managed; }
            C(int count) { this.count = count; }
            int get() { return count; }
        }
        """
        cls = parse_program(source).classes[0]
        assert [f.name for f in cls.fields] == ["count", "name"]
        assert cls.attributor is not None
        assert cls.constructor is not None
        assert [m.name for m in cls.methods] == ["get"]

    def test_duplicate_attributor_rejected(self):
        source = ("class C@mode<?> { attributor { return a; } "
                  "attributor { return b; } }")
        with pytest.raises(EntSyntaxError):
            parse_program(source)

    def test_method_mode_annotation(self):
        source = ("class C { @mode<full_throttle> int heavy() "
                  "{ return 1; } }")
        method = parse_program(source).classes[0].methods[0]
        assert method.mode_param.var == "full_throttle"

    def test_method_attributor(self):
        source = ("class C { @mode<?X> int f(int n) "
                  "attributor { return managed; } { return n; } }")
        method = parse_program(source).classes[0].methods[0]
        assert method.attributor is not None
        assert method.mode_param.dynamic


class TestStatements:
    def _body(self, stmts):
        source = f"class C {{ void m() {{ {stmts} }} }}"
        return parse_program(source).classes[0].methods[0].body.stmts

    def test_local_decl(self):
        (stmt,) = self._body("int x = 3;")
        assert isinstance(stmt, ast.LocalVarDecl)
        assert stmt.name == "x"

    def test_local_decl_class_type(self):
        (stmt,) = self._body("Agent a = null;")
        assert isinstance(stmt, ast.LocalVarDecl)
        assert isinstance(stmt.declared, ast.ClassTypeNode)

    def test_local_decl_with_mode(self):
        (stmt,) = self._body("Site@mode<X> s = null;")
        assert stmt.declared.mode_args[0].name == "X"

    def test_assignment_vs_expression(self):
        stmts = self._body("x = 1; f();")
        assert isinstance(stmts[0], ast.Assign)
        assert isinstance(stmts[1], ast.ExprStmt)

    def test_field_assignment(self):
        (stmt,) = self._body("this.f = 1;")
        assert isinstance(stmt.target, ast.FieldAccess)

    def test_invalid_assign_target(self):
        with pytest.raises(EntSyntaxError):
            self._body("f() = 1;")

    def test_if_else_while(self):
        stmts = self._body(
            "if (a < b) { x = 1; } else { x = 2; } while (true) { break; }")
        assert isinstance(stmts[0], ast.If)
        assert stmts[0].otherwise is not None
        assert isinstance(stmts[1], ast.While)

    def test_foreach(self):
        (stmt,) = self._body("foreach (String s : items) { continue; }")
        assert isinstance(stmt, ast.Foreach)
        assert stmt.var_name == "s"

    def test_try_catch_throw(self):
        stmts = self._body(
            'try { throw "bad"; } catch (EnergyException e) { return; }')
        assert isinstance(stmts[0], ast.TryCatch)
        assert stmts[0].exc_var == "e"

    def test_return_value(self):
        (stmt,) = self._body("return 1 + 2;")
        assert isinstance(stmt, ast.Return)
        assert isinstance(stmt.expr, ast.Binary)


class TestExpressions:
    def test_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_parentheses(self):
        expr = parse_expression("(1 + 2) * 3")
        assert expr.op == "*"

    def test_logical_precedence(self):
        expr = parse_expression("a && b || c")
        assert expr.op == "||"

    def test_logical_binds_looser_than_equality_and_instanceof(self):
        expr = parse_expression("a || b && c == d")
        assert expr.op == "||"
        assert expr.right.op == "&&"
        assert expr.right.right.op == "=="
        expr = parse_expression("x instanceof C && y + 1 < z")
        assert expr.op == "&&"
        assert isinstance(expr.left, ast.InstanceOf)
        assert expr.right.op == "<"

    def test_comparison(self):
        expr = parse_expression("a.size() >= 10")
        assert expr.op == ">="
        assert isinstance(expr.left, ast.MethodCall)

    def test_unary(self):
        expr = parse_expression("!done")
        assert isinstance(expr, ast.Unary)
        expr = parse_expression("-x + 1")
        assert expr.op == "+"

    def test_new_with_mode(self):
        expr = parse_expression("new Site@mode<?>(url)")
        assert isinstance(expr, ast.New)
        assert expr.mode_args[0].dynamic

    def test_chained_calls(self):
        expr = parse_expression("a.b().c.d(1, 2)")
        assert isinstance(expr, ast.MethodCall)
        assert expr.name == "d"
        assert len(expr.args) == 2

    def test_snapshot_plain(self):
        expr = parse_expression("snapshot da")
        assert isinstance(expr, ast.Snapshot)
        assert expr.lower is None

    def test_snapshot_bounded(self):
        expr = parse_expression("snapshot ds [_, X]")
        assert expr.lower.name is None
        assert expr.upper.name == "X"

    def test_mcase_expression(self):
        expr = parse_expression(
            "mcase<int>{ energy_saver: 1; managed: 2; default: 3; }")
        assert isinstance(expr, ast.MCaseExpr)
        assert len(expr.branches) == 3
        assert expr.branches[2].mode_name is None

    def test_mselect(self):
        expr = parse_expression("mselect(this.depth, managed)")
        assert isinstance(expr, ast.MSelect)
        assert expr.mode_name == "managed"

    def test_cast(self):
        expr = parse_expression("(Site) e")
        assert isinstance(expr, ast.Cast)

    def test_cast_with_mode(self):
        expr = parse_expression("(Site@mode<X>) items.get(0)")
        assert isinstance(expr, ast.Cast)
        assert expr.target.mode_args[0].name == "X"

    def test_parenthesized_not_cast(self):
        expr = parse_expression("(a) + b")
        assert isinstance(expr, ast.Binary)

    def test_list_literal(self):
        expr = parse_expression("[1, 2, 3]")
        assert isinstance(expr, ast.ListLit)
        assert len(expr.elements) == 3

    def test_instanceof(self):
        expr = parse_expression("r instanceof LocalOnlyRule")
        assert isinstance(expr, ast.InstanceOf)

    def test_string_concat(self):
        expr = parse_expression('"n=" + 4')
        assert isinstance(expr.left, ast.StringLit)

    def test_this(self):
        expr = parse_expression("this.field")
        assert isinstance(expr.obj, ast.This)

    def test_literals(self):
        assert parse_expression("true").value is True
        assert isinstance(parse_expression("null"), ast.NullLit)
        assert parse_expression("2.5").value == 2.5


class TestEndOfInput:
    """An error at the end of the input says so, instead of quoting the
    end-of-input token's empty text; other tokens stay quoted."""

    @pytest.mark.parametrize("source,message", [
        ("class Main { void main() { Sys.print(1); } ",
         "expected 'IDENT' in type, found end of input"),
        ("class Main { void main() { Sys.print(",
         "unexpected end of input in expression"),
        ("class Main { int f( }",
         "expected 'IDENT' in type, found '}'"),
        ("class Main { void main() { int x = ; } }",
         "unexpected token ';' in expression"),
    ])
    def test_message(self, source, message):
        with pytest.raises(EntSyntaxError) as exc_info:
            parse_program(source)
        assert str(exc_info.value).endswith(message)


def nested(shape, depth):
    """A program whose ``main`` nests ``shape`` ``depth`` levels deep
    and prints 1 (for ``unary``, when ``depth`` is even).  The ``chain``
    and ``calls`` shapes are flat: a ``depth``-term ``+`` chain and a
    ``depth``-call member chain, each one tree level per link.
    ``mixed`` nests ``0 + 1 * (…)``: three levels per parenthesis."""
    body = {
        "parens": "Sys.print(" + "(" * depth + "1" + ")" * depth + ");",
        "unary": "Sys.print(" + "-" * depth + "1);",
        "blocks": "{" * depth + " Sys.print(1); " + "}" * depth,
        "if": "if (true) " * depth + "Sys.print(1);",
        "while": ("int i = 0; " + "while (i < 1) " * depth
                  + "i = i + 1; Sys.print(i);"),
        "chain": "Sys.print(" + "0 + " * (depth - 1) + "1);",
        "calls": "Sys.print(this" + ".me()" * (depth - 1) + ".one());",
        "mixed": "Sys.print(" + "0 + 1 * (" * depth + "1" + ")" * depth
                 + ");",
    }[shape]
    return (MODES + "class Main { Main me() { return this; } "
            "int one() { return 1; } void main() { " + body + " } }")


class TestNestingLimit:
    """Deep nesting and long operator or member chains end in an
    ``EntSyntaxError``, never in Python's ``RecursionError``; programs
    100 levels deep still run."""

    @pytest.mark.parametrize("shape,depth", [
        ("parens", 150), ("parens", 2000), ("unary", 2000),
        ("blocks", 2000), ("if", 2000), ("while", 2000),
        ("chain", 250), ("chain", 2000), ("calls", 250),
        ("calls", 2000), ("mixed", 50)])
    def test_too_deep_is_a_syntax_error(self, shape, depth):
        with pytest.raises(EntSyntaxError, match="nesting deeper than"):
            parse_program(nested(shape, depth))

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("shape", ["parens", "unary", "blocks", "if",
                                       "while", "chain", "calls"])
    def test_hundred_levels_run(self, shape, engine):
        checked = check_program(nested(shape, 100))
        analyze_program(checked, annotate=True)
        interp = Interpreter(checked, options=InterpOptions(engine=engine))
        interp.run()
        assert interp.output == ["1"]

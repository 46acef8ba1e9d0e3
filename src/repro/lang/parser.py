"""Recursive-descent parser for the ENT surface language.

The accepted grammar is the paper's Featherweight-Java-based core
(section 4) extended with the imperative forms the paper's listings use:
statements, locals, loops, ``foreach``, ``try``/``catch``.  See
``DESIGN.md`` for the full feature list.

Notes on disambiguation:

* A statement starting ``Ident Ident`` (or ``Ident @``) is a local
  variable declaration; anything else starting with an identifier is an
  expression statement or assignment.
* ``(C) e`` is parsed as a cast when the parenthesized token sequence is a
  plausible type followed by a primary-expression start.
* Declaration-site mode parameters accept ``?``, ``?X``, ``X``, ``m``,
  ``X <= hi`` and ``lo <= X <= hi``; use-site mode arguments accept only
  ``?`` and names.

Nesting is capped at :data:`MAX_NESTING` levels: every statement and
every (sub)expression context opens one level, and so does each unary
operator or cast.  The cap also bounds the expression *tree*: a binary
operator, ``instanceof``, field access or method call node sits one
level above its operand, so long operator and member chains count too.
Past the cap the parser raises ``EntSyntaxError`` at the offending
token instead of leaving the tree-recursive passes to exhaust Python's
recursion limit.

The parser walks the lexer's parallel token lists by position and
makes a :class:`~repro.core.errors.SourceSpan` only for an AST node or
an error.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.errors import EntSyntaxError, SourceSpan
from repro.lang import ast_nodes as ast
from repro.lang.lexer import tokenize
from repro.lang.tokens import TokenKind, TokenStream

_PRIM_TYPE_TOKENS = {
    TokenKind.KW_INT: "int",
    TokenKind.KW_DOUBLE: "double",
    TokenKind.KW_BOOLEAN: "boolean",
    TokenKind.KW_STRING_TYPE: "String",
    TokenKind.KW_VOID: "void",
    TokenKind.KW_MODE_TYPE: "mode",
}

#: Deepest statement/expression nesting, and expression tree depth, the
#: parser accepts.  One level costs the parser at most six Python
#: frames, so the cap keeps it well inside the default recursion limit
#: and leaves room for the passes that recurse over the tree
#: (typechecker, analysis, engines).
MAX_NESTING = 120

#: Tokens that may begin a primary expression (used by cast disambiguation).
_PRIMARY_START = {
    TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING,
    TokenKind.KW_THIS, TokenKind.KW_NEW, TokenKind.KW_NULL,
    TokenKind.KW_TRUE, TokenKind.KW_FALSE, TokenKind.KW_SNAPSHOT,
    TokenKind.KW_MCASE, TokenKind.KW_MSELECT, TokenKind.LPAREN,
    TokenKind.LBRACKET, TokenKind.NOT, TokenKind.MINUS,
}

#: Literal tokens, each a primary expression on its own.
_LITERALS = {
    TokenKind.INT, TokenKind.FLOAT, TokenKind.STRING, TokenKind.KW_TRUE,
    TokenKind.KW_FALSE, TokenKind.KW_NULL, TokenKind.KW_THIS,
}


class Parser:
    def __init__(self, tokens: TokenStream) -> None:
        self._kinds = tokens.kinds
        self._texts = tokens.texts
        self._values = tokens.values
        self._offsets = tokens.offsets
        self._lines = tokens.lines
        self._pos = 0
        #: Current nesting depth (see :data:`MAX_NESTING`).  A parse
        #: error abandons the parser, so levels are closed without a
        #: ``try``/``finally``.
        self._depth = 0
        #: Deepest level the expression tree under construction
        #: reaches.  Reset to the current depth at the start of every
        #: operand, so ``_peak - _depth`` is then the height of the
        #: operand parsed so far.
        self._peak = 0

    # ------------------------------------------------------------------
    # Token plumbing

    # The token lists always end with EOF and no step moves past it, so
    # _pos stays in range and lookahead-0 needs no bounds check.  The
    # plumbing returns positions; kinds and texts are read from the
    # lists, and a span is made only for an AST node or an error.

    def _span(self, pos: int) -> SourceSpan:
        return SourceSpan(self._offsets[pos], self._lines)

    def _kind_ahead(self, offset: int) -> TokenKind:
        """The kind ``offset`` tokens ahead (EOF past the end)."""
        try:
            return self._kinds[self._pos + offset]
        except IndexError:
            return TokenKind.EOF

    def _at(self, kind: TokenKind, offset: int = 0) -> bool:
        if offset:
            return self._kind_ahead(offset) is kind
        return self._kinds[self._pos] is kind

    def _advance(self) -> int:
        pos = self._pos
        if self._kinds[pos] is not TokenKind.EOF:
            self._pos = pos + 1
        return pos

    def _expect(self, kind: TokenKind, context: str = "") -> int:
        pos = self._pos
        if self._kinds[pos] is not kind:
            where = f" in {context}" if context else ""
            what = ("end of input" if self._kinds[pos] is TokenKind.EOF
                    else repr(self._texts[pos]))
            raise EntSyntaxError(f"expected {kind.value!r}{where}, found "
                                 f"{what}", self._span(pos))
        if kind is not TokenKind.EOF:
            self._pos = pos + 1
        return pos

    def _nest(self) -> None:
        """Open one nesting level at the current token."""
        depth = self._depth + 1
        if depth > MAX_NESTING:
            raise self._too_deep(self._pos)
        self._depth = depth
        if depth > self._peak:
            self._peak = depth

    def _too_deep(self, pos: int) -> EntSyntaxError:
        return EntSyntaxError(
            f"nesting deeper than {MAX_NESTING} levels at "
            f"{self._texts[pos]!r}", self._span(pos))

    def _accept(self, kind: TokenKind) -> bool:
        pos = self._pos
        if self._kinds[pos] is kind:
            if kind is not TokenKind.EOF:
                self._pos = pos + 1
            return True
        return False

    def _expect_ident(self, context: str = "") -> str:
        return self._texts[self._expect(TokenKind.IDENT, context)]

    # ------------------------------------------------------------------
    # Program structure

    def parse_program(self) -> ast.Program:
        program = ast.Program()
        while not self._at(TokenKind.EOF):
            if self._at(TokenKind.KW_MODES):
                program.modes.append(self._parse_modes_decl())
            elif self._at(TokenKind.KW_CLASS):
                program.classes.append(self._parse_class_decl())
            else:
                raise EntSyntaxError(
                    f"expected 'modes' or 'class' at top level, found "
                    f"{self._texts[self._pos]!r}", self._span(self._pos))
        return program

    def _parse_modes_decl(self) -> ast.ModesDecl:
        start = self._expect(TokenKind.KW_MODES)
        self._expect(TokenKind.LBRACE, "modes declaration")
        decl = ast.ModesDecl(span=self._span(start))
        while not self._at(TokenKind.RBRACE):
            chain = [self._expect_ident("modes declaration")]
            while self._accept(TokenKind.LE):
                chain.append(self._expect_ident("modes declaration"))
            if len(chain) == 1:
                decl.singletons.append(chain[0])
            else:
                decl.pairs.extend(zip(chain, chain[1:]))
            self._expect(TokenKind.SEMI, "modes declaration")
        self._expect(TokenKind.RBRACE, "modes declaration")
        return decl

    def _parse_class_decl(self) -> ast.ClassDecl:
        start = self._expect(TokenKind.KW_CLASS)
        name = self._expect_ident("class declaration")
        cls = ast.ClassDecl(name=name, span=self._span(start))
        if self._at(TokenKind.AT):
            params = self._parse_mode_params()
            cls.mode_param = params[0]
            cls.extra_params = params[1:]
        if self._accept(TokenKind.KW_EXTENDS):
            cls.superclass = self._expect_ident("extends clause")
            if self._at(TokenKind.AT):
                cls.super_mode_args = self._parse_mode_args()
        self._expect(TokenKind.LBRACE, "class body")
        while not self._at(TokenKind.RBRACE):
            self._parse_member(cls)
        self._expect(TokenKind.RBRACE, "class body")
        return cls

    # ------------------------------------------------------------------
    # Mode parameter / argument lists

    def _parse_mode_params(self) -> List[ast.ModeParamNode]:
        """Declaration-site ``@mode<...>``."""
        self._expect(TokenKind.AT)
        self._expect(TokenKind.KW_MODE_TYPE, "mode annotation")
        self._expect(TokenKind.LT, "mode annotation")
        params = [self._parse_mode_param()]
        while self._accept(TokenKind.COMMA):
            params.append(self._parse_mode_param())
        self._expect(TokenKind.GT, "mode annotation")
        return params

    def _parse_mode_param(self) -> ast.ModeParamNode:
        span = self._span(self._pos)
        dynamic = self._accept(TokenKind.QUESTION)
        if dynamic and not self._at(TokenKind.IDENT):
            return ast.ModeParamNode(dynamic=True, span=span)
        first = self._expect_ident("mode parameter")
        if self._accept(TokenKind.LE):
            second = self._expect_ident("mode parameter bound")
            if self._accept(TokenKind.LE):
                third = self._expect_ident("mode parameter bound")
                # lo <= X <= hi
                return ast.ModeParamNode(dynamic=dynamic, var=second,
                                         lower=first, upper=third, span=span)
            # X <= hi
            return ast.ModeParamNode(dynamic=dynamic, var=first,
                                     upper=second, span=span)
        return ast.ModeParamNode(dynamic=dynamic, var=first, span=span)

    def _parse_mode_args(self) -> List[ast.ModeArgNode]:
        """Use-site ``@mode<...>``."""
        self._expect(TokenKind.AT)
        self._expect(TokenKind.KW_MODE_TYPE, "mode arguments")
        self._expect(TokenKind.LT, "mode arguments")
        args = [self._parse_mode_arg()]
        while self._accept(TokenKind.COMMA):
            args.append(self._parse_mode_arg())
        self._expect(TokenKind.GT, "mode arguments")
        return args

    def _parse_mode_arg(self) -> ast.ModeArgNode:
        span = self._span(self._pos)
        if self._accept(TokenKind.QUESTION):
            return ast.ModeArgNode(dynamic=True, span=span)
        name = self._expect_ident("mode argument")
        return ast.ModeArgNode(name=name, span=span)

    # ------------------------------------------------------------------
    # Class members

    def _parse_member(self, cls: ast.ClassDecl) -> None:
        if self._at(TokenKind.KW_ATTRIBUTOR):
            if cls.attributor is not None:
                raise EntSyntaxError("duplicate class attributor",
                                     self._span(self._pos))
            cls.attributor = self._parse_attributor()
            return
        # Constructor: ClassName '(' ...
        if (self._at(TokenKind.IDENT)
                and self._texts[self._pos] == cls.name
                and self._at(TokenKind.LPAREN, 1)):
            if cls.constructor is not None:
                raise EntSyntaxError("duplicate constructor",
                                     self._span(self._pos))
            cls.constructor = self._parse_constructor()
            return
        mode_param: Optional[ast.ModeParamNode] = None
        if self._at(TokenKind.AT):
            params = self._parse_mode_params()
            if len(params) != 1:
                raise EntSyntaxError(
                    "method-level mode annotations take exactly one "
                    "parameter", params[1].span)
            mode_param = params[0]
        declared = self._parse_type()
        name = self._expect_ident("member declaration")
        if self._at(TokenKind.LPAREN):
            cls.methods.append(self._parse_method_rest(
                mode_param, declared, name))
        else:
            if mode_param is not None:
                raise EntSyntaxError(
                    "fields cannot carry method-level mode annotations",
                    mode_param.span)
            init = None
            if self._accept(TokenKind.ASSIGN):
                init = self._parse_expr()
            self._expect(TokenKind.SEMI, "field declaration")
            cls.fields.append(ast.FieldDecl(declared=declared, name=name,
                                            init=init, span=declared.span))

    def _parse_attributor(self) -> ast.AttributorDecl:
        start = self._expect(TokenKind.KW_ATTRIBUTOR)
        body = self._parse_block()
        return ast.AttributorDecl(body=body, span=self._span(start))

    def _parse_constructor(self) -> ast.ConstructorDecl:
        start = self._expect(TokenKind.IDENT)
        params = self._parse_params()
        body = self._parse_block()
        return ast.ConstructorDecl(params=params, body=body,
                                   span=self._span(start))

    def _parse_method_rest(self, mode_param: Optional[ast.ModeParamNode],
                           return_type: ast.TypeNode,
                           name: str) -> ast.MethodDecl:
        params = self._parse_params()
        attributor = None
        if self._at(TokenKind.KW_ATTRIBUTOR):
            attributor = self._parse_attributor()
        body = self._parse_block()
        return ast.MethodDecl(name=name, params=params,
                              return_type=return_type, body=body,
                              mode_param=mode_param, attributor=attributor,
                              span=return_type.span)

    def _parse_params(self) -> List[ast.ParamDecl]:
        self._expect(TokenKind.LPAREN, "parameter list")
        params: List[ast.ParamDecl] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                declared = self._parse_type()
                pname = self._expect_ident("parameter")
                params.append(ast.ParamDecl(declared=declared, name=pname,
                                            span=declared.span))
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "parameter list")
        return params

    # ------------------------------------------------------------------
    # Types

    def _parse_type(self) -> ast.TypeNode:
        pos = self._pos
        kind = self._kinds[pos]
        prim = _PRIM_TYPE_TOKENS.get(kind)
        if prim is not None:
            self._pos = pos + 1
            return ast.PrimTypeNode(name=prim, span=self._span(pos))
        if kind is TokenKind.KW_MCASE:
            self._pos = pos + 1
            self._expect(TokenKind.LT, "mcase type")
            element = self._parse_type()
            self._expect(TokenKind.GT, "mcase type")
            return ast.MCaseTypeNode(element=element, span=self._span(pos))
        name = self._expect_ident("type")
        mode_args = None
        if self._at(TokenKind.AT):
            mode_args = self._parse_mode_args()
        return ast.ClassTypeNode(name=name, mode_args=mode_args,
                                 span=self._span(pos))

    # ------------------------------------------------------------------
    # Statements

    def _parse_block(self) -> ast.Block:
        start = self._expect(TokenKind.LBRACE, "block")
        stmts: List[ast.Stmt] = []
        kinds = self._kinds
        while kinds[self._pos] is not TokenKind.RBRACE:
            stmts.append(self._parse_stmt())
        self._pos += 1
        return ast.Block(stmts=stmts, span=self._span(start))

    def _parse_stmt(self) -> ast.Stmt:
        self._nest()
        keyword = _KEYWORD_STMTS.get(self._kinds[self._pos])
        if keyword is not None:
            stmt = keyword(self)
        elif self._is_local_decl_start():
            stmt = self._parse_local_decl()
        else:
            stmt = self._parse_expr_stmt()
        self._depth -= 1
        return stmt

    def _parse_expr_stmt(self) -> ast.Stmt:
        """An expression statement or an assignment."""
        start = self._pos
        expr = self._parse_expr()
        if self._accept(TokenKind.ASSIGN):
            if not isinstance(expr, (ast.Var, ast.FieldAccess)):
                raise EntSyntaxError("invalid assignment target",
                                     self._span(start))
            value = self._parse_expr()
            self._expect(TokenKind.SEMI, "assignment")
            return ast.Assign(target=expr, value=value,
                              span=self._span(start))
        self._expect(TokenKind.SEMI, "expression statement")
        return ast.ExprStmt(expr=expr, span=self._span(start))

    def _is_local_decl_start(self) -> bool:
        kind = self._kinds[self._pos]
        if kind in _PRIM_TYPE_TOKENS or kind is TokenKind.KW_MCASE:
            return True
        if kind is not TokenKind.IDENT:
            return False
        # Ident Ident  => decl; Ident @mode<...> Ident => decl.
        if self._at(TokenKind.IDENT, 1):
            return True
        return self._at(TokenKind.AT, 1) and self._at(TokenKind.KW_MODE_TYPE, 2)

    def _parse_local_decl(self) -> ast.Stmt:
        declared = self._parse_type()
        name = self._expect_ident("local declaration")
        init = None
        if self._accept(TokenKind.ASSIGN):
            init = self._parse_expr()
        self._expect(TokenKind.SEMI, "local declaration")
        return ast.LocalVarDecl(declared=declared, name=name, init=init,
                                span=declared.span)

    def _parse_return(self) -> ast.Stmt:
        start = self._advance()
        expr = None
        if not self._at(TokenKind.SEMI):
            expr = self._parse_expr()
        self._expect(TokenKind.SEMI, "return statement")
        return ast.Return(expr=expr, span=self._span(start))

    def _parse_break(self) -> ast.Stmt:
        start = self._advance()
        self._expect(TokenKind.SEMI, "break statement")
        return ast.Break(span=self._span(start))

    def _parse_continue(self) -> ast.Stmt:
        start = self._advance()
        self._expect(TokenKind.SEMI, "continue statement")
        return ast.Continue(span=self._span(start))

    def _parse_throw(self) -> ast.Stmt:
        start = self._advance()
        expr = self._parse_expr()
        self._expect(TokenKind.SEMI, "throw statement")
        return ast.Throw(expr=expr, span=self._span(start))

    def _parse_if(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN, "if condition")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "if condition")
        then = self._parse_stmt()
        otherwise = None
        if self._accept(TokenKind.KW_ELSE):
            otherwise = self._parse_stmt()
        return ast.If(cond=cond, then=then, otherwise=otherwise,
                      span=self._span(start))

    def _parse_while(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN, "while condition")
        cond = self._parse_expr()
        self._expect(TokenKind.RPAREN, "while condition")
        body = self._parse_stmt()
        return ast.While(cond=cond, body=body, span=self._span(start))

    def _parse_foreach(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_FOREACH)
        self._expect(TokenKind.LPAREN, "foreach header")
        var_type = self._parse_type()
        var_name = self._expect_ident("foreach variable")
        self._expect(TokenKind.COLON, "foreach header")
        iterable = self._parse_expr()
        self._expect(TokenKind.RPAREN, "foreach header")
        body = self._parse_stmt()
        return ast.Foreach(var_type=var_type, var_name=var_name,
                           iterable=iterable, body=body,
                           span=self._span(start))

    def _parse_try(self) -> ast.Stmt:
        start = self._expect(TokenKind.KW_TRY)
        body = self._parse_block()
        self._expect(TokenKind.KW_CATCH, "try statement")
        self._expect(TokenKind.LPAREN, "catch clause")
        exc_class = self._expect_ident("catch clause")
        exc_var = self._expect_ident("catch clause")
        self._expect(TokenKind.RPAREN, "catch clause")
        handler = self._parse_block()
        return ast.TryCatch(body=body, exc_class=exc_class, exc_var=exc_var,
                            handler=handler, span=self._span(start))

    # ------------------------------------------------------------------
    # Expressions (operator precedence)

    #: Operator precedence, loosest first: or < and < equality <
    #: relational < additive < multiplicative.  ``instanceof`` binds at
    #: relational level; it takes a class name, not an operand, so it
    #: applies at once instead of waiting on the operator stack.
    _BIN_PREC = {
        TokenKind.OR: 1,
        TokenKind.AND: 2,
        TokenKind.EQ: 3, TokenKind.NE: 3,
        TokenKind.LT: 4, TokenKind.LE: 4,
        TokenKind.GT: 4, TokenKind.GE: 4, TokenKind.KW_INSTANCEOF: 4,
        TokenKind.PLUS: 5, TokenKind.MINUS: 5,
        TokenKind.STAR: 6, TokenKind.SLASH: 6, TokenKind.PERCENT: 6,
    }

    def _parse_expr(self) -> ast.Expr:
        """One expression level: unary operands joined by binary
        operators, folded into left-associative trees by precedence on
        explicit stacks, so an operator chain costs no recursion.

        The folded tree is no deeper than its deepest operand plus one
        level per operator; that bound counts against
        :data:`MAX_NESTING`, checked at every operator."""
        self._nest()
        prec_table = self._BIN_PREC
        kinds = self._kinds
        depth = self._depth
        outer = self._peak
        self._peak = depth
        operands = [self._parse_unary()]
        tallest = self._peak  # deepest level any operand reaches
        ops = 0
        pending: List[int] = []  # operator positions
        while True:
            pos = self._pos
            kind = kinds[pos]
            prec = prec_table.get(kind)
            if prec is None:
                break
            ops += 1
            if tallest + ops > MAX_NESTING:
                raise self._too_deep(pos)
            while pending and prec_table[kinds[pending[-1]]] >= prec:
                self._reduce(operands, pending.pop())
            self._pos = pos + 1
            if kind is TokenKind.KW_INSTANCEOF:
                cname = self._expect_ident("instanceof")
                operands[-1] = ast.InstanceOf(expr=operands[-1],
                                              class_name=cname,
                                              span=self._span(pos))
            else:
                pending.append(pos)
                self._peak = depth
                operands.append(self._parse_unary())
                if self._peak + ops > MAX_NESTING:
                    raise self._too_deep(pos)
                if self._peak > tallest:
                    tallest = self._peak
        while pending:
            self._reduce(operands, pending.pop())
        self._depth -= 1
        reach = tallest + ops
        self._peak = reach if reach > outer else outer
        return operands[0]

    def _reduce(self, operands: List[ast.Expr], op: int) -> None:
        """Replace the top two operands with the node of the operator
        at position ``op``."""
        right = operands.pop()
        operands[-1] = ast.Binary(op=self._texts[op], left=operands[-1],
                                  right=right,
                                  span=SourceSpan(self._offsets[op],
                                                  self._lines))

    def _parse_unary(self) -> ast.Expr:
        pos = self._pos
        kind = self._kinds[pos]
        if kind is TokenKind.MINUS or kind is TokenKind.NOT:
            self._nest()
            self._pos = pos + 1
            expr = ast.Unary(op=self._texts[pos], expr=self._parse_unary(),
                             span=self._span(pos))
        elif kind is TokenKind.KW_SNAPSHOT:
            return self._parse_snapshot()
        elif kind is TokenKind.LPAREN and self._is_cast_start():
            self._nest()
            self._pos = pos + 1
            target = self._parse_type()
            self._expect(TokenKind.RPAREN, "cast")
            expr = ast.Cast(target=target, expr=self._parse_unary(),
                            span=self._span(pos))
        else:
            return self._parse_postfix()
        self._depth -= 1
        return expr

    def _is_cast_start(self) -> bool:
        """Is the upcoming ``( ... )`` a cast rather than grouping?"""
        assert self._at(TokenKind.LPAREN)
        kind1 = self._kind_ahead(1)
        if kind1 in _PRIM_TYPE_TOKENS or kind1 is TokenKind.KW_MCASE:
            return True
        if kind1 is not TokenKind.IDENT:
            return False
        # ( Ident @mode<...> ) ...
        if self._at(TokenKind.AT, 2):
            return True
        # ( Ident ) <primary-start>
        if self._at(TokenKind.RPAREN, 2):
            return self._kind_ahead(3) in _PRIMARY_START and not self._at(
                TokenKind.LPAREN, 3) and not self._at(TokenKind.MINUS, 3)
        return False

    def _parse_snapshot(self) -> ast.Expr:
        start = self._expect(TokenKind.KW_SNAPSHOT)
        expr = self._parse_postfix()
        lower = upper = None
        if self._accept(TokenKind.LBRACKET):
            lower = self._parse_snapshot_bound()
            self._expect(TokenKind.COMMA, "snapshot bounds")
            upper = self._parse_snapshot_bound()
            self._expect(TokenKind.RBRACKET, "snapshot bounds")
        return ast.Snapshot(expr=expr, lower=lower, upper=upper,
                            span=self._span(start))

    def _parse_snapshot_bound(self) -> ast.SnapshotBound:
        span = self._span(self._pos)
        if self._accept(TokenKind.UNDERSCORE):
            return ast.SnapshotBound(span=span)
        name = self._expect_ident("snapshot bound")
        return ast.SnapshotBound(name=name, span=span)

    def _parse_postfix(self) -> ast.Expr:
        expr = self._parse_primary()
        kinds = self._kinds
        while kinds[self._pos] is TokenKind.DOT:
            # Each member node sits one level above the chain so far;
            # call arguments open their own expression level.
            reach = self._peak + 1
            if reach > MAX_NESTING:
                raise self._too_deep(self._pos)
            self._peak = reach
            self._pos += 1
            name = self._expect_ident("member access")
            if kinds[self._pos] is TokenKind.LPAREN:
                args = self._parse_args()
                expr = ast.MethodCall(receiver=expr, name=name, args=args,
                                      span=expr.span)
            else:
                expr = ast.FieldAccess(obj=expr, name=name, span=expr.span)
        return expr

    def _parse_args(self) -> List[ast.Expr]:
        self._expect(TokenKind.LPAREN, "argument list")
        args: List[ast.Expr] = []
        if not self._at(TokenKind.RPAREN):
            while True:
                args.append(self._parse_expr())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RPAREN, "argument list")
        return args

    def _parse_primary(self) -> ast.Expr:
        pos = self._pos
        kind = self._kinds[pos]
        # The hottest rule: it makes its span inline, not via _span.
        if kind is TokenKind.IDENT:
            self._pos = pos + 1
            span = SourceSpan(self._offsets[pos], self._lines)
            if self._kinds[pos + 1] is TokenKind.LPAREN:
                args = self._parse_args()
                return ast.MethodCall(receiver=None, name=self._texts[pos],
                                      args=args, span=span)
            return ast.Var(name=self._texts[pos], span=span)
        if kind in _LITERALS:
            self._pos = pos + 1
            span = SourceSpan(self._offsets[pos], self._lines)
            if kind is TokenKind.INT:
                return ast.IntLit(value=self._values[pos], span=span)
            if kind is TokenKind.KW_THIS:
                return ast.This(span=span)
            if kind is TokenKind.STRING:
                return ast.StringLit(value=self._values[pos], span=span)
            if kind is TokenKind.FLOAT:
                return ast.FloatLit(value=self._values[pos], span=span)
            if kind is TokenKind.KW_NULL:
                return ast.NullLit(span=span)
            return ast.BoolLit(value=kind is TokenKind.KW_TRUE, span=span)
        if kind is TokenKind.KW_NEW:
            return self._parse_new()
        if kind is TokenKind.KW_MCASE:
            return self._parse_mcase_expr()
        if kind is TokenKind.KW_MSELECT:
            return self._parse_mselect()
        if kind is TokenKind.LBRACKET:
            return self._parse_list_literal()
        if kind is TokenKind.LPAREN:
            self._pos = pos + 1
            expr = self._parse_expr()
            self._expect(TokenKind.RPAREN, "parenthesized expression")
            return expr
        what = ("end of input" if kind is TokenKind.EOF
                else f"token {self._texts[pos]!r}")
        raise EntSyntaxError(f"unexpected {what} in expression",
                             self._span(pos))

    def _parse_new(self) -> ast.Expr:
        start = self._expect(TokenKind.KW_NEW)
        name = self._expect_ident("new expression")
        mode_args = None
        if self._at(TokenKind.AT):
            mode_args = self._parse_mode_args()
        args = self._parse_args()
        return ast.New(class_name=name, mode_args=mode_args, args=args,
                       span=self._span(start))

    def _parse_mcase_expr(self) -> ast.Expr:
        start = self._expect(TokenKind.KW_MCASE)
        element = None
        if self._accept(TokenKind.LT):
            element = self._parse_type()
            self._expect(TokenKind.GT, "mcase expression")
        self._expect(TokenKind.LBRACE, "mcase expression")
        branches: List[ast.MCaseBranch] = []
        while not self._at(TokenKind.RBRACE):
            span = self._span(self._pos)
            if self._accept(TokenKind.KW_DEFAULT):
                mode_name: Optional[str] = None
            else:
                mode_name = self._expect_ident("mcase branch")
            self._expect(TokenKind.COLON, "mcase branch")
            expr = self._parse_expr()
            self._expect(TokenKind.SEMI, "mcase branch")
            branches.append(ast.MCaseBranch(mode_name=mode_name, expr=expr,
                                            span=span))
        self._expect(TokenKind.RBRACE, "mcase expression")
        return ast.MCaseExpr(element=element, branches=branches,
                             span=self._span(start))

    def _parse_mselect(self) -> ast.Expr:
        start = self._expect(TokenKind.KW_MSELECT)
        self._expect(TokenKind.LPAREN, "mselect")
        expr = self._parse_expr()
        self._expect(TokenKind.COMMA, "mselect")
        mode_name = self._expect_ident("mselect")
        self._expect(TokenKind.RPAREN, "mselect")
        return ast.MSelect(expr=expr, mode_name=mode_name,
                           span=self._span(start))

    def _parse_list_literal(self) -> ast.Expr:
        start = self._expect(TokenKind.LBRACKET)
        elements: List[ast.Expr] = []
        if not self._at(TokenKind.RBRACKET):
            while True:
                elements.append(self._parse_expr())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RBRACKET, "list literal")
        return ast.ListLit(elements=elements, span=self._span(start))


#: Statements that a keyword (or ``{``) opens, by that token's kind.
_KEYWORD_STMTS = {
    TokenKind.LBRACE: Parser._parse_block,
    TokenKind.KW_IF: Parser._parse_if,
    TokenKind.KW_WHILE: Parser._parse_while,
    TokenKind.KW_FOREACH: Parser._parse_foreach,
    TokenKind.KW_RETURN: Parser._parse_return,
    TokenKind.KW_BREAK: Parser._parse_break,
    TokenKind.KW_CONTINUE: Parser._parse_continue,
    TokenKind.KW_TRY: Parser._parse_try,
    TokenKind.KW_THROW: Parser._parse_throw,
}


def parse_program(source: str, filename: str = "<ent>") -> ast.Program:
    """Parse ENT source text into a :class:`~repro.lang.ast_nodes.Program`."""
    return Parser(tokenize(source, filename)).parse_program()


def parse_expression(source: str, filename: str = "<ent>") -> ast.Expr:
    """Parse a single ENT expression (mainly for tests and the REPL)."""
    parser = Parser(tokenize(source, filename))
    expr = parser._parse_expr()
    parser._expect(TokenKind.EOF, "expression")
    return expr

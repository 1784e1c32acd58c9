"""Parser for the emitted Java subset.

Externally supplied translations (one class, long/String fields, void
methods without parameters) are read back into a JavaAst so they can be
interpreted and measured by the exact pipeline that scores generated
translations. The grammar is the emitter's output language: the main()
wrapper and the private static runtime helpers are recognized and
skipped, and the uniform trailing break of each switch case is stripped.
"""

from __future__ import annotations

import re

from relicforge.cobol import parser as cobol_parser
from relicforge.cobol.nodes import (
    AndCond,
    BinOp,
    Comparison,
    Cond,
    NotCond,
    NumLit,
    OrCond,
    StrLit,
    VarRef,
)
from relicforge.errors import ParseError, ParseFailure
from relicforge.transpile import jnodes as j

_TOKEN_RE = re.compile(
    r'"(?:\\.|[^"\\])*"'
    r"|'(?:\\.|[^'\\])'"
    r"|\d+"
    r"|[A-Za-z_][A-Za-z0-9_]*"
    r"|==|!=|<=|>=|&&|\|\|"
    r"|[-+*/<>=!(){};:,.\[\]]"
)

_CMP_FROM_JAVA = {"==": "=", "!=": "<>", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

# Deepest nesting the parser accepts: a block, a parenthesis, a `!(` and a
# call's argument list each open one level, and a chain counts the depth of
# the tree it builds, as `cobol.parser` does (see `_JParser.chain`). Every
# later stage recurses per level too, so a deeper file is a ParseFailure, not
# a RecursionError. A translation nests at most three levels deeper than its
# COBOL source (the method body; a store's `fit(str(...))` or `num(in())`; a
# loop guard's `!(` and the parentheses around `&&` under `||`); the bound
# leaves room for more. The parentheses the emitter drops add no depth: a
# left operand's `(a + b) + c` and `a + b + c` build the same tree.
MAX_NESTING = cobol_parser.MAX_NESTING + 10


def _unquote(text: str) -> str:
    return re.sub(r"\\(.)", r"\1", text[1:-1])


def _lex(text: str) -> list[tuple[str, int]]:
    toks: list[tuple[str, int]] = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        pos = 0
        for m in _TOKEN_RE.finditer(line):
            gap = line[pos : m.start()]
            if gap.strip():
                raise ParseFailure([ParseError(line_no, "Java token", gap.strip()[:1])])
            toks.append((m.group(), line_no))
            pos = m.end()
        if line[pos:].strip():
            raise ParseFailure([ParseError(line_no, "Java token", line[pos:].strip()[:1])])
    return toks


class _JParser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.i = 0
        self.depth = 0
        self.peak = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, k: int = 0) -> str | None:
        at = self.i + k
        return self.toks[at][0] if at < len(self.toks) else None

    def line(self) -> int:
        at = min(self.i, len(self.toks) - 1)
        return self.toks[at][1] if self.toks else 0

    def fail(self, expected: str) -> "ParseFailure":
        found = self.peek()
        return ParseFailure(
            [ParseError(self.line(), expected, found if found is not None else "end of file")]
        )

    def long_literal(self, digits: str, neg: bool) -> int:
        """The value of the literal `digits`, negated when `neg`; a value
        outside a Java `long` is a ParseFailure (see
        `cobol.parser.int_value`)."""
        value = cobol_parser.int_value(digits, neg)
        if value is None:
            raise ParseFailure([ParseError(self.line(), "long literal", digits)])
        return -value if neg else value

    def advance(self) -> str:
        if self.i >= len(self.toks):
            raise self.fail("more input")
        text = self.toks[self.i][0]
        self.i += 1
        return text

    def accept(self, text: str) -> bool:
        if self.peek() == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            raise self.fail(repr(text))

    def nest(self) -> None:
        """Open one nesting level; the caller closes it with `depth -= 1`.
        `peak` keeps the deepest level reached, for `chain`. A backtrack
        restores both along with the token position."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.fail(f"nesting depth at most {MAX_NESTING}")
        if self.depth > self.peak:
            self.peak = self.depth

    def ident(self) -> str:
        got = self.peek()
        if got is None or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", got):
            raise self.fail("identifier")
        self.i += 1
        return got

    # -- skipping wrapper members ---------------------------------------------

    def skip_member(self) -> None:
        """Skip one member given its header has begun: stop after a top-level
        ';' (a field) or after the balanced '{...}' of a method body."""
        while True:
            tok = self.advance()
            if tok == ";":
                return
            if tok == "{":
                depth = 1
                while depth:
                    tok = self.advance()
                    if tok == "{":
                        depth += 1
                    elif tok == "}":
                        depth -= 1
                return

    # -- class structure -------------------------------------------------------

    def parse_class(self) -> j.JavaAst:
        self.expect("public")
        self.expect("class")
        jast = j.JavaAst(self.ident())
        self.expect("{")
        while not self.accept("}"):
            if self.peek() is None:
                raise self.fail("class member or '}'")
            self.member(jast)
        if self.peek() is not None:
            raise self.fail("end of file")
        return jast

    def member(self, jast: j.JavaAst) -> None:
        if self.peek() == "public" and self.peek(1) == "static":
            self.skip_member()  # main() wrapper
            return
        if self.peek() == "private" and self.peek(1) == "static":
            self.skip_member()  # runtime helpers and the input scanner
            return
        vis = self.peek()
        if vis not in ("public", "private"):
            raise self.fail("'public' or 'private'")
        self.advance()
        if self.peek() == "void":
            jast.methods.append(self.method())
        else:
            jast.fields.append(self.field())

    def field(self) -> j.JField:
        jtype = self.peek()
        if jtype not in ("long", "String"):
            raise self.fail("'long', 'String', or 'void'")
        self.advance()
        name = self.ident()
        self.expect("=")
        if jtype == "long":
            neg = self.accept("-")
            tok = self.advance()
            if not tok.isdigit():
                raise self.fail("integer literal")
            initial: int | str = self.long_literal(tok, neg)
            width = 0
        else:
            tok = self.advance()
            if not tok.startswith('"'):
                raise self.fail("string literal")
            initial = _unquote(tok)
            width = len(initial)
        self.expect(";")
        return j.JField(name, jtype, initial, width)

    def method(self) -> j.JMethod:
        self.expect("void")
        name = self.ident()
        self.expect("(")
        self.expect(")")
        self.expect("{")
        return j.JMethod(name, self.block())

    def block(self) -> list:
        self.nest()
        out: list = []
        while not self.accept("}"):
            if self.peek() is None:
                raise self.fail("statement or '}'")
            out.append(self.statement())
        self.depth -= 1
        return out

    # -- statements -------------------------------------------------------------

    def statement(self) -> j.JStmt:
        tok = self.peek()
        if tok == "if":
            return self.if_else()
        if tok == "while":
            self.advance()
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            self.expect("{")
            return j.While(cond, self.block())
        if tok == "do":
            self.advance()
            self.expect("{")
            body = self.block()
            self.expect("while")
            self.expect("(")
            cond = self.cond()
            self.expect(")")
            self.expect(";")
            return j.DoWhile(body, cond)
        if tok == "for":
            return self.for_stmt()
        if tok == "switch":
            return self.switch()
        if tok == "return":
            self.advance()
            self.expect(";")
            return j.Return()
        if tok == "break":
            self.advance()
            self.expect(";")
            return j.Break()
        if tok == "System":
            return self.println()
        name = self.ident()
        if self.accept("="):
            expr = self.expr()
            self.expect(";")
            return j.Assign(name, expr)
        self.expect("(")
        args: list = []
        if not self.accept(")"):
            while True:
                args.append(self.expr())
                if not self.accept(","):
                    break
            self.expect(")")
        self.expect(";")
        external = name[len("prog_") :] if name.startswith("prog_") else None
        return j.MethodCall(name, args, external)

    def if_else(self) -> j.IfElse:
        self.expect("if")
        self.expect("(")
        cond = self.cond()
        self.expect(")")
        self.expect("{")
        then_body = self.block()
        else_body: list = []
        if self.accept("else"):
            self.expect("{")
            else_body = self.block()
        return j.IfElse(cond, then_body, else_body)

    def for_stmt(self) -> j.For:
        self.expect("for")
        self.expect("(")
        init = None
        if self.peek() != ";":
            init = self.assign_clause()
        self.expect(";")
        cond = None
        if self.peek() != ";":
            cond = self.cond()
        self.expect(";")
        update = None
        if self.peek() != ")":
            update = self.assign_clause()
        self.expect(")")
        self.expect("{")
        return j.For(init, cond, update, self.block())

    def assign_clause(self) -> j.Assign:
        name = self.ident()
        self.expect("=")
        return j.Assign(name, self.expr())

    def switch(self) -> j.Switch:
        self.expect("switch")
        self.expect("(")
        subject = self.expr()
        self.expect(")")
        self.expect("{")
        cases: list[j.SwitchCase] = []
        default: list | None = None
        while not self.accept("}"):
            if self.accept("case"):
                value = self.case_value()
                self.expect(":")
                self.expect("{")
                cases.append(j.SwitchCase(value, tuple(self.case_body())))
            elif self.accept("default"):
                self.expect(":")
                self.expect("{")
                default = self.case_body()
            else:
                raise self.fail("'case', 'default', or '}'")
        return j.Switch(subject, cases, default)

    def case_value(self) -> NumLit | StrLit:
        neg = self.accept("-")
        tok = self.advance()
        if tok.isdigit():
            return NumLit(self.long_literal(tok, neg))
        if not neg and tok.startswith('"'):
            return StrLit(_unquote(tok))
        raise self.fail("case literal")

    def case_body(self) -> list:
        body = self.block()
        if body and isinstance(body[-1], j.Break):
            body.pop()  # the uniform case-trailing break is emission detail
        return body

    def println(self) -> j.Print:
        self.expect("System")
        self.expect(".")
        self.expect("out")
        self.expect(".")
        self.expect("println")
        self.expect("(")
        # The emitter joins a DISPLAY's operands with `+`, and a DISPLAY has
        # no operand limit, so these terms are a list and no chain.
        terms = [self.term()]
        while self.accept("+"):
            terms.append(self.term())
        self.expect(")")
        self.expect(";")
        args = [
            t.args[0] if isinstance(t, j.JCall) and t.name == "str" and len(t.args) == 1 else t
            for t in terms
        ]
        return j.Print(args)

    # -- expressions and conditions ----------------------------------------------

    def chain(self, ops: tuple[str, ...], operand, build):
        """`operand (op operand)*`, built left-deep by `build(op, left, right)`.

        Each operand is read at the chain's own depth and reports how deep it
        went through `peak`. In the left-deep tree every operator puts one
        more level above the operands before it, so with `k` operators the
        first operand sits `k - 1` levels down and the last none (the first
        operator is free, as in `cobol.parser`). `height` is the deepest such
        level plus the operand's own depth, checked at each operator.
        """
        start, outer_peak = self.depth, self.peak
        self.peak = start
        left = operand()
        height = self.peak - start
        chained = False
        while self.peek() in ops:
            if chained:
                height += 1
                if start + height > MAX_NESTING:
                    raise self.fail(f"nesting depth at most {MAX_NESTING}")
            chained = True
            op = self.advance()
            self.peak = start
            left = build(op, left, operand())
            height = max(height, self.peak - start)
        self.peak = max(outer_peak, start + height)
        return left

    def expr(self) -> j.JExpr:
        return self.chain(("+", "-"), self.term, BinOp)

    def term(self) -> j.JExpr:
        return self.chain(("*", "/"), self.factor, BinOp)

    def factor(self) -> j.JExpr:
        tok = self.peek()
        if tok is None:
            raise self.fail("expression")
        if tok == "(":
            self.nest()
            self.advance()
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok == "-":
            self.advance()
            num = self.advance()
            if not num.isdigit():
                raise self.fail("integer literal")
            return NumLit(self.long_literal(num, True))
        if tok.isdigit():
            self.advance()
            return NumLit(self.long_literal(tok, False))
        if tok.startswith('"'):
            self.advance()
            return StrLit(_unquote(tok))
        name = self.ident()
        if self.accept("("):
            self.nest()
            args: list = []
            if not self.accept(")"):
                while True:
                    args.append(self.expr())
                    if not self.accept(","):
                        break
                self.expect(")")
            self.depth -= 1
            return j.JCall(name, tuple(args))
        return VarRef(name)

    def cond(self) -> Cond:
        return self.chain(("||",), self.and_cond, lambda _op, left, right: OrCond(left, right))

    def and_cond(self) -> Cond:
        return self.chain(("&&",), self.primary_cond,
                          lambda _op, left, right: AndCond(left, right))

    def primary_cond(self) -> Cond:
        if self.peek() == "!" and self.peek(1) == "(":
            self.nest()
            self.advance()
            self.advance()
            inner = self.cond()
            self.expect(")")
            self.depth -= 1
            return NotCond(inner)
        if self.peek() == "(":
            # Ambiguous: a condition group or a parenthesized arithmetic
            # operand. Try the group reading first and backtrack on failure.
            mark, depth, peak = self.i, self.depth, self.peak
            try:
                self.nest()
                self.advance()
                inner = self.cond()
                self.expect(")")
                self.depth -= 1
                return inner
            except ParseFailure:
                self.i, self.depth, self.peak = mark, depth, peak
        return self.comparison()

    def comparison(self) -> Comparison:
        left = self.expr()
        op = self.peek()
        if op not in _CMP_FROM_JAVA:
            raise self.fail("comparison operator")
        self.advance()
        return Comparison(_CMP_FROM_JAVA[op], left, self.expr())


def parse_java(text: str) -> j.JavaAst:
    """Parse emitted-subset Java source into a JavaAst.

    A method is read as `void name()`: the subset has no parameters. A file
    that nests past MAX_NESTING levels is outside the subset; a `+ -`,
    `* /`, `&&` or `||` chain counts the levels of the left-deep tree it
    builds, each operator after its first one level above the operands
    before it. The `+` that joins a println's terms is no chain. Raises
    ParseFailure on anything outside the subset.
    """
    return _JParser(text).parse_class()

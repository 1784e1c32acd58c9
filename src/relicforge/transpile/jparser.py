"""Parser for the emitted Java subset.

Externally supplied translations (one class, long/String fields, void
methods without parameters) are read back into a JavaAst so they can be
interpreted and measured by the exact pipeline that scores generated
translations. The grammar is the emitter's output language; it runs on
the COBOL parser's token cursor and nesting guard (`TokenParser`).

The lexer tags every token as a word, an integer (ASCII digits only, as
javac reads them), a string, a char literal, an operator or punctuation,
and keeps its text as written, quotes included, so a literal's content
never matches a keyword or punctuation test. A static member is skipped
only when its tokens are those of one `emit_java` writes (this class's
main() wrapper, the input scanner, the runtime helpers): the interpreter
runs its own helpers and would not see a redefined one. The uniform
trailing break of each switch case is stripped.
"""

from __future__ import annotations

import enum
import functools
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
from relicforge.cobol.parser import _EOF, TokenParser, _Issue, int_value
from relicforge.cobol.tokens import Token
from relicforge.errors import ParseFailure
from relicforge.transpile import jnodes as j
from relicforge.transpile.emitter import RUNTIME_SUPPORT, main_wrapper


class JTokenKind(enum.Enum):
    WORD = "word"
    INT = "integer"
    STRING = "string"
    CHAR = "char"
    OPERATOR = "operator"
    PUNCT = "punctuation"


WORD = JTokenKind.WORD
INT = JTokenKind.INT
STRING = JTokenKind.STRING
OPERATOR = JTokenKind.OPERATOR

# One group per kind, named after it.
_TOKEN_RE = re.compile(
    r'(?P<STRING>"(?:\\.|[^"\\])*")'
    r"|(?P<CHAR>'(?:\\.|[^'\\])')"
    r"|(?P<INT>[0-9]+)"
    r"|(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<OPERATOR>==|!=|<=|>=|&&|\|\||[-+*/<>=!])"
    r"|(?P<PUNCT>[(){};:,.\[\]])"
)

# Java's white space within a line (JLS 3.6); other Unicode spaces are no
# separators to javac.
_BLANKS = " \t\f\r"

_CMP_FROM_JAVA = {java: cobol for cobol, java in j.JAVA_CMP.items()}

# A translation nests at most three levels deeper than its COBOL source
# (the method body; a store's `fit(str(...))` or `num(in())`; a loop guard's
# `!(` and the parentheses around `&&` under `||`), and the bound leaves room
# for more. A block, a parenthesis, a `!(` and a call's arguments each open
# one level; the parentheses the emitter drops add none.
MAX_NESTING = cobol_parser.MAX_NESTING + 10


# A string literal's body: the subset escapes only what `jnodes.java_quote`
# escapes, a backslash and a double quote.
_STRING_BODY = re.compile(r'(?:[^"\\]|\\["\\])*')


def _lex(text: str) -> list[Token]:
    toks: list[Token] = []
    kinds = JTokenKind.__members__
    for line_no, line in enumerate(text.split("\n"), start=1):
        pos = 0
        for m in _TOKEN_RE.finditer(line):
            gap = line[pos : m.start()].strip(_BLANKS)
            if gap:
                raise _Issue(line_no, "Java token", gap[:1], pos + 1)
            toks.append(Token(kinds[m.lastgroup], m.group(), line_no, m.start() + 1))
            pos = m.end()
        rest = line[pos:].strip(_BLANKS)
        if rest:
            raise _Issue(line_no, "Java token", rest[:1], pos + 1)
    return toks


@functools.cache
def _runtime_members() -> frozenset[tuple[str, ...]]:
    """The token texts of each static member in `RUNTIME_SUPPORT`."""
    parser = _JParser(_lex(RUNTIME_SUPPORT))
    members = set()
    while parser.tok is not _EOF:
        members.add(parser.skip_member())
    return frozenset(members)


class _JParser(TokenParser):
    max_nesting = MAX_NESTING

    def accept(self, text: str) -> bool:
        if self.tok.text == text:
            self.advance()
            return True
        return False

    def expect(self, text: str) -> None:
        if not self.accept(text):
            self._fail(repr(text))

    def ident(self) -> str:
        if self.tok.text in j.JAVA_RESERVED:
            self._fail("identifier")
        return self.eat(WORD, "identifier").text

    def long_literal(self) -> int:
        """An integer literal under an optional minus sign; a value outside
        a Java `long` is an issue (see `cobol.parser.int_value`)."""
        neg = self.accept("-")
        tok = self.eat(INT, "integer literal")
        value = int_value(tok.text, neg)
        if value is None:
            raise _Issue(tok.line, "long literal", tok.text, tok.col)
        return -value if neg else value

    def string_literal(self) -> str:
        tok = self.eat(STRING, "string literal")
        body = tok.text[1:-1]
        if not _STRING_BODY.fullmatch(body):
            raise _Issue(tok.line, "escapes \\\\ and \\\" only", tok.text, tok.col)
        return re.sub(r"\\(.)", r"\1", body)

    # -- class structure -------------------------------------------------------

    def skip_member(self) -> tuple[str, ...]:
        """Skip one member given its header has begun: stop after a top-level
        ';' (a field) or after the balanced '{...}' of a method body. Returns
        the member's token texts."""
        start, depth = self.pos, 0
        while True:
            if self.tok is _EOF:
                self._fail("more input")
            text = self.advance().text
            if text == "{":
                depth += 1
            elif text == "}" and depth:
                depth -= 1
            if not depth and text in (";", "}"):
                return tuple(tok.text for tok in self.tokens[start : self.pos])

    def parse_class(self) -> j.JavaAst:
        self.expect("public")
        self.expect("class")
        jast = j.JavaAst(self.ident())
        main = tuple(tok.text for tok in _lex(main_wrapper(jast.class_name)))
        self.expect("{")
        while not self.accept("}"):
            if self.tok is _EOF:
                self._fail("class member or '}'")
            self.member(jast, main)
        if self.tok is not _EOF:
            self._fail("end of file")
        return jast

    def member(self, jast: j.JavaAst, main: tuple[str, ...]) -> None:
        vis = self.tok
        if vis.text not in ("public", "private"):
            self._fail("'public' or 'private'")
        if self.peek(1).text == "static":
            texts = self.skip_member()
            if texts != main and texts not in _runtime_members():
                name = next((a for a, b in zip(texts, texts[1:]) if b in "(=;"), texts[-1])
                raise _Issue(vis.line, "static member as emit_java writes it", name, vis.col)
            return
        self.advance()
        if self.tok.text == "void":
            jast.methods.append(self.method())
        else:
            jast.fields.append(self.field())

    def field(self) -> j.JField:
        jtype = self.tok.text
        if jtype not in ("long", "String"):
            self._fail("'long', 'String', or 'void'")
        self.advance()
        name = self.ident()
        self.expect("=")
        if jtype == "long":
            initial: int | str = self.long_literal()
            width = 0
        else:
            initial = self.string_literal()
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
            if self.tok is _EOF:
                self._fail("statement or '}'")
            out.append(self.statement())
        self.depth -= 1
        return out

    # -- statements -------------------------------------------------------------

    def statement(self) -> j.JStmt:
        tok = self.tok.text
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
        if self.tok.text != ";":
            init = self.assign_clause()
        self.expect(";")
        cond = None
        if self.tok.text != ";":
            cond = self.cond()
        self.expect(";")
        update = None
        if self.tok.text != ")":
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
                self._fail("'case', 'default', or '}'")
        return j.Switch(subject, cases, default)

    def case_value(self) -> NumLit | StrLit:
        tok = self.tok
        if tok.kind is STRING:
            return StrLit(self.string_literal())
        if tok.kind is INT or tok.text == "-":
            return NumLit(self.long_literal())
        self._fail("case literal")

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

    def expr(self) -> j.JExpr:
        return self.chain(OPERATOR, ("+", "-"), self.term, BinOp)

    def term(self) -> j.JExpr:
        return self.chain(OPERATOR, ("*", "/"), self.factor, BinOp)

    def factor(self) -> j.JExpr:
        tok = self.tok
        if tok.text == "(":
            self.nest()
            self.advance()
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind is INT or tok.text == "-":
            return NumLit(self.long_literal())
        if tok.kind is STRING:
            return StrLit(self.string_literal())
        if tok is _EOF:
            self._fail("expression")
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
        return self.chain(OPERATOR, ("||",), self.and_cond,
                          lambda _op, left, right: OrCond(left, right))

    def and_cond(self) -> Cond:
        return self.chain(OPERATOR, ("&&",), self.primary_cond,
                          lambda _op, left, right: AndCond(left, right))

    def primary_cond(self) -> Cond:
        if self.tok.text == "!" and self.peek(1).text == "(":
            self.nest()
            self.advance()
            self.advance()
            inner = self.cond()
            self.expect(")")
            self.depth -= 1
            return NotCond(inner)
        if self.tok.text == "(":
            # Ambiguous: a condition group or a parenthesized arithmetic
            # operand. Try the group reading first and backtrack on failure.
            mark = self.pos, self.tok, self.depth, self.peak
            try:
                self.nest()
                self.advance()
                inner = self.cond()
                self.expect(")")
                self.depth -= 1
                return inner
            except _Issue:
                self.pos, self.tok, self.depth, self.peak = mark
        return self.comparison()

    def comparison(self) -> Comparison:
        left = self.expr()
        op = self.tok.text
        if op not in _CMP_FROM_JAVA:
            self._fail("comparison operator")
        self.advance()
        return Comparison(_CMP_FROM_JAVA[op], left, self.expr())


def parse_java(text: str) -> j.JavaAst:
    """Parse emitted-subset Java source into a JavaAst.

    A method is read as `void name()`: the subset has no parameters. A file
    that nests past MAX_NESTING levels is outside the subset, counted as
    `TokenParser` counts; the `+` that joins a println's terms is no chain.
    No name may be a word `jnodes.JAVA_RESERVED` holds, and a string may
    escape only a backslash and a double quote, as `jnodes.java_quote`
    does. Raises ParseFailure on anything outside the subset.
    """
    try:
        return _JParser(_lex(text)).parse_class()
    except _Issue as issue:
        raise ParseFailure([issue.error]) from None

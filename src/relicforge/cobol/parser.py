"""Recursive-descent parser for the COBOL subset.

Statement-level syntax errors are recovered at period boundaries so the
rest of the file still parses; all collected diagnostics are raised
together as a ParseFailure. Post-parse checks enforce the tree
invariants: unique paragraph names, resolvable PERFORM/GO TO targets,
and nonempty group items. The target check walks no tree: the parser
lists each jump node (PERFORM of a paragraph, GO TO, and a counted
paragraph PERFORM) as it builds it, drops the jumps of a statement that
recovery discards, and validation reads that list. Jumps are leaves, so
the order they are built in is their pre-order.
"""

from __future__ import annotations

from relicforge.cobol import nodes as n
from relicforge.cobol.tokens import (
    IDENTIFIER,
    INT_LITERAL,
    KEYWORD,
    LPAREN,
    OPERATOR,
    PERIOD,
    PICTURE_CLAUSE,
    RPAREN,
    STRING_LITERAL,
    SourceFile,
    Token,
    TokenKind,
    normalize_source,
    tokenize,
)
from relicforge.errors import ParseError, ParseFailure

# Sentinel returned past the last token; kind None matches no TokenKind.
_EOF = Token(None, "end of file", 0, 0)  # type: ignore[arg-type]

# Keywords that may start a statement; an Identifier at statement position
# is therefore always a paragraph header.
_STMT_STARTERS = frozenset(
    {
        "MOVE",
        "COMPUTE",
        "ADD",
        "SUBTRACT",
        "MULTIPLY",
        "DIVIDE",
        "IF",
        "EVALUATE",
        "PERFORM",
        "DISPLAY",
        "ACCEPT",
        "CALL",
        "GO",
        "STOP",
    }
)

_COMPARISONS = frozenset({"=", "<>", "<", "<=", ">", ">="})

# Deepest nesting the parser accepts. A nested statement body, a
# parenthesis, a NOT and a unary minus each open one level. The parser and
# every later stage (measure, features, translation, both interpreters)
# recurse once or a few times per level, so a deeper file is rejected with
# a ParseError instead of exhausting Python's recursion limit downstream.
# A chain of `+ -`, `* /`, AND or OR operators is parsed in a loop but
# builds a left-deep tree, one level per operator, so every operator of a
# chain after its first adds one level above the operands before it (see
# `_Parser.chain`): what is bounded is the tree's depth. The first is left
# free so that one binary operation inside each of MAX_NESTING parentheses
# still parses.
MAX_NESTING = 100

# Widest pictures the parser accepts, bounded by the Java the translation
# emits. A numeric field is declared `long`, which holds 18 decimal digits.
# An alphanumeric field's initial value is written as one string literal,
# and a Java class file holds a string constant of at most 65,535 bytes.
# A wider picture is a ParseError, so the file is Rejected before the
# translation and both interpreters build a field that wide.
MAX_PIC_DIGITS = 18
MAX_PIC_CHARS = 65_535

# Largest integer literal the parsers accept. Both interpreters run on
# 64-bit values and the translation writes a literal as a Java `long`, so a
# larger one is a ParseError, as a too-wide picture is. A COBOL minus sign
# is an operator, not part of the literal.
MAX_INT_LITERAL = (1 << 63) - 1


def int_value(digits: str, negated: bool = False) -> int | None:
    """The value of a run of decimal digits, or None when it is past
    MAX_INT_LITERAL (past 2**63 when the literal is `negated`).

    Past 19 significant digits a literal is out of range whatever they are.
    Leading zeros go first, so `int` is never handed more digits than
    Python converts."""
    if len(digits) > 19:
        digits = digits.lstrip("0") or "0"
        if len(digits) > 19:
            return None
    value = int(digits)
    return value if value <= MAX_INT_LITERAL + negated else None


class _Issue(Exception):
    def __init__(self, line: int, expected: str, found: str, col: int = 0):
        super().__init__(f"{expected} / {found}")
        self.error = ParseError(line=line, expected=expected, found=found, col=col)


class _Parser:
    """Recursive descent over a token list with a current-token cursor.

    `tok` is the token under the cursor, or `_EOF` once the tokens run out;
    only `advance` moves it. Lookahead past it (`peek`) is needed only to
    tell `PERFORM P n TIMES` from `PERFORM P TIMES`. `depth` counts the
    nesting levels open at the cursor; `nest` opens one. `jumps` holds the
    paragraph-targeting nodes of the statements kept so far, in pre-order.
    """

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.tok = tokens[0] if tokens else _EOF
        self.errors: list[ParseError] = []
        self.depth = 0
        self.peak = 0
        self.jumps: list[n.PerformPara | n.PerformTimes | n.GoTo] = []

    # --- token helpers ---

    def peek(self, k: int) -> Token:
        i = self.pos + k
        return self.tokens[i] if i < len(self.tokens) else _EOF

    def advance(self) -> Token:
        tok = self.tok
        self.pos += 1
        try:
            self.tok = self.tokens[self.pos]
        except IndexError:
            self.tok = _EOF
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.tok
        return tok.kind is KEYWORD and tok.text in words

    def eat_kw(self, word: str) -> Token:
        tok = self.tok
        if tok.kind is not KEYWORD or tok.text != word:
            self._fail(word)
        return self.advance()

    def eat(self, kind: TokenKind, expected: str) -> Token:
        if self.tok.kind is not kind:
            self._fail(expected)
        return self.advance()

    def eat_period(self) -> None:
        if self.tok.kind is not PERIOD:
            self._fail("'.'")
        self.advance()

    def _fail(self, expected: str) -> None:
        tok = self.tok
        if tok is _EOF:
            line = self.tokens[-1].line if self.tokens else 1
            raise _Issue(line, expected, "end of file")
        raise _Issue(tok.line, expected, tok.text, tok.col)

    def int_literal(self) -> int:
        """The value of the integer literal under the cursor, which it
        consumes; one past MAX_INT_LITERAL is an issue. `parse_atom` and
        the level number, the literals parsed most often, convert one of at
        most 18 digits directly: none is past the bound."""
        value = int_value(self.tok.text)
        if value is None:
            self._fail(f"integer literal at most {MAX_INT_LITERAL}")
        self.advance()
        return value

    def nest(self) -> None:
        """Open one nesting level; the caller closes it with `depth -= 1`
        in a `finally`, so a recovered error leaves the count right. `peak`
        keeps the deepest level reached, for `chain`, which resets it."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self._fail(f"nesting depth at most {MAX_NESTING}")
        if self.depth > self.peak:
            self.peak = self.depth

    def jump(self, node):
        """Record a node that names a paragraph, for `_validate`."""
        self.jumps.append(node)
        return node

    def _skip_past_period(self) -> None:
        while self.tok is not _EOF:
            if self.advance().kind is PERIOD:
                return

    # --- divisions ---

    def parse_program(self) -> n.Program:
        first_line = self.tok.line if self.tok is not _EOF else 1
        try:
            self.eat_kw("IDENTIFICATION")
            self.eat_kw("DIVISION")
            self.eat_period()
            self.eat_kw("PROGRAM-ID")
            self.eat_period()
            pid = self.eat(IDENTIFIER, "program name").text
            self.eat_period()
        except _Issue as e:
            self.errors.append(e.error)
            return n.Program(first_line, "UNKNOWN", [], [])

        data_items: list[n.DataItem] = []
        if self.at_kw("DATA"):
            try:
                self.eat_kw("DATA")
                self.eat_kw("DIVISION")
                self.eat_period()
                if self.at_kw("WORKING-STORAGE"):
                    self.eat_kw("WORKING-STORAGE")
                    self.eat_kw("SECTION")
                    self.eat_period()
            except _Issue as e:
                self.errors.append(e.error)
                self._skip_past_period()
            data_items = self.parse_data_items()

        paragraphs: list[n.Paragraph] = []
        try:
            self.eat_kw("PROCEDURE")
            self.eat_kw("DIVISION")
            self.eat_period()
        except _Issue as e:
            self.errors.append(e.error)
            self._skip_past_period()
        paragraphs = self.parse_paragraphs()
        return n.Program(first_line, pid, data_items, paragraphs)

    # --- data division ---

    def parse_data_items(self) -> list[n.DataItem]:
        # Flat scan first, then nest by level number (child of the nearest
        # preceding item with a smaller level; 77 items never nest).
        flat: list[n.DataItem] = []
        while self.tok.kind is INT_LITERAL:
            try:
                flat.append(self.parse_data_item())
            except _Issue as e:
                self.errors.append(e.error)
                self._skip_past_period()
        return self._nest_items(flat)

    def parse_data_item(self) -> n.DataItem:
        tok = self.eat(INT_LITERAL, "level number")
        level = int(tok.text) if len(tok.text) <= 18 else int_value(tok.text)
        if level is None or not (1 <= level <= 49 or level == 77):
            raise _Issue(tok.line, "level in 01-49 or 77", tok.text)
        name = self.eat(IDENTIFIER, "data item name").text
        picture = None
        value: int | str | None = None
        if self.at_kw("PIC", "PICTURE"):
            self.advance()
            picture = self.eat(PICTURE_CLAUSE, "picture clause").text
            try:
                width = n.picture_width(picture)
            except ValueError:
                raise _Issue(tok.line, "picture of 9s or Xs", picture) from None
            limit = MAX_PIC_DIGITS if picture.startswith("9") else MAX_PIC_CHARS
            if width > limit:
                raise _Issue(tok.line, f"picture of at most {limit} characters", picture)
        if self.at_kw("VALUE"):
            self.advance()
            vt = self.tok
            if vt.kind is INT_LITERAL:
                value = self.int_literal()
            elif vt.kind is STRING_LITERAL:
                value = self.advance().text
            else:
                self._fail("literal value")
        self.eat_period()
        return n.DataItem(tok.line, level, name, picture, value)

    def _nest_items(self, flat: list[n.DataItem]) -> list[n.DataItem]:
        roots: list[n.DataItem] = []
        stack: list[n.DataItem] = []
        for item in flat:
            if item.level == 77:
                stack.clear()
                roots.append(item)
                continue
            while stack and stack[-1].level >= item.level:
                stack.pop()
            if stack and stack[-1].level != 77:
                stack[-1].children.append(item)
            else:
                roots.append(item)
            stack.append(item)
        for item in flat:
            if item.is_group and not item.children:
                self.errors.append(
                    ParseError(item.line, "picture or child items", item.name)
                )
        return roots

    # --- procedure division ---

    def parse_paragraphs(self) -> list[n.Paragraph]:
        paragraphs: list[n.Paragraph] = []
        # Statements before any header go into an implicit MAIN paragraph.
        if self.tok is not _EOF and self.tok.kind is not IDENTIFIER:
            body = self.parse_sentences()
            if body:
                paragraphs.append(n.Paragraph(body[0].line, "MAIN", body))
        while self.tok is not _EOF:
            if self.tok.kind is IDENTIFIER:
                header = self.advance()
                try:
                    self.eat_period()
                except _Issue as e:
                    self.errors.append(e.error)
                    self._skip_past_period()
                body = self.parse_sentences()
                paragraphs.append(n.Paragraph(header.line, header.text, body))
            else:
                self.errors.append(
                    ParseError(self.tok.line, "paragraph header", self.tok.text)
                )
                self._skip_past_period()
        return paragraphs

    def parse_sentences(self) -> list[n.Stmt]:
        out: list[n.Stmt] = []
        while self.tok is not _EOF:
            tok = self.tok
            if tok.kind is IDENTIFIER:
                break  # next paragraph header
            if tok.kind is PERIOD:  # stray period, tolerate
                self.advance()
                continue
            # Jumps past the mark belong to a statement recovery discards.
            mark = len(self.jumps)
            try:
                stmt = self.parse_statement()
                out.append(stmt)
                mark = len(self.jumps)
                # One or more statements may share a terminating period.
                if self.tok.kind is PERIOD:
                    self.advance()
                elif self.tok is _EOF or not self._at_stmt_start():
                    self._fail("'.'")
            except _Issue as e:
                del self.jumps[mark:]
                self.errors.append(e.error)
                self._skip_past_period()
        return out

    def _at_stmt_start(self) -> bool:
        tok = self.tok
        return tok.kind is KEYWORD and tok.text in _STMT_STARTERS

    # --- statements ---

    def parse_statement(self) -> n.Stmt:
        tok = self.tok
        if tok.kind is not KEYWORD or tok.text not in _STMT_STARTERS:
            self._fail("statement keyword")
        word = tok.text
        if word == "MOVE":
            return self.parse_move()
        if word == "COMPUTE":
            return self.parse_compute()
        if word in ("ADD", "SUBTRACT", "MULTIPLY", "DIVIDE"):
            return self.parse_arith()
        if word == "IF":
            return self.parse_if()
        if word == "EVALUATE":
            return self.parse_evaluate()
        if word == "PERFORM":
            return self.parse_perform()
        if word == "DISPLAY":
            return self.parse_display()
        if word == "ACCEPT":
            return self.parse_accept()
        if word == "CALL":
            return self.parse_call()
        if word == "GO":
            return self.parse_goto()
        return self.parse_stop()

    def parse_move(self) -> n.Move:
        line = self.advance().line
        src = self.parse_atom()
        self.eat_kw("TO")
        dst = self.eat(IDENTIFIER, "identifier").text
        return n.Move(line, src, dst)

    def parse_compute(self) -> n.Compute:
        line = self.advance().line
        dst = self.eat(IDENTIFIER, "identifier").text
        tok = self.tok
        if tok.kind is OPERATOR and tok.text == "=":
            self.advance()
        else:
            self._fail("'='")
        expr = self.parse_expr()
        return n.Compute(line, dst, expr)

    def parse_arith(self) -> n.Arith:
        tok = self.advance()
        op = tok.text
        line = tok.line
        a = self.parse_atom()
        if op == "ADD":
            self.eat_kw("TO")
        elif op == "SUBTRACT":
            self.eat_kw("FROM")
        elif op == "MULTIPLY":
            self.eat_kw("BY")
        else:  # DIVIDE: INTO form, or BY form normalized to INTO
            if self.at_kw("BY"):
                self.advance()
                divisor = self.parse_atom()
                self.eat_kw("GIVING")
                giving = self.eat(IDENTIFIER, "identifier").text
                return n.Arith(line, "DIVIDE", divisor, a, giving)
            self.eat_kw("INTO")
        b = self.parse_atom()
        giving = None
        if self.at_kw("GIVING"):
            self.advance()
            giving = self.eat(IDENTIFIER, "identifier").text
        elif not isinstance(b, n.VarRef):
            raise _Issue(line, "identifier target or GIVING", n.expr_text(b))
        return n.Arith(line, op, a, b, giving)

    def parse_if(self) -> n.If:
        line = self.advance().line
        cond = self.parse_cond()
        if self.at_kw("THEN"):
            self.advance()
        then_body = self.parse_body_until("ELSE", "END-IF")
        else_body: list[n.Stmt] = []
        if self.at_kw("ELSE"):
            self.advance()
            else_body = self.parse_body_until("END-IF")
        self.eat_kw("END-IF")
        return n.If(line, cond, then_body, else_body)

    def parse_evaluate(self) -> n.Evaluate:
        line = self.advance().line
        subject = self.parse_atom()
        arms: list[n.WhenArm] = []
        other: list[n.Stmt] | None = None
        saw_when = False
        while self.at_kw("WHEN"):
            self.advance()
            saw_when = True
            if self.at_kw("OTHER"):
                self.advance()
                other = self.parse_body_until("END-EVALUATE")
                break
            vt = self.tok
            if vt.kind is INT_LITERAL:
                value: n.NumLit | n.StrLit = n.NumLit(self.int_literal())
            elif vt.kind is STRING_LITERAL:
                value = n.StrLit(self.advance().text)
            else:
                self._fail("literal or OTHER")
            body = self.parse_body_until("WHEN", "END-EVALUATE")
            arms.append(n.WhenArm(value, tuple(body)))
        if not saw_when:
            self._fail("WHEN")
        self.eat_kw("END-EVALUATE")
        return n.Evaluate(line, subject, arms, other)

    def parse_perform(self) -> n.Stmt:
        line = self.advance().line
        if self.at_kw("UNTIL"):
            self.advance()
            cond = self.parse_cond()
            return n.PerformUntil(line, cond, self.parse_loop_body(line))
        if self.at_kw("VARYING"):
            self.advance()
            var = self.eat(IDENTIFIER, "identifier").text
            self.eat_kw("FROM")
            from_ = self.parse_atom()
            self.eat_kw("BY")
            by = self.parse_atom()
            self.eat_kw("UNTIL")
            until = self.parse_cond()
            return n.PerformVarying(line, var, from_, by, until, self.parse_loop_body(line))
        tok = self.tok
        if tok.kind is IDENTIFIER:
            target = self.advance().text
            # PERFORM P        -> plain paragraph perform
            # PERFORM P n TIMES -> paragraph perform, repeated
            # PERFORM P TIMES   -> inline loop, P is the count variable
            nxt = self.tok
            if nxt.kind in (INT_LITERAL, IDENTIFIER) and self.peek(
                1
            ).kind is KEYWORD and self.peek(1).text == "TIMES":
                count = self.parse_atom()
                self.eat_kw("TIMES")
                return self.jump(n.PerformTimes(line, count, None, target))
            if self.at_kw("TIMES"):
                self.advance()
                return n.PerformTimes(line, n.VarRef(target), self.parse_loop_body(line), None)
            return self.jump(n.PerformPara(line, target))
        if tok.kind is INT_LITERAL:
            count = self.parse_atom()
            self.eat_kw("TIMES")
            return n.PerformTimes(line, count, self.parse_loop_body(line), None)
        self._fail("paragraph name, UNTIL, VARYING, or count")
        raise AssertionError  # _fail always raises

    def parse_loop_body(self, line: int) -> list[n.Stmt]:
        """An inline PERFORM's body through END-PERFORM; an empty one is
        an error at the PERFORM's line."""
        body = self.parse_body_until("END-PERFORM")
        self.eat_kw("END-PERFORM")
        if not body:
            raise _Issue(line, "loop body statement", "END-PERFORM")
        return body

    def parse_display(self) -> n.Display:
        line = self.advance().line
        args = [self.parse_atom()]
        while self.tok.kind in (
            IDENTIFIER,
            INT_LITERAL,
            STRING_LITERAL,
        ):
            args.append(self.parse_atom())
        return n.Display(line, args)

    def parse_accept(self) -> n.Accept:
        line = self.advance().line
        target = self.eat(IDENTIFIER, "identifier").text
        return n.Accept(line, target)

    def parse_call(self) -> n.Call:
        line = self.advance().line
        program = self.eat(STRING_LITERAL, "program name literal").text
        using: list[str] = []
        if self.at_kw("USING"):
            self.advance()
            using.append(self.eat(IDENTIFIER, "identifier").text)
            while self.tok.kind is IDENTIFIER:
                using.append(self.advance().text)
        return n.Call(line, program, using)

    def parse_goto(self) -> n.GoTo:
        line = self.advance().line
        self.eat_kw("TO")
        target = self.eat(IDENTIFIER, "identifier").text
        return self.jump(n.GoTo(line, target))

    def parse_stop(self) -> n.StopRun:
        line = self.advance().line
        self.eat_kw("RUN")
        return n.StopRun(line)

    def parse_body_until(self, *terminators: str) -> list[n.Stmt]:
        """Nested statement list; ends at one of the terminator keywords.

        Nested statements carry no periods; hitting one means the enclosing
        scope was never closed, which is exactly what the repair rules fix.
        """
        body: list[n.Stmt] = []
        self.nest()
        try:
            while True:
                if self.at_kw(*terminators):
                    return body
                if self.tok is _EOF or self.tok.kind is PERIOD:
                    self._fail(terminators[-1])
                if not self._at_stmt_start():
                    self._fail(terminators[-1])
                body.append(self.parse_statement())
        finally:
            self.depth -= 1

    # --- expressions and conditions ---

    def parse_atom(self) -> n.Expr:
        tok = self.tok
        if tok.kind is INT_LITERAL:
            if len(tok.text) > 18:
                return n.NumLit(self.int_literal())
            self.advance()
            return n.NumLit(int(tok.text))
        if tok.kind is STRING_LITERAL:
            return n.StrLit(self.advance().text)
        if tok.kind is IDENTIFIER:
            return n.VarRef(self.advance().text)
        if tok.kind is OPERATOR and tok.text == "-":
            self.nest()
            try:
                self.advance()
                inner = self.parse_atom()
            finally:
                self.depth -= 1
            if isinstance(inner, n.NumLit):
                return n.NumLit(-inner.value)
            return n.BinOp("-", n.NumLit(0), inner)
        self._fail("operand")
        raise AssertionError

    def chain(self, kind: TokenKind, ops, operand, build):
        """`operand (op operand)*` while the token is of `kind` with its text
        in `ops`, built left-deep by `build(op_text, left, right)`.

        Each operand is read at the chain's own depth and reports how deep it
        went through `peak`. In the left-deep tree every operator puts one
        more level above the operands before it, so with `k` operators the
        first operand sits `k - 1` levels down and the last none (the first
        operator is free). `height` is the deepest such level plus the
        operand's own depth, checked at each operator.
        """
        start, outer_peak = self.depth, self.peak
        self.peak = start
        left = operand()
        height = self.peak - start
        chained = False
        while self.tok.kind is kind and self.tok.text in ops:
            if chained:
                height += 1
                if start + height > MAX_NESTING:
                    self._fail(f"nesting depth at most {MAX_NESTING}")
            chained = True
            op = self.advance().text
            self.peak = start
            left = build(op, left, operand())
            height = max(height, self.peak - start)
        self.peak = max(outer_peak, start + height)
        return left

    def parse_expr(self) -> n.Expr:
        return self.chain(OPERATOR, "+-", self.parse_term, n.BinOp)

    def parse_term(self) -> n.Expr:
        return self.chain(OPERATOR, "*/", self.parse_factor, n.BinOp)

    def parse_factor(self) -> n.Expr:
        tok = self.tok
        if tok.kind is LPAREN:
            self.nest()
            try:
                self.advance()
                inner = self.parse_expr()
                self.eat(RPAREN, "')'")
            finally:
                self.depth -= 1
            return inner
        return self.parse_atom()

    def parse_cond(self) -> n.Cond:
        return self.chain(KEYWORD, ("OR",), self.parse_and_cond,
                          lambda _op, left, right: n.OrCond(left, right))

    def parse_and_cond(self) -> n.Cond:
        return self.chain(KEYWORD, ("AND",), self.parse_not_cond,
                          lambda _op, left, right: n.AndCond(left, right))

    def parse_not_cond(self) -> n.Cond:
        if self.at_kw("NOT"):
            self.nest()
            try:
                self.advance()
                return n.NotCond(self.parse_not_cond())
            finally:
                self.depth -= 1
        left = self.parse_expr()
        tok = self.tok
        if tok.kind is not OPERATOR or tok.text not in _COMPARISONS:
            self._fail("comparison operator")
        op = self.advance().text
        right = self.parse_expr()
        return n.Comparison(op, left, right)


def _validate(program: n.Program, jumps: list, errors: list[ParseError]) -> None:
    seen: dict[str, int] = {}
    for para in program.paragraphs:
        if para.name in seen:
            errors.append(ParseError(para.line, "unique paragraph name", para.name))
        else:
            seen[para.name] = para.line
    for jump in jumps:
        if jump.target not in seen:
            errors.append(ParseError(jump.line, "declared paragraph", jump.target))


def parse(tokens: list[Token]) -> n.CobolAst:
    """Parse a token list. Raises ParseFailure carrying all diagnostics."""
    parser = _Parser(tokens)
    program = parser.parse_program()
    _validate(program, parser.jumps, parser.errors)
    if parser.errors:
        raise ParseFailure(parser.errors)
    source_lines = tokens[-1].line if tokens else 0  # lines only grow
    return n.CobolAst(program, source_lines=source_lines, token_count=len(tokens))


def source_line_count(file: SourceFile) -> int:
    """Lines of the format-normalized text, the `source_lines` of its tree."""
    text = normalize_source(file.text, file.format)
    return text.count("\n") + 1 if text else 0


def parse_source(file: SourceFile) -> n.CobolAst:
    """Tokenize and parse a source file; raises LexError or ParseFailure."""
    ast = parse(tokenize(file))
    ast.source_lines = source_line_count(file)
    return ast

"""Recursive-descent parser for the COBOL subset.

Statement-level syntax errors are recovered at period boundaries so the
rest of the file still parses; all collected diagnostics are raised
together as a ParseFailure. Post-parse checks enforce the tree
invariants: unique paragraph names, resolvable PERFORM/GO TO targets,
and nonempty group items.
"""

from __future__ import annotations

from relicforge.cobol import nodes as n
from relicforge.cobol.tokens import SourceFile, Token, TokenKind, normalize_source, tokenize
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


class _Issue(Exception):
    def __init__(self, line: int, expected: str, found: str, col: int = 0):
        super().__init__(f"{expected} / {found}")
        self.error = ParseError(line=line, expected=expected, found=found, col=col)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.errors: list[ParseError] = []

    # --- token helpers ---

    def peek(self, k: int = 0) -> Token:
        i = self.pos + k
        return self.tokens[i] if i < len(self.tokens) else _EOF

    def at_end(self) -> bool:
        return self.pos >= len(self.tokens)

    def advance(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.text in words

    def eat_kw(self, word: str) -> Token:
        if not self.at_kw(word):
            self._fail(word)
        return self.advance()

    def eat(self, kind: TokenKind, expected: str) -> Token:
        if self.peek().kind is not kind:
            self._fail(expected)
        return self.advance()

    def eat_period(self) -> None:
        if self.peek().kind is not TokenKind.PERIOD:
            self._fail("'.'")
        self.advance()

    def _found(self) -> str:
        tok = self.peek()
        return "end of file" if self.at_end() else tok.text

    def _fail(self, expected: str) -> None:
        if self.at_end():
            line = self.tokens[-1].line if self.tokens else 1
            raise _Issue(line, expected, "end of file")
        tok = self.peek()
        raise _Issue(tok.line, expected, tok.text, tok.col)

    def _skip_past_period(self) -> None:
        while not self.at_end():
            if self.advance().kind is TokenKind.PERIOD:
                return

    # --- divisions ---

    def parse_program(self) -> n.Program:
        first_line = self.peek().line if not self.at_end() else 1
        try:
            self.eat_kw("IDENTIFICATION")
            self.eat_kw("DIVISION")
            self.eat_period()
            self.eat_kw("PROGRAM-ID")
            self.eat_period()
            pid = self.eat(TokenKind.IDENTIFIER, "program name").text
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
        while self.peek().kind is TokenKind.INT_LITERAL:
            try:
                flat.append(self.parse_data_item())
            except _Issue as e:
                self.errors.append(e.error)
                self._skip_past_period()
        return self._nest_items(flat)

    def parse_data_item(self) -> n.DataItem:
        tok = self.eat(TokenKind.INT_LITERAL, "level number")
        level = int(tok.text)
        if not (1 <= level <= 49 or level == 77):
            raise _Issue(tok.line, "level in 01-49 or 77", tok.text)
        name = self.eat(TokenKind.IDENTIFIER, "data item name").text
        picture = None
        value: int | str | None = None
        if self.at_kw("PIC", "PICTURE"):
            self.advance()
            picture = self.eat(TokenKind.PICTURE_CLAUSE, "picture clause").text
            try:
                n.picture_width(picture)
            except ValueError:
                raise _Issue(tok.line, "picture of 9s or Xs", picture) from None
        if self.at_kw("VALUE"):
            self.advance()
            vt = self.peek()
            if vt.kind is TokenKind.INT_LITERAL:
                value = int(self.advance().text)
            elif vt.kind is TokenKind.STRING_LITERAL:
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
        if not self.at_end() and self.peek().kind is not TokenKind.IDENTIFIER:
            body = self.parse_sentences()
            if body:
                paragraphs.append(n.Paragraph(body[0].line, "MAIN", body))
        while not self.at_end():
            if self.peek().kind is TokenKind.IDENTIFIER:
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
                    ParseError(self.peek().line, "paragraph header", self._found())
                )
                self._skip_past_period()
        return paragraphs

    def parse_sentences(self) -> list[n.Stmt]:
        out: list[n.Stmt] = []
        while not self.at_end():
            tok = self.peek()
            if tok.kind is TokenKind.IDENTIFIER:
                break  # next paragraph header
            if tok.kind is TokenKind.PERIOD:  # stray period, tolerate
                self.advance()
                continue
            try:
                stmt = self.parse_statement()
                out.append(stmt)
                # One or more statements may share a terminating period.
                if self.peek().kind is TokenKind.PERIOD:
                    self.advance()
                elif self.at_end() or not self._at_stmt_start():
                    self._fail("'.'")
            except _Issue as e:
                self.errors.append(e.error)
                self._skip_past_period()
        return out

    def _at_stmt_start(self) -> bool:
        tok = self.peek()
        return tok.kind is TokenKind.KEYWORD and tok.text in _STMT_STARTERS

    # --- statements ---

    def parse_statement(self) -> n.Stmt:
        tok = self.peek()
        if tok.kind is not TokenKind.KEYWORD or tok.text not in _STMT_STARTERS:
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
        dst = self.eat(TokenKind.IDENTIFIER, "identifier").text
        return n.Move(line, src, dst)

    def parse_compute(self) -> n.Compute:
        line = self.advance().line
        dst = self.eat(TokenKind.IDENTIFIER, "identifier").text
        tok = self.peek()
        if tok.kind is TokenKind.OPERATOR and tok.text == "=":
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
                giving = self.eat(TokenKind.IDENTIFIER, "identifier").text
                return n.Arith(line, "DIVIDE", divisor, a, giving)
            self.eat_kw("INTO")
        b = self.parse_atom()
        giving = None
        if self.at_kw("GIVING"):
            self.advance()
            giving = self.eat(TokenKind.IDENTIFIER, "identifier").text
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
            vt = self.peek()
            if vt.kind is TokenKind.INT_LITERAL:
                value: n.NumLit | n.StrLit = n.NumLit(int(self.advance().text))
            elif vt.kind is TokenKind.STRING_LITERAL:
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
            body = self.parse_body_until("END-PERFORM")
            self.eat_kw("END-PERFORM")
            if not body:
                raise _Issue(line, "loop body statement", "END-PERFORM")
            return n.PerformUntil(line, cond, body)
        if self.at_kw("VARYING"):
            self.advance()
            var = self.eat(TokenKind.IDENTIFIER, "identifier").text
            self.eat_kw("FROM")
            from_ = self.parse_atom()
            self.eat_kw("BY")
            by = self.parse_atom()
            self.eat_kw("UNTIL")
            until = self.parse_cond()
            body = self.parse_body_until("END-PERFORM")
            self.eat_kw("END-PERFORM")
            if not body:
                raise _Issue(line, "loop body statement", "END-PERFORM")
            return n.PerformVarying(line, var, from_, by, until, body)
        tok = self.peek()
        if tok.kind is TokenKind.IDENTIFIER:
            target = self.advance().text
            # PERFORM P        -> plain paragraph perform
            # PERFORM P n TIMES -> paragraph perform, repeated
            # PERFORM P TIMES   -> inline loop, P is the count variable
            nxt = self.peek()
            if nxt.kind in (TokenKind.INT_LITERAL, TokenKind.IDENTIFIER) and self.peek(
                1
            ).kind is TokenKind.KEYWORD and self.peek(1).text == "TIMES":
                count = self.parse_atom()
                self.eat_kw("TIMES")
                return n.PerformTimes(line, count, None, target)
            if self.at_kw("TIMES"):
                self.advance()
                body = self.parse_body_until("END-PERFORM")
                self.eat_kw("END-PERFORM")
                if not body:
                    raise _Issue(line, "loop body statement", "END-PERFORM")
                return n.PerformTimes(line, n.VarRef(target), body, None)
            return n.PerformPara(line, target)
        if tok.kind is TokenKind.INT_LITERAL:
            count = self.parse_atom()
            self.eat_kw("TIMES")
            body = self.parse_body_until("END-PERFORM")
            self.eat_kw("END-PERFORM")
            if not body:
                raise _Issue(line, "loop body statement", "END-PERFORM")
            return n.PerformTimes(line, count, body, None)
        self._fail("paragraph name, UNTIL, VARYING, or count")
        raise AssertionError  # _fail always raises

    def parse_display(self) -> n.Display:
        line = self.advance().line
        args = [self.parse_atom()]
        while self.peek().kind in (
            TokenKind.IDENTIFIER,
            TokenKind.INT_LITERAL,
            TokenKind.STRING_LITERAL,
        ):
            args.append(self.parse_atom())
        return n.Display(line, args)

    def parse_accept(self) -> n.Accept:
        line = self.advance().line
        target = self.eat(TokenKind.IDENTIFIER, "identifier").text
        return n.Accept(line, target)

    def parse_call(self) -> n.Call:
        line = self.advance().line
        program = self.eat(TokenKind.STRING_LITERAL, "program name literal").text
        using: list[str] = []
        if self.at_kw("USING"):
            self.advance()
            using.append(self.eat(TokenKind.IDENTIFIER, "identifier").text)
            while self.peek().kind is TokenKind.IDENTIFIER:
                using.append(self.advance().text)
        return n.Call(line, program, using)

    def parse_goto(self) -> n.GoTo:
        line = self.advance().line
        self.eat_kw("TO")
        target = self.eat(TokenKind.IDENTIFIER, "identifier").text
        return n.GoTo(line, target)

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
        while True:
            if self.at_kw(*terminators):
                return body
            if self.at_end() or self.peek().kind is TokenKind.PERIOD:
                self._fail(terminators[-1])
            if not self._at_stmt_start():
                self._fail(terminators[-1])
            body.append(self.parse_statement())

    # --- expressions and conditions ---

    def parse_atom(self) -> n.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.INT_LITERAL:
            return n.NumLit(int(self.advance().text))
        if tok.kind is TokenKind.STRING_LITERAL:
            return n.StrLit(self.advance().text)
        if tok.kind is TokenKind.IDENTIFIER:
            return n.VarRef(self.advance().text)
        if tok.kind is TokenKind.OPERATOR and tok.text == "-":
            self.advance()
            inner = self.parse_atom()
            if isinstance(inner, n.NumLit):
                return n.NumLit(-inner.value)
            return n.BinOp("-", n.NumLit(0), inner)
        self._fail("operand")
        raise AssertionError

    def parse_expr(self) -> n.Expr:
        left = self.parse_term()
        while self.peek().kind is TokenKind.OPERATOR and self.peek().text in "+-":
            op = self.advance().text
            left = n.BinOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> n.Expr:
        left = self.parse_factor()
        while self.peek().kind is TokenKind.OPERATOR and self.peek().text in "*/":
            op = self.advance().text
            left = n.BinOp(op, left, self.parse_factor())
        return left

    def parse_factor(self) -> n.Expr:
        tok = self.peek()
        if tok.kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.eat(TokenKind.RPAREN, "')'")
            return inner
        return self.parse_atom()

    def parse_cond(self) -> n.Cond:
        left = self.parse_and_cond()
        while self.at_kw("OR"):
            self.advance()
            left = n.OrCond(left, self.parse_and_cond())
        return left

    def parse_and_cond(self) -> n.Cond:
        left = self.parse_not_cond()
        while self.at_kw("AND"):
            self.advance()
            left = n.AndCond(left, self.parse_not_cond())
        return left

    def parse_not_cond(self) -> n.Cond:
        if self.at_kw("NOT"):
            self.advance()
            return n.NotCond(self.parse_not_cond())
        left = self.parse_expr()
        tok = self.peek()
        if tok.kind is not TokenKind.OPERATOR or tok.text not in _COMPARISONS:
            self._fail("comparison operator")
        op = self.advance().text
        right = self.parse_expr()
        return n.Comparison(op, left, right)


def _validate(program: n.Program, errors: list[ParseError]) -> None:
    seen: dict[str, int] = {}
    for para in program.paragraphs:
        if para.name in seen:
            errors.append(ParseError(para.line, "unique paragraph name", para.name))
        else:
            seen[para.name] = para.line
    names = set(seen)
    for node in n.iter_preorder(program):
        kind = node.kind
        if kind in (n.NodeKind.PERFORM_PARA, n.NodeKind.GOTO):
            if node.target not in names:
                errors.append(ParseError(node.line, "declared paragraph", node.target))
        elif kind is n.NodeKind.PERFORM_TIMES and node.target is not None:
            if node.target not in names:
                errors.append(ParseError(node.line, "declared paragraph", node.target))


def parse(tokens: list[Token]) -> n.CobolAst:
    """Parse a token list. Raises ParseFailure carrying all diagnostics."""
    parser = _Parser(tokens)
    program = parser.parse_program()
    _validate(program, parser.errors)
    if parser.errors:
        raise ParseFailure(parser.errors)
    source_lines = max((t.line for t in tokens), default=0)
    return n.CobolAst(program, source_lines=source_lines, token_count=len(tokens))


def source_line_count(file: SourceFile) -> int:
    """Lines of the format-normalized text, the `source_lines` of its tree."""
    text = normalize_source(file.text, file.format)
    return len(text.split("\n")) if text else 0


def parse_source(file: SourceFile) -> n.CobolAst:
    """Tokenize and parse a source file; raises LexError or ParseFailure."""
    ast = parse(tokenize(file))
    ast.source_lines = source_line_count(file)
    return ast

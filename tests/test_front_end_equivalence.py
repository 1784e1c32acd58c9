"""The regex lexer and the cursor parser against the scanner and parser
they replaced.

The references below are the character scanner and `_Parser` as they
were, renamed `ref_tokenize`, `_RefParser`, `_ref_validate` and
`ref_parse`, with the recursive pre-order walk `_ref_validate` used kept
beside them as `ref_iter_preorder`. On every input both sides must give
the same `(kind, text, line, col)` tokens or the same LexError
`(line, col, reason)`, and, from equal tokens, the same tree JSON,
`source_lines` and `token_count` or the same ParseFailure errors. The
inputs are ASCII: outside ASCII the two lexicons differ on purpose (see
tests/test_repair.py).
"""

import importlib
import random

import pytest

from perfbench import gen
from relicforge.cobol import SourceFile, SourceFormat, TokenKind, pretty_print, tokenize
from relicforge.cobol import nodes as n
from relicforge.cobol.parser import parse
from relicforge.cobol.tokens import KEYWORDS, Token, normalize_source
from relicforge.datagen import acceptance_corpus, random_program, sample_program
from relicforge.errors import LexError, ParseError, ParseFailure

# The package re-exports a function named `repair`, so look the module up by name.
repair_module = importlib.import_module("relicforge.cobol.repair")

# --- the reference: the scanner and the parser as they were -------------------


def ref_children(node: n.Node) -> list[n.Node]:
    """Structural children of a node, in source order, spelled out per class
    so that the reference does not read `nodes`' own child table."""
    if isinstance(node, n.Program):
        return [*node.data_items, *node.paragraphs]
    if isinstance(node, n.DataItem):
        return list(node.children)
    if isinstance(node, n.Paragraph):
        return list(node.body)
    if isinstance(node, n.If):
        return [*node.then_body, *node.else_body]
    if isinstance(node, n.Evaluate):
        out = [stmt for arm in node.arms for stmt in arm.body]
        return out + list(node.other or [])
    if isinstance(node, (n.PerformTimes, n.PerformUntil, n.PerformVarying)):
        return list(node.body or [])
    return []


def ref_iter_preorder(root: n.Node):
    """Yield root and all descendants, depth-first, children in source order."""
    yield root
    for child in ref_children(root):
        yield from ref_iter_preorder(child)


OPERATORS = ("<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/")

_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-")
_PICTURE_CHARS = frozenset("9Xx()0123456789")


def ref_tokenize(file: SourceFile) -> list[Token]:
    """Scan a source file into tokens.

    Raises LexError on an unterminated string literal or illegal character.
    """
    text = normalize_source(file.text, file.format)
    tokens: list[Token] = []
    after_pic = False
    for line_no, line in enumerate(text.split("\n"), start=1):
        i = 0
        n = len(line)
        while i < n:
            ch = line[i]
            if ch in " \t\r":
                i += 1
                continue
            col = i + 1
            if after_pic and ch in "9Xx":
                j = i
                while j < n and line[j] in _PICTURE_CHARS:
                    j += 1
                tokens.append(Token(TokenKind.PICTURE_CLAUSE, line[i:j].upper(), line_no, col))
                i = j
                after_pic = False
                continue
            after_pic = False
            if ch in "'\"":
                quote = ch
                j = i + 1
                buf = []
                closed = False
                while j < n:
                    if line[j] == quote:
                        if j + 1 < n and line[j + 1] == quote:  # doubled quote escape
                            buf.append(quote)
                            j += 2
                            continue
                        closed = True
                        j += 1
                        break
                    buf.append(line[j])
                    j += 1
                if not closed:
                    raise LexError(line_no, col, "unterminated string literal")
                tokens.append(Token(TokenKind.STRING_LITERAL, "".join(buf), line_no, col))
                i = j
                continue
            if ch == ".":
                tokens.append(Token(TokenKind.PERIOD, ".", line_no, col))
                i += 1
                continue
            if ch == "(":
                tokens.append(Token(TokenKind.LPAREN, "(", line_no, col))
                i += 1
                continue
            if ch == ")":
                tokens.append(Token(TokenKind.RPAREN, ")", line_no, col))
                i += 1
                continue
            if ch.isdigit():
                j = i
                while j < n and line[j].isdigit():
                    j += 1
                tokens.append(Token(TokenKind.INT_LITERAL, line[i:j], line_no, col))
                i = j
                continue
            if ch.isalpha():
                j = i
                while j < n and line[j] in _WORD_CHARS:
                    j += 1
                word = line[i:j]
                upper = word.upper()
                if upper in KEYWORDS:
                    tokens.append(Token(TokenKind.KEYWORD, upper, line_no, col))
                    if upper in ("PIC", "PICTURE"):
                        after_pic = True
                else:
                    tokens.append(Token(TokenKind.IDENTIFIER, upper, line_no, col))
                i = j
                continue
            matched = False
            for op in OPERATORS:
                if line.startswith(op, i):
                    tokens.append(Token(TokenKind.OPERATOR, op, line_no, col))
                    i += len(op)
                    matched = True
                    break
            if matched:
                continue
            raise LexError(line_no, col, f"illegal character {ch!r}")
    return tokens


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


class _RefParser:
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


def _ref_validate(program: n.Program, errors: list[ParseError]) -> None:
    seen: dict[str, int] = {}
    for para in program.paragraphs:
        if para.name in seen:
            errors.append(ParseError(para.line, "unique paragraph name", para.name))
        else:
            seen[para.name] = para.line
    names = set(seen)
    for node in ref_iter_preorder(program):
        kind = node.kind
        if kind in (n.NodeKind.PERFORM_PARA, n.NodeKind.GOTO):
            if node.target not in names:
                errors.append(ParseError(node.line, "declared paragraph", node.target))
        elif kind is n.NodeKind.PERFORM_TIMES and node.target is not None:
            if node.target not in names:
                errors.append(ParseError(node.line, "declared paragraph", node.target))


def ref_parse(tokens: list[Token]) -> n.CobolAst:
    """Parse a token list. Raises ParseFailure carrying all diagnostics."""
    parser = _RefParser(tokens)
    program = parser.parse_program()
    _ref_validate(program, parser.errors)
    if parser.errors:
        raise ParseFailure(parser.errors)
    source_lines = max((t.line for t in tokens), default=0)
    return n.CobolAst(program, source_lines=source_lines, token_count=len(tokens))


# --- helpers ------------------------------------------------------------------


def lex_outcome(lex, file):
    try:
        tokens = lex(file)
    except LexError as e:
        return ("LexError", e.line, e.col, e.reason)
    assert all(type(t) is Token for t in tokens)
    return [(t.kind, t.text, t.line, t.col) for t in tokens]


def parse_outcome(parse_tokens, tokens):
    try:
        ast = parse_tokens(tokens)
    except ParseFailure as pf:
        return ("ParseFailure", pf.errors)
    return (n.to_json(ast.program), ast.source_lines, ast.token_count)


def assert_same_front_end(text: str, format: SourceFormat = SourceFormat.FREE):
    file = SourceFile("t", text, format)
    lexed = lex_outcome(tokenize, file)
    assert lexed == lex_outcome(ref_tokenize, file)
    if isinstance(lexed, list):
        assert parse_outcome(parse, tokenize(file)) == parse_outcome(ref_parse, ref_tokenize(file))
    return lexed


def repair_outcome(file: SourceFile):
    fixed, log = repair_module.repair(file)
    tree = None if log.ast is None else (
        n.to_json(log.ast.program), log.ast.source_lines, log.ast.token_count
    )
    return fixed, log.to_json(), tree


def assert_same_repair(monkeypatch, text: str, format: SourceFormat = SourceFormat.FREE):
    file = SourceFile("t", text, format)
    got = repair_outcome(file)
    with monkeypatch.context() as patched:
        # A retry passes `base`, the tokens to reuse; the reference ignores
        # it and lexes every attempt in full.
        patched.setattr(repair_module, "tokenize", lambda file, base=None: ref_tokenize(file))
        patched.setattr(repair_module, "parse", ref_parse)
        want = repair_outcome(file)
    assert got == want


def _sample_text(seed: int) -> str:
    return pretty_print(sample_program(random.Random(seed), program_id=f"S{seed}"))


# --- generated programs -------------------------------------------------------


@pytest.mark.parametrize("seed", range(200))
def test_random_programs(seed):
    for allow_goto in (False, True):
        ast = random_program(random.Random(seed), allow_goto=allow_goto)
        text = pretty_print(ast)
        assert isinstance(assert_same_front_end(text), list)
        program = parse(tokenize(SourceFile("t", text))).program
        assert [id(v) for v in n.iter_preorder(program)] == [
            id(v) for v in ref_iter_preorder(program)
        ]


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    text = _sample_text(seed)
    assert isinstance(assert_same_front_end(text), list)
    fixed = "\n".join("000000" + line for line in text.split("\n"))
    assert isinstance(assert_same_front_end(fixed, SourceFormat.FIXED), list)


def test_acceptance_corpus(tmp_path):
    acceptance_corpus(tmp_path, count=40, seed=3)
    paths = sorted(tmp_path.glob("*.cbl"))
    assert len(paths) == 40
    for path in paths:
        assert isinstance(assert_same_front_end(path.read_text()), list)


# --- damaged and fuzzed text --------------------------------------------------

# Every damage the dirty-intake benchmark applies to a printed program;
# an undecodable file never reaches the lexer, and a trivial one is not
# made from a printed program.
_FAULT_KINDS = [
    kind for kind, *_ in gen.DIRTY_MIX
    if kind not in ("undecodable", "trivial", "exact_duplicate")
]


@pytest.mark.parametrize("kind", _FAULT_KINDS)
def test_each_repair_fault_kind(monkeypatch, kind):
    for seed in range(4):
        rng = random.Random(f"{kind}:{seed}")
        text = gen.mutate(_sample_text(seed), kind, rng).decode("utf-8")
        assert_same_front_end(text)
        assert_same_repair(monkeypatch, text)


EDGE_CASES = [
    "",
    "   \t\r ",
    "01 X PIC\n   9(3).",
    "01 X PIC \n\n\t x(2)X.",
    "01 X PIC .",
    "01 X PICTURE 9(3)X-Y.",
    "01 X PIC XYZ.",
    "DISPLAY 'abc''",
    'DISPLAY "abc""',
    "DISPLAY 'abc'''.",
    'DISPLAY "abc""".',
    'DISPLAY "a""b" \'c"d\' \'\'.',
    "DISPLAY '",
    "DISPLAY 'x' '",
    "MOVE -5 TO A-. COMPUTE B=12AB<>=C>=D<=E+F-G*H/I.",
    "MOVE @ TO B.",
    "move a to b.\r\nDISPLAY\tB .  ",
    "IDENTIFICATION DIVISION. PROGRAM-ID. P. PROCEDURE DIVISION. MAIN. PERFORM",
    "IDENTIFICATION DIVISION. PROGRAM-ID. P. PROCEDURE DIVISION. PERFORM Q 3 TIMES.",
    "IDENTIFICATION DIVISION. PROGRAM-ID. P. PROCEDURE DIVISION. 7 MAIN. STOP RUN",
]


@pytest.mark.parametrize("text", EDGE_CASES)
def test_edge_cases(monkeypatch, text):
    assert_same_front_end(text)
    assert_same_repair(monkeypatch, text)


_FUZZ_ALPHABET = " \t.()'\"=<>+-*/9Xx0aZ"


def _fuzzed(seed: int) -> str:
    rng = random.Random(f"fuzz:{seed}")
    if seed % 2:
        text = pretty_print(random_program(rng, allow_goto=seed % 4 == 1))
    else:
        text = _sample_text(seed)
    for _ in range(rng.randint(1, 3)):
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice(_FUZZ_ALPHABET) + text[at:]
    return text


@pytest.mark.parametrize("seed", range(300))
def test_insertion_fuzz(monkeypatch, seed):
    text = _fuzzed(seed)
    assert_same_front_end(text)
    assert_same_repair(monkeypatch, text)


def test_fuzz_reaches_every_outcome():
    texts = [_fuzzed(seed) for seed in range(300)]
    files = [SourceFile("t", text) for text in texts]
    lexes = [lex_outcome(tokenize, file) for file in files]
    assert any(isinstance(outcome, tuple) for outcome in lexes)  # unterminated strings
    parsed = [
        parse_outcome(parse, tokenize(file))
        for file, outcome in zip(files, lexes) if isinstance(outcome, list)
    ]
    assert any(outcome[0] == "ParseFailure" for outcome in parsed)
    assert any(outcome[0] != "ParseFailure" for outcome in parsed)
    verdicts = {repair_outcome(file)[1]["verdict"] for file in files}
    assert verdicts == {"Clean", "Repaired", "Rejected"}


# --- the jump nodes validation reads -------------------------------------------

_HEAD = "IDENTIFICATION DIVISION. PROGRAM-ID. P. PROCEDURE DIVISION.\n"


def _parse_errors(text: str) -> list[ParseError]:
    """The ParseFailure errors of both parsers, asserted equal; [] if the
    text parses."""
    tokens = tokenize(SourceFile("t", text))
    got = parse_outcome(parse, tokens)
    assert got == parse_outcome(ref_parse, tokens)
    return got[1] if got[0] == "ParseFailure" else []


def _undeclared(errors: list[ParseError]) -> list[str]:
    return [e.found for e in errors if e.expected == "declared paragraph"]


def test_jumps_of_a_discarded_statement_are_dropped():
    # The IF builds PERFORM NOPE, then fails inside its body: recovery
    # skips the whole IF, so its PERFORM is never checked.
    errors = _parse_errors(_HEAD + "MAIN.\n    IF A = 1 PERFORM NOPE MOVE TO TO END-IF.\n"
                                   "    STOP RUN.\n")
    assert errors and _undeclared(errors) == []


def test_jumps_of_a_kept_statement_missing_its_period_are_checked():
    # The PERFORM parses and is kept in the body; only its period is missing.
    errors = _parse_errors(_HEAD + "MAIN.\n    DISPLAY 'A'.\n    PERFORM NOPE")
    assert [e.expected for e in errors] == ["'.'", "declared paragraph"]
    assert _undeclared(errors) == ["NOPE"]


def test_counted_paragraph_perform_target_is_checked():
    errors = _parse_errors(_HEAD + "MAIN.\n    PERFORM NOPE 3 TIMES.\n    PERFORM MAIN 2 TIMES.\n"
                                   "    STOP RUN.\n")
    assert errors == [ParseError(3, "declared paragraph", "NOPE")]


def test_duplicate_paragraph_beside_an_undeclared_target():
    errors = _parse_errors(_HEAD + "A.\n    GO TO B.\nB.\n    PERFORM NOPE.\nA.\n    GO TO GONE.\n")
    assert errors == [
        ParseError(6, "unique paragraph name", "A"),
        ParseError(5, "declared paragraph", "NOPE"),
        ParseError(7, "declared paragraph", "GONE"),
    ]


def _ref_jumps(program: n.Program) -> list[n.Node]:
    jump_kinds = (n.NodeKind.PERFORM_PARA, n.NodeKind.GOTO)
    return [
        v for v in ref_iter_preorder(program)
        if v.kind in jump_kinds or (v.kind is n.NodeKind.PERFORM_TIMES and v.target is not None)
    ]


@pytest.mark.parametrize("seed", range(100))
def test_jump_list_is_the_preorder_jump_nodes(seed):
    from relicforge.cobol.parser import _Parser

    rng = random.Random(f"jumps:{seed}")
    text = pretty_print(random_program(rng, allow_goto=seed % 2 == 1))
    parser = _Parser(tokenize(SourceFile("t", text)))
    program = parser.parse_program()
    assert parser.errors == []
    assert [id(v) for v in parser.jumps] == [id(v) for v in _ref_jumps(program)]

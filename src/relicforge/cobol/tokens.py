"""Tokenizer for the supported COBOL subset.

Free format by default; fixed format strips columns 1-6 and 73+ before
scanning. Keywords are matched case-insensitively against KEYWORDS and
emitted uppercase. After a PIC/PICTURE keyword the next token is scanned
as a single PictureClause token.
"""

import enum
from dataclasses import dataclass
from typing import NamedTuple

from relicforge.errors import LexError


class SourceFormat(enum.Enum):
    FREE = "free"
    FIXED = "fixed"


@dataclass(frozen=True)
class SourceFile:
    id: str
    text: str
    format: SourceFormat = SourceFormat.FREE


class TokenKind(enum.Enum):
    KEYWORD = "Keyword"
    IDENTIFIER = "Identifier"
    INT_LITERAL = "IntLiteral"
    STRING_LITERAL = "StringLiteral"
    PERIOD = "Period"
    LPAREN = "Lparen"
    RPAREN = "Rparen"
    OPERATOR = "Operator"
    PICTURE_CLAUSE = "PictureClause"


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int  # 1-based, into the format-normalized source
    col: int  # 1-based


KEYWORDS = frozenset(
    {
        "IDENTIFICATION",
        "DIVISION",
        "PROGRAM-ID",
        "DATA",
        "WORKING-STORAGE",
        "SECTION",
        "PROCEDURE",
        "PIC",
        "PICTURE",
        "VALUE",
        "MOVE",
        "TO",
        "COMPUTE",
        "ADD",
        "SUBTRACT",
        "FROM",
        "MULTIPLY",
        "BY",
        "DIVIDE",
        "INTO",
        "GIVING",
        "IF",
        "THEN",
        "ELSE",
        "END-IF",
        "EVALUATE",
        "WHEN",
        "OTHER",
        "END-EVALUATE",
        "PERFORM",
        "TIMES",
        "UNTIL",
        "VARYING",
        "END-PERFORM",
        "DISPLAY",
        "ACCEPT",
        "CALL",
        "USING",
        "GO",
        "STOP",
        "RUN",
        "AND",
        "OR",
        "NOT",
    }
)

OPERATORS = ("<=", ">=", "<>", "=", "<", ">", "+", "-", "*", "/")

_WORD_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-")
_PICTURE_CHARS = frozenset("9Xx()0123456789")


def normalize_source(text: str, format: SourceFormat) -> str:
    """Apply format normalization: fixed format keeps only columns 7-72."""
    if format is SourceFormat.FREE:
        return text
    out_lines = []
    for line in text.split("\n"):
        out_lines.append(line[6:72])
    return "\n".join(out_lines)


def tokenize(file: SourceFile) -> list[Token]:
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

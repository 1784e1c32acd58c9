"""Tokenizer for the supported COBOL subset.

Free format by default; fixed format strips columns 1-6 and 73+ before
scanning. Each line is scanned by one anchored pattern, matched at the
current position: it skips blanks and reads one token, so a token never
spans lines. The lexicon is ASCII: words are `[A-Za-z][A-Za-z0-9-]*`,
integers `[0-9]+`, and any other character outside a string literal is
an illegal character, a non-ASCII letter or digit included. Keywords are
matched case-insensitively against KEYWORDS and emitted uppercase. After
a PIC/PICTURE keyword the next token, if it starts with 9, X or x, is
scanned as a single PictureClause token. That PIC state is the only
thing a line's scan carries to the next, so `tokenize` can re-lex one
edited line of an earlier token list and reuse the rest.
"""

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

from relicforge.errors import LexError


class SourceFormat(enum.Enum):
    FREE = "free"
    FIXED = "fixed"


# Module constants for function bodies: on Python 3.10 and 3.11 an enum
# member read off its class costs about 140-230 ns, a global 15-50 ns.
FREE = SourceFormat.FREE
FIXED = SourceFormat.FIXED


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


# Module constants for function bodies: on Python 3.10 and 3.11 a
# `TokenKind.KEYWORD` read goes through EnumType's `__getattr__` hook (about
# 140-230 ns against 15-50 ns for a global), and the parser reads them per token.
KEYWORD = TokenKind.KEYWORD
IDENTIFIER = TokenKind.IDENTIFIER
INT_LITERAL = TokenKind.INT_LITERAL
STRING_LITERAL = TokenKind.STRING_LITERAL
PERIOD = TokenKind.PERIOD
LPAREN = TokenKind.LPAREN
RPAREN = TokenKind.RPAREN
OPERATOR = TokenKind.OPERATOR
PICTURE_CLAUSE = TokenKind.PICTURE_CLAUSE


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

# One alternative per token kind after the leading blanks. A string closes
# at the first quote that is not doubled: `(?!')` keeps backtracking from
# closing it on the first half of a doubled quote (a possessive `*+` would
# too, but needs Python 3.11). A string that never closes falls to group
# 9, which reports it at its opening quote.
_TOKEN = re.compile(
    r"""[ \t\r]*(?:
        ([A-Za-z][A-Za-z0-9-]*)     # 1 keyword or identifier
      | (\.)                        # 2 period
      | ([0-9]+)                    # 3 integer literal
      | ('(?:[^']|'')*'(?!'))       # 4 single-quoted string
      | ("(?:[^"]|"")*"(?!"))       # 5 double-quoted string
      | (<=|>=|<>|[=<>+\-*/])       # 6 operator
      | (\()                        # 7 left parenthesis
      | (\))                        # 8 right parenthesis
      | (['"])                      # 9 unterminated string literal
      | (.)                         # 10 illegal character
    )?""",
    re.VERBOSE,
)
# Token kind by group number, for the groups whose text is the token text.
_KIND_OF_GROUP = {
    2: TokenKind.PERIOD,
    3: TokenKind.INT_LITERAL,
    6: TokenKind.OPERATOR,
    7: TokenKind.LPAREN,
    8: TokenKind.RPAREN,
}
# After PIC/PICTURE, a token starting with 9, X or x is a picture string.
_PICTURE = re.compile(r"[ \t\r]*([9Xx][9Xx()0-9]*)")
_PICTURE_WORDS = frozenset({"PIC", "PICTURE"})


def normalize_source(text: str, format: SourceFormat) -> str:
    """Apply format normalization: fixed format keeps only columns 7-72."""
    if format is FREE:
        return text
    out_lines = []
    for line in text.split("\n"):
        out_lines.append(line[6:72])
    return "\n".join(out_lines)


def _opens_picture(token: Token) -> bool:
    """Whether the lexer leaves this token in the PIC state."""
    return token[0] is KEYWORD and token[1] in _PICTURE_WORDS


def _scan(lines: list[str], line_no: int, after_pic: bool, tokens: list[Token]) -> bool:
    """Append the tokens of `lines`, the first numbered line_no, to tokens.

    after_pic is the PIC state at the start of the first line: whether
    the last token before it is a PIC/PICTURE keyword. Returns the state
    after the last line. Raises LexError as `tokenize` does.
    """
    append = tokens.append
    new = tuple.__new__  # skips the Python-level __new__ of the NamedTuple
    match = _TOKEN.match
    keyword, identifier = KEYWORD, IDENTIFIER
    for line_no, line in enumerate(lines, start=line_no):
        i = 0
        n = len(line)
        while i < n:
            if after_pic:
                m = _PICTURE.match(line, i)
                if m is not None:
                    append(new(Token, (PICTURE_CLAUSE, m.group(1).upper(),
                                       line_no, m.start(1) + 1)))
                    i = m.end()
                    after_pic = False
                    continue
            m = match(line, i)
            group = m.lastindex
            if group is None:
                break  # only blanks left; a pending PIC carries to the next line
            after_pic = False
            i = m.end()
            col = m.start(group) + 1
            if group == 1:
                word = m.group(1).upper()
                if word in KEYWORDS:
                    append(new(Token, (keyword, word, line_no, col)))
                    after_pic = word in _PICTURE_WORDS
                else:
                    append(new(Token, (identifier, word, line_no, col)))
            elif group in _KIND_OF_GROUP:
                append(new(Token, (_KIND_OF_GROUP[group], m.group(group), line_no, col)))
            elif group <= 5:  # a string literal: drop the quotes, undouble the inner ones
                literal = m.group(group)
                quote = literal[0]
                value = literal[1:-1].replace(quote + quote, quote)
                append(new(Token, (STRING_LITERAL, value, line_no, col)))
            elif group == 9:
                raise LexError(line_no, col, "unterminated string literal")
            else:
                raise LexError(line_no, col, f"illegal character {m.group(group)!r}")
    return after_pic


def _line_of(token: Token) -> int:
    return token[2]


def tokenize(file: SourceFile, base: tuple[list[Token], int] | None = None) -> list[Token]:
    """Scan a source file into tokens.

    Raises LexError on an unterminated string literal or illegal character.

    base = (tokens, line) re-lexes one edited line: `tokens` must be the
    full token list of a text that has this file's normalized text on
    every line but `line`, save that blank lines at the end may be gone.
    A line's tokens depend only on its own text and on the PIC state at
    its start, which is whether the token before it is PIC/PICTURE. So
    the tokens before `line` are kept, `line` is scanned from the state
    its predecessor token leaves, and the tokens after it are reused as
    they are, line and column included, when the state at the end of
    `line` is the one they were scanned from; otherwise the rest of the
    file is scanned too. The result equals `tokenize(file)`, LexError
    included, since no line before `line` changed and the old text
    scanned without one.
    """
    lines = normalize_source(file.text, file.format).split("\n")
    if base is None:
        tokens: list[Token] = []
        _scan(lines, 1, False, tokens)
        return tokens
    old, line_no = base
    lo = bisect_left(old, line_no, key=_line_of)
    hi = bisect_left(old, line_no + 1, lo, key=_line_of)
    tokens = old[:lo]
    after_pic = _scan(lines[line_no - 1:line_no], line_no,
                      lo > 0 and _opens_picture(old[lo - 1]), tokens)
    if after_pic == (hi > 0 and _opens_picture(old[hi - 1])):
        tokens += old[hi:]
    else:
        _scan(lines[line_no:], line_no + 1, after_pic, tokens)
    return tokens

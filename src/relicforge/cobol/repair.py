"""Deterministic syntax repair.

One rule application per iteration, innermost failure first, capped at
max_repairs. A file that never reaches a clean parse is Rejected with its
original text untouched. Fixed-format files that needed repairs come back
free-format, since the splices are made in the normalized text. The log
carries the tree of the attempt that parsed, so a caller need not parse
the returned file again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from relicforge.cobol.nodes import CobolAst
from relicforge.cobol.parser import parse, source_line_count
from relicforge.cobol.tokens import FREE, SourceFile, normalize_source, tokenize
from relicforge.errors import LexError, ParseError, ParseFailure

MAX_REPAIRS = 10


class RepairRule(enum.Enum):
    INSERT_END_IF = "InsertEndIf"
    INSERT_END_EVALUATE = "InsertEndEvaluate"
    INSERT_END_PERFORM = "InsertEndPerform"
    CLOSE_STRING_LITERAL = "CloseStringLiteral"
    APPEND_FINAL_PERIOD = "AppendFinalPeriod"


# Module constants for function bodies: on Python 3.10 and 3.11 an enum
# member read off its class costs about 140-230 ns, a global 15-50 ns.
CLOSE_STRING_LITERAL = RepairRule.CLOSE_STRING_LITERAL
APPEND_FINAL_PERIOD = RepairRule.APPEND_FINAL_PERIOD


class Verdict(enum.Enum):
    CLEAN = "Clean"
    REPAIRED = "Repaired"
    REJECTED = "Rejected"


# Module constants for function bodies, as for RepairRule above.
CLEAN = Verdict.CLEAN
REPAIRED = Verdict.REPAIRED
REJECTED = Verdict.REJECTED


@dataclass(frozen=True)
class RepairEntry:
    rule: RepairRule
    line: int


@dataclass
class RepairLog:
    entries: list[RepairEntry] = field(default_factory=list)
    verdict: Verdict = Verdict.CLEAN
    # parse_source's tree of the returned file; None when Rejected.
    ast: CobolAst | None = field(default=None, repr=False, compare=False)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "entries": [{"rule": e.rule.value, "line": e.line} for e in self.entries],
        }


_TERMINATORS = {
    "END-IF": RepairRule.INSERT_END_IF,
    "END-EVALUATE": RepairRule.INSERT_END_EVALUATE,
    "END-PERFORM": RepairRule.INSERT_END_PERFORM,
}


def _attempt(file: SourceFile, base=None):
    """(tokens, tree, problem): the tree on a clean parse, else a LexError
    (tokens None) or a list of ParseError. base goes to `tokenize`."""
    try:
        tokens = tokenize(file, base=base)
    except LexError as e:
        return None, None, e
    try:
        ast = parse(tokens)
    except ParseFailure as pf:
        return tokens, None, pf.errors
    ast.source_lines = source_line_count(file)
    return tokens, ast, None


def _pick(problem) -> tuple[RepairRule, ParseError | LexError] | None:
    if isinstance(problem, LexError):
        if problem.reason == "unterminated string literal":
            return CLOSE_STRING_LITERAL, problem
        return None
    for err in problem:
        if err.expected in _TERMINATORS:
            return _TERMINATORS[err.expected], err
        if err.expected == "'.'" and err.found == "end of file":
            return APPEND_FINAL_PERIOD, err
    return None


def _apply(rule: RepairRule, issue, text: str) -> tuple[str, int]:
    """Splice one repair into the text; returns (new text, log line)."""
    lines = text.split("\n")
    if rule is CLOSE_STRING_LITERAL:
        row = lines[issue.line - 1]
        quote = row[issue.col - 1]
        lines[issue.line - 1] = row.rstrip() + quote
        return "\n".join(lines), issue.line
    if rule is APPEND_FINAL_PERIOD:
        stripped = text.rstrip()
        return stripped + ".", stripped.count("\n") + 1
    # An END-… insertion: the parse error names the missing keyword.
    term = issue.expected
    if issue.found == "end of file":
        stripped = text.rstrip()
        return stripped + " " + term, stripped.count("\n") + 1
    row = lines[issue.line - 1]
    cut = issue.col - 1
    lines[issue.line - 1] = row[:cut] + " " + term + " " + row[cut:]
    return "\n".join(lines), issue.line


def repair(file: SourceFile, max_repairs: int = MAX_REPAIRS) -> tuple[SourceFile, RepairLog]:
    """Repair file until it parses; returns (the file that parsed, log).

    Each splice rewrites one line and adds none (at most it drops blank
    lines at the end), so a retry hands `tokenize` the last attempt's
    tokens and the spliced line, and only that line is lexed again (see
    `tokenize`), with the tokens a full lex would give. A retry after a
    LexError has no tokens to reuse and lexes the whole text.
    """
    tokens, ast, problem = _attempt(file)
    if ast is not None:
        return file, RepairLog([], CLEAN, ast)

    text = normalize_source(file.text, file.format)
    entries: list[RepairEntry] = []
    while len(entries) < max_repairs:
        choice = _pick(problem)
        if choice is None:
            return file, RepairLog(entries, REJECTED)
        rule, issue = choice
        text, line = _apply(rule, issue, text)
        entries.append(RepairEntry(rule, line))
        fixed = SourceFile(file.id, text, FREE)
        tokens, ast, problem = _attempt(fixed, None if tokens is None else (tokens, line))
        if ast is not None:
            return fixed, RepairLog(entries, REPAIRED, ast)
    return file, RepairLog(entries, REJECTED)

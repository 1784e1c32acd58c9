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
from relicforge.cobol.tokens import SourceFile, SourceFormat, normalize_source, tokenize
from relicforge.errors import LexError, ParseError, ParseFailure

MAX_REPAIRS = 10


class RepairRule(enum.Enum):
    INSERT_END_IF = "InsertEndIf"
    INSERT_END_EVALUATE = "InsertEndEvaluate"
    INSERT_END_PERFORM = "InsertEndPerform"
    CLOSE_STRING_LITERAL = "CloseStringLiteral"
    APPEND_FINAL_PERIOD = "AppendFinalPeriod"


class Verdict(enum.Enum):
    CLEAN = "Clean"
    REPAIRED = "Repaired"
    REJECTED = "Rejected"


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


def _attempt(file: SourceFile):
    """(tree, None) on a clean parse, else (None, a LexError or a list of ParseError)."""
    try:
        tokens = tokenize(file)
    except LexError as e:
        return None, e
    try:
        ast = parse(tokens)
    except ParseFailure as pf:
        return None, pf.errors
    ast.source_lines = source_line_count(file)
    return ast, None


def _pick(problem) -> tuple[RepairRule, ParseError | LexError] | None:
    if isinstance(problem, LexError):
        if problem.reason == "unterminated string literal":
            return RepairRule.CLOSE_STRING_LITERAL, problem
        return None
    for err in problem:
        if err.expected in _TERMINATORS:
            return _TERMINATORS[err.expected], err
        if err.expected == "'.'" and err.found == "end of file":
            return RepairRule.APPEND_FINAL_PERIOD, err
    return None


def _apply(rule: RepairRule, issue, text: str) -> tuple[str, int]:
    """Splice one repair into the text; returns (new text, log line)."""
    lines = text.split("\n")
    if rule is RepairRule.CLOSE_STRING_LITERAL:
        row = lines[issue.line - 1]
        quote = row[issue.col - 1]
        lines[issue.line - 1] = row.rstrip() + quote
        return "\n".join(lines), issue.line
    if rule is RepairRule.APPEND_FINAL_PERIOD:
        stripped = text.rstrip()
        return stripped + ".", stripped.count("\n") + 1
    term = {
        RepairRule.INSERT_END_IF: "END-IF",
        RepairRule.INSERT_END_EVALUATE: "END-EVALUATE",
        RepairRule.INSERT_END_PERFORM: "END-PERFORM",
    }[rule]
    if issue.found == "end of file":
        stripped = text.rstrip()
        return stripped + " " + term, stripped.count("\n") + 1
    row = lines[issue.line - 1]
    cut = issue.col - 1
    lines[issue.line - 1] = row[:cut] + " " + term + " " + row[cut:]
    return "\n".join(lines), issue.line


def repair(file: SourceFile, max_repairs: int = MAX_REPAIRS) -> tuple[SourceFile, RepairLog]:
    ast, problem = _attempt(file)
    if ast is not None:
        return file, RepairLog([], Verdict.CLEAN, ast)

    text = normalize_source(file.text, file.format)
    entries: list[RepairEntry] = []
    while len(entries) < max_repairs:
        choice = _pick(problem)
        if choice is None:
            return file, RepairLog(entries, Verdict.REJECTED)
        rule, issue = choice
        text, line = _apply(rule, issue, text)
        entries.append(RepairEntry(rule, line))
        fixed = SourceFile(file.id, text, SourceFormat.FREE)
        ast, problem = _attempt(fixed)
        if ast is not None:
            return fixed, RepairLog(entries, Verdict.REPAIRED, ast)
    return file, RepairLog(entries, Verdict.REJECTED)

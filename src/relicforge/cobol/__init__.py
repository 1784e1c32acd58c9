"""COBOL front end: tokenize, repair, parse, pretty-print."""

from relicforge.cobol import nodes
from relicforge.cobol.parser import parse, parse_source
from relicforge.cobol.printer import pretty_print
from relicforge.cobol.repair import RepairLog, RepairRule, Verdict, repair
from relicforge.cobol.tokens import (
    SourceFile,
    SourceFormat,
    TokenKind,
    tokenize,
)

__all__ = [
    "RepairLog",
    "RepairRule",
    "SourceFile",
    "SourceFormat",
    "TokenKind",
    "Verdict",
    "nodes",
    "parse",
    "parse_source",
    "pretty_print",
    "repair",
    "tokenize",
]

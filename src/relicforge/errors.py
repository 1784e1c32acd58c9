"""Exception types shared across the toolkit."""

from dataclasses import dataclass, field


class RelicForgeError(Exception):
    """Base class for all toolkit errors."""


class LexError(RelicForgeError):
    def __init__(self, line: int, col: int, reason: str):
        super().__init__(f"line {line}, col {col}: {reason}")
        self.line = line
        self.col = col
        self.reason = reason


@dataclass(frozen=True)
class ParseError:
    """One recovered parse diagnostic. Parsing reports these in batches.

    col does not take part in equality; it exists so the repair rules can
    splice text at the exact choke point.
    """

    line: int
    expected: str
    found: str
    col: int = field(default=0, compare=False)

    def __str__(self) -> str:
        return f"line {self.line}: expected {self.expected}, found {self.found}"


class ParseFailure(RelicForgeError):
    """Raised when parsing produced one or more ParseError diagnostics."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


class ShapeError(RelicForgeError):
    pass


class DivergenceError(RelicForgeError):
    pass


class FormatError(RelicForgeError):
    pass


class SourceError(FormatError):
    """A curated source that can no longer be read as curate read it.
    `reason` is "source unreadable" or "source changed since curate"."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.reason = reason


class SplitError(RelicForgeError):
    pass


class EvalError(RelicForgeError):
    pass

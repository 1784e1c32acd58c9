"""Shared value semantics for the differential interpreters.

Both interpreters run on one value universe: 64-bit wrapping signed
integers and fixed-width space-padded strings. Conversion, storage,
arithmetic, comparison, and the input protocol live here so behavioral
equivalence of a source/translation pair is a property of the programs,
never of drift between the two interpreter implementations.
"""

from __future__ import annotations

import enum
import operator
from collections import deque
from dataclasses import dataclass, field

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

MAX_STEPS = 100_000
MAX_CALL_DEPTH = 100

Value = int | str


class ExecError(Exception):
    """Runtime fault inside the interpreted program, not a toolkit bug."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class StepLimitExceeded(Exception):
    pass


class Budget:
    """Step allowance shared by one whole run, calls included. The
    interpreters' hot closures do what `tick` does inline on `left`."""

    def __init__(self, limit: int = MAX_STEPS):
        self.left = limit

    def tick(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise StepLimitExceeded()


def wrap64(value: int) -> int:
    return (value - I64_MIN) % (1 << 64) + I64_MIN


def to_num(value: Value) -> int:
    """Numeric coercion: identity on ints, strict decimal parse on strings."""
    if isinstance(value, int):
        return value
    text = value.strip()
    body = text[1:] if text.startswith("-") else text
    if not body or not (body.isascii() and body.isdigit()):
        raise ExecError(f"not numeric: {value!r}")
    got = int(text)
    if not I64_MIN <= got <= I64_MAX:
        raise ExecError(f"numeric overflow: {value!r}")
    return got


def to_str(value: Value) -> str:
    return str(value) if isinstance(value, int) else value


def fit(value: str, width: int) -> str:
    """Truncate or right-pad with spaces to exactly `width` characters."""
    return value[:width] if len(value) >= width else value + " " * (width - len(value))


# The operators of `compare`; the interpreters apply them directly when
# both sides are ints.
COMPARE_OPS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


# NOT (a op b) is (a COMPLEMENT[op] b): ints and equal-width strings are
# totally ordered, and a mixed comparison fails whatever the operator.
COMPLEMENT = {"=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def compare(op: str, a: Value, b: Value) -> bool:
    """Typed comparison; the shorter string is space-padded before comparing."""
    if isinstance(a, int) and isinstance(b, int):
        pass
    elif isinstance(a, str) and isinstance(b, str):
        width = max(len(a), len(b))
        a = fit(a, width)
        b = fit(b, width)
    else:
        raise ExecError("comparison between numeric and string values")
    return COMPARE_OPS[op](a, b)


def arith(op: str, a: Value, b: Value) -> int:
    """Wrapping 64-bit integer arithmetic; division truncates toward zero."""
    if not isinstance(a, int) or not isinstance(b, int):
        raise ExecError("arithmetic on a non-numeric value")
    if op == "+":
        return wrap64(a + b)
    if op == "-":
        return wrap64(a - b)
    if op == "*":
        return wrap64(a * b)
    if b == 0:
        raise ExecError("division by zero")
    quotient = abs(a) // abs(b)
    return wrap64(quotient if (a < 0) == (b < 0) else -quotient)


@dataclass
class Cell:
    """One storage slot: a 64-bit integer or a fixed-width string."""

    numeric: bool
    width: int
    value: Value


def num_cell(initial: int = 0) -> Cell:
    return Cell(True, 0, initial)


def str_cell(width: int, initial: str = "") -> Cell:
    return Cell(False, width, fit(initial, width))


def store(cell: Cell, value: Value) -> None:
    """Assignment with the target's type rule applied: numeric targets parse
    strings, string targets render and fit numbers."""
    if cell.numeric:
        cell.value = to_num(value)
    else:
        cell.value = fit(to_str(value), cell.width)


def pop_input(inputs: deque) -> str:
    if not inputs:
        raise ExecError("input exhausted")
    return inputs.popleft()


class OutcomeKind(enum.Enum):
    HALTED = "Halted"
    STEP_LIMIT = "StepLimit"
    RUNTIME_ERROR = "RuntimeError"


@dataclass(frozen=True)
class Outcome:
    kind: OutcomeKind
    reason: str = ""


HALTED = Outcome(OutcomeKind.HALTED)
STEP_LIMIT = Outcome(OutcomeKind.STEP_LIMIT)


def runtime_error(reason: str) -> Outcome:
    return Outcome(OutcomeKind.RUNTIME_ERROR, reason)


CallEvent = tuple[str, tuple]


@dataclass
class Trace:
    """Observable behavior of one run: output, external calls, how it ended."""

    display_lines: list[str] = field(default_factory=list)
    call_events: list[CallEvent] = field(default_factory=list)
    outcome: Outcome = HALTED

"""Shared value semantics for the differential interpreters.

Both interpreters run on one value universe: 64-bit wrapping signed
integers and fixed-width space-padded strings. Conversion, storage,
arithmetic, comparison, the input protocol and the loop watch live here
so behavioral equivalence of a source/translation pair is a property of
the programs, never of drift between the two interpreter implementations.
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
# Bound once for the function body below: on Python 3.10 and 3.11 an enum
# member read off its class costs about 140-230 ns, a global 15-50 ns. The
# plain member names are taken by the two outcomes above.
_RUNTIME_ERROR = OutcomeKind.RUNTIME_ERROR


def runtime_error(reason: str) -> Outcome:
    return Outcome(_RUNTIME_ERROR, reason)


CallEvent = tuple[str, tuple]


@dataclass
class Trace:
    """Observable behavior of one run: output, external calls, how it ended."""

    display_lines: list[str] = field(default_factory=list)
    call_events: list[CallEvent] = field(default_factory=list)
    outcome: Outcome = HALTED


# Passes a loop makes before it is watched for a repeating state, so that
# loops which exit early never pay for a snapshot. Over random_program
# seeds 0-299 (with and without GO TO, rules translation, every battery
# vector), 99.9% of the loop runs in halting programs ended within 9
# passes on either side, and the longest took 68.
CYCLE_WARMUP = 32

_value = operator.attrgetter("value")


def fast_forward(budget: Budget, trace: Trace, left: int, lines: int, calls: int) -> None:
    """Replay at once the whole cycles of a loop that fit in the budget.

    The loop state is back to the one saved when `left` steps remained and
    the trace held `lines` output lines and `calls` call events, so every
    later cycle costs `left - budget.left` steps and appends what the last
    one did. Fewer steps than one cycle remain afterwards: the loop runs on
    and stops at the same statement as it would have.
    """
    per = left - budget.left
    cycles = budget.left // per
    trace.display_lines.extend(trace.display_lines[lines:] * cycles)
    trace.call_events.extend(trace.call_events[calls:] * cycles)
    budget.left -= cycles * per


class LoopWatch:
    """Brent's cycle detection (Brent, BIT 20, 1980) at one activation of a
    loop head, once the loop has run past `CYCLE_WARMUP` passes.

    The state at the head is the number of inputs left and the value of
    every cell the interpreter passes in: everything a later pass can read.
    The input queue is always a suffix of the vector, the call depth is
    constant at one activation of a head, and the trace is only written.
    A run is deterministic, so once that state comes back the loop repeats
    the same passes forever and can never exit.

    `passed` is called at the head once per watched pass. It saves the
    state at watched pass 2^k and compares every later pass with it; on a
    match, `fast_forward` replays the whole cycles that fit in the budget:
    their output lines and call events are appended and their steps are
    taken. The loop runs on from there and stops at the same statement as
    it would have, so a truncated trace is unchanged.
    """

    __slots__ = ("cells", "inputs", "budget", "trace", "passes", "mark", "left",
                 "lines", "calls")

    def __init__(self, cells: tuple[Cell, ...], inputs: deque, budget: Budget,
                 trace: Trace):
        self.cells, self.inputs, self.budget, self.trace = cells, inputs, budget, trace
        self.passes = 0
        self.mark = None

    def passed(self) -> None:
        now = [len(self.inputs), *map(_value, self.cells)]
        trace = self.trace
        if now == self.mark:
            fast_forward(self.budget, trace, self.left, self.lines, self.calls)
            return
        self.passes += 1
        if self.passes & (self.passes - 1) == 0:
            self.mark = now
            self.left = self.budget.left
            self.lines = len(trace.display_lines)
            self.calls = len(trace.call_events)

"""Shared value semantics and run protocol for the differential interpreters.

Both interpreters run on one value universe: 64-bit wrapping signed
integers and fixed-width space-padded strings. This module owns what the
two sides have in common, so behavioral equivalence of a source/translation
pair is a property of the programs, never of drift between the two
interpreter implementations:

- conversion, storage, arithmetic and comparison, and the closures that
  compile them with their int fast paths (`binop`, `comparison`,
  `against_int`, `store_into`, and `literal_store`, which applies the
  store rule to a literal once at compile time);
- the closures that end a run with an error (`fail`) or do nothing
  (`nothing`);
- the input protocol and the loop watch;
- the run protocol (`Program`): the cells and their initial values, the
  step budget, the input queue, the call depth and the call that counts
  it, the trace, the statement sequence that ticks one step per
  statement, and the mapping of `Halt`, `StepLimitExceeded` and
  `ExecError` to the run's outcome.

Each interpreter compiles its own statements, expressions and conditions,
its loop shapes, jumps and call sites, and the order in which its
assignments fail, so the oracle never checks itself.
"""

from __future__ import annotations

import enum
import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable

I64_MIN = -(1 << 63)
I64_MAX = (1 << 63) - 1

MAX_STEPS = 100_000
# The bound on the summed weight of the calls in progress; see `Program._call`.
MAX_CALL_DEPTH = 100

Value = int | str
Thunk = Callable[[], object]


class ExecError(Exception):
    """Runtime fault inside the interpreted program, not a toolkit bug."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class StepLimitExceeded(Exception):
    pass


class Halt(Exception):
    """STOP RUN, or the `return` that stands for it: the run ends normally."""


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


# The operators of `compare`; `comparison` and `against_int` apply them
# directly when both sides are ints.
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


# -- compiled closures ------------------------------------------------------------


def fail(reason: str, args: tuple[Thunk, ...] = ()) -> Thunk:
    """End the run with `reason`, after evaluating `args` in order."""

    def fail():
        for arg in args:
            arg()
        raise ExecError(reason)

    return fail


def nothing() -> None:
    pass


def binop(op: str, left: Thunk, right: Thunk) -> Thunk:
    """`arith` on the operands, with int + int in range done inline."""
    if op != "+":
        return lambda: arith(op, left(), right())

    def add():
        a = left()
        b = right()
        if type(a) is int and type(b) is int:
            total = a + b
            if I64_MIN <= total <= I64_MAX:
                return total
        return arith("+", a, b)

    return add


def comparison(op: str, left: Thunk, right: Thunk) -> Thunk:
    """`compare` on the operands, with int against int done inline."""
    test = COMPARE_OPS[op]

    def comparison():
        a = left()
        b = right()
        if type(a) is int and type(b) is int:
            return test(a, b)
        return compare(op, a, b)

    return comparison


def against_int(op: str, left: Thunk | Cell, right: int) -> Thunk:
    """`comparison` with an int literal on the right; a variable on the
    left comes as its cell."""
    test = COMPARE_OPS[op]
    if isinstance(left, Cell):
        def cell_against_int():
            a = left.value
            if type(a) is int:
                return test(a, right)
            return compare(op, a, right)

        return cell_against_int

    def against_int():
        a = left()
        if type(a) is int:
            return test(a, right)
        return compare(op, a, right)

    return against_int


def store_into(cell: Cell, value: Thunk) -> Thunk:
    """`store` of `value()` into `cell`, with an int into a numeric cell
    done inline."""
    if not cell.numeric:
        return lambda: store(cell, value())

    def assign():
        got = value()
        cell.value = got if type(got) is int else to_num(got)

    return assign


def literal_store(cell: Cell, literal: Value) -> Thunk | None:
    """Store `literal` into `cell`, with the store rule applied once, here;
    None when the rule fails, so that the error waits until the statement
    runs."""
    probe = Cell(cell.numeric, cell.width, cell.value)
    try:
        store(probe, literal)
    except ExecError:
        return None
    stored = probe.value

    def assign_literal():
        cell.value = stored

    return assign_literal


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


# -- the run protocol ---------------------------------------------------------------


class _State:
    """What the closures change during a run. The table of paragraphs or
    methods is set only while a run is in progress, so a program at rest
    holds no reference cycle and is freed as soon as its last reference
    goes."""

    __slots__ = ("depth", "trace", "table")


class Program:
    """A program compiled once to closures; `run` executes it on one input
    vector.

    A subclass compiles its statements with `_stmt`, sets `_table` to its
    compiled paragraphs or methods, and runs them from `_main`. Its closures
    read the cells, `budget`, `inputs` and `_state`, never the program
    itself, so a program at rest holds no reference cycle.

    While it compiles, `_level` counts the statement lists open around the
    statement being compiled: 1 in a paragraph's or method's own body, one
    more inside each IF, loop, EVALUATE or switch.
    """

    def __init__(self, cells: dict[str, Cell]):
        self.cells = cells
        self._initial = [(cell, cell.value) for cell in cells.values()]
        self._cells = tuple(cells.values())
        self.budget = Budget()
        self.inputs: deque = deque()
        self._state = _State()
        self._level = 0

    def run(self, inputs) -> Trace:
        """One run from a fresh state; never raises.

        Every run resets the cells, the step budget, the call depth and the
        input queue, so its trace depends only on the inputs it reads. The
        values it did not read stay in `self.inputs` until the next run:
        `len(inputs) - len(self.inputs)` is how many it read.

        A loop watches every cell at its head for a repeating state (see
        `LoopWatch`).
        """
        for cell, value in self._initial:
            cell.value = value
        self.budget.left = MAX_STEPS
        self.inputs.clear()
        self.inputs.extend(inputs)
        state = self._state
        state.depth = 0
        trace = state.trace = Trace()
        state.table = self._table
        try:
            self._main()
            trace.outcome = HALTED
        except Halt:
            trace.outcome = HALTED
        except StepLimitExceeded:
            trace.outcome = STEP_LIMIT
        except ExecError as exc:
            trace.outcome = runtime_error(exc.reason)
        finally:
            state.table = state.trace = None
        return trace

    def _block(self, stmts: Iterable) -> Thunk:
        self._level += 1
        block = self._sequence([self._stmt(s) for s in stmts])
        self._level -= 1
        return block

    def _call(self, key, weight: int) -> Thunk:
        """Run `_table[key]` as a call of `weight`: the run ends with "call
        depth exceeded" when the weights of the calls in progress sum past
        `MAX_CALL_DEPTH`.

        A call site weighs the statement lists open around it (`_level`).
        Each of them holds two to four Python frames while the callee runs,
        so the weights bound the frames a run takes: deep recursion ends at
        the same call whatever the depth of the Python stack the run starts
        on, and never as a RecursionError. A COBOL paragraph reached by
        fall-through is called with weight 1, the weight of the follow-on
        call from a translation's run(); the first paragraph and run() run
        at depth 0.
        """
        state = self._state

        def call():
            state.depth += weight
            if state.depth > MAX_CALL_DEPTH:
                raise ExecError("call depth exceeded")
            try:
                state.table[key]()
            finally:
                state.depth -= weight

        return call

    def _sequence(self, steps: list[Thunk]) -> Thunk:
        """Run the statements in order, one step each."""
        if not steps:
            return nothing
        budget = self.budget
        steps = tuple(steps)

        def sequence():
            for step in steps:
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                step()

        return sequence

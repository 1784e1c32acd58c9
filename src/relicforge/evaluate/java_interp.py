"""Interpreter for the emitted Java subset, compiled to closures.

`compile_java` turns a class into Python closures once (closure
compilation, Feeley & Lapalme 1987): each statement, expression and
condition picks its dispatch at compile time, each name resolves to a
field cell or to a parameter's slot in the method's frame, and each call
to a method of the class resolves to that method. The compiled class then
runs once per input vector, and every run starts from a fresh state:
initial field values, a full step budget, call depth 0, a new input queue
and a new trace.

Executes run() with the same value semantics as the COBOL interpreter.
`return` halts the whole program (it stands for STOP RUN in translated
code; paragraph fall-through is modeled by explicit calls, so a plain
method-end return never appears). External stub calls are recorded as
events under their original program names; builtins in/num/fit/str carry
the width and parse rules that the emitter baked into the source.

Errors stay lazy: an undefined name, an unknown method or a builtin call
with the wrong number of arguments compiles to a closure that ends the
run when it is reached, so a branch never taken never fails.

A `while`, `do`-`while` or `for` loop is watched for a repeating state by
`values.LoopWatch`; the state at its head is the value of every field and
of the running method's parameter cells. A callee gets fresh parameter
cells and cannot change the caller's.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterable

from relicforge.cobol import nodes as n
from relicforge.evaluate.values import (
    COMPARE_OPS,
    COMPLEMENT,
    CYCLE_WARMUP,
    I64_MAX,
    I64_MIN,
    MAX_CALL_DEPTH,
    MAX_STEPS,
    Budget,
    Cell,
    ExecError,
    LoopWatch,
    StepLimitExceeded,
    Trace,
    arith,
    compare,
    fit,
    num_cell,
    pop_input,
    runtime_error,
    store,
    str_cell,
    to_num,
    to_str,
    HALTED,
    STEP_LIMIT,
)
from relicforge.transpile import jnodes as j

# A compiled expression or statement takes the running method's frame: one
# cell per parameter, in declaration order.
Frame = list[Cell]
Code = Callable[[Frame], object]

_ARITY = {"in": 0, "num": 1, "fit": 2, "str": 1}


class _Stop(Exception):
    pass


class _Break(Exception):
    pass


def _field_cell(field: j.JField) -> Cell:
    if field.jtype == "long":
        return num_cell(field.initial if isinstance(field.initial, int) else 0)
    raw = field.initial if isinstance(field.initial, str) else ""
    return str_cell(field.width, raw)


def _fail(reason: str, args: tuple[Code, ...] = ()) -> Code:
    """End the run with `reason`, after evaluating `args` as a call would."""

    def fail(frame):
        for arg in args:
            arg(frame)
        raise ExecError(reason)

    return fail


def _nothing(frame) -> None:
    pass


def _always(frame) -> bool:
    return True


def _binop(op: str, left: Code, right: Code) -> Code:
    """`arith` on the operands, with int + int in range done inline."""
    if op != "+":
        return lambda frame: arith(op, left(frame), right(frame))

    def add(frame):
        a = left(frame)
        b = right(frame)
        if type(a) is int and type(b) is int:
            total = a + b
            if I64_MIN <= total <= I64_MAX:
                return total
        return arith("+", a, b)

    return add


def _comparison(op: str, left: Code, right: Code) -> Code:
    """`compare` on the operands, with int against int done inline."""
    test = COMPARE_OPS[op]

    def comparison(frame):
        a = left(frame)
        b = right(frame)
        if type(a) is int and type(b) is int:
            return test(a, b)
        return compare(op, a, b)

    return comparison


def _against_int(op: str, left: Code | Cell, right: int) -> Code:
    """`_comparison` with an int literal on the right; a field on the
    left comes as its cell."""
    test = COMPARE_OPS[op]
    if isinstance(left, Cell):
        def cell_against_int(frame):
            a = left.value
            if type(a) is int:
                return test(a, right)
            return compare(op, a, right)

        return cell_against_int

    def against_int(frame):
        a = left(frame)
        if type(a) is int:
            return test(a, right)
        return compare(op, a, right)

    return against_int


class _State:
    """What the closures change during a run. The method table is set only
    while a run is in progress, so a program at rest holds no reference
    cycle and is freed as soon as its last reference goes."""

    __slots__ = ("depth", "trace", "methods")


class JavaProgram:
    """A Java class compiled once; `run` executes its run() on one input vector."""

    def __init__(self, jast: j.JavaAst):
        self.fields = {f.name: _field_cell(f) for f in jast.fields}
        self._initial = [(cell, cell.value) for cell in self.fields.values()]
        self._fields = tuple(self.fields.values())
        self.budget = Budget()
        self.inputs: deque = deque()
        self._state = _State()
        declared = {m.name: m for m in jast.methods}
        self._declared = set(declared)
        self._methods = {name: self._method(m) for name, m in declared.items()}

    def run(self, inputs) -> Trace:
        """One run from a fresh state; never raises.

        Every run resets the fields, the step budget, the call depth and the
        input queue, so its trace depends only on the inputs it reads. The
        values it did not read stay in `self.inputs` until the next run:
        `len(inputs) - len(self.inputs)` is how many it read.

        A `while`, `do`-`while` or `for` loop watches every field and the
        running method's parameter cells at its head for a repeating state
        (see `values.LoopWatch`).
        """
        for cell, value in self._initial:
            cell.value = value
        self.budget.left = MAX_STEPS
        self.inputs.clear()
        self.inputs.extend(inputs)
        state = self._state
        state.depth = 0
        trace = state.trace = Trace()
        state.methods = self._methods
        try:
            entry = self._methods.get("run")
            if entry is None:
                raise ExecError("no run method")
            entry([])
            trace.outcome = HALTED
        except _Stop:
            trace.outcome = HALTED
        except StepLimitExceeded:
            trace.outcome = STEP_LIMIT
        except ExecError as exc:
            trace.outcome = runtime_error(exc.reason)
        finally:
            state.methods = state.trace = None
        return trace

    # -- values --------------------------------------------------------------

    def _cell(self, name: str, slots: dict[str, int]) -> int | Cell | None:
        """A parameter's frame slot, else a field's cell, else None."""
        slot = slots.get(name)
        return slot if slot is not None else self.fields.get(name)

    def _expr(self, e, slots: dict[str, int]) -> Code:
        if isinstance(e, (n.NumLit, n.StrLit)):
            value = e.value
            return lambda frame: value
        if isinstance(e, n.VarRef):
            where = self._cell(e.name, slots)
            if where is None:
                return _fail(f"undefined variable {e.name}")
            if isinstance(where, int):
                return lambda frame: frame[where].value
            return lambda frame: where.value
        if isinstance(e, n.BinOp):
            return _binop(e.op, self._expr(e.left, slots), self._expr(e.right, slots))
        if isinstance(e, j.JCall):
            return self._builtin(e.name, tuple(self._expr(a, slots) for a in e.args))
        raise TypeError(f"unknown expression {e!r}")

    def _builtin(self, name: str, args: tuple[Code, ...]) -> Code:
        arity = _ARITY.get(name)
        if arity is None:
            return _fail(f"{name} is not a value function", args)
        if len(args) != arity:
            return _fail(f"wrong number of arguments to {name}", args)
        if name == "in":
            inputs = self.inputs
            return lambda frame: pop_input(inputs)
        if name == "num":
            (value,) = args
            return lambda frame: to_num(value(frame))
        if name == "fit":
            value, width = args
            return lambda frame: fit(to_str(value(frame)), to_num(width(frame)))
        (value,) = args
        return lambda frame: to_str(value(frame))

    def _cond(self, c: n.Cond, slots: dict[str, int]) -> Code:
        if isinstance(c, n.NotCond) and isinstance(c.inner, n.Comparison):
            c = n.Comparison(COMPLEMENT[c.inner.op], c.inner.left, c.inner.right)
        if isinstance(c, n.Comparison):
            if isinstance(c.right, n.NumLit):
                where = self._cell(c.left.name, slots) if isinstance(c.left, n.VarRef) else None
                left = where if isinstance(where, Cell) else self._expr(c.left, slots)
                return _against_int(c.op, left, c.right.value)
            return _comparison(c.op, self._expr(c.left, slots), self._expr(c.right, slots))
        if isinstance(c, n.NotCond):
            inner = self._cond(c.inner, slots)
            return lambda frame: not inner(frame)
        left, right = self._cond(c.left, slots), self._cond(c.right, slots)
        if isinstance(c, n.AndCond):
            return lambda frame: left(frame) and right(frame)
        return lambda frame: left(frame) or right(frame)

    # -- control -------------------------------------------------------------

    def _method(self, method: j.JMethod) -> Callable[[list], None]:
        """Call with argument values: a new frame, the body, depth +1."""
        name, count = method.name, len(method.params)
        # A repeated parameter name reads the last slot, as a dict would.
        body = self._block(method.body, {p: i for i, p in enumerate(method.params)})
        state = self._state

        def call(args):
            state.depth += 1
            if state.depth > MAX_CALL_DEPTH:
                raise ExecError("call depth exceeded")
            if len(args) != count:
                raise ExecError(f"wrong number of arguments to {name}")
            frame = []
            for value in args:
                cell = num_cell()
                store(cell, value)
                frame.append(cell)
            try:
                body(frame)
            except _Break:
                raise ExecError("break outside loop or switch") from None
            finally:
                state.depth -= 1

        return call

    def _block(self, stmts: Iterable, slots: dict[str, int]) -> Code:
        """Run the statements in order, one step each."""
        steps = tuple(self._stmt(s, slots) for s in stmts)
        if not steps:
            return _nothing
        budget = self.budget

        def block(frame):
            for step in steps:
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                step(frame)

        return block

    def _assign(self, a: j.Assign, slots: dict[str, int]) -> Code:
        """The target is looked up before the value is computed, so an
        undefined target fails first."""
        where = self._cell(a.target, slots)
        if where is None:
            return _fail(f"undefined variable {a.target}")
        if isinstance(where, Cell) and isinstance(a.expr, (n.NumLit, n.StrLit)):
            # A literal goes through the store rule once, here, unless that
            # fails: then the error waits until the statement runs.
            probe = Cell(where.numeric, where.width, where.value)
            try:
                store(probe, a.expr.value)
            except ExecError:
                pass
            else:
                stored = probe.value

                def assign_literal(frame):
                    where.value = stored

                return assign_literal
        value = self._expr(a.expr, slots)
        if isinstance(where, int):
            return lambda frame: store(frame[where], value(frame))
        if not where.numeric:
            return lambda frame: store(where, value(frame))

        def assign(frame):
            got = value(frame)
            where.value = got if type(got) is int else to_num(got)

        return assign

    def _while(self, test: Code, body: Code) -> Code:
        """Run `body` while `test` holds, one step per test; a `break` in
        it ends the loop. Past `CYCLE_WARMUP` passes, every field and the
        running frame are watched at the head."""
        budget, state, fields, inputs = self.budget, self._state, self._fields, self.inputs

        def while_(frame):
            passes, watch = 0, None
            while True:
                passes += 1
                if passes > CYCLE_WARMUP:
                    watch = watch or LoopWatch((*fields, *frame), inputs, budget, state.trace)
                    watch.passed()
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                if not test(frame):
                    break
                try:
                    body(frame)
                except _Break:
                    break

        return while_

    def _stmt(self, s, slots: dict[str, int]) -> Code:
        kind = s.kind
        budget = self.budget
        state = self._state
        fields, inputs = self._fields, self.inputs
        if kind is j.ASSIGN:
            return self._assign(s, slots)
        if kind is j.EXPR_STMT:
            return self._expr(s.expr, slots)
        if kind is j.IF_ELSE:
            test = self._cond(s.cond, slots)
            then_body = self._block(s.then_body, slots)
            else_body = self._block(s.else_body, slots)

            def if_else(frame):
                if test(frame):
                    then_body(frame)
                else:
                    else_body(frame)

            return if_else
        if kind is j.WHILE:
            return self._while(self._cond(s.cond, slots), self._block(s.body, slots))
        if kind is j.DO_WHILE:
            test, body = self._cond(s.cond, slots), self._block(s.body, slots)

            def do_while(frame):
                passes, watch = 0, None
                while True:
                    passes += 1
                    if passes > CYCLE_WARMUP:
                        watch = watch or LoopWatch((*fields, *frame), inputs, budget, state.trace)
                        watch.passed()
                    try:
                        body(frame)
                    except _Break:
                        break
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if not test(frame):
                        break

            return do_while
        if kind is j.FOR:
            test = self._cond(s.cond, slots) if s.cond is not None else _always
            body = self._block(s.body, slots)
            if s.update is not None:
                update, block = self._assign(s.update, slots), body

                def body(frame):
                    # A `break` in the block skips the update.
                    block(frame)
                    update(frame)

            loop = self._while(test, body)
            if s.init is None:
                return loop
            init = self._assign(s.init, slots)

            def for_(frame):
                init(frame)
                loop(frame)

            return for_
        if kind is j.SWITCH:
            subject = self._expr(s.subject, slots)
            cases = tuple((case.value.value, self._block(case.body, slots)) for case in s.cases)
            default = self._block(s.default or (), slots)

            def switch(frame):
                value = subject(frame)
                body = default
                for match, case_body in cases:
                    if compare("=", value, match):
                        body = case_body
                        break
                try:
                    body(frame)
                except _Break:
                    pass

            return switch
        if kind is j.METHOD_CALL:
            return self._method_call(s, slots)
        if kind is j.PRINT:
            args = tuple(self._expr(a, slots) for a in s.args)

            def print_(frame):
                line = "".join([to_str(arg(frame)) for arg in args])
                state.trace.display_lines.append(line)

            return print_
        if kind is j.RETURN:
            def return_(frame):
                raise _Stop()

            return return_
        if kind is j.BREAK:
            def break_(frame):
                raise _Break()

            return break_
        raise TypeError(f"unknown statement {s!r}")

    def _method_call(self, s: j.MethodCall, slots: dict[str, int]) -> Code:
        """Arguments are evaluated first, whatever the call turns out to be."""
        args = tuple(self._expr(a, slots) for a in s.args)
        state = self._state
        if s.external_name is not None:
            program = s.external_name

            def external(frame):
                values = tuple([arg(frame) for arg in args])
                state.trace.call_events.append((program, values))

            return external
        if s.name in self._declared:
            name = s.name

            def call(frame):
                state.methods[name]([arg(frame) for arg in args])

            return call
        if s.name in j.BUILTINS:
            return self._builtin(s.name, args)
        return _fail(f"unknown method {s.name}", args)


def compile_java(jast: j.JavaAst) -> JavaProgram:
    """Compile once; run the result on as many input vectors as needed."""
    return JavaProgram(jast)


def interpret_java(program: JavaProgram | j.JavaAst, inputs) -> Trace:
    """Run a compiled class's run(), or an AST compiled on the spot, against
    an input queue; never raises."""
    if not isinstance(program, JavaProgram):
        program = compile_java(program)
    return program.run(inputs)

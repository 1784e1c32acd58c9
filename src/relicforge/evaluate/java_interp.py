"""Interpreter for the emitted Java subset, compiled to closures.

`compile_java` turns a class into Python closures once (closure
compilation, Feeley & Lapalme 1987): each statement, expression and
condition picks its dispatch at compile time, each name resolves to a
field cell, and each call to a method of the class resolves to that
method. Methods take no parameters, so every closure takes no argument,
as the COBOL interpreter's thunks do. The compiled class then runs once
per input vector, and every run starts from a fresh state: initial field
values, a full step budget, call depth 0, a new input queue and a new
trace.

Executes run() with the same value semantics as the COBOL interpreter.
`return` halts the whole program (it stands for STOP RUN in translated
code; paragraph fall-through is modeled by explicit calls, so a plain
method-end return never appears). External stub calls are recorded as
events under their original program names; builtins in/num/fit/str carry
the width and parse rules that the emitter baked into the source.

Errors stay lazy: an undefined name, an unknown method, a call with
arguments to a method of the class or a builtin call with the wrong number
of arguments compiles to a closure that ends the run when it is reached,
so a branch never taken never fails.

A `while`, `do`-`while` or `for` loop is watched for a repeating state by
`values.LoopWatch`; the state at its head is the value of every field and
the number of inputs left.
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

Thunk = Callable[[], object]

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


def _fail(reason: str, args: tuple[Thunk, ...] = ()) -> Thunk:
    """End the run with `reason`, after evaluating `args` as a call would."""

    def fail():
        for arg in args:
            arg()
        raise ExecError(reason)

    return fail


def _nothing() -> None:
    pass


def _always() -> bool:
    return True


def _binop(op: str, left: Thunk, right: Thunk) -> Thunk:
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


def _comparison(op: str, left: Thunk, right: Thunk) -> Thunk:
    """`compare` on the operands, with int against int done inline."""
    test = COMPARE_OPS[op]

    def comparison():
        a = left()
        b = right()
        if type(a) is int and type(b) is int:
            return test(a, b)
        return compare(op, a, b)

    return comparison


def _against_int(op: str, left: Thunk | Cell, right: int) -> Thunk:
    """`_comparison` with an int literal on the right; a field on the
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

        A `while`, `do`-`while` or `for` loop watches every field at its
        head for a repeating state (see `values.LoopWatch`).
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
            entry()
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

    def _expr(self, e) -> Thunk:
        if isinstance(e, (n.NumLit, n.StrLit)):
            value = e.value
            return lambda: value
        if isinstance(e, n.VarRef):
            cell = self.fields.get(e.name)
            if cell is None:
                return _fail(f"undefined variable {e.name}")
            return lambda: cell.value
        if isinstance(e, n.BinOp):
            return _binop(e.op, self._expr(e.left), self._expr(e.right))
        if isinstance(e, j.JCall):
            return self._builtin(e.name, tuple(self._expr(a) for a in e.args))
        raise TypeError(f"unknown expression {e!r}")

    def _builtin(self, name: str, args: tuple[Thunk, ...]) -> Thunk:
        arity = _ARITY.get(name)
        if arity is None:
            return _fail(f"{name} is not a value function", args)
        if len(args) != arity:
            return _fail(f"wrong number of arguments to {name}", args)
        if name == "in":
            inputs = self.inputs
            return lambda: pop_input(inputs)
        if name == "num":
            (value,) = args
            return lambda: to_num(value())
        if name == "fit":
            value, width = args
            return lambda: fit(to_str(value()), to_num(width()))
        (value,) = args
        return lambda: to_str(value())

    def _cond(self, c: n.Cond) -> Thunk:
        if isinstance(c, n.NotCond) and isinstance(c.inner, n.Comparison):
            c = n.Comparison(COMPLEMENT[c.inner.op], c.inner.left, c.inner.right)
        if isinstance(c, n.Comparison):
            if isinstance(c.right, n.NumLit):
                cell = self.fields.get(c.left.name) if isinstance(c.left, n.VarRef) else None
                return _against_int(c.op, cell or self._expr(c.left), c.right.value)
            return _comparison(c.op, self._expr(c.left), self._expr(c.right))
        if isinstance(c, n.NotCond):
            inner = self._cond(c.inner)
            return lambda: not inner()
        left, right = self._cond(c.left), self._cond(c.right)
        if isinstance(c, n.AndCond):
            return lambda: left() and right()
        return lambda: left() or right()

    # -- control -------------------------------------------------------------

    def _method(self, method: j.JMethod) -> Thunk:
        """The body, one call depth deeper."""
        body = self._block(method.body)
        state = self._state

        def call():
            state.depth += 1
            if state.depth > MAX_CALL_DEPTH:
                raise ExecError("call depth exceeded")
            try:
                body()
            except _Break:
                raise ExecError("break outside loop or switch") from None
            finally:
                state.depth -= 1

        return call

    def _block(self, stmts: Iterable) -> Thunk:
        """Run the statements in order, one step each."""
        steps = tuple(self._stmt(s) for s in stmts)
        if not steps:
            return _nothing
        budget = self.budget

        def block():
            for step in steps:
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                step()

        return block

    def _assign(self, a: j.Assign) -> Thunk:
        """The target is looked up before the value is computed, so an
        undefined target fails first."""
        cell = self.fields.get(a.target)
        if cell is None:
            return _fail(f"undefined variable {a.target}")
        if isinstance(a.expr, (n.NumLit, n.StrLit)):
            # A literal goes through the store rule once, here, unless that
            # fails: then the error waits until the statement runs.
            probe = Cell(cell.numeric, cell.width, cell.value)
            try:
                store(probe, a.expr.value)
            except ExecError:
                pass
            else:
                stored = probe.value

                def assign_literal():
                    cell.value = stored

                return assign_literal
        value = self._expr(a.expr)
        if not cell.numeric:
            return lambda: store(cell, value())

        def assign():
            got = value()
            cell.value = got if type(got) is int else to_num(got)

        return assign

    def _while(self, test: Thunk, body: Thunk) -> Thunk:
        """Run `body` while `test` holds, one step per test; a `break` in
        it ends the loop. Past `CYCLE_WARMUP` passes, every field is watched
        at the head."""
        budget, state, fields, inputs = self.budget, self._state, self._fields, self.inputs

        def while_():
            passes, watch = 0, None
            while True:
                passes += 1
                if passes > CYCLE_WARMUP:
                    watch = watch or LoopWatch(fields, inputs, budget, state.trace)
                    watch.passed()
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                if not test():
                    break
                try:
                    body()
                except _Break:
                    break

        return while_

    def _stmt(self, s) -> Thunk:
        kind = s.kind
        budget = self.budget
        state = self._state
        fields, inputs = self._fields, self.inputs
        if kind is j.ASSIGN:
            return self._assign(s)
        if kind is j.IF_ELSE:
            test = self._cond(s.cond)
            then_body = self._block(s.then_body)
            else_body = self._block(s.else_body)

            def if_else():
                if test():
                    then_body()
                else:
                    else_body()

            return if_else
        if kind is j.WHILE:
            return self._while(self._cond(s.cond), self._block(s.body))
        if kind is j.DO_WHILE:
            test, body = self._cond(s.cond), self._block(s.body)

            def do_while():
                passes, watch = 0, None
                while True:
                    passes += 1
                    if passes > CYCLE_WARMUP:
                        watch = watch or LoopWatch(fields, inputs, budget, state.trace)
                        watch.passed()
                    try:
                        body()
                    except _Break:
                        break
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if not test():
                        break

            return do_while
        if kind is j.FOR:
            test = self._cond(s.cond) if s.cond is not None else _always
            body = self._block(s.body)
            if s.update is not None:
                update, block = self._assign(s.update), body

                def body():
                    # A `break` in the block skips the update.
                    block()
                    update()

            loop = self._while(test, body)
            if s.init is None:
                return loop
            init = self._assign(s.init)

            def for_():
                init()
                loop()

            return for_
        if kind is j.SWITCH:
            subject = self._expr(s.subject)
            cases = tuple((case.value.value, self._block(case.body)) for case in s.cases)
            default = self._block(s.default or ())

            def switch():
                value = subject()
                body = default
                for match, case_body in cases:
                    if compare("=", value, match):
                        body = case_body
                        break
                try:
                    body()
                except _Break:
                    pass

            return switch
        if kind is j.METHOD_CALL:
            return self._method_call(s)
        if kind is j.PRINT:
            args = tuple(self._expr(a) for a in s.args)

            def print_():
                line = "".join([to_str(arg()) for arg in args])
                state.trace.display_lines.append(line)

            return print_
        if kind is j.RETURN:
            def return_():
                raise _Stop()

            return return_
        if kind is j.BREAK:
            def break_():
                raise _Break()

            return break_
        raise TypeError(f"unknown statement {s!r}")

    def _method_call(self, s: j.MethodCall) -> Thunk:
        """Arguments are evaluated first, whatever the call turns out to be."""
        args = tuple(self._expr(a) for a in s.args)
        state = self._state
        if s.external_name is not None:
            program = s.external_name

            def external():
                values = tuple([arg() for arg in args])
                state.trace.call_events.append((program, values))

            return external
        if s.name in self._declared:
            if args:
                return _fail(f"wrong number of arguments to {s.name}", args)
            name = s.name
            return lambda: state.methods[name]()
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

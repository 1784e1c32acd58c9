"""Reference interpreter for the COBOL subset, compiled to closures.

`compile_cobol` turns a program into Python closures once (closure
compilation, Feeley & Lapalme 1987): each statement, expression and
condition picks its dispatch at compile time, and each data name resolves
to its cell. The compiled program then runs once per input vector, and
every run starts from a fresh state: initial cell values, a full step
budget, call depth 0, a new input queue and a new trace.

Paragraphs run in declaration order starting from the first; GO TO resets
the sequential cursor (abandoning any in-flight PERFORM frames, which is
the one COBOL behavior a structured translation cannot imitate). MOVE
applies the picture rule of its target, arithmetic is wrapping 64-bit,
CALL records an event without executing the callee, and STOP RUN halts.

Step accounting mirrors the statement structure a rule translation emits
(one step per statement, per loop test, per implicit follow-on call), so
a jump-free program and its translation exhaust the budget at the same
point and their truncated traces still compare equal. The statement
list of `values.Program` ticks before each statement, and each loop ticks
before its test.

Errors stay lazy: an undefined name or unknown paragraph compiles to a
closure that ends the run when it is reached, so a branch never taken
never fails.

A PERFORM UNTIL or PERFORM VARYING is watched for a repeating state by
`values.LoopWatch`; the state at its head is the value of every cell.
PERFORM TIMES counts down and can never repeat, so it is not watched.

The values, their int fast paths, literal folding, the statement list and
the run protocol are shared with the Java interpreter through `values`.
What stays here is COBOL's own: the compilation of its statements,
expressions and conditions, its loop shapes, PERFORM and GO TO, and its
assignment error order (the value fails before an undefined target).
"""

from __future__ import annotations

from typing import Iterable

from relicforge.cobol import nodes as n
from relicforge.evaluate.values import (
    COMPLEMENT,
    CYCLE_WARMUP,
    Cell,
    Halt,
    LoopWatch,
    Program,
    StepLimitExceeded,
    Thunk,
    against_int,
    binop,
    compare,
    comparison,
    fail,
    fit,
    literal_store,
    num_cell,
    pop_input,
    store_into,
    str_cell,
    to_num,
    to_str,
)

_ARITH_SYMBOL = {"ADD": "+", "SUBTRACT": "-", "MULTIPLY": "*", "DIVIDE": "/"}


class _Goto(Exception):
    def __init__(self, target: int):
        super().__init__(target)
        self.target = target


def _leaves(items: Iterable[n.DataItem]) -> Iterable[n.DataItem]:
    for item in items:
        if item.is_group:
            yield from _leaves(item.children)
        else:
            yield item


def build_environment(items: Iterable[n.DataItem]) -> dict[str, Cell]:
    """Elementary items become cells; groups only contribute their leaves.
    The first declaration of a name wins, matching bare-name resolution."""
    env: dict[str, Cell] = {}
    for item in _leaves(items):
        width = n.picture_width(item.picture)
        if item.is_numeric:
            cell = num_cell(item.value if isinstance(item.value, int) else 0)
        else:
            raw = item.value if isinstance(item.value, str) else ""
            cell = str_cell(width, fit(raw, width))
        env.setdefault(item.name, cell)
    return env


class CobolProgram(Program):
    """A COBOL program compiled once; `run` executes it on one input vector."""

    def __init__(self, ast: n.CobolAst):
        super().__init__(build_environment(ast.data_items))
        self._index = {p.name: i for i, p in enumerate(ast.paragraphs)}
        self._table = [self._block(p.body) for p in ast.paragraphs]
        # The first paragraph runs at depth 0, as a translation's run() does.
        # Each later one runs as a call of weight 1: the follow-on call that
        # run() makes to the method translated from it.
        self._paragraphs = self._table[:1] + [
            self._call(i, 1) for i in range(1, len(self._table))
        ]

    def _main(self) -> None:
        """The paragraphs in order from the first; GO TO moves the cursor."""
        paragraphs = self._paragraphs
        cursor = 0
        while cursor < len(paragraphs):
            try:
                paragraphs[cursor]()
            except _Goto as jump:
                cursor = jump.target
                continue
            cursor += 1
            if cursor < len(paragraphs):
                # Falling through to the next paragraph costs one step, the
                # same as the explicit follow-on call a translation makes.
                self.budget.tick()

    # -- values --------------------------------------------------------------

    def _expr(self, e: n.Expr) -> Thunk:
        if isinstance(e, (n.NumLit, n.StrLit)):
            value = e.value
            return lambda: value
        if isinstance(e, n.VarRef):
            cell = self.cells.get(e.name)
            if cell is None:
                return fail(f"undefined variable {e.name}")
            return lambda: cell.value
        return binop(e.op, self._expr(e.left), self._expr(e.right))

    def _cond(self, c: n.Cond) -> Thunk:
        if isinstance(c, n.NotCond) and isinstance(c.inner, n.Comparison):
            c = n.Comparison(COMPLEMENT[c.inner.op], c.inner.left, c.inner.right)
        if isinstance(c, n.Comparison):
            if isinstance(c.right, n.NumLit):
                cell = self.cells.get(c.left.name) if isinstance(c.left, n.VarRef) else None
                return against_int(c.op, cell or self._expr(c.left), c.right.value)
            return comparison(c.op, self._expr(c.left), self._expr(c.right))
        if isinstance(c, n.NotCond):
            inner = self._cond(c.inner)
            return lambda: not inner()
        left, right = self._cond(c.left), self._cond(c.right)
        if isinstance(c, n.AndCond):
            return lambda: left() and right()
        return lambda: left() or right()

    def _assign(self, name: str, value: Thunk) -> Thunk:
        """Store into `name`; the value is computed before the name is
        looked up, so its own errors come first."""
        cell = self.cells.get(name)
        if cell is None:
            return fail(f"undefined variable {name}", (value,))
        return store_into(cell, value)

    def _assign_expr(self, name: str, e: n.Expr) -> Thunk:
        """Store the value of `e` into `name`; a literal is folded by
        `literal_store` when it can be."""
        cell = self.cells.get(name)
        if cell is not None and isinstance(e, (n.NumLit, n.StrLit)):
            folded = literal_store(cell, e.value)
            if folded is not None:
                return folded
        return self._assign(name, self._expr(e))

    # -- control -------------------------------------------------------------

    def _perform(self, target: str, weight: int) -> Thunk:
        index = self._index.get(target)
        if index is None:
            return fail(f"unknown paragraph {target}")
        return self._call(index, weight)

    def _until(self, test: Thunk, body: Thunk) -> Thunk:
        """Run `body` until `test` holds, one step per test. Past
        `CYCLE_WARMUP` passes, every cell is watched at the head."""
        budget, state, cells, inputs = self.budget, self._state, self._cells, self.inputs

        def until():
            passes, watch = 0, None
            while True:
                passes += 1
                if passes > CYCLE_WARMUP:
                    watch = watch or LoopWatch(cells, inputs, budget, state.trace)
                    watch.passed()
                budget.left -= 1
                if budget.left < 0:
                    raise StepLimitExceeded()
                if test():
                    break
                body()

        return until

    def _stmt(self, s: n.Stmt) -> Thunk:
        kind = s.kind
        budget = self.budget
        state = self._state
        inputs = self.inputs
        if kind is n.MOVE:
            return self._assign_expr(s.dst, s.src)
        if kind is n.COMPUTE:
            return self._assign_expr(s.dst, s.expr)
        if kind is n.ARITH:
            value = binop(_ARITH_SYMBOL[s.op], self._expr(s.b), self._expr(s.a))
            return self._assign(s.giving if s.giving else s.b.name, value)
        if kind is n.IF:
            test = self._cond(s.cond)
            then_body, else_body = self._block(s.then_body), self._block(s.else_body)

            def if_():
                if test():
                    then_body()
                else:
                    else_body()

            return if_
        if kind is n.EVALUATE:
            subject = self._expr(s.subject)
            arms = tuple((arm.value.value, self._block(arm.body)) for arm in s.arms)
            other = self._block(s.other or ())

            def evaluate():
                value = subject()
                for match, body in arms:
                    if compare("=", value, match):
                        body()
                        return
                other()

            return evaluate
        if kind is n.PERFORM_PARA:
            return self._perform(s.target, self._level)
        if kind is n.PERFORM_TIMES:
            count = self._expr(s.count)
            # A counted paragraph perform costs one extra step per pass: the
            # call itself, same as a loop around a call, which is also why
            # the call weighs one level more.
            body = (self._sequence([self._perform(s.target, self._level + 1)])
                    if s.target is not None else self._block(s.body))

            def times():
                # Counted loops behave like a countdown for-loop, so the exit
                # test that fails on the way out costs a step too (checks run
                # count + 1 times, not count times).
                remaining = max(to_num(count()), 0)
                while True:
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if remaining == 0:
                        break
                    remaining -= 1
                    body()

            return times
        if kind is n.PERFORM_UNTIL:
            return self._until(self._cond(s.cond), self._block(s.body))
        if kind is n.PERFORM_VARYING:
            start = self._assign_expr(s.var, s.from_)
            step = self._assign(s.var, binop("+", self._expr(n.VarRef(s.var)),
                                             self._expr(s.by)))
            body = self._block(s.body)

            def body_then_step():
                body()
                step()

            loop = self._until(self._cond(s.until), body_then_step)

            def varying():
                start()
                loop()

            return varying
        if kind is n.DISPLAY:
            args = tuple(self._expr(a) for a in s.args)

            def display():
                line = "".join([to_str(arg()) for arg in args])
                state.trace.display_lines.append(line)

            return display
        if kind is n.ACCEPT:
            return self._assign(s.target, lambda: pop_input(inputs))
        if kind is n.CALL:
            program = s.program
            using = tuple(self._expr(n.VarRef(name)) for name in s.using)

            def call():
                values = tuple([read() for read in using])
                state.trace.call_events.append((program, values))

            return call
        if kind is n.GOTO:
            index = self._index.get(s.target)
            if index is None:
                return fail(f"unknown paragraph {s.target}")

            def goto():
                raise _Goto(index)

            return goto
        if kind is n.STOP_RUN:
            def stop():
                raise Halt()

            return stop
        raise TypeError(f"unknown statement {s!r}")


def compile_cobol(ast: n.CobolAst) -> CobolProgram:
    """Compile once; run the result on as many input vectors as needed."""
    return CobolProgram(ast)


def interpret_cobol(program: CobolProgram | n.CobolAst, inputs) -> Trace:
    """Run a compiled program, or an AST compiled on the spot, against an
    input queue; never raises."""
    if not isinstance(program, CobolProgram):
        program = compile_cobol(program)
    return program.run(inputs)

"""Interpreter for the emitted Java subset, compiled to closures.

`compile_java` turns a class into Python closures (closure compilation,
Feeley & Lapalme 1987): each statement, expression and condition picks its
dispatch when it compiles, each name resolves to a field cell, and each
call to a method of the class resolves to that method. Methods take no
parameters, so every closure takes no argument, as the COBOL interpreter's
thunks do. A statement list (a method body, an if/else arm, a switch case,
a loop body) compiles on its first entry and keeps its closures (see
`values.Program`), so a statement no run reaches is never compiled. The
compiled class runs once per input vector, and every run starts from a
fresh state: initial field values, a full step budget, call depth 0, a new
input queue and a new trace.

Executes run() with the same value semantics as the COBOL interpreter.
`return` halts the whole program (it stands for STOP RUN in translated
code; paragraph fall-through is modeled by explicit calls, so a plain
method-end return never appears). External stub calls are recorded as
events under their original program names; builtins in/num/fit/str carry
the width and parse rules that the emitter baked into the source. `fit`
ends the run on a negative width, where the emitted helper throws, and on
one past `MAX_PIC_CHARS`, the widest field a translation declares: a
resource bound, as `MAX_STEPS` is.

Errors stay lazy: an undefined name, an unknown method, a call with
arguments to a method of the class or a builtin call with the wrong number
of arguments compiles to a closure that ends the run when it is reached,
so a branch never taken never fails.

A `while`, `do`-`while` or `for` loop is watched for a repeating state by
`values.LoopWatch`; the state at its head is the value of every field and
the number of inputs left.

The values, their int fast paths, literal folding, the statement list and
the run protocol are shared with the COBOL interpreter through `values`;
a field is a `values.Cell`. What stays here is Java's own: the compilation
of its statements, expressions, conditions and builtins, its loop shapes,
`break` and method calls, and its assignment error order (an undefined
target fails before the value).
"""

from __future__ import annotations

from relicforge.cobol import nodes as n
from relicforge.cobol.parser import MAX_PIC_CHARS
from relicforge.evaluate.values import (
    COMPLEMENT,
    CYCLE_WARMUP,
    Cell,
    ExecError,
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
from relicforge.transpile import jnodes as j

_ARITY = {"in": 0, "num": 1, "fit": 2, "str": 1}


class _Break(Exception):
    pass


def _field_cell(field: j.JField) -> Cell:
    if field.jtype == "long":
        return num_cell(field.initial if isinstance(field.initial, int) else 0)
    raw = field.initial if isinstance(field.initial, str) else ""
    return str_cell(field.width, raw)


def _always() -> bool:
    return True


class JavaProgram(Program):
    """A compiled Java class; `run` executes its run() on one input vector."""

    def __init__(self, jast: j.JavaAst):
        super().__init__({f.name: _field_cell(f) for f in jast.fields})
        declared = {m.name: m for m in jast.methods}
        self._declared = set(declared)
        self._table = {name: self._method(m) for name, m in declared.items()}

    def _main(self) -> None:
        # run() starts at depth 0, as the first paragraph does; a call to
        # any method adds the weight of its call site (see `_method_call`).
        run = self._table.get("run")
        if run is None:
            raise ExecError("no run method")
        run()

    # -- values --------------------------------------------------------------

    def _expr(self, e) -> Thunk:
        if isinstance(e, (n.NumLit, n.StrLit)):
            value = e.value
            return lambda: value
        if isinstance(e, n.VarRef):
            cell = self.cells.get(e.name)
            if cell is None:
                return fail(f"undefined variable {e.name}")
            return lambda: cell.value
        if isinstance(e, n.BinOp):
            return binop(e.op, self._expr(e.left), self._expr(e.right))
        if isinstance(e, j.JCall):
            return self._builtin(e.name, tuple(self._expr(a) for a in e.args))
        raise TypeError(f"unknown expression {e!r}")

    def _builtin(self, name: str, args: tuple[Thunk, ...]) -> Thunk:
        arity = _ARITY.get(name)
        if arity is None:
            return fail(f"{name} is not a value function", args)
        if len(args) != arity:
            return fail(f"wrong number of arguments to {name}", args)
        if name == "in":
            inputs = self.inputs
            return lambda: pop_input(inputs)
        if name == "num":
            (value,) = args
            return lambda: to_num(value())
        if name == "fit":
            value, width = args

            def fit_():
                text = to_str(value())
                chars = to_num(width())
                if not 0 <= chars <= MAX_PIC_CHARS:
                    raise ExecError(f"fit width out of range: {chars}")
                return fit(text, chars)

            return fit_
        (value,) = args
        return lambda: to_str(value())

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

    # -- control -------------------------------------------------------------

    def _method(self, method: j.JMethod) -> Thunk:
        """The body; a `break` that leaves it ends the run."""
        body = self._block(method.body)

        def method_():
            try:
                body()
            except _Break:
                raise ExecError("break outside loop or switch") from None

        return method_

    def _assign(self, a: j.Assign) -> Thunk:
        """The target is looked up before the value is computed, so an
        undefined target fails first; a literal is folded by `literal_store`
        when it can be."""
        cell = self.cells.get(a.target)
        if cell is None:
            return fail(f"undefined variable {a.target}")
        if isinstance(a.expr, (n.NumLit, n.StrLit)):
            folded = literal_store(cell, a.expr.value)
            if folded is not None:
                return folded
        return store_into(cell, self._expr(a.expr))

    def _while(self, test: Thunk, body: Thunk) -> Thunk:
        """Run `body` while `test` holds, one step per test; a `break` in
        it ends the loop. Past `CYCLE_WARMUP` passes, every field is watched
        at the head."""
        budget, state, fields, inputs = self.budget, self._state, self._cells, self.inputs

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
        cls = s.__class__
        budget = self.budget
        state = self._state
        fields, inputs = self._cells, self.inputs
        if cls is j.Assign:
            return self._assign(s)
        if cls is j.IfElse:
            test = self._cond(s.cond)
            then_body = self._block(s.then_body)
            else_body = self._block(s.else_body)

            def if_else():
                if test():
                    then_body()
                else:
                    else_body()

            return if_else
        if cls is j.While:
            return self._while(self._cond(s.cond), self._block(s.body))
        if cls is j.DoWhile:
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
        if cls is j.For:
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
        if cls is j.Switch:
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
        if cls is j.MethodCall:
            return self._method_call(s)
        if cls is j.Print:
            args = tuple(self._expr(a) for a in s.args)

            def print_():
                line = "".join([to_str(arg()) for arg in args])
                state.trace.display_lines.append(line)

            return print_
        if cls is j.Return:
            def return_():
                raise Halt()

            return return_
        if cls is j.Break:
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
                return fail(f"wrong number of arguments to {s.name}", args)
            return self._call(s.name, self._level)
        if s.name in j.BUILTINS:
            return self._builtin(s.name, args)
        return fail(f"unknown method {s.name}", args)


def compile_java(jast: j.JavaAst) -> JavaProgram:
    """Compile once; run the result on as many input vectors as needed.

    Each statement list compiles on its first entry, so a malformed tree
    (a statement or expression of no known class) raises its `TypeError`
    out of the run that first enters the list, not here."""
    return JavaProgram(jast)


def interpret_java(program: JavaProgram | j.JavaAst, inputs) -> Trace:
    """Run a compiled class's run(), or an AST compiled on the spot, against
    an input queue; never raises."""
    if not isinstance(program, JavaProgram):
        program = compile_java(program)
    return program.run(inputs)

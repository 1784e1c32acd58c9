"""The compiled interpreters against the tree walkers they replaced.

The references below are the two `_Machine` walkers as they were, with
their classes renamed so that both fit in one module (`_CobolMachine`,
`_JavaMachine`, `_CStop`, `_JStop`, `_JBreak`) and their entry points
renamed `ref_interpret_cobol` and `ref_interpret_java`. The Java walker
has since lost method parameters and their frames, as the Java subset has:
a name is a field, and a call with arguments to a method of the class is
an error. Both sides build their COBOL cells with the same
`build_environment`. Every run must give
an equal `Trace`: the same display lines, the same call events, and the
same outcome kind and reason.
"""

import gc
import random
from collections import deque

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.corpus import curate, ingest, load_ast
from relicforge.datagen import acceptance_corpus, random_program, sample_program
from relicforge.evaluate import (
    INPUT_VECTORS,
    compile_cobol,
    compile_java,
    input_battery,
    interpret_cobol,
    interpret_java,
)
from relicforge.evaluate.cobol_interp import build_environment
from relicforge.evaluate.values import (
    MAX_CALL_DEPTH,
    Budget,
    Cell,
    ExecError,
    OutcomeKind,
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
from relicforge.transpile import translate_rules
from relicforge.transpile import jnodes as j

from tests.test_one_cfg_builder import translations

# --- the reference: the two walkers as they were ------------------------------

_ARITH_SYMBOL = {"ADD": "+", "SUBTRACT": "-", "MULTIPLY": "*", "DIVIDE": "/"}


class _Goto(Exception):
    def __init__(self, target: str):
        super().__init__(target)
        self.target = target


class _CStop(Exception):
    pass


class _CobolMachine:
    def __init__(self, ast: n.CobolAst, inputs):
        self.env = build_environment(ast.data_items)
        self.paragraphs = ast.paragraphs
        self.para_index = {p.name: i for i, p in enumerate(self.paragraphs)}
        self.inputs = deque(inputs)
        self.budget = Budget()
        self.trace = Trace()
        self.depth = 0

    # -- values --------------------------------------------------------------

    def read(self, name: str):
        cell = self.env.get(name)
        if cell is None:
            raise ExecError(f"undefined variable {name}")
        return cell.value

    def assign(self, name: str, value) -> None:
        cell = self.env.get(name)
        if cell is None:
            raise ExecError(f"undefined variable {name}")
        store(cell, value)

    def expr(self, e: n.Expr):
        if isinstance(e, (n.NumLit, n.StrLit)):
            return e.value
        if isinstance(e, n.VarRef):
            return self.read(e.name)
        return arith(e.op, self.expr(e.left), self.expr(e.right))

    def cond(self, c: n.Cond) -> bool:
        if isinstance(c, n.Comparison):
            return compare(c.op, self.expr(c.left), self.expr(c.right))
        if isinstance(c, n.NotCond):
            return not self.cond(c.inner)
        if isinstance(c, n.AndCond):
            return self.cond(c.left) and self.cond(c.right)
        return self.cond(c.left) or self.cond(c.right)

    # -- control -------------------------------------------------------------

    def perform(self, target: str) -> None:
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise ExecError("call depth exceeded")
        try:
            self.body(self.paragraphs[self.para_index[target]].body)
        finally:
            self.depth -= 1

    def body(self, stmts: list[n.Stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, s: n.Stmt) -> None:
        self.budget.tick()
        kind = s.kind
        if kind is n.NodeKind.MOVE:
            self.assign(s.dst, self.expr(s.src))
        elif kind is n.NodeKind.COMPUTE:
            self.assign(s.dst, self.expr(s.expr))
        elif kind is n.NodeKind.ARITH:
            value = arith(_ARITH_SYMBOL[s.op], self.expr(s.b), self.expr(s.a))
            self.assign(s.giving if s.giving else s.b.name, value)
        elif kind is n.NodeKind.IF:
            self.body(s.then_body if self.cond(s.cond) else s.else_body)
        elif kind is n.NodeKind.EVALUATE:
            self.evaluate(s)
        elif kind is n.NodeKind.PERFORM_PARA:
            self.perform(s.target)
        elif kind is n.NodeKind.PERFORM_TIMES:
            # Counted loops behave like a countdown for-loop, so the exit
            # test that fails on the way out costs a step too (checks run
            # count + 1 times, not count times).
            remaining = max(to_num(self.expr(s.count)), 0)
            while True:
                self.budget.tick()
                if remaining == 0:
                    break
                remaining -= 1
                if s.target is not None:
                    # A counted paragraph perform costs one extra step per
                    # pass: the call itself, same as a loop around a call.
                    self.budget.tick()
                    self.perform(s.target)
                else:
                    self.body(s.body)
        elif kind is n.NodeKind.PERFORM_UNTIL:
            while True:
                self.budget.tick()
                if self.cond(s.cond):
                    break
                self.body(s.body)
        elif kind is n.NodeKind.PERFORM_VARYING:
            self.assign(s.var, self.expr(s.from_))
            while True:
                self.budget.tick()
                if self.cond(s.until):
                    break
                self.body(s.body)
                self.assign(s.var, arith("+", self.read(s.var), self.expr(s.by)))
        elif kind is n.NodeKind.DISPLAY:
            line = "".join(to_str(self.expr(a)) for a in s.args)
            self.trace.display_lines.append(line)
        elif kind is n.NodeKind.ACCEPT:
            self.assign(s.target, pop_input(self.inputs))
        elif kind is n.NodeKind.CALL:
            values = tuple(self.read(name) for name in s.using)
            self.trace.call_events.append((s.program, values))
        elif kind is n.NodeKind.GOTO:
            if s.target not in self.para_index:
                raise ExecError(f"unknown paragraph {s.target}")
            raise _Goto(s.target)
        elif kind is n.NodeKind.STOP_RUN:
            raise _CStop()
        else:
            raise TypeError(f"unknown statement {s!r}")

    def evaluate(self, s: n.Evaluate) -> None:
        subject = self.expr(s.subject)
        for arm in s.arms:
            if compare("=", subject, arm.value.value):
                self.body(list(arm.body))
                return
        if s.other is not None:
            self.body(s.other)


def ref_interpret_cobol(ast: n.CobolAst, inputs) -> Trace:
    """Run the program against an input queue; never raises."""
    machine = _CobolMachine(ast, inputs)
    trace = machine.trace
    try:
        cursor = 0
        while cursor < len(machine.paragraphs):
            try:
                machine.body(machine.paragraphs[cursor].body)
            except _Goto as jump:
                cursor = machine.para_index[jump.target]
                continue
            cursor += 1
            if cursor < len(machine.paragraphs):
                # Falling through to the next paragraph costs one step, the
                # same as the explicit follow-on call a translation makes.
                machine.budget.tick()
        trace.outcome = HALTED
    except _CStop:
        trace.outcome = HALTED
    except StepLimitExceeded:
        trace.outcome = STEP_LIMIT
    except ExecError as exc:
        trace.outcome = runtime_error(exc.reason)
    return trace


class _JStop(Exception):
    pass


class _JBreak(Exception):
    pass


def _field_cell(field: j.JField) -> Cell:
    if field.jtype == "long":
        return num_cell(field.initial if isinstance(field.initial, int) else 0)
    raw = field.initial if isinstance(field.initial, str) else ""
    return str_cell(field.width, raw)


class _JavaMachine:
    def __init__(self, jast: j.JavaAst, inputs):
        self.fields = {f.name: _field_cell(f) for f in jast.fields}
        self.methods = {m.name: m for m in jast.methods}
        self.inputs = deque(inputs)
        self.budget = Budget()
        self.trace = Trace()
        self.depth = 0

    # -- values --------------------------------------------------------------

    def _cell(self, name: str) -> Cell:
        cell = self.fields.get(name)
        if cell is None:
            raise ExecError(f"undefined variable {name}")
        return cell

    def expr(self, e):
        if isinstance(e, (n.NumLit, n.StrLit)):
            return e.value
        if isinstance(e, n.VarRef):
            return self._cell(e.name).value
        if isinstance(e, n.BinOp):
            return arith(e.op, self.expr(e.left), self.expr(e.right))
        if isinstance(e, j.JCall):
            return self.builtin(e.name, [self.expr(a) for a in e.args])
        raise TypeError(f"unknown expression {e!r}")

    def builtin(self, name: str, args: list):
        arity = {"in": 0, "num": 1, "fit": 2, "str": 1}.get(name)
        if arity is None:
            raise ExecError(f"{name} is not a value function")
        if len(args) != arity:
            raise ExecError(f"wrong number of arguments to {name}")
        if name == "in":
            return pop_input(self.inputs)
        if name == "num":
            return to_num(args[0])
        if name == "fit":
            return fit(to_str(args[0]), to_num(args[1]))
        return to_str(args[0])

    def cond(self, c: n.Cond) -> bool:
        if isinstance(c, n.Comparison):
            return compare(c.op, self.expr(c.left), self.expr(c.right))
        if isinstance(c, n.NotCond):
            return not self.cond(c.inner)
        if isinstance(c, n.AndCond):
            return self.cond(c.left) and self.cond(c.right)
        return self.cond(c.left) or self.cond(c.right)

    # -- control -------------------------------------------------------------

    def call(self, method: j.JMethod) -> None:
        self.depth += 1
        if self.depth > MAX_CALL_DEPTH:
            raise ExecError("call depth exceeded")
        try:
            self.body(method.body)
        except _JBreak:
            raise ExecError("break outside loop or switch") from None
        finally:
            self.depth -= 1

    def body(self, stmts) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def run_assign(self, a: j.Assign) -> None:
        store(self._cell(a.target), self.expr(a.expr))

    def stmt(self, s) -> None:
        self.budget.tick()
        kind = s.kind
        if kind is j.JKind.ASSIGN:
            self.run_assign(s)
        elif kind is j.JKind.IF_ELSE:
            self.body(s.then_body if self.cond(s.cond) else s.else_body)
        elif kind is j.JKind.WHILE:
            while True:
                self.budget.tick()
                if not self.cond(s.cond):
                    break
                try:
                    self.body(s.body)
                except _JBreak:
                    break
        elif kind is j.JKind.DO_WHILE:
            while True:
                try:
                    self.body(s.body)
                except _JBreak:
                    break
                self.budget.tick()
                if not self.cond(s.cond):
                    break
        elif kind is j.JKind.FOR:
            if s.init is not None:
                self.run_assign(s.init)
            while True:
                self.budget.tick()
                if s.cond is not None and not self.cond(s.cond):
                    break
                try:
                    self.body(s.body)
                except _JBreak:
                    break
                if s.update is not None:
                    self.run_assign(s.update)
        elif kind is j.JKind.SWITCH:
            self.switch(s)
        elif kind is j.JKind.METHOD_CALL:
            self.method_call(s)
        elif kind is j.JKind.PRINT:
            line = "".join(to_str(self.expr(a)) for a in s.args)
            self.trace.display_lines.append(line)
        elif kind is j.JKind.RETURN:
            raise _JStop()
        elif kind is j.JKind.BREAK:
            raise _JBreak()
        else:
            raise TypeError(f"unknown statement {s!r}")

    def switch(self, s: j.Switch) -> None:
        subject = self.expr(s.subject)
        body = list(s.default) if s.default is not None else []
        for case in s.cases:
            if compare("=", subject, case.value.value):
                body = list(case.body)
                break
        try:
            self.body(body)
        except _JBreak:
            pass

    def method_call(self, s: j.MethodCall) -> None:
        args = [self.expr(a) for a in s.args]
        if s.external_name is not None:
            self.trace.call_events.append((s.external_name, tuple(args)))
        elif s.name in self.methods:
            if args:
                raise ExecError(f"wrong number of arguments to {s.name}")
            self.call(self.methods[s.name])
        elif s.name in j.BUILTINS:
            self.builtin(s.name, args)
        else:
            raise ExecError(f"unknown method {s.name}")


def ref_interpret_java(jast: j.JavaAst, inputs) -> Trace:
    """Run the class's run() against an input queue; never raises."""
    machine = _JavaMachine(jast, inputs)
    trace = machine.trace
    try:
        entry = machine.methods.get("run")
        if entry is None:
            raise ExecError("no run method")
        machine.call(entry)
        trace.outcome = HALTED
    except _JStop:
        trace.outcome = HALTED
    except StepLimitExceeded:
        trace.outcome = STEP_LIMIT
    except ExecError as exc:
        trace.outcome = runtime_error(exc.reason)
    return trace


# --- the comparison ----------------------------------------------------------


def assert_same_runs(ast: n.CobolAst, jasts: list[j.JavaAst], vectors) -> None:
    """One compiled program per side, run on every vector, against a fresh
    reference walk of each vector."""
    cobol = compile_cobol(ast)
    for vector in vectors:
        assert interpret_cobol(cobol, vector) == ref_interpret_cobol(ast, vector)
    for jast in jasts:
        java = compile_java(jast)
        for vector in vectors:
            assert interpret_java(java, vector) == ref_interpret_java(jast, vector)


@pytest.mark.parametrize("seed", range(200))
def test_random_programs(seed):
    # About 4% of these programs run to the step limit, where one walk
    # costs about 0.3 s, so all five vectors on all five translations would
    # take minutes. Each program runs one battery vector instead, with its
    # rules translation and one of the four forced ones, both rotating with
    # the seed; the tests below run every translation on every vector.
    vector = input_battery(f"random:{seed}")[seed % INPUT_VECTORS]
    for allow_goto in (False, True):
        ast = random_program(random.Random(seed), allow_goto=allow_goto)
        rules, *forced = translations(ast)
        assert_same_runs(ast, [rules, forced[seed % len(forced)]], [vector])


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    ast = sample_program(random.Random(seed))
    assert_same_runs(ast, translations(ast), input_battery(f"sample:{seed}"))


def test_acceptance_corpus(tmp_path):
    acceptance_corpus(tmp_path, count=40, seed=3)
    manifest = curate(ingest(tmp_path), tmp_path)
    eligible = manifest.eligible()
    assert len(eligible) == 40
    for record in eligible:
        ast = load_ast(tmp_path, record)
        assert_same_runs(ast, translations(ast), input_battery(record.id))


def test_forever_loop_reaches_the_step_limit_at_the_same_point():
    # The loop the differential benchmark opens its step-limit files with:
    # the body keeps the counter at one digit, so the exit test never holds.
    ast = random_program(random.Random(11))
    var = ast.program.data_items[0].name
    body = [n.Move(1, n.NumLit(7), var)]
    forever = n.PerformUntil(1, n.Comparison(">", n.VarRef(var), n.NumLit(9_999_999)), body)
    ast.program.paragraphs[0].body.insert(0, forever)
    jasts = translations(ast)
    vectors = input_battery("forever")[:2]
    assert_same_runs(ast, jasts, vectors)
    assert interpret_cobol(ast, vectors[0]).outcome == STEP_LIMIT
    assert all(interpret_java(jast, vectors[0]).outcome == STEP_LIMIT for jast in jasts)


# --- one compiled program, many runs -----------------------------------------

SEQUENCE_SOURCE = """IDENTIFICATION DIVISION. PROGRAM-ID. SEQ.
DATA DIVISION. WORKING-STORAGE SECTION.
01 K PIC 9(4).
01 N PIC 9(4) VALUE 0.
01 S PIC X(4) VALUE "AB".
PROCEDURE DIVISION.
MAIN.
    ACCEPT K.
    ADD 1 TO N.
    DISPLAY N S.
    MOVE "ZZ" TO S.
    CALL "LOG" USING N S.
    EVALUATE K
        WHEN 1 DISPLAY "HALT" STOP RUN
        WHEN 2 PERFORM UNTIL N > 9999 MOVE 5 TO N END-PERFORM
        WHEN 3 ACCEPT K ACCEPT K
        WHEN 4 PERFORM DEEP
    END-EVALUATE.
    STOP RUN.
DEEP.
    ADD 1 TO N.
    DISPLAY N.
    PERFORM DEEP.
"""

# Each run leaves something behind that would change the next run if it
# leaked: cell values, unread inputs, a spent budget, a deep call stack.
SEQUENCE_VECTORS = {
    "halts": ["1", "7", "8"],
    "step_limit": ["2"],
    "input_exhausted": ["3", "5"],
    "call_depth": ["4"],
}


def _orders():
    names = list(SEQUENCE_VECTORS)
    return [names, names[::-1], names[1:] + names[:1], names[2:] + names[:2],
            ["call_depth", "halts", "input_exhausted", "step_limit", "halts"]]


def test_sequence_program_reaches_every_outcome():
    ast = parse_source(SourceFile("seq", SEQUENCE_SOURCE))
    java = translate_rules(ast).jast
    for run in (ref_interpret_cobol, ref_interpret_java):
        subject = ast if run is ref_interpret_cobol else java
        outcomes = {name: run(subject, vector).outcome for name, vector in SEQUENCE_VECTORS.items()}
        assert outcomes == {
            "halts": HALTED,
            "step_limit": STEP_LIMIT,
            "input_exhausted": runtime_error("input exhausted"),
            "call_depth": runtime_error("call depth exceeded"),
        }


@pytest.mark.parametrize("side", ["cobol", "java"])
def test_one_compiled_program_runs_like_fresh_ones(side):
    ast = parse_source(SourceFile("seq", SEQUENCE_SOURCE))
    subject = ast if side == "cobol" else translate_rules(ast).jast
    compile_, interpret = ((compile_cobol, interpret_cobol) if side == "cobol"
                           else (compile_java, interpret_java))
    fresh = {name: interpret(compile_(subject), vector)
             for name, vector in SEQUENCE_VECTORS.items()}
    program = compile_(subject)
    for order in _orders():
        for name in order:
            assert interpret(program, SEQUENCE_VECTORS[name]) == fresh[name], (order, name)


# --- errors stay where the walker raised them --------------------------------


def _cobol_with(stmts: list) -> n.CobolAst:
    """MAIN: DISPLAY "A", then `stmts` inside IF 1 = 2 (never taken), then
    DISPLAY "B"; a second paragraph SIDE exists as a valid target."""
    ast = parse_source(SourceFile("lazy", (
        "IDENTIFICATION DIVISION. PROGRAM-ID. LAZY. DATA DIVISION. WORKING-STORAGE SECTION."
        ' 01 A PIC 9. PROCEDURE DIVISION. MAIN. DISPLAY "A". IF 1 = 2 DISPLAY "X" END-IF.'
        ' DISPLAY "B". STOP RUN. SIDE. DISPLAY "S".'
    )))
    ast.paragraphs[0].body[1].then_body[:] = stmts
    return ast


COBOL_FAULTS = {
    "undefined_target": n.Move(1, n.NumLit(1), "NOPE"),
    "undefined_source": n.Move(1, n.VarRef("NOPE"), "A"),
    "undefined_display": n.Display(1, [n.VarRef("NOPE")]),
    "undefined_call_arg": n.Call(1, "SUB", ["NOPE"]),
    "unknown_goto": n.GoTo(1, "NOWHERE"),
    "literal_not_numeric": n.Move(1, n.StrLit("X"), "A"),
    "undefined_before_literal": n.Move(1, n.StrLit("X"), "NOPE"),
    "source_fails_before_target": n.Move(1, n.VarRef("NOPE1"), "NOPE2"),
    "arith_operand_order": n.Arith(1, "ADD", n.VarRef("NOPE1"), n.VarRef("NOPE2"), "NOPE3"),
}


@pytest.mark.parametrize("fault", list(COBOL_FAULTS))
def test_cobol_fault_in_an_untaken_branch_is_no_error(fault):
    ast = _cobol_with([COBOL_FAULTS[fault]])
    trace = interpret_cobol(ast, [])
    assert trace == Trace(["A", "B"], [], HALTED)
    assert trace == ref_interpret_cobol(ast, [])


@pytest.mark.parametrize("fault", list(COBOL_FAULTS))
def test_cobol_fault_fails_as_the_walker_failed(fault):
    ast = _cobol_with([COBOL_FAULTS[fault]])
    ast.paragraphs[0].body[1].cond = n.Comparison("=", n.NumLit(1), n.NumLit(1))
    trace = interpret_cobol(ast, [])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert trace == ref_interpret_cobol(ast, [])


def _java_with(stmts: list, taken: bool) -> j.JavaAst:
    """run(): print "A", then `stmts` in an if (taken or not), then print "B";
    `side()` is a method of the class that takes no arguments."""
    cond = n.Comparison("=", n.NumLit(1), n.NumLit(1 if taken else 2))
    run = j.JMethod("run", [
        j.Print([n.StrLit("A")]),
        j.IfElse(cond, list(stmts), []),
        j.Print([n.StrLit("B")]),
    ])
    side = j.JMethod("side", [j.Print([n.StrLit("S")])])
    return j.JavaAst("T", [j.JField("a", "long", 0)], [run, side])


JAVA_FAULTS = {
    "undefined_target": j.Assign("nope", n.NumLit(1)),
    "undefined_value": j.Assign("a", n.VarRef("nope")),
    "unknown_method": j.MethodCall("nosuch", [n.NumLit(1)]),
    "unknown_value_function": j.Assign("a", j.JCall("nosuch", (n.NumLit(1),))),
    "builtin_wrong_arity": j.Assign("a", j.JCall("num", ())),
    "builtin_statement_wrong_arity": j.MethodCall("fit", [n.NumLit(1)]),
    "method_wrong_arity": j.MethodCall("side", [n.NumLit(1)]),
    "break_outside_loop": j.Break(),
    "literal_not_numeric": j.Assign("a", n.StrLit("X")),
    "target_fails_before_value": j.Assign("nope1", n.VarRef("nope2")),
    "arguments_before_unknown_method": j.MethodCall("nosuch", [n.VarRef("nope")]),
    "arguments_before_arity": j.Assign("a", j.JCall("num", (n.VarRef("nope"), n.NumLit(1)))),
    "arguments_before_call_depth": j.MethodCall("side", [n.VarRef("nope")]),
}


@pytest.mark.parametrize("fault", list(JAVA_FAULTS))
def test_java_fault_in_an_untaken_branch_is_no_error(fault):
    jast = _java_with([JAVA_FAULTS[fault]], taken=False)
    trace = interpret_java(jast, [])
    assert trace == Trace(["A", "B"], [], HALTED)
    assert trace == ref_interpret_java(jast, [])


@pytest.mark.parametrize("fault", list(JAVA_FAULTS))
def test_java_fault_fails_as_the_walker_failed(fault):
    jast = _java_with([JAVA_FAULTS[fault]], taken=True)
    trace = interpret_java(jast, [])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert trace == ref_interpret_java(jast, [])


# --- break and update in loop bodies -----------------------------------------


def _i(op: str, value: int) -> n.Comparison:
    return n.Comparison(op, n.VarRef("i"), n.NumLit(value))


def _bump(by: int) -> j.Assign:
    return j.Assign("i", n.BinOp("+", n.VarRef("i"), n.NumLit(by)))


# name -> (loop, the value of the field i after it). Each runs past
# CYCLE_WARMUP passes, so the compiled loop is watched when it ends.
JAVA_LOOPS = {
    # The update must not run after the break.
    "for_body_breaks": (j.For(j.Assign("i", n.NumLit(0)), _i("<", 100), _bump(1), [
        j.Print([n.VarRef("i")]),
        j.IfElse(_i("=", 40), [j.Break()], []),
    ]), "40"),
    # The loop starts from the field's initial value.
    "for_update_without_init": (j.For(None, _i("<", 80), _bump(2), [
        j.Print([n.VarRef("i")]),
    ]), "81"),
    "do_while_body_breaks": (j.DoWhile([
        _bump(1),
        j.IfElse(_i(">", 40), [j.Break()], []),
        j.Print([n.VarRef("i")]),
    ], _i("<", 100)), "41"),
}


@pytest.mark.parametrize("name", list(JAVA_LOOPS))
def test_java_loop_bodies_break_and_update_as_the_walker_did(name):
    loop, after = JAVA_LOOPS[name]
    run = j.JMethod("run", [loop, j.Print([n.VarRef("i")])])
    jast = j.JavaAst("T", [j.JField("i", "long", 1)], [run])
    java = compile_java(jast)
    trace = java.run([])
    assert trace == ref_interpret_java(jast, [])
    assert trace.outcome == HALTED
    assert len(trace.display_lines) > 32
    assert trace.display_lines[-1] == after
    # Both sides take the same number of steps.
    machine = _JavaMachine(jast, [])
    machine.call(machine.methods["run"])
    assert java.budget.left == machine.budget.left


# --- a compiled program is freed by reference counting -----------------------


def test_compiled_programs_leave_no_reference_cycles():
    # The sequence program ends every way a run can end; GO TO programs
    # add jumps that unwind PERFORM frames. Statement lists compile on their
    # first entry, so each program is also compiled and never run, and runs
    # such as the sequence program's `halts` leave lists uncompiled (DEEP
    # and three of the four WHEN arms).
    seq = parse_source(SourceFile("seq", SEQUENCE_SOURCE))
    runs = [(seq, translate_rules(seq).jast, v) for v in SEQUENCE_VECTORS.values()]
    for seed in range(8):
        ast = random_program(random.Random(seed), allow_goto=True)
        runs.append((ast, translate_rules(ast).jast, input_battery(f"cycles:{seed}")[0]))
    gc.collect()
    gc.disable()
    try:
        for ast, jast, vector in runs:
            compile_cobol(ast)
            compile_java(jast)
            interpret_cobol(compile_cobol(ast), vector)
            interpret_java(compile_java(jast), vector)
        assert gc.collect() == 0
    finally:
        gc.enable()

"""Loops whose state repeats are fast-forwarded to the step limit.

`RefCobolProgram` and `RefJavaProgram` below compile every loop with the
closures as they were before cycle detection (the Java ones less the frame
argument that Java closures no longer take); every other
statement compiles as in the interpreters under test. Every run must give
an equal `Trace`: the same display lines, the same call events, and the
same outcome kind and reason. The step limit is lowered to 10,000 steps
and to 9,973, so that it falls at many points inside a cycle. A spy on
`values.fast_forward`, which both interpreters call, checks that a
repeating loop is fast-forwarded once per run and a loop that exits, or
whose state never repeats, never is.
"""

import random

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program
from relicforge.evaluate import input_battery, java_interp, values
from relicforge.evaluate.cobol_interp import CobolProgram
from relicforge.evaluate.java_interp import JavaProgram, _Break
from relicforge.evaluate.values import OutcomeKind, StepLimitExceeded
from relicforge.transpile import jnodes as j
from relicforge.transpile import parse_java

from tests.test_one_cfg_builder import translations

# --- the references: every loop compiled as it was ----------------------------


class RefCobolProgram(CobolProgram):
    def _stmt(self, s: n.Stmt):
        kind = s.kind
        budget = self.budget
        if kind is n.NodeKind.PERFORM_UNTIL:
            test, body = self._cond(s.cond), self._block(s.body)

            def until():
                while True:
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if test():
                        break
                    body()

            return until
        if kind is n.NodeKind.PERFORM_VARYING:
            start = self._assign_expr(s.var, s.from_)
            step = self._assign(s.var, values.binop("+", self._expr(n.VarRef(s.var)),
                                                    self._expr(s.by)))
            test, body = self._cond(s.until), self._block(s.body)

            def varying():
                start()
                while True:
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if test():
                        break
                    body()
                    step()

            return varying
        return super()._stmt(s)


class RefJavaProgram(JavaProgram):
    def _stmt(self, s):
        kind = s.kind
        budget = self.budget
        if kind is j.JKind.WHILE:
            test, body = self._cond(s.cond), self._block(s.body)

            def while_():
                while True:
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
        if kind is j.JKind.DO_WHILE:
            test, body = self._cond(s.cond), self._block(s.body)

            def do_while():
                while True:
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
        if kind is j.JKind.FOR:
            init = self._assign(s.init) if s.init is not None else values.nothing
            test = self._cond(s.cond) if s.cond is not None else java_interp._always
            update = self._assign(s.update) if s.update is not None else values.nothing
            body = self._block(s.body)

            def for_():
                init()
                while True:
                    budget.left -= 1
                    if budget.left < 0:
                        raise StepLimitExceeded()
                    if not test():
                        break
                    try:
                        body()
                    except _Break:
                        break
                    update()

            return for_
        return super()._stmt(s)


# --- fixtures -----------------------------------------------------------------


@pytest.fixture(params=[10_000, 9_973])
def step_limit(request, monkeypatch):
    """Both interpreters stop at a lowered step limit; 9,973 is prime, so
    the limit falls inside a cycle of any length that does not divide it."""
    monkeypatch.setattr(values, "MAX_STEPS", request.param)
    return request.param


class FastForwards(dict):
    """Calls of `values.fast_forward` per side. Both interpreters call that
    one helper, so `run` credits the calls made while one program runs to
    that program's side: only one side runs between its two readings."""

    def __init__(self):
        super().__init__(cobol=0, java=0)
        self.calls = 0

    def run(self, program, vector):
        before = self.calls
        trace = program.run(vector)
        self["cobol" if isinstance(program, CobolProgram) else "java"] += self.calls - before
        return trace


@pytest.fixture
def fast_forwards(monkeypatch):
    """Counts the calls of `values.fast_forward`, which still does its
    work, and checks that it leaves fewer steps than one cycle and none
    overdrawn."""
    counts = FastForwards()
    helper = values.fast_forward

    def spy(budget, trace, left, lines, calls):
        counts.calls += 1
        per = left - budget.left
        helper(budget, trace, left, lines, calls)
        assert 0 <= budget.left < per

    monkeypatch.setattr(values, "fast_forward", spy)
    return counts


def _run(program, vector):
    return program.run(vector)


def assert_same_traces(ast: n.CobolAst, jasts: list[j.JavaAst], vectors, run=_run) -> list:
    """Runs both sides and their references on every vector through `run`;
    returns the COBOL traces."""
    cobol, ref_cobol = CobolProgram(ast), RefCobolProgram(ast)
    javas = [(JavaProgram(jast), RefJavaProgram(jast)) for jast in jasts]
    traces = []
    for vector in vectors:
        trace = run(cobol, vector)
        assert trace == run(ref_cobol, vector), vector
        traces.append(trace)
        for java, ref_java in javas:
            assert run(java, vector) == run(ref_java, vector), vector
    return traces


# --- counted: one fast-forward per repeating run --------------------------------


def loop_forever(ast: n.CobolAst, value: int) -> n.CobolAst:
    """Open the first paragraph with a loop that keeps its counter at one
    digit, so its exit test never holds: the benchmark's looping files."""
    var = ast.program.data_items[0].name
    body = [n.Move(1, n.NumLit(value), var)]
    forever = n.PerformUntil(1, n.Comparison(">", n.VarRef(var), n.NumLit(9_999_999)), body)
    ast.program.paragraphs[0].body.insert(0, forever)
    return ast


@pytest.mark.parametrize("seed", range(10))
def test_a_looping_file_fast_forwards_once_per_run(seed, fast_forwards):
    ast = loop_forever(random_program(random.Random(seed)), seed % 10)
    vectors = input_battery(f"looper:{seed}")
    cobol = CobolProgram(ast)
    for vector in vectors:
        before = dict(fast_forwards)
        assert fast_forwards.run(cobol, vector).outcome.kind is OutcomeKind.STEP_LIMIT
        assert fast_forwards == {"cobol": before["cobol"] + 1, "java": before["java"]}
    for jast in translations(ast):
        java = JavaProgram(jast)
        for vector in vectors:
            before = dict(fast_forwards)
            assert fast_forwards.run(java, vector).outcome.kind is OutcomeKind.STEP_LIMIT
            assert fast_forwards == {"cobol": before["cobol"], "java": before["java"] + 1}


# --- equal traces on generated programs -----------------------------------------


@pytest.mark.usefixtures("step_limit")
@pytest.mark.parametrize("seed", range(300))
def test_random_programs(seed):
    # The rules translation and one of the four forced ones, rotating with
    # the seed, on every vector of the battery.
    for allow_goto in (False, True):
        ast = random_program(random.Random(seed), allow_goto=allow_goto)
        rules, *forced = translations(ast)
        assert_same_traces(ast, [rules, forced[seed % len(forced)]],
                           input_battery(f"random:{seed}:{allow_goto}"))


# --- hand-written loops ---------------------------------------------------------

HEADER = (
    "IDENTIFICATION DIVISION.\nPROGRAM-ID. LOOPS.\nDATA DIVISION.\n"
    "WORKING-STORAGE SECTION.\n01 X PIC 9(8) VALUE 0.\n01 Y PIC 9(4) VALUE 0.\n"
    "01 Z PIC 9(4) VALUE 0.\nPROCEDURE DIVISION.\nMAIN.\n"
)

# name -> (procedure, how every run ends, whether its loop repeats)
PROGRAMS = {
    "display_and_call": ("""
    PERFORM UNTIL X > 9999999
        ADD 1 TO Y
        IF Y > 2
            MOVE 0 TO Y
        END-IF
        DISPLAY "Y=" Y
        CALL "AUDIT" USING Y
    END-PERFORM.
    STOP RUN.
""", OutcomeKind.STEP_LIMIT, True),
    "transient": ("""
    PERFORM UNTIL X > 9999999
        IF Z < 100
            ADD 1 TO Z
            DISPLAY "WARM " Z
        ELSE
            ADD 1 TO Y
            IF Y > 4
                MOVE 0 TO Y
            END-IF
            DISPLAY "Y " Y
        END-IF
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, True),
    "toggle": ("""
    PERFORM UNTIL X > 9999999
        IF Y = 0
            MOVE 1 TO Y
            DISPLAY "ON"
        ELSE
            MOVE 0 TO Y
            DISPLAY "OFF"
        END-IF
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, True),
    "varying": ("""
    PERFORM VARYING Y FROM 1 BY 0 UNTIL Y > 5
        ADD 1 TO Z
        IF Z > 6
            MOVE 0 TO Z
            CALL "LEDGER" USING Y Z
        END-IF
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, True),
    "nested": ("""
    PERFORM UNTIL X > 9999999
        MOVE 0 TO Y
        PERFORM VARYING Z FROM 1 BY 1 UNTIL Z > 40
            ADD 1 TO Y
        END-PERFORM
        DISPLAY "OUTER " Y
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, True),
    "nested_inner_repeats": ("""
    PERFORM VARYING Z FROM 1 BY 1 UNTIL Z > 3
        DISPLAY "Z " Z
        PERFORM UNTIL X > 9999999
            ADD 1 TO Y
            IF Y > 3
                MOVE 0 TO Y
                DISPLAY "INNER"
            END-IF
        END-PERFORM
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, True),
    "performs_paragraph": ("""
    PERFORM UNTIL X > 9999999
        PERFORM BUMP
    END-PERFORM.
    STOP RUN.
BUMP.
    ADD 1 TO Y.
    IF Y > 6
        MOVE 0 TO Y
        DISPLAY "WRAP"
        CALL "BILLING" USING Y
    END-IF.
""", OutcomeKind.STEP_LIMIT, True),
    # The cells repeat every 10 passes but one input is gone each time, so
    # the loop ends on `input exhausted` after the battery's 8 values.
    "accept": ("""
    PERFORM UNTIL X > 9999999
        ADD 1 TO Y
        IF Y > 9
            ACCEPT Z
            DISPLAY "GOT " Z
            MOVE 0 TO Z
            MOVE 0 TO Y
        END-IF
    END-PERFORM.
""", OutcomeKind.RUNTIME_ERROR, False),
    "growing": ("""
    PERFORM UNTIL X > 9999999
        ADD 1 TO Y
        DISPLAY Y
    END-PERFORM.
""", OutcomeKind.STEP_LIMIT, False),
    "exits": ("""
    PERFORM VARYING Y FROM 1 BY 1 UNTIL Y > 500
        ADD 2 TO Z
        IF Z > 6
            MOVE 0 TO Z
            DISPLAY "TICK " Y
        END-IF
    END-PERFORM.
    DISPLAY "DONE".
    STOP RUN.
""", OutcomeKind.HALTED, False),
}


def cobol_ast(procedure: str) -> n.CobolAst:
    return parse_source(SourceFile("loops", HEADER + procedure.strip("\n") + "\n"))


@pytest.mark.usefixtures("step_limit")
@pytest.mark.parametrize("name", PROGRAMS)
def test_hand_written_loops(name, fast_forwards):
    procedure, ends, repeats = PROGRAMS[name]
    ast = cobol_ast(procedure)
    jasts = translations(ast)
    vectors = input_battery(f"loops:{name}")
    for trace in assert_same_traces(ast, jasts, vectors, fast_forwards.run):
        assert trace.outcome.kind is ends
        if ends is OutcomeKind.RUNTIME_ERROR:
            assert trace.outcome.reason == "input exhausted"
            assert len(trace.display_lines) == len(vectors[0])
    # A repeating loop is fast-forwarded once per run, on either side.
    assert fast_forwards == {"cobol": len(vectors) if repeats else 0,
                             "java": len(vectors) * len(jasts) if repeats else 0}


JAVA_PROGRAMS = {
    # Loops inside a method that run() calls. x repeats on every pass; only
    # the loop's own field moves, so the loop exits.
    "for_over_field": ("""
public class Fields {
    private long x = 0;
    private long i = 0;
    public void run() {
        p();
        System.out.println(str(x));
        return;
    }
    private void p() {
        for (i = 0; i < 200; i = i + 1) {
            x = 1;
        }
        System.out.println(str(i));
    }
}
""", OutcomeKind.HALTED, False),
    # i and k cycle; the field the loop tests never changes.
    "while_over_fields": ("""
public class Fields {
    private long x = 0;
    private long i = 3;
    private long k = 0;
    public void run() {
        p();
        return;
    }
    private void p() {
        while (x < 1) {
            i = i + 1;
            if (i > 5) {
                i = 0;
                k = k + 1;
                System.out.println(str(k));
                if (k > 2) {
                    k = 0;
                }
            }
        }
    }
}
""", OutcomeKind.STEP_LIMIT, True),
    "do_while_over_field": ("""
public class Fields {
    private long x = 0;
    private long i = 7;
    public void run() {
        p();
        return;
    }
    private void p() {
        do {
            i = i - 1;
            if (i < 0) {
                i = 7;
                prog_AUDIT(i, x);
            }
        } while (x < 1);
    }
}
""", OutcomeKind.STEP_LIMIT, True),
}


@pytest.mark.usefixtures("step_limit")
@pytest.mark.parametrize("name", JAVA_PROGRAMS)
def test_hand_written_java_loops(name, fast_forwards):
    source, ends, repeats = JAVA_PROGRAMS[name]
    jast = parse_java(source)
    java, ref_java = JavaProgram(jast), RefJavaProgram(jast)
    trace = fast_forwards.run(java, [])
    assert trace == fast_forwards.run(ref_java, [])
    assert trace.outcome.kind is ends
    assert fast_forwards == {"cobol": 0, "java": int(repeats)}

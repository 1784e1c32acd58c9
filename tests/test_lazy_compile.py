"""Each statement list compiles on its first entry, not when the program is
compiled.

`values.Program._block` builds every paragraph, method, IF/ELSE arm,
EVALUATE/switch arm and loop body of both interpreters. A list that no run
enters is never handed to `_stmt`, on either side; a list first entered
from deep inside a run compiles at the nesting level it was created at, so
call weights, traces and step counts are those of a program compiled up
front.
"""

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.evaluate import compile_cobol, compile_java, score_file
from relicforge.evaluate.cobol_interp import CobolProgram
from relicforge.evaluate.java_interp import JavaProgram
from relicforge.evaluate.values import HALTED, Trace
from relicforge.transpile import jnodes as j
from relicforge.transpile import translate_rules

from tests.test_call_depth import from_deep_stack

# Every vector of the battery takes the IF's THEN arm and the EVALUATE's
# first WHEN, and halts in MAIN before NEVER is reached.
UNREACHED_SOURCE = """IDENTIFICATION DIVISION. PROGRAM-ID. UNREACHED.
DATA DIVISION. WORKING-STORAGE SECTION.
01 K PIC 9(2).
01 X PIC 9 VALUE 1.
PROCEDURE DIVISION.
MAIN.
    ACCEPT K.
    IF X = 1 DISPLAY "THEN" ELSE DISPLAY "ELSE-ARM" END-IF.
    EVALUATE X
        WHEN 1 DISPLAY "ONE"
        WHEN 2 DISPLAY "WHEN-ARM"
        WHEN OTHER DISPLAY "OTHER-ARM"
    END-EVALUATE.
    STOP RUN.
NEVER.
    DISPLAY "PARAGRAPH".
"""

UNREACHED = {"ELSE-ARM", "WHEN-ARM", "OTHER-ARM", "PARAGRAPH"}


def _displayed_literals(stmts) -> set[str]:
    return {arg.value for s in stmts if isinstance(s, (n.Display, j.Print))
            for arg in s.args if isinstance(arg, n.StrLit)}


def test_a_list_no_vector_enters_is_never_compiled(monkeypatch):
    compiled = []
    for cls in (CobolProgram, JavaProgram):
        def spy(self, s, _stmt=cls._stmt):
            compiled.append(s)
            return _stmt(self, s)

        monkeypatch.setattr(cls, "_stmt", spy)
    ast = parse_source(SourceFile("unreached", UNREACHED_SOURCE))
    jast = translate_rules(ast).jast
    assert score_file(ast, jast) == {"correct": True, "reason": ""}
    cobol = [s for s in compiled if isinstance(s, n.Stmt.__args__)]
    java = [s for s in compiled if not isinstance(s, n.Stmt.__args__)]
    assert cobol and java
    assert _displayed_literals(cobol) == {"THEN", "ONE"}
    assert _displayed_literals(java) == {"THEN", "ONE"}
    assert not _displayed_literals(compiled) & UNREACHED


def test_compiling_runs_no_statement_compiler(monkeypatch):
    calls = []
    for cls in (CobolProgram, JavaProgram):
        monkeypatch.setattr(cls, "_stmt", lambda self, s: calls.append(s))
    ast = parse_source(SourceFile("unreached", UNREACHED_SOURCE))
    compile_cobol(ast)
    compile_java(translate_rules(ast).jast)
    assert calls == []


def chain_source(paragraphs: int, parens: int) -> str:
    """P1 performs P2, ..., and the last paragraph adds 1 to X through an
    expression `parens` parentheses deep, then displays it; P1 then halts."""
    expr = "X + 1"
    for _ in range(parens):
        expr = f"({expr}) + 0"
    body = [f"P{k}. PERFORM P{k + 1}." for k in range(2, paragraphs)]
    return (
        "IDENTIFICATION DIVISION. PROGRAM-ID. CHAIN. DATA DIVISION.\n"
        "WORKING-STORAGE SECTION. 01 X PIC 9(4) VALUE 0.\n"
        "PROCEDURE DIVISION.\n"
        "P1. PERFORM P2. STOP RUN.\n"
        + "\n".join(body)
        + f"\nP{paragraphs}. COMPUTE X = {expr}. DISPLAY X.\n"
    )


def test_first_entry_at_the_call_bound_from_a_deep_stack():
    """The last paragraph is first entered 98 calls deep, and compiles an
    expression 95 levels deep there; both sides still display 1 and halt,
    with 200 more Python frames under the run."""
    ast = parse_source(SourceFile("chain", chain_source(99, 95)))
    jast = translate_rules(ast).jast
    want = Trace(["1"], [], HALTED)
    for program in (compile_cobol(ast), compile_java(jast)):
        assert from_deep_stack(200, lambda: program.run([])) == want
    assert from_deep_stack(200, lambda: score_file(ast, jast)) == {
        "correct": True, "reason": ""}


@pytest.mark.parametrize("taken", [False, True])
def test_a_malformed_list_fails_when_first_entered(taken):
    ast = parse_source(SourceFile("unreached", UNREACHED_SOURCE))
    ast.paragraphs[0].body[1].then_body.append(object())
    ast.paragraphs[0].body[1].cond = n.Comparison("=", n.VarRef("X"), n.NumLit(1 if taken else 2))
    program = compile_cobol(ast)
    if not taken:
        assert program.run(["1"]).display_lines == ["ELSE-ARM", "ONE"]
        return
    with pytest.raises(TypeError, match="unknown statement"):
        program.run(["1"])
    # The failed compile leaves the program as it was: the next run fails
    # the same way, and the statement lists open around it are closed.
    assert program._level == 0
    with pytest.raises(TypeError, match="unknown statement"):
        program.run(["1"])

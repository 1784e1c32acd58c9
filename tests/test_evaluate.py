"""Value semantics, both interpreters, trace scoring, and corpus evaluation."""

import copy
import json
import random

import pytest

from relicforge.analysis import measure
from relicforge.cobol import SourceFile, parse_source, pretty_print
from relicforge.cobol import nodes as n
from relicforge.cobol.tokens import SourceFormat
from relicforge.corpus import (
    MANIFEST_NAME,
    CorpusConfig,
    CorpusManifest,
    Split,
    Status,
    curate,
    ingest,
    load_ast,
)
from relicforge.corpus import split as split_corpus
from relicforge.datagen import acceptance_corpus, random_program, sample_program
from relicforge.errors import EvalError, FormatError
from relicforge.evaluate import (
    INPUT_LENGTH,
    INPUT_VECTORS,
    MAX_STEPS,
    EvalSummary,
    OutcomeKind,
    Trace,
    build_training_set,
    drop_pct,
    has_goto,
    input_battery,
    interpret_cobol,
    interpret_java,
    label_agreement,
    load_oracle_labels,
    run_evaluation,
    score_file,
    traces_match,
    write_eval_json,
)
from relicforge.evaluate import scoring
from relicforge.evaluate.values import (
    COMPLEMENT,
    HALTED,
    I64_MAX,
    I64_MIN,
    Budget,
    ExecError,
    StepLimitExceeded,
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
    wrap64,
)
from relicforge.transpile import (
    Action,
    ActionKind,
    emit_java,
    translate_rules,
    translate_with_fallbacks,
)
from relicforge.transpile import jnodes as j

from tests.conftest import write_fixture_corpus
from tests.test_deep_nesting import JAVA_CHAIN_OPERATORS, java_chain


def program(body, data="", pid="T-PROG", extra_paras=""):
    src = f"IDENTIFICATION DIVISION. PROGRAM-ID. {pid}. "
    if data:
        src += "DATA DIVISION. WORKING-STORAGE SECTION. " + data
    src += "PROCEDURE DIVISION. MAIN. " + body
    if extra_paras:
        src += " " + extra_paras
    return parse_source(SourceFile(pid.lower(), src))


def run_c(body, data="", inputs=(), extra_paras=""):
    return interpret_cobol(program(body, data=data, extra_paras=extra_paras), list(inputs))


# -- value universe -----------------------------------------------------------


def test_wrap64_edges():
    assert wrap64(0) == 0
    assert wrap64(I64_MAX) == I64_MAX
    assert wrap64(I64_MAX + 1) == I64_MIN
    assert wrap64(I64_MIN - 1) == I64_MAX
    assert wrap64(2**64) == 0


def test_to_num_accepts_decimal_strings():
    assert to_num(5) == 5
    assert to_num("42") == 42
    assert to_num(" 42 ") == 42
    assert to_num("-7") == -7
    assert to_num("0007") == 7


@pytest.mark.parametrize("bad", ["", "  ", "AB", "4.5", "+4", "4 2", "-"])
def test_to_num_rejects_garbage(bad):
    with pytest.raises(ExecError) as err:
        to_num(bad)
    assert "not numeric" in err.value.reason


def test_to_num_rejects_nonascii_digits():
    # Arabic-Indic four is a "digit" to str.isdigit but not to this format.
    with pytest.raises(ExecError):
        to_num("٤")


def test_to_num_overflow():
    with pytest.raises(ExecError) as err:
        to_num("9" * 20)
    assert "overflow" in err.value.reason


def test_fit_truncates_and_pads():
    assert fit("ABCDE", 3) == "ABC"
    assert fit("A", 3) == "A  "
    assert fit("", 0) == ""
    assert to_str(-3) == "-3"
    assert to_str("X") == "X"


def test_compare_pads_shorter_string():
    assert compare("=", "AB", "AB ")
    assert compare("=", "AB  ", "AB")
    assert not compare("<>", "AB", "AB ")
    assert compare("<", "AB", "AC")
    assert compare(">=", 5, 5)
    assert compare("<>", 4, 5)


def test_compare_mixed_types_is_an_error():
    with pytest.raises(ExecError) as err:
        compare("=", 1, "1")
    assert "numeric and string" in err.value.reason


def test_complement_negates_every_comparison():
    values = [I64_MIN, -1, 0, 7, I64_MAX, "", "A", "A ", "AB", "B", " A"]
    for op, other in COMPLEMENT.items():
        assert COMPLEMENT[other] == op
        for a in values:
            for b in values:
                if type(a) is type(b):
                    assert compare(other, a, b) is (not compare(op, a, b))
                else:
                    for either in (op, other):
                        with pytest.raises(ExecError):
                            compare(either, a, b)


def test_arith_wraps_and_truncates_toward_zero():
    assert arith("+", I64_MAX, 1) == I64_MIN
    assert arith("-", I64_MIN, 1) == I64_MAX
    assert arith("/", 7, 2) == 3
    assert arith("/", -7, 2) == -3
    assert arith("/", 7, -2) == -3
    assert arith("/", -7, -2) == 3


def test_arith_errors():
    with pytest.raises(ExecError) as err:
        arith("/", 1, 0)
    assert "division by zero" in err.value.reason
    with pytest.raises(ExecError):
        arith("*", "A", 2)


def test_store_applies_the_cell_rule():
    num = num_cell()
    store(num, " 12 ")
    assert num.value == 12
    s = str_cell(3)
    store(s, 1234)
    assert s.value == "123"
    store(s, "AB")
    assert s.value == "AB "


def test_budget_and_input_queue():
    budget = Budget(2)
    budget.tick()
    budget.tick()
    with pytest.raises(StepLimitExceeded):
        budget.tick()
    from collections import deque

    queue = deque(["a"])
    assert pop_input(queue) == "a"
    with pytest.raises(ExecError) as err:
        pop_input(queue)
    assert "input exhausted" in err.value.reason


# -- source interpreter -------------------------------------------------------


def test_move_and_display():
    trace = run_c("MOVE 1 TO A. DISPLAY A. STOP RUN.", data="01 A PIC 9(2).")
    assert trace.display_lines == ["1"]
    assert trace.outcome.kind is OutcomeKind.HALTED
    assert trace.call_events == []


def test_move_respects_picture_width():
    trace = run_c(
        'MOVE "ABCDE" TO S. DISPLAY S. MOVE "A" TO S. DISPLAY S. STOP RUN.',
        data="01 S PIC X(3).",
    )
    assert trace.display_lines == ["ABC", "A  "]


def test_move_coerces_numeric_targets():
    trace = run_c('MOVE "12" TO A. ADD 1 TO A. DISPLAY A. STOP RUN.', data="01 A PIC 9(2).")
    assert trace.display_lines == ["13"]


def test_until_loop_that_never_ends_hits_the_step_limit():
    trace = run_c("PERFORM UNTIL A < 0 ADD 0 TO A END-PERFORM. STOP RUN.", data="01 A PIC 9.")
    assert trace.outcome.kind is OutcomeKind.STEP_LIMIT
    assert trace.display_lines == []


def test_varying_loop_bounds():
    body = "PERFORM VARYING I FROM 1 BY 1 UNTIL I > 3 DISPLAY I END-PERFORM. STOP RUN."
    assert run_c(body, data="01 I PIC 9(2).").display_lines == ["1", "2", "3"]
    zero = "PERFORM VARYING I FROM 5 BY 1 UNTIL I > 3 DISPLAY I END-PERFORM. STOP RUN."
    assert run_c(zero, data="01 I PIC 9(2).").display_lines == []


def test_counted_loop_bounds():
    assert run_c('PERFORM 3 TIMES DISPLAY "X" END-PERFORM. STOP RUN.').display_lines == [
        "X",
        "X",
        "X",
    ]
    zero = 'MOVE 0 TO A. PERFORM A TIMES DISPLAY "X" END-PERFORM. STOP RUN.'
    assert run_c(zero, data="01 A PIC 9.").display_lines == []
    negative = (
        'COMPUTE A = 0 - 2. PERFORM A TIMES DISPLAY "X" END-PERFORM. STOP RUN.'
    )
    assert run_c(negative, data="01 A PIC 9.").display_lines == []


def test_perform_paragraph_and_fall_through():
    trace = run_c(
        'PERFORM SUB. DISPLAY "MAIN". STOP RUN.',
        extra_paras='SUB. DISPLAY "SUB".',
    )
    assert trace.display_lines == ["SUB", "MAIN"]
    # Without STOP RUN control falls into the next paragraph and runs it again.
    trace = run_c('PERFORM SUB. DISPLAY "MAIN".', extra_paras='SUB. DISPLAY "SUB".')
    assert trace.display_lines == ["SUB", "MAIN", "SUB"]
    assert trace.outcome.kind is OutcomeKind.HALTED


def test_goto_forward_skips_paragraphs():
    trace = run_c(
        'DISPLAY "A". GO TO FIN.',
        extra_paras='MID. DISPLAY "MID". FIN. DISPLAY "B". STOP RUN.',
    )
    assert trace.display_lines == ["A", "B"]


def test_goto_backward_loops():
    trace = run_c(
        "MOVE 0 TO A.",
        data="01 A PIC 9(2).",
        extra_paras="LOOP-P. ADD 1 TO A. IF A < 3 GO TO LOOP-P END-IF. DISPLAY A. STOP RUN.",
    )
    assert trace.display_lines == ["3"]


def test_accept_applies_target_typing():
    trace = run_c(
        "ACCEPT A. ACCEPT S. DISPLAY A. DISPLAY S. STOP RUN.",
        data="01 A PIC 9(2). 01 S PIC X(3).",
        inputs=["7", "HI"],
    )
    assert trace.display_lines == ["7", "HI "]


def test_accept_exhausted_input():
    trace = run_c("ACCEPT A. STOP RUN.", data="01 A PIC 9.")
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "input exhausted" in trace.outcome.reason


def test_accept_nonnumeric_into_numeric_field():
    trace = run_c("ACCEPT A. STOP RUN.", data="01 A PIC 9.", inputs=["XY"])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "not numeric" in trace.outcome.reason


def test_call_records_events_without_executing():
    trace = run_c(
        'MOVE 3 TO A. CALL "AUDIT-LOG" USING A B. CALL "PING". STOP RUN.',
        data="01 A PIC 9. 01 B PIC 9 VALUE 5.",
    )
    assert trace.call_events == [("AUDIT-LOG", (3, 5)), ("PING", ())]


def test_arithmetic_statement_orientations():
    trace = run_c(
        "MOVE 5 TO A. ADD 2 TO A. DISPLAY A."
        " SUBTRACT 3 FROM A. DISPLAY A."
        " MULTIPLY 2 BY A. DISPLAY A."
        " DIVIDE 3 INTO A. DISPLAY A."
        " ADD 1 TO A GIVING B. DISPLAY B. DISPLAY A. STOP RUN.",
        data="01 A PIC 9(4). 01 B PIC 9(4).",
    )
    assert trace.display_lines == ["7", "4", "8", "2", "3", "2"]


def test_undefined_variable_is_a_runtime_error():
    trace = run_c("MOVE 1 TO NOPE. STOP RUN.")
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "undefined variable" in trace.outcome.reason


@pytest.mark.parametrize("stmt", [
    n.PerformPara(1, "GHOST"),
    n.PerformTimes(1, n.NumLit(2), None, "GHOST"),
], ids=["perform", "perform_times"])
def test_perform_of_an_unknown_paragraph_is_a_runtime_error(stmt):
    # The parser rejects such a target, so only a hand-built tree has one.
    ast = program('DISPLAY "BEFORE". STOP RUN.')
    ast.paragraphs[0].body.insert(1, stmt)
    trace = interpret_cobol(ast, [])
    assert trace.display_lines == ["BEFORE"]
    assert trace.outcome == runtime_error("unknown paragraph GHOST")


def test_division_by_zero_is_a_runtime_error():
    trace = run_c("COMPUTE A = 1 / 0. STOP RUN.", data="01 A PIC 9.")
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "division by zero" in trace.outcome.reason


def test_evaluate_takes_the_first_matching_arm():
    body = (
        'EVALUATE A WHEN 1 DISPLAY "FIRST" WHEN 1 DISPLAY "DUP"'
        ' WHEN OTHER DISPLAY "OTHER" END-EVALUATE. STOP RUN.'
    )
    assert run_c("MOVE 1 TO A. " + body, data="01 A PIC 9.").display_lines == ["FIRST"]
    assert run_c("MOVE 9 TO A. " + body, data="01 A PIC 9.").display_lines == ["OTHER"]
    no_other = 'EVALUATE A WHEN 1 DISPLAY "ONE" END-EVALUATE. DISPLAY "END". STOP RUN.'
    assert run_c("MOVE 2 TO A. " + no_other, data="01 A PIC 9.").display_lines == ["END"]


def test_string_comparison_uses_padded_widths():
    trace = run_c(
        'IF S = "ABC" DISPLAY "EQ" ELSE DISPLAY "NE" END-IF. STOP RUN.',
        data='01 S PIC X(5) VALUE "ABC".',
    )
    assert trace.display_lines == ["EQ"]


def test_mixed_comparison_is_a_runtime_error():
    trace = run_c('IF A = "X" DISPLAY "Y" END-IF. STOP RUN.', data="01 A PIC 9.")
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "numeric and string" in trace.outcome.reason


def test_interpreter_is_deterministic():
    ast = program(
        "PERFORM VARYING I FROM 1 BY 1 UNTIL I > 4 DISPLAY I END-PERFORM. STOP RUN.",
        data="01 I PIC 9.",
    )
    assert interpret_cobol(ast, []) == interpret_cobol(ast, [])


# -- translated interpreter ---------------------------------------------------


def _jrun(methods, fields=()):
    return interpret_java(j.JavaAst("T", list(fields), list(methods)), [])


def test_false_while_never_runs_its_body():
    run = j.JMethod(
        "run",
        [
            j.While(n.Comparison(">", n.NumLit(1), n.NumLit(2)), [j.Print([n.StrLit("X")])]),
            j.Print([n.StrLit("DONE")]),
        ],
    )
    trace = _jrun([run])
    assert trace.display_lines == ["DONE"]
    assert trace.outcome.kind is OutcomeKind.HALTED


def test_do_while_runs_at_least_once():
    run = j.JMethod(
        "run",
        [j.DoWhile([j.Print([n.StrLit("X")])], n.Comparison(">", n.NumLit(1), n.NumLit(2)))],
    )
    assert _jrun([run]).display_lines == ["X"]


def test_switch_first_match_and_default():
    def switch_on(value):
        run = j.JMethod(
            "run",
            [
                j.Assign("a", n.NumLit(value)),
                j.Switch(
                    n.VarRef("a"),
                    [
                        j.SwitchCase(n.NumLit(1), (j.Print([n.StrLit("ONE")]), j.Break())),
                        j.SwitchCase(n.NumLit(1), (j.Print([n.StrLit("DUP")]), j.Break())),
                    ],
                    [j.Print([n.StrLit("OTHER")]), j.Break()],
                ),
            ],
        )
        return _jrun([run], fields=[j.JField("a", "long", 0)]).display_lines

    assert switch_on(1) == ["ONE"]
    assert switch_on(9) == ["OTHER"]


def test_switch_without_default_can_match_nothing():
    run = j.JMethod(
        "run",
        [
            j.Switch(
                n.NumLit(5),
                [j.SwitchCase(n.NumLit(1), (j.Print([n.StrLit("ONE")]), j.Break()))],
                None,
            ),
            j.Print([n.StrLit("END")]),
        ],
    )
    assert _jrun([run]).display_lines == ["END"]


def test_break_leaves_the_loop():
    run = j.JMethod(
        "run",
        [
            j.Assign("a", n.NumLit(0)),
            j.While(
                n.Comparison("<", n.VarRef("a"), n.NumLit(100)),
                [
                    j.IfElse(n.Comparison(">", n.VarRef("a"), n.NumLit(2)), [j.Break()], []),
                    j.Assign("a", n.BinOp("+", n.VarRef("a"), n.NumLit(1))),
                ],
            ),
            j.Print([n.VarRef("a")]),
        ],
    )
    trace = _jrun([run], fields=[j.JField("a", "long", 0)])
    assert trace.display_lines == ["3"]
    assert trace.outcome.kind is OutcomeKind.HALTED


def test_return_halts_the_whole_program():
    run = j.JMethod(
        "run",
        [j.Print([n.StrLit("A")]), j.MethodCall("sub", []), j.Print([n.StrLit("C")])],
    )
    sub = j.JMethod("sub", [j.Print([n.StrLit("B1")]), j.Return(), j.Print([n.StrLit("B2")])])
    trace = _jrun([run, sub])
    assert trace.display_lines == ["A", "B1"]
    assert trace.outcome.kind is OutcomeKind.HALTED


def test_unconditional_for_hits_the_step_limit():
    run = j.JMethod("run", [j.For(None, None, None, [j.Assign("a", n.NumLit(1))])])
    trace = _jrun([run], fields=[j.JField("a", "long", 0)])
    assert trace.outcome.kind is OutcomeKind.STEP_LIMIT


def test_unknown_method_and_missing_run():
    run = j.JMethod("run", [j.MethodCall("nowhere", [])])
    trace = _jrun([run])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "unknown method" in trace.outcome.reason
    trace = interpret_java(j.JavaAst("T", [], [j.JMethod("main", [])]), [])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "no run method" in trace.outcome.reason


def test_wrong_arity_to_a_declared_method():
    run = j.JMethod("run", [j.MethodCall("sub", [n.NumLit(1)])])
    sub = j.JMethod("sub", [])
    trace = _jrun([run, sub])
    assert trace.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert "wrong number of arguments" in trace.outcome.reason


def test_value_builtins_in_expressions():
    run = j.JMethod(
        "run",
        [
            j.Assign("a", j.JCall("num", (n.StrLit(" 42"),))),
            j.Assign("s", j.JCall("fit", (n.StrLit("ABCDE"), n.NumLit(3)))),
            j.Print([n.VarRef("a"), n.VarRef("s")]),
        ],
    )
    fields = [j.JField("a", "long", 0), j.JField("s", "String", "", 3)]
    assert _jrun([run], fields=fields).display_lines == ["42ABC"]


def test_external_calls_record_events_under_original_names():
    run = j.JMethod("run", [j.MethodCall("prog_AUDIT", [n.NumLit(7)], external_name="AUDIT")])
    trace = _jrun([run])
    assert trace.call_events == [("AUDIT", (7,))]


def test_split_method_behaves_like_the_unsplit_one():
    ast = program("MOVE 1 TO A. DISPLAY A. MOVE 2 TO A. DISPLAY A. STOP RUN.", data="01 A PIC 9.")
    moves = [i for i, v in enumerate(n.iter_preorder(ast.program)) if v.kind is n.NodeKind.MOVE]
    split_at = moves[1]
    split = translate_with_fallbacks(
        ast, {split_at: Action(ActionKind.EXTRACT_METHOD, split_at)}).jast
    assert len(split.methods) == 2
    plain = translate_rules(ast).jast
    for vector in input_battery("split-check"):
        ok, reason = traces_match(interpret_java(split, vector), interpret_java(plain, vector))
        assert ok, reason


def test_translation_preserves_step_limited_traces():
    # An endless loop truncates at the same output on both sides, so a
    # correct translation still scores correct under the step budget.
    ast = program(
        "PERFORM UNTIL A < 0 DISPLAY A ADD 1 TO A END-PERFORM.",
        data="01 A PIC 9(4).",
    )
    jast = translate_rules(ast).jast
    ct = interpret_cobol(ast, [])
    jt = interpret_java(jast, [])
    assert ct.outcome.kind is OutcomeKind.STEP_LIMIT
    assert jt.outcome.kind is OutcomeKind.STEP_LIMIT
    ok, reason = traces_match(ct, jt)
    assert ok, reason


# -- trace scoring ------------------------------------------------------------


def test_input_battery_shape_and_determinism():
    battery = input_battery("file-1")
    assert len(battery) == INPUT_VECTORS == 5
    assert all(len(vec) == INPUT_LENGTH == 8 for vec in battery)
    assert all(0 <= int(v) <= 99 for vec in battery for v in vec)
    assert battery == input_battery("file-1")
    assert battery != input_battery("file-2")
    assert battery != input_battery("file-1", seed=7)


def test_traces_match_reports_the_first_divergence():
    base = Trace(display_lines=["a", "b"], call_events=[("P", (1,))], outcome=HALTED)
    other = Trace(display_lines=["a", "x"], call_events=[("P", (1,))], outcome=HALTED)
    assert traces_match(base, other) == (False, "trace mismatch at line 2")
    longer = Trace(display_lines=["a", "b", "c"], call_events=[("P", (1,))], outcome=HALTED)
    assert traces_match(base, longer) == (False, "trace mismatch at line 3")
    assert traces_match(longer, base) == (False, "trace mismatch at line 3")
    calls = Trace(display_lines=["a", "b"], call_events=[("Q", (1,))], outcome=HALTED)
    assert traces_match(base, calls) == (False, "call mismatch at event 1")
    args = Trace(display_lines=["a", "b"], call_events=[("P", (2,))], outcome=HALTED)
    assert traces_match(base, args) == (False, "call mismatch at event 1")
    # A callee compares as Java spells it, the only spelling parse_java keeps.
    hyphen = Trace(call_events=[("AUDIT-LOG", (1,))])
    assert traces_match(hyphen, Trace(call_events=[("AUDIT_LOG", (1,))])) == (True, "")
    assert traces_match(hyphen, Trace(call_events=[("AUDIT_LOG", (2,))]))[0] is False
    assert traces_match(hyphen, Trace(call_events=[("AUDITLOG", (1,))]))[0] is False
    crashed = Trace(display_lines=["a", "b"], call_events=[("P", (1,))],
                    outcome=runtime_error("x"))
    assert traces_match(base, crashed) == (False, "outcome mismatch")
    assert traces_match(base, base) == (True, "")


def test_error_reasons_are_not_compared():
    a = Trace(outcome=runtime_error("division by zero"))
    b = Trace(outcome=runtime_error("input exhausted"))
    ok, _ = traces_match(a, b)
    assert ok


def test_score_file_accepts_a_faithful_translation():
    ast = program(
        "PERFORM VARYING I FROM 1 BY 1 UNTIL I > 3 DISPLAY I END-PERFORM."
        ' CALL "AUDIT" USING I. STOP RUN.',
        data="01 I PIC 9(2).",
    )
    result = translate_rules(ast)
    got = score_file(ast, result.jast, file_id="t1", actions_used=result.actions_used)
    assert got == {"correct": True, "reason": ""}


@pytest.mark.parametrize("body", [
    "DISPLAY X. DISPLAY REC-X. STOP RUN.",  # REC-X spells like the field of REC's X
    "PERFORM 2 TIMES DISPLAY X END-PERFORM. DISPLAY T0. STOP RUN.",  # T0 like a loop temp
])
def test_an_undeclared_name_reads_no_java_field(body):
    # COBOL fails on the undeclared name; its translation must fail the same
    # way rather than print the field or temp whose Java spelling it shares.
    ast = program(body, data="01 REC. 05 X PIC 9.")
    result = translate_rules(ast)
    got = score_file(ast, result.jast, file_id="t4", actions_used=result.actions_used)
    assert got == {"correct": True, "reason": ""}
    java, cobol = interpret_java(result.jast, []), interpret_cobol(ast, [])
    assert java.outcome.kind is cobol.outcome.kind is OutcomeKind.RUNTIME_ERROR
    assert java.display_lines == cobol.display_lines


def test_score_file_rejects_a_wrong_translation():
    ast = program('DISPLAY "A". STOP RUN.')
    wrong = j.JavaAst("T", [], [j.JMethod("run", [j.Print([n.StrLit("B")]), j.Return()])])
    got = score_file(ast, wrong, file_id="t2")
    assert got["correct"] is False
    assert got["reason"] == "trace mismatch at line 1"


def _ten_statement_program():
    body = " ".join(f"MOVE {k} TO A." for k in range(9)) + " STOP RUN."
    return program(body, data="01 A PIC 9(2).")


def test_label_agreement_boundary():
    ast = _ten_statement_program()
    result = translate_rules(ast)
    refs = sorted(result.actions_used)[:10]
    oracle = {ref: result.actions_used[ref] for ref in refs}
    assert label_agreement(result.actions_used, oracle) == 1.0
    assert label_agreement(result.actions_used, {}) == 1.0

    # 9 of 10 right sits exactly on the 90% floor and passes.
    oracle[refs[0]] = Action(ActionKind.EXTRACT_METHOD, refs[0])
    got = score_file(ast, result.jast, oracle, file_id="t3", actions_used=result.actions_used)
    assert got["correct"] is True

    # 8 of 10 falls below it.
    oracle[refs[1]] = Action(ActionKind.EXTRACT_METHOD, refs[1])
    got = score_file(ast, result.jast, oracle, file_id="t3", actions_used=result.actions_used)
    assert got == {"correct": False, "reason": "label agreement"}


def test_goto_files_are_judged_on_behavior_alone():
    ast = program(
        'DISPLAY "A". GO TO NEXT-P.',
        extra_paras='NEXT-P. DISPLAY "B". STOP RUN.',
    )
    assert has_goto(ast)
    result = translate_with_fallbacks(ast, {})
    bad_oracle = {ref: Action(ActionKind.EXTRACT_METHOD, ref) for ref in result.actions_used}
    got = score_file(ast, result.jast, bad_oracle, file_id="t4",
                     actions_used=result.actions_used)
    assert got == {"correct": True, "reason": ""}


def test_oracle_labels_round_trip(tmp_path):
    path = tmp_path / "x.labels.json"
    labels = {
        "labels": [
            {"stmt_ref": 5, "action": "MoveToAssign"},
            {"stmt_ref": 9, "action": "ExtractMethodAt", "node_index": 12},
        ]
    }
    path.write_text(json.dumps(labels), encoding="utf-8")
    got = load_oracle_labels(path)
    assert got == {
        5: Action(ActionKind.MOVE_TO_ASSIGN),
        9: Action(ActionKind.EXTRACT_METHOD, 12),
    }


def test_drop_pct():
    assert drop_pct(18.0, 11.7) == pytest.approx(35.0)
    assert drop_pct(8.0, 5.4) == pytest.approx(32.5)
    assert drop_pct(0.0, 3.0) == 0.0


def test_eval_summary_json_round_trip():
    fold = EvalSummary("Rules", 3, 1.0, 4.0, 3.0, 25.0, 2.0, 1.0, 50.0, 0)
    summary = EvalSummary("Rules", 10, 0.9, 18.0, 11.7, 35.0, 8.0, 5.4, 32.5, 2, [fold])
    data = json.loads(json.dumps(summary.to_json()))
    assert EvalSummary.from_json(data) == summary
    assert list(data.keys()) == [
        "approach", "n", "accuracy",
        "mean_cx_before", "mean_cx_after", "cx_drop_pct",
        "mean_cp_before", "mean_cp_after", "cp_drop_pct",
        "fallback_count", "per_fold",
    ]
    assert data["per_fold"][0]["per_fold"] is None
    fold.per_fold = []
    assert fold.to_json()["per_fold"] is None
    del data["fallback_count"]
    with pytest.raises(KeyError, match="fallback_count"):
        EvalSummary.from_json(data)


# -- corpus evaluation --------------------------------------------------------


CORPUS_FILES = {
    "loop-a.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. LOOP-A. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 I PIC 9(2). PROCEDURE DIVISION."
        " MAIN. PERFORM VARYING I FROM 1 BY 1 UNTIL I > 3 DISPLAY I END-PERFORM."
        " DISPLAY \"DONE\". STOP RUN."
    ),
    "eval-b.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. EVAL-B. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 A PIC 9 VALUE 2. PROCEDURE DIVISION."
        " MAIN. EVALUATE A WHEN 1 DISPLAY \"ONE\" WHEN 2 DISPLAY \"TWO\""
        " WHEN OTHER DISPLAY \"MANY\" END-EVALUATE. CALL \"AUDIT\" USING A. STOP RUN."
    ),
    "count-c.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. COUNT-C. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 A PIC 9(2) VALUE 0. PROCEDURE DIVISION."
        " MAIN. PERFORM INC 4 TIMES. DISPLAY A. STOP RUN."
        " INC. ADD 2 TO A."
    ),
    "branch-d.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. BRANCH-D. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 S PIC X(4). PROCEDURE DIVISION."
        " MAIN. MOVE \"WIDER\" TO S. IF S = \"WIDE\" DISPLAY \"Y\" ELSE"
        " DISPLAY S END-IF. STOP RUN."
    ),
    "until-e.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. UNTIL-E. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 A PIC 9(2) VALUE 0. PROCEDURE DIVISION."
        " MAIN. PERFORM UNTIL A > 6 ADD 3 TO A END-PERFORM. DISPLAY A. STOP RUN."
    ),
    "vary-f.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. VARY-F. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 I PIC 9(2). 01 T PIC 9(4) VALUE 0."
        " PROCEDURE DIVISION. MAIN. PERFORM VARYING I FROM 2 BY 2 UNTIL I > 8"
        " ADD I TO T IF T > 10 DISPLAY \"BIG\" END-IF END-PERFORM. DISPLAY T. STOP RUN."
    ),
    "paras-g.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. PARAS-G. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 A PIC 9 VALUE 7. PROCEDURE DIVISION."
        " MAIN. PERFORM REPORT-P. CALL \"LEDGER\" USING A. STOP RUN."
        " REPORT-P. DISPLAY \"A=\" A. SUBTRACT 1 FROM A."
    ),
    "math-h.cbl": (
        "IDENTIFICATION DIVISION. PROGRAM-ID. MATH-H. DATA DIVISION."
        " WORKING-STORAGE SECTION. 01 A PIC 9(4) VALUE 9. 01 B PIC 9(4)."
        " PROCEDURE DIVISION. MAIN. COMPUTE B = A * 3 + 1. DIVIDE 2 INTO B."
        " DISPLAY B. ACCEPT A. DISPLAY A. STOP RUN."
    ),
}


def _build_corpus(root, with_java=False, with_labels=False):
    for name, text in CORPUS_FILES.items():
        path = root / name
        path.write_text(text + "\n", encoding="utf-8")
        ast = parse_source(SourceFile(path.stem, text))
        result = translate_rules(ast)
        if with_java:
            (root / f"{path.stem}.java").write_text(emit_java(result.jast), encoding="utf-8")
        if with_labels:
            labels = {
                "labels": [
                    {"stmt_ref": ref, **action.to_json()}
                    for ref, action in sorted(result.actions_used.items())
                ]
            }
            (root / f"{path.stem}.labels.json").write_text(json.dumps(labels), encoding="utf-8")
    manifest = ingest(root)
    curate(manifest, root)
    split_corpus(manifest, seed=42)
    manifest.write_jsonl(root / MANIFEST_NAME)
    return manifest


def test_rules_evaluation_over_a_corpus(tmp_path):
    _build_corpus(tmp_path, with_labels=True)
    summary, rows, pairs = run_evaluation(tmp_path / MANIFEST_NAME, "rules")
    assert summary.approach == "Rules"
    assert summary.n == len(rows) == len(pairs) == 2
    assert summary.accuracy == 1.0
    assert summary.fallback_count == 0
    assert summary.mean_cx_after <= summary.mean_cx_before
    assert summary.cx_drop_pct >= 0.0
    for row in rows:
        assert row.correct, row.reason
        assert row.cx_after is not None
    for pair in pairs:
        assert set(pair) == {"id", "cx_before", "cx_after", "cobol_ast", "java_ast"}
        assert pair["cobol_ast"]["kind"] == "Program"
        assert pair["java_ast"]["kind"] == "Class"


def test_per_fold_summaries_cover_the_train_split(tmp_path):
    manifest = _build_corpus(tmp_path)
    summary, _, _ = run_evaluation(tmp_path / MANIFEST_NAME, "rules", per_fold=True)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    folds = {r.fold for r in train}
    assert summary.per_fold is not None
    assert len(summary.per_fold) == len(folds)
    assert sum(s.n for s in summary.per_fold) == len(train)
    assert all(s.accuracy == 1.0 for s in summary.per_fold)


def test_per_fold_scoring_builds_report_pairs_for_the_test_split_only(tmp_path, monkeypatch):
    manifest = _build_corpus(tmp_path)
    serialized = []
    real = j.to_json
    monkeypatch.setattr(j, "to_json", lambda jast: serialized.append(jast) or real(jast))
    summary, rows, pairs = run_evaluation(tmp_path / MANIFEST_NAME, "rules", per_fold=True)
    test = [r.id for r in manifest.records if r.split is Split.TEST]
    assert [pair["id"] for pair in pairs] == [row.id for row in rows] == test
    assert sum(fold.n for fold in summary.per_fold) > 0
    assert len(serialized) == len(test)


def _write_fixed_corpus(root):
    """Six sequence-numbered fixed-format programs that free format rejects."""
    for k in range(6):
        lines = [
            "IDENTIFICATION DIVISION.", f"PROGRAM-ID. FX{k}.", "DATA DIVISION.",
            "WORKING-STORAGE SECTION.", "01 N PIC 9(4).", "PROCEDURE DIVISION.", "MAIN.",
            f"    MOVE {k} TO N.", "    ADD 1 TO N.", "    DISPLAY N.", "    STOP RUN.",
        ]
        numbered = [f"{100 * (i + 1):06d} {line}" for i, line in enumerate(lines)]
        (root / f"fx{k}.cbl").write_text("\n".join(numbered) + "\n", encoding="utf-8")


def test_fixed_format_corpus_is_scored_and_sampled_in_its_format(tmp_path):
    config = CorpusConfig(format=SourceFormat.FIXED)
    _write_fixed_corpus(tmp_path)
    manifest = curate(ingest(tmp_path, config), tmp_path, config=config)
    assert [r.status for r in manifest.records] == [Status.KEPT] * 6
    split_corpus(manifest, seed=1)

    summary, rows, _ = run_evaluation(manifest, "rules", root=tmp_path, per_fold=True,
                                      config=config)
    assert [(r.correct, r.reason) for r in rows] == [(True, "")] * 2
    assert all(r.cx_after is not None for r in rows)
    assert sum(fold.n for fold in summary.per_fold) == 4
    assert all(fold.mean_cx_before > 0 for fold in summary.per_fold)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    assert len(build_training_set(tmp_path, train, config)) == 4
    assert summary.accuracy == 1.0


def test_unknown_approach_and_missing_checkpoint(tmp_path):
    _build_corpus(tmp_path)
    with pytest.raises(EvalError, match="unknown approach"):
        run_evaluation(tmp_path / MANIFEST_NAME, "magic")
    with pytest.raises(EvalError, match="requires a model checkpoint"):
        run_evaluation(tmp_path / MANIFEST_NAME, "ai")


def test_empty_test_split_is_an_error(tmp_path):
    manifest = _build_corpus(tmp_path)
    for record in manifest.records:
        if record.split is Split.TEST:
            record.split = Split.TRAIN
    with pytest.raises(EvalError, match="Test split is empty"):
        run_evaluation(manifest, "rules", root=tmp_path)


def test_external_evaluation_reads_sidecar_translations(tmp_path):
    _build_corpus(tmp_path, with_java=True)
    summary, rows, _ = run_evaluation(
        tmp_path / MANIFEST_NAME, "external", external_name="golden"
    )
    assert summary.approach == "External(golden)"
    assert summary.n == 2
    assert summary.accuracy == 1.0, [r.reason for r in rows]


@pytest.mark.parametrize("callee", ["AUDIT-LOG", "AUDIT.LOG"])
def test_external_translation_of_a_punctuated_callee_scores_correct(tmp_path, callee):
    # parse_java recovers a callee only as Java spells it: prog_AUDIT_LOG
    # gives AUDIT_LOG, while the COBOL side records the name as written.
    for k in range(10):
        text = (
            f"IDENTIFICATION DIVISION. PROGRAM-ID. HYPH-{k}. DATA DIVISION."
            f" WORKING-STORAGE SECTION. 01 A PIC 9(2) VALUE {k}. PROCEDURE DIVISION."
            f" MAIN. ADD 1 TO A. CALL \"{callee}\" USING A. DISPLAY A. STOP RUN."
        )
        (tmp_path / f"hyph-{k}.cbl").write_text(text + "\n", encoding="utf-8")
        jast = translate_rules(parse_source(SourceFile(f"hyph-{k}", text))).jast
        (tmp_path / f"hyph-{k}.java").write_text(emit_java(jast), encoding="utf-8")
    manifest = ingest(tmp_path)
    curate(manifest, tmp_path)
    split_corpus(manifest, seed=42)
    summary, rows, _ = run_evaluation(manifest, "external", root=tmp_path)
    assert summary.n >= 1
    assert summary.accuracy == 1.0, [r.reason for r in rows]


def test_external_per_fold_view_scores_only_train_files_with_sidecars(tmp_path):
    for k in range(12):
        ast = sample_program(random.Random(k), f"SAMPLE{k}")
        (tmp_path / f"s{k:02d}.cbl").write_text(pretty_print(ast), encoding="utf-8")
        if k % 3:
            jast = translate_rules(ast).jast
            (tmp_path / f"s{k:02d}.java").write_text(emit_java(jast), encoding="utf-8")
    manifest = curate(ingest(tmp_path), tmp_path)
    split_corpus(manifest, seed=3)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    assert any(not r.oracle_java for r in train)

    summary, _rows, _ = run_evaluation(manifest, "external", root=tmp_path, per_fold=True)
    folds = sorted({r.fold for r in train if r.oracle_java})
    want = [sum(1 for r in train if r.fold == f and r.oracle_java) for f in folds]
    assert [sub.n for sub in summary.per_fold] == want
    assert sum(want) == sum(1 for r in train if r.oracle_java)
    assert all(sub.approach == "External(manual)" for sub in summary.per_fold)
    assert all(sub.accuracy == 1.0 for sub in summary.per_fold)


def test_external_evaluation_requires_sidecars(tmp_path):
    _build_corpus(tmp_path, with_java=False)
    with pytest.raises(EvalError, match="no external translations"):
        run_evaluation(tmp_path / MANIFEST_NAME, "external")


def test_external_sidecar_failures_are_scored_not_raised(tmp_path):
    manifest = _build_corpus(tmp_path, with_java=True)
    test_records = [r for r in manifest.records if r.split is Split.TEST]
    gone = tmp_path / test_records[0].oracle_java
    gone.unlink()
    broken = tmp_path / test_records[1].oracle_java
    broken.write_text("this is not java", encoding="utf-8")
    summary, rows, pairs = run_evaluation(manifest, "external", root=tmp_path)
    assert summary.accuracy == 0.0
    assert pairs == []
    reasons = {r.id: r.reason for r in rows}
    assert reasons[test_records[0].id] == "external translation unreadable"
    assert reasons[test_records[1].id] == "external translation unparseable"
    for row in rows:
        assert row.cx_before is not None and row.cx_after is None


def test_undecodable_and_too_deep_sidecars_are_scored_not_raised(tmp_path):
    manifest = _build_corpus(tmp_path, with_java=True)
    test_records = [r for r in manifest.records if r.split is Split.TEST]
    # Latin-1 bytes that are not valid UTF-8.
    (tmp_path / test_records[0].oracle_java).write_bytes(
        b'public class T {\n    // r\xe9sum\xe9\n}\n')
    # Far deeper than the Java parser's recursion would reach.
    deep = 1000
    (tmp_path / test_records[1].oracle_java).write_text(
        "public class T {\n    public void run() {\n"
        + "if (a == 1) {\n" * deep + "}\n" * deep + "    }\n}\n", encoding="utf-8")
    summary, rows, pairs = run_evaluation(manifest, "external", root=tmp_path)
    assert summary.accuracy == 0.0
    assert pairs == []
    reasons = {r.id: (r.correct, r.reason) for r in rows}
    assert reasons[test_records[0].id] == (False, "external translation unreadable")
    assert reasons[test_records[1].id] == (False, "external translation unparseable")


OUTSIDE_THE_SUBSET = {
    **{f"chain_{kind}": java_chain(kind, 10_000) for kind in JAVA_CHAIN_OPERATORS},
    "parameter": ("public class T {\n    public void run() {\n        p(1);\n    }\n\n"
                  "    private void p(long i) {\n    }\n}\n"),
    # Past Python's 4,300-digit limit on an int conversion, and any `long`.
    "long_literal": ("public class T {\n    private long a = " + "9" * 5000 + ";\n\n"
                     "    public void run() {\n    }\n}\n"),
}


@pytest.mark.parametrize("case", OUTSIDE_THE_SUBSET)
def test_external_java_outside_the_subset_is_scored_not_raised(tmp_path, case):
    manifest = _build_corpus(tmp_path, with_java=True)
    test_records = [r for r in manifest.records if r.split is Split.TEST]
    assert test_records
    for record in test_records:
        (tmp_path / record.oracle_java).write_text(OUTSIDE_THE_SUBSET[case], encoding="utf-8")
    summary, rows, pairs = run_evaluation(manifest, "external", root=tmp_path)
    assert summary.accuracy == 0.0
    assert pairs == []
    assert {(r.correct, r.reason) for r in rows} == {(False, "external translation unparseable")}


def test_stale_source_is_scored_not_raised(tmp_path):
    manifest = _build_corpus(tmp_path)
    record = next(r for r in manifest.records if r.split is Split.TEST)
    (tmp_path / record.relative_path).write_text("GARBAGE\n", encoding="utf-8")
    summary, rows, _ = run_evaluation(manifest, "rules", root=tmp_path)
    stale = next(r for r in rows if r.id == record.id)
    assert stale.correct is False
    assert stale.reason == "source changed since curate"
    assert stale.cx_before is None and stale.cx_after is None
    assert summary.accuracy < 1.0


# -- sources that change or go missing after curate ------------------------------


def _undecodable(path, _other):
    path.write_bytes(b"\xff\xfe bad")


def _deleted(path, _other):
    path.unlink()


def _replaced(path, other):
    # Text that parses and translates correctly: only the md5 tells.
    path.write_bytes(other.read_bytes())


SPOILED_SOURCES = {
    "undecodable": (_undecodable, "source unreadable"),
    "deleted": (_deleted, "source unreadable"),
    "replaced": (_replaced, "source changed since curate"),
}


def _spoil_one_source(root, split, kind):
    manifest = _build_corpus(root)
    record = next(r for r in manifest.records if r.split is split)
    other = next(r for r in manifest.records
                 if r.split is not None and r.md5 != record.md5)
    spoil, reason = SPOILED_SOURCES[kind]
    spoil(root / record.relative_path, root / other.relative_path)
    return manifest, record, reason


@pytest.mark.parametrize("kind", sorted(SPOILED_SOURCES))
def test_load_ast_names_a_spoiled_source(tmp_path, kind):
    manifest, record, reason = _spoil_one_source(tmp_path, Split.TEST, kind)
    with pytest.raises(FormatError, match=f"{record.relative_path}: {reason}"):
        load_ast(tmp_path, record)


@pytest.mark.parametrize("kind", sorted(SPOILED_SOURCES))
def test_spoiled_source_scores_its_file_instead_of_aborting(tmp_path, kind):
    manifest, bad, reason = _spoil_one_source(tmp_path, Split.TEST, kind)
    summary, rows, pairs = run_evaluation(manifest, "rules", root=tmp_path, per_fold=True)
    row = next(r for r in rows if r.id == bad.id)
    assert (row.correct, row.reason) == (False, reason)
    assert (row.cx_before, row.cx_after, row.cp_before, row.cp_after) == (None,) * 4
    assert all(r.correct for r in rows if r.id != bad.id)
    assert summary.accuracy == 0.5
    assert bad.id not in [pair["id"] for pair in pairs]


@pytest.mark.parametrize("kind", sorted(SPOILED_SOURCES))
def test_spoiled_source_is_left_out_of_the_training_set(tmp_path, kind):
    manifest, _bad, _reason = _spoil_one_source(tmp_path, Split.TRAIN, kind)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    assert len(build_training_set(tmp_path, train)) == len(train) - 1


def test_a_record_without_md5_is_read_as_it_is(tmp_path):
    manifest = _build_corpus(tmp_path)
    test_record = next(r for r in manifest.records if r.split is Split.TEST)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    for record in (test_record, train[0]):
        record.md5 = ""  # as in a hand-written manifest
        (tmp_path / record.relative_path).write_text("GARBAGE\n", encoding="utf-8")
    _summary, rows, _pairs = run_evaluation(manifest, "rules", root=tmp_path)
    assert next(r.reason for r in rows if r.id == test_record.id) == "source failed to parse"
    assert len(build_training_set(tmp_path, train)) == len(train) - 1


# -- "before" figures: curate's measurement, not a second one -------------------


def _write_random_corpus(root, allow_goto):
    for seed in range(30):
        ast = random_program(random.Random(seed), allow_goto=allow_goto, program_id=f"R{seed}")
        (root / f"r{seed:02d}.cbl").write_text(pretty_print(ast), encoding="utf-8")


EQUIVALENCE_CORPORA = {
    "random": (lambda root: _write_random_corpus(root, False), CorpusConfig()),
    "random-goto": (lambda root: _write_random_corpus(root, True), CorpusConfig()),
    "acceptance": (lambda root: acceptance_corpus(root, count=20, seed=3), CorpusConfig()),
    "repaired": (write_fixture_corpus, CorpusConfig()),
    "fixed": (_write_fixed_corpus, CorpusConfig(format=SourceFormat.FIXED)),
}


def _scored_records(manifest):
    return [r for r in manifest.records if r.split in (Split.TRAIN, Split.TEST)]


@pytest.mark.parametrize("corpus", sorted(EQUIVALENCE_CORPORA))
def test_before_figures_equal_a_fresh_measure_of_each_tree(tmp_path, corpus):
    write, config = EQUIVALENCE_CORPORA[corpus]
    write(tmp_path)
    manifest = curate(ingest(tmp_path, config), tmp_path, config=config)
    split_corpus(manifest, seed=1)
    if corpus == "repaired":
        assert any(r.status is Status.REPAIRED for r in _scored_records(manifest))
    reference = copy.deepcopy(manifest)
    for record in _scored_records(reference):
        ast = load_ast(tmp_path, record, config)
        record.metrics = measure(ast)

    got = run_evaluation(manifest, "rules", root=tmp_path, per_fold=True, config=config)
    want = run_evaluation(reference, "rules", root=tmp_path, per_fold=True, config=config)
    summary, rows, pairs = got
    assert summary.per_fold
    assert all(row.cx_before is not None for row in rows)
    assert got == want


def test_measure_runs_only_for_records_without_metrics(tmp_path, monkeypatch):
    manifest = _build_corpus(tmp_path, with_labels=True)
    calls = []
    real = scoring.measure
    monkeypatch.setattr(scoring, "measure", lambda ast: calls.append(ast) or real(ast))
    curated = run_evaluation(tmp_path / MANIFEST_NAME, "rules", per_fold=True)
    assert calls == []

    bare = tmp_path / "bare.jsonl"
    lines = []
    for record in manifest.records:
        data = record.to_json()
        if record.split is not None:
            data["metrics"] = None
        lines.append(json.dumps(data))
    bare.write_text("\n".join(lines) + "\n", encoding="utf-8")
    remeasured = run_evaluation(bare, "rules", per_fold=True)
    assert len(calls) == len(_scored_records(manifest))
    assert remeasured == curated


# -- malformed labels sidecars ---------------------------------------------------

def _split_labels(node_index) -> str:
    """An ExtractMethodAt label on every ref a corpus file could have, so
    that some label lands on a statement training weighs."""
    return json.dumps({"labels": [
        {"stmt_ref": ref, "action": "ExtractMethodAt", "node_index": node_index}
        for ref in range(64)
    ]})


BAD_LABEL_BODIES = {
    "not-json": "{not json",
    "no-labels-key": '{"x": 1}',
    "unknown-action": '{"labels": [{"stmt_ref": 1, "action": "Teleport"}]}',
    # A split point that is not an int once crashed featurization with a
    # TypeError, and a bool one was read as 0 or 1.
    "string-node-index": _split_labels("7"),
    "bool-node-index": _split_labels(True),
    # A statement ref that is not an int was once coerced: 7.9 loaded as 7,
    # "3" as 3 and true as 1.
    "float-stmt-ref": '{"labels": [{"stmt_ref": 7.9, "action": "MoveToAssign"}]}',
    "string-stmt-ref": '{"labels": [{"stmt_ref": "3", "action": "MoveToAssign"}]}',
    "bool-stmt-ref": '{"labels": [{"stmt_ref": true, "action": "MoveToAssign"}]}',
}


@pytest.mark.parametrize("body", sorted(BAD_LABEL_BODIES))
def test_malformed_labels_raise_a_format_error_naming_the_file(tmp_path, body):
    path = tmp_path / "x.labels.json"
    path.write_text(BAD_LABEL_BODIES[body], encoding="utf-8")
    with pytest.raises(FormatError, match="x.labels.json"):
        load_oracle_labels(path)


def test_unreadable_labels_raise_a_format_error_naming_the_file(tmp_path):
    with pytest.raises(FormatError, match="gone.labels.json"):
        load_oracle_labels(tmp_path / "gone.labels.json")


def _spoil_one_sidecar(root, split, body):
    manifest = _build_corpus(root, with_labels=True)
    record = next(r for r in manifest.records if r.split is split)
    (root / record.oracle_labels).write_text(BAD_LABEL_BODIES[body], encoding="utf-8")
    return manifest, record


@pytest.mark.parametrize("body", sorted(BAD_LABEL_BODIES))
def test_malformed_labels_score_their_file_instead_of_aborting(tmp_path, body):
    manifest, bad = _spoil_one_sidecar(tmp_path, Split.TEST, body)
    summary, rows, pairs = run_evaluation(manifest, "rules", root=tmp_path, per_fold=True)
    row = next(r for r in rows if r.id == bad.id)
    assert (row.correct, row.reason) == (False, "oracle labels unreadable")
    assert row.cx_before == bad.metrics.cyclomatic
    assert row.cp_before == bad.metrics.coupling
    assert row.cx_after is not None and row.cp_after is not None
    assert all(r.correct for r in rows if r.id != bad.id)
    assert summary.accuracy == 0.5
    assert [pair["id"] for pair in pairs] == [r.id for r in rows]


@pytest.mark.parametrize("body", sorted(BAD_LABEL_BODIES))
def test_malformed_labels_leave_their_file_out_of_the_training_set(tmp_path, body):
    manifest, _bad = _spoil_one_sidecar(tmp_path, Split.TRAIN, body)
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    assert len(build_training_set(tmp_path, train)) == len(train) - 1


def test_summary_and_row_writers(tmp_path):
    fold = EvalSummary("Rules", 3, 1.0, 4.0, 3.0, 25.0, 2.0, 1.0, 50.0, 0)
    summary = EvalSummary("Rules", 10, 0.9, 18.0, 11.7, 35.0, 8.0, 5.4, 32.5, 2, [fold])
    out = tmp_path / "deep" / "eval.json"
    write_eval_json(summary, out)
    text = out.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert EvalSummary.from_json(json.loads(text)) == summary


# -- differential property ----------------------------------------------------


def test_random_programs_translate_faithfully():
    for seed in range(60):
        ast = random_program(random.Random(seed))
        result = translate_rules(ast)
        assert result.fallbacks == []
        for vector in input_battery(f"gen-{seed}"):
            ct = interpret_cobol(ast, vector)
            jt = interpret_java(result.jast, vector)
            ok, reason = traces_match(ct, jt)
            assert ok, f"seed {seed}: {reason}"


def test_step_budget_is_shared():
    assert MAX_STEPS == 100_000

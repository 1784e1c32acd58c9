"""Action labels, the rule engine, Java emission, parsing, and metrics."""

import pathlib
import random

import pytest

from relicforge.analysis import measure
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program
from relicforge.errors import ParseFailure
from relicforge.transpile import (
    Action,
    ActionKind,
    CLASS_ORDER,
    applicable,
    chain_shape,
    class_name_for,
    default_action,
    default_actions,
    emit_java,
    external_method_name,
    java_metrics,
    node_count,
    parse_java,
    translate_rules,
    translate_with_fallbacks,
)
from relicforge.transpile import jnodes as j

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def program(body, data="", pid="T-PROG", extra_paras=""):
    src = f"IDENTIFICATION DIVISION. PROGRAM-ID. {pid}. "
    if data:
        src += "DATA DIVISION. WORKING-STORAGE SECTION. " + data
    src += "PROCEDURE DIVISION. MAIN. " + body
    if extra_paras:
        src += " " + extra_paras
    return parse_source(SourceFile(pid.lower(), src))


def refs_of(ast, kind):
    return [i for i, v in enumerate(n.iter_preorder(ast.program)) if v.kind is kind]


# -- action defaults and applicability --------------------------------------


def test_class_order_is_stable():
    # The class ids are the rows of every checkpoint's output layer.
    assert [kind.value for kind in CLASS_ORDER] == [
        "PassThrough",
        "LoopToFor",
        "LoopToWhile",
        "LoopToDoWhile",
        "IfToIf",
        "IfChainToSwitch",
        "EvaluateToSwitch",
        "MoveToAssign",
        "ComputeToExpr",
        "CallToMethodCall",
        "DisplayToPrint",
        "ExtractMethodAt",
    ]


def test_default_action_table():
    ast = program(
        "MOVE 1 TO A. COMPUTE B = 2. ADD 1 TO C. "
        "IF A = 1 DISPLAY 1 END-IF. "
        "EVALUATE A WHEN 1 DISPLAY 1 END-EVALUATE. "
        "PERFORM SUB. PERFORM SUB 2 TIMES. "
        "PERFORM UNTIL A > 1 ADD 1 TO A END-PERFORM. "
        "PERFORM VARYING A FROM 1 BY 1 UNTIL A > 2 DISPLAY A END-PERFORM. "
        'DISPLAY "X". ACCEPT A. CALL "P" USING A. GO TO SUB. STOP RUN. ',
        extra_paras="SUB. DISPLAY 2.",
    )
    got = {
        node.kind: default_action(node).kind
        for node in n.iter_preorder(ast.program)
        if node.kind not in (n.NodeKind.PROGRAM, n.NodeKind.PARAGRAPH, n.NodeKind.DATA_ITEM)
    }
    assert got[n.NodeKind.MOVE] is ActionKind.MOVE_TO_ASSIGN
    assert got[n.NodeKind.COMPUTE] is ActionKind.COMPUTE_TO_EXPR
    assert got[n.NodeKind.ARITH] is ActionKind.COMPUTE_TO_EXPR
    assert got[n.NodeKind.IF] is ActionKind.IF_TO_IF
    assert got[n.NodeKind.EVALUATE] is ActionKind.EVALUATE_TO_SWITCH
    assert got[n.NodeKind.PERFORM_PARA] is ActionKind.CALL_TO_METHOD_CALL
    assert got[n.NodeKind.PERFORM_TIMES] is ActionKind.LOOP_TO_FOR
    assert got[n.NodeKind.PERFORM_UNTIL] is ActionKind.LOOP_TO_WHILE
    assert got[n.NodeKind.PERFORM_VARYING] is ActionKind.LOOP_TO_FOR
    assert got[n.NodeKind.DISPLAY] is ActionKind.DISPLAY_TO_PRINT
    assert got[n.NodeKind.ACCEPT] is ActionKind.PASS_THROUGH
    assert got[n.NodeKind.CALL] is ActionKind.CALL_TO_METHOD_CALL
    assert got[n.NodeKind.GOTO] is ActionKind.PASS_THROUGH
    assert got[n.NodeKind.STOP_RUN] is ActionKind.PASS_THROUGH


def test_default_actions_cover_statements_in_preorder():
    ast = program("MOVE 1 TO A. IF A = 1 DISPLAY 1 END-IF. STOP RUN.")
    pairs = default_actions(ast)
    refs = [ref for ref, _ in pairs]
    assert refs == sorted(refs)
    # Program and Paragraph nodes carry no action.
    assert 4 == len(pairs)  # MOVE, IF, DISPLAY, STOP RUN


def test_default_actions_empty_procedure():
    ast = parse_source(
        SourceFile("e", "IDENTIFICATION DIVISION. PROGRAM-ID. E. PROCEDURE DIVISION.")
    )
    assert default_actions(ast) == []


def test_applicability_rules():
    ast = program("IF A = 1 DISPLAY 1 END-IF. PERFORM UNTIL A > 1 ADD 1 TO A END-PERFORM.")
    if_stmt = ast.program.paragraphs[0].body[0]
    loop = ast.program.paragraphs[0].body[1]
    assert applicable(if_stmt, Action(ActionKind.IF_TO_IF))
    assert applicable(if_stmt, Action(ActionKind.IF_CHAIN_TO_SWITCH))
    assert not applicable(if_stmt, Action(ActionKind.LOOP_TO_FOR))
    assert not applicable(loop, Action(ActionKind.IF_TO_IF))
    for kind in (ActionKind.LOOP_TO_FOR, ActionKind.LOOP_TO_WHILE, ActionKind.LOOP_TO_DO_WHILE):
        assert applicable(loop, Action(kind))
    assert applicable(if_stmt, Action(ActionKind.EXTRACT_METHOD, node_index=3))
    assert not applicable(if_stmt, Action(ActionKind.EXTRACT_METHOD))


def test_chain_shape_on_var_vs_var_is_none():
    ast = program("IF A = B DISPLAY 1 END-IF. STOP RUN.")
    assert chain_shape(ast.program.paragraphs[0].body[0]) is None


def test_chain_shape_on_inequality_is_none():
    ast = program("IF A > 1 DISPLAY 1 END-IF. STOP RUN.")
    assert chain_shape(ast.program.paragraphs[0].body[0]) is None


def test_chain_shape_single_if():
    ast = program('IF A = 1 DISPLAY "X" END-IF. STOP RUN.')
    shape = chain_shape(ast.program.paragraphs[0].body[0])
    assert shape.subject == "A"
    assert [lit.value for _, lit, _ in shape.arms] == [1]
    assert shape.default == ()


def test_chain_shape_ladder_with_foreign_tail():
    ast = program(
        'IF X = 1 DISPLAY "A" ELSE IF X = 2 DISPLAY "B" '
        'ELSE IF Y = 3 DISPLAY "C" END-IF END-IF END-IF. STOP RUN.'
    )
    shape = chain_shape(ast.program.paragraphs[0].body[0])
    assert [lit.value for _, lit, _ in shape.arms] == [1, 2]
    # The foreign If over Y becomes the default arm wholesale.
    assert len(shape.default) == 1
    assert shape.default[0].kind is n.NodeKind.IF


def test_action_json_round_trip():
    for action in (Action(ActionKind.LOOP_TO_FOR), Action(ActionKind.EXTRACT_METHOD, 25)):
        assert Action.from_json(action.to_json()) == action
    assert Action(ActionKind.MOVE_TO_ASSIGN).to_json() == {"action": "MoveToAssign"}


# -- fallbacks -----------------------------------------------------------------


def test_strict_inapplicable_action_raises():
    # An inapplicable action never raises: it is recorded as a Fallback.
    ast = program("IF A = 1 DISPLAY 1 END-IF. STOP RUN.")
    ref = refs_of(ast, n.NodeKind.IF)[0]
    result = translate_with_fallbacks(ast, {ref: Action(ActionKind.LOOP_TO_FOR)})
    [fb] = result.fallbacks
    assert fb.stmt_ref == ref
    assert fb.reason == "LoopToFor not applicable to If"


def test_lenient_fallback_to_default():
    ast = program("IF A = 1 DISPLAY 1 END-IF. STOP RUN.")
    ref = refs_of(ast, n.NodeKind.IF)[0]
    result = translate_with_fallbacks(ast, {ref: Action(ActionKind.LOOP_TO_FOR)})
    assert len(result.fallbacks) == 1
    fb = result.fallbacks[0]
    assert fb.stmt_ref == ref
    assert fb.requested == "LoopToFor"
    assert fb.used == "IfToIf"
    assert result.actions_used[ref].kind is ActionKind.IF_TO_IF
    # The fallback translation equals the pure defaults translation.
    assert emit_java(result.jast) == emit_java(translate_rules(ast).jast)


def test_rules_path_records_defaults_everywhere():
    ast = program("MOVE 1 TO A. DISPLAY A. STOP RUN.")
    result = translate_rules(ast)
    assert result.fallbacks == []
    kinds = sorted(a.kind.value for a in result.actions_used.values())
    assert kinds == ["DisplayToPrint", "MoveToAssign", "PassThrough"]


def test_totality_and_determinism_on_generated_programs():
    for seed in range(30):
        ast = random_program(random.Random(seed), allow_goto=seed % 5 == 0)
        result = translate_with_fallbacks(ast, dict(default_actions(ast)))
        assert result.fallbacks == []
        text = emit_java(result.jast)
        assert text == emit_java(translate_with_fallbacks(ast, dict(default_actions(ast))).jast)


# -- canonical emission forms -------------------------------------------------


def test_move_emits_canonical_assignment():
    ast = program("MOVE A TO B. STOP RUN.")
    text = emit_java(translate_rules(ast).jast)
    assert "        b = a;\n" in text


def test_empty_class_emission():
    ast = parse_source(
        SourceFile("empty", "IDENTIFICATION DIVISION. PROGRAM-ID. EMPTY. PROCEDURE DIVISION.")
    )
    text = emit_java(translate_rules(ast).jast)
    assert text.startswith("public class Empty {\n")
    assert "    public void run() {\n    }\n" in text


def test_golden_fixture_byte_identical():
    src = """\
IDENTIFICATION DIVISION.
PROGRAM-ID. PAY-CALC.
DATA DIVISION.
WORKING-STORAGE SECTION.
01 WS-REC.
   05 WS-N PIC 9(4) VALUE 7.
   05 WS-NAME PIC X(6) VALUE "ADA".
01 I PIC 9(2).
PROCEDURE DIVISION.
MAIN-PARA.
    MOVE 3 TO I.
    IF WS-N > 5
        DISPLAY "BIG " WS-N
    ELSE
        DISPLAY "SMALL"
    END-IF.
    PERFORM CALC-PARA I TIMES.
    PERFORM VARYING I FROM 1 BY 1 UNTIL I > 3
        DISPLAY I
    END-PERFORM.
    EVALUATE WS-N
        WHEN 1 DISPLAY "ONE"
        WHEN 2 DISPLAY "TWO"
        WHEN OTHER DISPLAY "MANY"
    END-EVALUATE.
    CALL "AUDIT-LOG" USING WS-N I.
    STOP RUN.
CALC-PARA.
    ADD 2 TO WS-N.
    ACCEPT WS-NAME.
"""
    ast = parse_source(SourceFile("pay-calc", src))
    text = emit_java(translate_rules(ast).jast)
    golden = (GOLDEN_DIR / "paycalc.java").read_text()
    assert text == golden


def test_class_and_method_naming():
    assert class_name_for("pay-calc") == "PayCalc"
    assert class_name_for("REPORT") == "Report"
    assert class_name_for("9LIVES") == "Program9lives"
    assert external_method_name("AUDIT-LOG") == "prog_AUDIT_LOG"


def test_field_mapping_and_flattening():
    ast = program(
        "MOVE A TO B. STOP RUN.",
        data=(
            "01 G1. 05 A PIC 9(2) VALUE 7. 05 T PIC X(4) VALUE \"HI\". "
            "01 G2. 05 A PIC 9(3). "
            "77 B PIC 9(2). "
        ),
    )
    jast = translate_rules(ast).jast
    by_name = {f.name: f for f in jast.fields}
    assert by_name["g1_a"].jtype == "long" and by_name["g1_a"].initial == 7
    assert by_name["g1_t"].jtype == "String" and by_name["g1_t"].initial == "HI  "
    assert "g2_a" in by_name and "b" in by_name
    # Bare references bind the first declaration of the name.
    assert "        b = g1_a;\n" in emit_java(jast)


def test_accept_reads_typed():
    ast = program(
        "ACCEPT A. ACCEPT S. STOP RUN.",
        data="01 A PIC 9(4). 01 S PIC X(3). ",
    )
    text = emit_java(translate_rules(ast).jast)
    assert "a = num(in());" in text
    assert "s = fit(in(), 3);" in text


def test_goto_dropped_and_flagged():
    ast = program("GO TO DONE. DISPLAY 1. ", extra_paras="DONE. STOP RUN.")
    result = translate_rules(ast)
    assert "goto" not in emit_java(result.jast)


def test_stop_run_mid_paragraph_emits_return():
    ast = program('DISPLAY "A". STOP RUN. DISPLAY "B".')
    text = emit_java(translate_rules(ast).jast)
    assert "        return;\n" in text
    # Statements after the halt stay in the output; they are simply dead.
    assert 'str("B")' in text


def test_trailing_stop_run_is_implied():
    ast = program('DISPLAY "A". STOP RUN.')
    text = emit_java(translate_rules(ast).jast)
    assert "return;" not in text


def test_followers_called_in_order():
    ast = program(
        "DISPLAY 1. ",
        extra_paras="P2. DISPLAY 2. P3. DISPLAY 3.",
    )
    jast = translate_rules(ast).jast
    run = jast.methods[0]
    tail_calls = [s.name for s in run.body if s.kind is j.JKind.METHOD_CALL]
    assert tail_calls == ["p2", "p3"]


# -- loop action variants -----------------------------------------------------


def test_counted_loop_action_variants():
    ast = program("PERFORM SUB 3 TIMES. STOP RUN. ", extra_paras="SUB. DISPLAY 1.")
    ref = refs_of(ast, n.NodeKind.PERFORM_TIMES)[0]
    default_text = emit_java(translate_rules(ast).jast)
    assert "for (t0 = 3; t0 > 0; t0 = t0 - 1) {" in default_text
    while_text = emit_java(
        translate_with_fallbacks(ast, {ref: Action(ActionKind.LOOP_TO_WHILE)}).jast)
    assert "t0 = 3;" in while_text and "while (t0 > 0) {" in while_text
    do_text = emit_java(
        translate_with_fallbacks(ast, {ref: Action(ActionKind.LOOP_TO_DO_WHILE)}).jast)
    assert "do {" in do_text and "} while (t0 > 0);" in do_text


def test_varying_default_emits_for_header():
    ast = program(
        "PERFORM VARYING I FROM 1 BY 1 UNTIL I > 3 DISPLAY I END-PERFORM. STOP RUN.",
        data="01 I PIC 9(2). ",
    )
    text = emit_java(translate_rules(ast).jast)
    assert "for (i = 1; !(i > 3); i = i + 1) {" in text


def test_until_loop_to_for_keeps_pretest_shape():
    ast = program(
        "PERFORM UNTIL I > 3 ADD 1 TO I END-PERFORM. STOP RUN.",
        data="01 I PIC 9(2). ",
    )
    ref = refs_of(ast, n.NodeKind.PERFORM_UNTIL)[0]
    text = emit_java(translate_with_fallbacks(ast, {ref: Action(ActionKind.LOOP_TO_FOR)}).jast)
    assert "for (; !(i > 3); ) {" in text


# -- switches -------------------------------------------------------------------


def test_evaluate_duplicate_arms_collapse_first_match():
    ast = program(
        'EVALUATE A WHEN 1 DISPLAY "FIRST" WHEN 1 DISPLAY "SHADOWED" '
        'WHEN 2 DISPLAY "TWO" END-EVALUATE. STOP RUN.',
        data="01 A PIC 9(1). ",
    )
    jast = translate_rules(ast).jast
    switch = jast.methods[0].body[0]
    assert switch.kind is j.JKind.SWITCH
    assert [c.value.value for c in switch.cases] == [1, 2]
    assert switch.default is None
    text = emit_java(jast)
    assert "FIRST" in text and "SHADOWED" not in text


def test_chain_to_switch_dedup_and_absorption():
    ast = program(
        'IF X = 1 DISPLAY "A" ELSE IF X = 2 DISPLAY "B" ELSE IF X = 1 DISPLAY "C" '
        'ELSE DISPLAY "D" END-IF END-IF END-IF. STOP RUN.',
        data="01 X PIC 9(1). ",
    )
    if_refs = refs_of(ast, n.NodeKind.IF)
    head = if_refs[0]
    chain = translate_with_fallbacks(ast, {head: Action(ActionKind.IF_CHAIN_TO_SWITCH)})
    switch = chain.jast.methods[0].body[0]
    assert switch.kind is j.JKind.SWITCH
    assert [c.value.value for c in switch.cases] == [1, 2]
    assert [s.kind.value for s in switch.default] == ["Print"]
    # Every ladder If is recorded under the chain action.
    for ref in if_refs:
        assert chain.actions_used[ref].kind is ActionKind.IF_CHAIN_TO_SWITCH
    # Deduplication makes the switch strictly simpler than the if-chain.
    plain = translate_rules(ast)
    assert java_metrics(chain.jast).cyclomatic < java_metrics(plain.jast).cyclomatic


def test_chain_and_evaluate_translations_same_complexity_without_duplicates():
    chain_ast = program(
        'IF X = 1 DISPLAY "A" ELSE IF X = 2 DISPLAY "B" ELSE DISPLAY "D" '
        "END-IF END-IF. STOP RUN.",
        data="01 X PIC 9(1). ",
    )
    head = refs_of(chain_ast, n.NodeKind.IF)[0]
    as_switch = translate_with_fallbacks(
        chain_ast, {head: Action(ActionKind.IF_CHAIN_TO_SWITCH)}
    )
    as_ifs = translate_rules(chain_ast)
    assert (
        java_metrics(as_switch.jast).cyclomatic
        <= java_metrics(as_ifs.jast).cyclomatic
    )


# -- method extraction ------------------------------------------------------------


def _fifty_node_program():
    moves = " ".join(f"MOVE {k} TO A." for k in range(38))
    ast = program(
        moves + " STOP RUN.",
        data=(
            "01 G1. 05 A PIC 9(2). 05 B PIC 9(2). "
            "01 G2. 05 C PIC 9(2). 05 D PIC 9(2). "
            "01 G3. 05 E PIC 9(2). 05 F PIC 9(2). "
        ),
        pid="FIFTY",
    )
    assert len(list(n.iter_preorder(ast.program))) == 50
    return ast


def test_extract_method_splits_and_shrinks():
    ast = _fifty_node_program()
    result = translate_with_fallbacks(ast, {25: Action(ActionKind.EXTRACT_METHOD, 25)})
    assert result.fallbacks == []
    jast = result.jast
    assert [m.name for m in jast.methods] == ["run", "run_tail"]
    assert jast.methods[0].body[-1].kind is j.JKind.METHOD_CALL
    assert jast.methods[0].body[-1].name == "run_tail"
    assert node_count(jast) < 50
    assert result.actions_used[25] == Action(ActionKind.EXTRACT_METHOD, 25)
    # Pure refactoring: splitting never changes complexity.
    plain = translate_rules(ast)
    assert java_metrics(jast).cyclomatic == java_metrics(plain.jast).cyclomatic


def test_extract_method_strict_round_trip_through_apply_actions():
    # Replaying the actions a split used rebuilds the same two methods.
    ast = _fifty_node_program()
    result = translate_with_fallbacks(ast, {25: Action(ActionKind.EXTRACT_METHOD, 25)})
    assert len(result.jast.methods) == 2
    again = translate_with_fallbacks(ast, result.actions_used)
    assert again.fallbacks == []
    assert emit_java(again.jast) == emit_java(result.jast)


def test_extract_method_out_of_bounds_falls_back():
    ast = program("MOVE 1 TO A. MOVE 2 TO A. STOP RUN.")
    ref = refs_of(ast, n.NodeKind.MOVE)[0]
    result = translate_with_fallbacks(ast, {ref: Action(ActionKind.EXTRACT_METHOD, 999)})
    assert len(result.fallbacks) == 1
    assert "out of bounds" in result.fallbacks[0].reason
    assert len(result.jast.methods) == 1


def test_extract_method_nested_target_falls_back():
    ast = program("IF A = 1 MOVE 1 TO B END-IF. STOP RUN.")
    nested = refs_of(ast, n.NodeKind.MOVE)[0]
    result = translate_with_fallbacks(ast, {nested: Action(ActionKind.EXTRACT_METHOD, nested)})
    assert len(result.fallbacks) == 1
    assert "top-level" in result.fallbacks[0].reason
    assert len(result.jast.methods) == 1


def test_extract_method_second_split_falls_back():
    ast = program("MOVE 1 TO A. MOVE 2 TO A. MOVE 3 TO A. STOP RUN.")
    first, second = refs_of(ast, n.NodeKind.MOVE)[:2]
    result = translate_with_fallbacks(
        ast,
        {
            first: Action(ActionKind.EXTRACT_METHOD, first),
            second: Action(ActionKind.EXTRACT_METHOD, second),
        },
    )
    assert len(result.jast.methods) == 2
    assert len(result.fallbacks) == 1
    assert "already split" in result.fallbacks[0].reason


def test_rejected_split_leaves_the_paragraph_its_split():
    ast = program("MOVE 1 TO A. MOVE 2 TO A. MOVE 3 TO A. STOP RUN.")
    first, second, third = refs_of(ast, n.NodeKind.MOVE)
    split = Action(ActionKind.EXTRACT_METHOD, third)
    result = translate_with_fallbacks(
        ast, {first: Action(ActionKind.EXTRACT_METHOD, 999), second: split})
    assert [(f.stmt_ref, f.reason) for f in result.fallbacks] == [
        (first, "split index 999 out of bounds")]
    assert result.actions_used[second] == split
    assert len(result.jast.methods) == 2


def test_extract_preserves_emitted_statement_text():
    ast = _fifty_node_program()
    split = emit_java(
        translate_with_fallbacks(ast, {25: Action(ActionKind.EXTRACT_METHOD, 25)}).jast)
    plain = emit_java(translate_rules(ast).jast)
    # Same assignments appear in both, just distributed across methods.
    for k in range(38):
        assert f"g1_a = {k};" in split and f"g1_a = {k};" in plain


# -- java metrics -------------------------------------------------------------------


def test_java_cx_straight_line_is_one():
    ast = program("MOVE 1 TO A. DISPLAY A. STOP RUN.")
    assert java_metrics(translate_rules(ast).jast).cyclomatic == 1


def test_java_cx_one_if_is_two():
    ast = program("IF A = 1 DISPLAY 1 END-IF. STOP RUN.")
    assert java_metrics(translate_rules(ast).jast).cyclomatic == 2


def test_java_coupling_counts_distinct_external_targets():
    ast = program(
        'CALL "X" USING A. CALL "X" USING A. CALL "Y". PERFORM SUB. STOP RUN. ',
        extra_paras="SUB. DISPLAY 1.",
        data="01 A PIC 9(1). ",
    )
    jast = translate_rules(ast).jast
    assert java_metrics(jast).coupling == 2
    assert "prog_X(a);" in emit_java(jast)


def test_java_coupling_zero_without_calls():
    ast = program("DISPLAY 1. STOP RUN.")
    assert java_metrics(translate_rules(ast).jast).coupling == 0


def test_java_metrics_holds_cyclomatic_and_coupling_only():
    ast = program('IF A = 1 CALL "X" END-IF. STOP RUN.', data="01 A PIC 9.")
    jast = translate_rules(ast).jast
    metrics = java_metrics(jast)
    assert metrics._fields == ("cyclomatic", "coupling")
    assert metrics == (2, 1)


@pytest.mark.parametrize("seed", range(25))
def test_java_cx_never_inflates(seed):
    # Structured programs translate branch-for-branch; unreachable code
    # behind a GO TO is the one construct that can skew the two counts,
    # so jump-free sources are the provable scope.
    ast = random_program(random.Random(seed))
    before = measure(ast).cyclomatic
    after = java_metrics(translate_rules(ast).jast).cyclomatic
    assert after <= before + 1


def test_java_cx_matches_cobol_on_goto_free_programs():
    for seed in range(25):
        ast = random_program(random.Random(seed))
        assert java_metrics(translate_rules(ast).jast).cyclomatic == measure(ast).cyclomatic


def test_java_cx_bounded_on_goto_fixture_without_dead_branches():
    ast = program(
        'GO TO WRAP. DISPLAY "SKIPPED". ',
        extra_paras="WRAP. IF A = 1 DISPLAY 1 END-IF. STOP RUN.",
        data="01 A PIC 9(1). ",
    )
    before = measure(ast).cyclomatic
    after = java_metrics(translate_rules(ast).jast).cyclomatic
    assert after <= before + 1


def test_node_count_accounting():
    ast = parse_source(
        SourceFile("e", "IDENTIFICATION DIVISION. PROGRAM-ID. E. PROCEDURE DIVISION.")
    )
    jast = translate_rules(ast).jast
    assert node_count(jast) == 2  # class + empty run()
    ast = program("MOVE 1 TO A. DISPLAY A. STOP RUN.", data="01 A PIC 9(1). ")
    jast = translate_rules(ast).jast
    # class + field + run + [assign, print]; trailing return is implied.
    assert node_count(jast) == 5


# -- parsing emitted java ---------------------------------------------------------


def test_parse_round_trip_on_golden():
    text = (GOLDEN_DIR / "paycalc.java").read_text()
    assert emit_java(parse_java(text)) == text


def test_parse_skips_wrapper_members():
    text = (GOLDEN_DIR / "paycalc.java").read_text()
    jast = parse_java(text)
    assert jast.class_name == "PayCalc"
    assert [m.name for m in jast.methods] == ["run", "calc_para"]
    assert [f.name for f in jast.fields] == ["ws_rec_ws_n", "ws_rec_ws_name", "i", "t0"]


def test_parse_recovers_external_call_names():
    text = (GOLDEN_DIR / "paycalc.java").read_text()
    jast = parse_java(text)
    calls = [
        s
        for s in j.all_statements(jast)
        if s.kind is j.JKind.METHOD_CALL and s.external_name is not None
    ]
    assert [c.external_name for c in calls] == ["AUDIT_LOG"]


def test_parse_unwraps_print_arguments():
    ast = program('DISPLAY "A" B. STOP RUN.', data="01 B PIC 9(1). ")
    text = emit_java(translate_rules(ast).jast)
    jast = parse_java(text)
    print_stmt = jast.methods[0].body[0]
    assert print_stmt.kind is j.JKind.PRINT
    assert print_stmt.args[0] == n.StrLit("A")
    assert print_stmt.args[1] == n.VarRef("b")


def test_parse_round_trip_on_generated_programs():
    for seed in range(30):
        ast = random_program(random.Random(seed), allow_goto=seed % 7 == 0)
        text = emit_java(translate_rules(ast).jast)
        assert emit_java(parse_java(text)) == text


def test_parse_round_trip_preserves_structures():
    ast = program(
        "PERFORM UNTIL I > 3 ADD 1 TO I END-PERFORM. "
        "PERFORM SUB 2 TIMES. "
        "IF I = 1 DISPLAY 1 ELSE DISPLAY 2 END-IF. "
        "EVALUATE I WHEN 1 DISPLAY 1 WHEN OTHER DISPLAY 9 END-EVALUATE. "
        "STOP RUN. ",
        data="01 I PIC 9(2). ",
        extra_paras="SUB. ACCEPT I.",
    )
    refs = refs_of(ast, n.NodeKind.PERFORM_UNTIL) + refs_of(ast, n.NodeKind.PERFORM_TIMES)
    overrides = {
        refs[0]: Action(ActionKind.LOOP_TO_DO_WHILE),
        refs[1]: Action(ActionKind.LOOP_TO_WHILE),
    }
    text = emit_java(translate_with_fallbacks(ast, overrides).jast)
    assert "do {" in text and "while (t0 > 0) {" in text
    assert emit_java(parse_java(text)) == text


def test_every_java_statement_kind_round_trips():
    # One statement of each kind; a kind that parse_java cannot read back
    # fails here.
    i = n.VarRef("i")
    below = n.Comparison("<", i, n.NumLit(9))
    bump = j.Assign("i", n.BinOp("+", i, n.NumLit(1)))
    body = [
        bump,
        j.IfElse(n.Comparison("=", i, n.NumLit(1)), [j.Print([i])], [j.Print([n.StrLit("X")])]),
        j.While(below, [j.Break()]),
        j.DoWhile([j.Assign("s", j.JCall("fit", (j.JCall("in"), n.NumLit(3))))], below),
        j.For(j.Assign("i", n.NumLit(0)), below, bump, [j.MethodCall("sub", [])]),
        j.Switch(i, [j.SwitchCase(n.NumLit(1), (j.Print([n.StrLit("ONE")]),))], [bump]),
        j.MethodCall("prog_AUDIT", [i, n.VarRef("s")], external_name="AUDIT"),
        j.Print([n.StrLit("A"), n.BinOp("*", i, n.NumLit(2))]),
        j.Return(),
    ]
    fields = [j.JField("i", "long", 0), j.JField("s", "String", "abc", 3)]
    jast = j.JavaAst("Kinds", fields, [j.JMethod("run", body), j.JMethod("sub", [])])
    statement_kinds = set(j.JKind) - {j.JKind.CLASS, j.JKind.FIELD, j.JKind.METHOD}
    assert {s.kind for s in j.all_statements(jast)} == statement_kinds
    text = emit_java(jast)
    reparsed = parse_java(text)
    assert emit_java(reparsed) == text
    assert {s.kind for s in j.all_statements(reparsed)} == statement_kinds


def test_parse_java_rejects_non_java():
    with pytest.raises(ParseFailure):
        parse_java("IDENTIFICATION DIVISION. PROGRAM-ID. NOPE.")
    with pytest.raises(ParseFailure):
        parse_java("public class Truncated {")
    with pytest.raises(ParseFailure):
        parse_java("public class X {\n    private int bad = 0;\n}\n")


def test_parsed_metrics_match_emitted_metrics():
    for seed in range(10):
        ast = random_program(random.Random(seed))
        jast = translate_rules(ast).jast
        reparsed = parse_java(emit_java(jast))
        assert java_metrics(reparsed).cyclomatic == java_metrics(jast).cyclomatic
        assert java_metrics(reparsed).coupling == java_metrics(jast).coupling

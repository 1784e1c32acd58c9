import pytest

from relicforge.cobol import SourceFile, parse, parse_source, tokenize
from relicforge.cobol import nodes as n
from relicforge.errors import ParseFailure

T1 = "IDENTIFICATION DIVISION. PROGRAM-ID. T1. PROCEDURE DIVISION. MAIN. MOVE 1 TO A. STOP RUN."


def parse_text(text):
    return parse_source(SourceFile("t", text))


def proc(text):
    """Wrap a procedure-division body in the standard headers."""
    return parse_text(
        "IDENTIFICATION DIVISION. PROGRAM-ID. W. PROCEDURE DIVISION. MAIN. " + text
    )


def test_t1_program():
    ast = parse_text(T1)
    assert ast.program_id == "T1"
    assert len(ast.paragraphs) == 1
    assert ast.paragraphs[0].name == "MAIN"
    body = ast.paragraphs[0].body
    assert len(body) == 2
    assert body[0].kind is n.NodeKind.MOVE
    assert body[1].kind is n.NodeKind.STOP_RUN


def test_statements_carry_source_lines():
    src = "IDENTIFICATION DIVISION.\nPROGRAM-ID. L1.\nPROCEDURE DIVISION.\nMAIN.\n    MOVE 1 TO A.\n    STOP RUN."
    ast = parse_text(src)
    assert [s.line for s in ast.paragraphs[0].body] == [5, 6]


def test_unresolved_perform_is_parse_error():
    with pytest.raises(ParseFailure) as exc:
        parse_text(
            "IDENTIFICATION DIVISION. PROGRAM-ID. X. PROCEDURE DIVISION. MAIN. PERFORM NOPARA."
        )
    errs = exc.value.errors
    assert any(e.expected == "declared paragraph" and e.found == "NOPARA" for e in errs)


def test_unresolved_goto_is_parse_error():
    with pytest.raises(ParseFailure) as exc:
        parse_text(
            "IDENTIFICATION DIVISION. PROGRAM-ID. X. PROCEDURE DIVISION. MAIN. GO TO NOWHERE."
        )
    assert any(e.found == "NOWHERE" for e in exc.value.errors)


def test_nested_if_in_then_branch():
    ast = proc('IF A > 1 IF B > 2 DISPLAY "X" END-IF END-IF. STOP RUN.')
    outer = ast.paragraphs[0].body[0]
    assert outer.kind is n.NodeKind.IF
    assert outer.then_body[0].kind is n.NodeKind.IF


def test_if_else_bodies():
    ast = proc('IF A = 1 MOVE 1 TO B ELSE MOVE 2 TO B MOVE 3 TO C END-IF.')
    stmt = ast.paragraphs[0].body[0]
    assert len(stmt.then_body) == 1
    assert len(stmt.else_body) == 2


def test_evaluate_arms_and_other():
    ast = proc(
        'EVALUATE X WHEN 1 MOVE 1 TO A WHEN "Z" DISPLAY "Z" WHEN OTHER STOP RUN END-EVALUATE.'
    )
    ev = ast.paragraphs[0].body[0]
    assert ev.kind is n.NodeKind.EVALUATE
    assert [arm.value for arm in ev.arms] == [n.NumLit(1), n.StrLit("Z")]
    assert ev.other is not None and ev.other[0].kind is n.NodeKind.STOP_RUN


def test_perform_forms_disambiguate():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. P. PROCEDURE DIVISION. MAIN. "
        "PERFORM SUB. "
        "PERFORM SUB 3 TIMES. "
        "PERFORM N TIMES DISPLAY N END-PERFORM. "
        "PERFORM UNTIL A > 3 ADD 1 TO A END-PERFORM. "
        "PERFORM VARYING I FROM 1 BY 1 UNTIL I > 2 DISPLAY I END-PERFORM. "
        "STOP RUN. "
        "SUB. DISPLAY 1."
    )
    ast = parse_text(src)
    kinds = [s.kind for s in ast.paragraphs[0].body]
    assert kinds == [
        n.NodeKind.PERFORM_PARA,
        n.NodeKind.PERFORM_TIMES,
        n.NodeKind.PERFORM_TIMES,
        n.NodeKind.PERFORM_UNTIL,
        n.NodeKind.PERFORM_VARYING,
        n.NodeKind.STOP_RUN,
    ]
    para_times, inline_times = ast.paragraphs[0].body[1], ast.paragraphs[0].body[2]
    assert para_times.target == "SUB" and para_times.body is None
    assert inline_times.target is None and inline_times.count == n.VarRef("N")


def test_divide_by_normalizes_to_into():
    ast = proc("DIVIDE X BY Y GIVING Z. STOP RUN.")
    stmt = ast.paragraphs[0].body[0]
    assert stmt.op == "DIVIDE"
    assert stmt.a == n.VarRef("Y")  # divisor
    assert stmt.b == n.VarRef("X")  # dividend
    assert stmt.giving == "Z"


def test_arith_literal_target_requires_giving():
    with pytest.raises(ParseFailure):
        proc("ADD 1 TO 2. STOP RUN.")


def test_duplicate_paragraph_names_rejected():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. D. PROCEDURE DIVISION. "
        "P1. DISPLAY 1. P1. DISPLAY 2."
    )
    with pytest.raises(ParseFailure) as exc:
        parse_text(src)
    assert any(e.expected == "unique paragraph name" for e in exc.value.errors)


def test_data_division_groups_nest_by_level():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. G. DATA DIVISION. WORKING-STORAGE SECTION. "
        "01 REC. 05 A PIC 9(2). 05 B PIC X(3). 77 FLAG PIC 9(1). "
        "PROCEDURE DIVISION. MAIN. STOP RUN."
    )
    ast = parse_text(src)
    assert len(ast.data_items) == 2
    rec, flag = ast.data_items
    assert rec.is_group and [c.name for c in rec.children] == ["A", "B"]
    assert flag.level == 77 and flag.is_numeric


def test_group_without_children_rejected():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. G. DATA DIVISION. WORKING-STORAGE SECTION. "
        "01 EMPTY-GRP. PROCEDURE DIVISION. MAIN. STOP RUN."
    )
    with pytest.raises(ParseFailure):
        parse_text(src)


def test_bad_level_number_rejected():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. G. DATA DIVISION. WORKING-STORAGE SECTION. "
        "66 X PIC 9(2). PROCEDURE DIVISION. MAIN. STOP RUN."
    )
    with pytest.raises(ParseFailure) as exc:
        parse_text(src)
    assert any("level" in e.expected for e in exc.value.errors)


def test_recovery_collects_multiple_errors():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. R. PROCEDURE DIVISION. MAIN. "
        "MOVE TO B. DISPLAY 1. ADD TO. MOVE 1 TO C."
    )
    with pytest.raises(ParseFailure) as exc:
        parse_text(src)
    assert len(exc.value.errors) >= 2


def test_condition_precedence_not_and_or():
    ast = proc("IF NOT A = 1 AND B = 2 OR C = 3 DISPLAY 1 END-IF. STOP RUN.")
    cond = ast.paragraphs[0].body[0].cond
    # OR binds loosest: (NOT(A=1) AND B=2) OR (C=3)
    assert isinstance(cond, n.OrCond)
    assert isinstance(cond.left, n.AndCond)
    assert isinstance(cond.left.left, n.NotCond)


def test_compute_expression_precedence():
    ast = proc("COMPUTE X = A + B * 2. STOP RUN.")
    expr = ast.paragraphs[0].body[0].expr
    assert expr == n.BinOp("+", n.VarRef("A"), n.BinOp("*", n.VarRef("B"), n.NumLit(2)))


def test_parenthesized_expression():
    ast = proc("COMPUTE X = (A + B) * 2. STOP RUN.")
    expr = ast.paragraphs[0].body[0].expr
    assert expr.op == "*" and expr.left.op == "+"


def test_implicit_main_paragraph():
    src = "IDENTIFICATION DIVISION. PROGRAM-ID. I. PROCEDURE DIVISION. MOVE 1 TO A. STOP RUN."
    ast = parse_text(src)
    assert [p.name for p in ast.paragraphs] == ["MAIN"]
    assert len(ast.paragraphs[0].body) == 2


@pytest.mark.parametrize("loop", [
    "PERFORM UNTIL A > 1",
    "PERFORM VARYING A FROM 1 BY 1 UNTIL A > 3",
    "PERFORM A TIMES",
    "PERFORM 3 TIMES",
], ids=["until", "varying", "variable_times", "literal_times"])
def test_empty_loop_body_rejected(loop):
    with pytest.raises(ParseFailure) as exc:
        proc(f"{loop} END-PERFORM. STOP RUN.")
    assert [(e.line, e.expected, e.found) for e in exc.value.errors] == [
        (1, "loop body statement", "END-PERFORM")
    ]


def test_preorder_count_and_token_count():
    ast = parse_text(T1)
    order = list(n.iter_preorder(ast.program))
    # Program, Paragraph, Move, StopRun
    assert len(order) == 4
    assert ast.token_count == len(tokenize(SourceFile("t", T1)))
    assert ast.source_lines == 1


def test_parse_totality_on_junk(subtests=None):
    for junk in ["", ".", "MOVE", "....", "IDENTIFICATION", "01 X"]:
        with pytest.raises(ParseFailure):
            parse(tokenize(SourceFile("j", junk)))

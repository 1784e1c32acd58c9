import random

import math

import pytest

from relicforge.analysis import (
    FEATURE_NAMES,
    MetricsRecord,
    build_cfg,
    cyclomatic,
    file_features,
    measure,
)
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement
from relicforge.datagen import random_program

T1 = "IDENTIFICATION DIVISION. PROGRAM-ID. T1. PROCEDURE DIVISION. MAIN. MOVE 1 TO A. STOP RUN."


def statement_nodes(ast: n.CobolAst) -> list[n.Stmt]:
    return [v for v in n.iter_preorder(ast.program) if is_statement(v)]


def coupling(ast: n.CobolAst) -> int:
    """Distinct CALL target program names (fan-out)."""
    return len({v.program for v in statement_nodes(ast) if v.kind is n.NodeKind.CALL})


def decision_complexity(ast: n.CobolAst) -> int:
    """One per binary decision, plus the arm count of each Evaluate, plus
    one: V(G) of the graph when GO TO strands no statement."""
    total = 1
    for node in statement_nodes(ast):
        kind = node.kind
        if kind in (n.NodeKind.IF, n.NodeKind.PERFORM_UNTIL, n.NodeKind.PERFORM_VARYING,
                    n.NodeKind.PERFORM_TIMES):
            total += 1
        elif kind is n.NodeKind.EVALUATE:
            total += len(node.arms)
    return total


def features_named(ast):
    return dict(zip(FEATURE_NAMES, file_features(ast)))


def test_no_calls_coupling_zero():
    ast = parse_source(SourceFile("t", T1))
    assert coupling(ast) == 0


def test_coupling_counts_distinct_targets():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. C. PROCEDURE DIVISION. MAIN. "
        'CALL "X". CALL "X". CALL "Y". STOP RUN.'
    )
    ast = parse_source(SourceFile("c", src))
    assert coupling(ast) == 2


def test_duplicate_call_leaves_coupling_unchanged():
    base = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. C. PROCEDURE DIVISION. MAIN. "
        'CALL "X". STOP RUN.'
    )
    more = base.replace('CALL "X". ', 'CALL "X". CALL "X". ')
    a1 = parse_source(SourceFile("a", base))
    a2 = parse_source(SourceFile("b", more))
    assert coupling(a1) == coupling(a2) == 1


def test_empty_procedure_division_degenerate_vector():
    src = "IDENTIFICATION DIVISION. PROGRAM-ID. E. PROCEDURE DIVISION."
    ast = parse_source(SourceFile("e", src))
    feats = features_named(ast)
    assert feats["statements"] == 0
    assert feats["cyclomatic"] == 1
    assert feats["branch_density"] == 0
    assert feats["mean_nesting"] == 0
    assert feats["mean_paragraph_len"] == 0


def test_t1_hand_counted_vector():
    ast = parse_source(SourceFile("t", T1))
    feats = features_named(ast)
    assert feats["lines"] == 1
    assert feats["ast_nodes"] == 4  # Program, Paragraph, Move, StopRun
    assert feats["paragraphs"] == 1
    assert feats["statements"] == 2
    assert feats["moves"] == 1
    assert feats["cyclomatic"] == 1
    assert feats["literal_count"] == 1  # the MOVE source
    assert feats["cfg_edges"] == 3  # Entry->Move->StopRun->Exit
    assert feats["max_paragraph_len"] == 2
    assert feats["branch_density"] == 0


def test_vector_has_thirty_fields_in_order():
    ast = parse_source(SourceFile("t", T1))
    feats = file_features(ast)
    assert len(feats) == len(FEATURE_NAMES) == 30


def test_structural_inequalities():
    for seed in range(25):
        ast = random_program(random.Random(seed))  # no goto: all code reachable
        feats = features_named(ast)
        assert feats["ast_nodes"] >= feats["statements"]
        assert feats["cfg_edges"] >= feats["statements"]


def test_adding_an_if_increases_cyclomatic_by_one():
    for seed in range(10):
        ast = random_program(random.Random(seed))
        before = cyclomatic(build_cfg(ast))
        ast.program.paragraphs[0].body.insert(
            0,
            n.If(
                1,
                n.Comparison("=", n.VarRef("N0"), n.NumLit(1)),
                [n.Display(1, [n.NumLit(1)])],
                [],
            ),
        )
        assert cyclomatic(build_cfg(ast)) == measure(ast).cyclomatic == before + 1


def test_features_finite_and_deterministic():
    for seed in range(15):
        ast = random_program(random.Random(seed), allow_goto=(seed % 3 == 0))
        v1 = file_features(ast)
        v2 = file_features(ast)
        assert v1 == v2
        assert all(math.isfinite(x) for x in v1)


def test_group_item_counting():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. G. DATA DIVISION. WORKING-STORAGE SECTION. "
        "01 REC. 05 A PIC 9(2). 05 B PIC X(3). 77 FLAG PIC 9(1). "
        "PROCEDURE DIVISION. MAIN. STOP RUN."
    )
    ast = parse_source(SourceFile("g", src))
    feats = features_named(ast)
    assert feats["data_items"] == 4
    assert feats["group_items"] == 1
    assert feats["numeric_items"] == 2
    assert feats["alnum_items"] == 1


def test_nesting_depths():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. N. PROCEDURE DIVISION. MAIN. "
        "PERFORM UNTIL X > 1 IF Y = 1 MOVE 1 TO Y END-IF ADD 1 TO X END-PERFORM. STOP RUN."
    )
    ast = parse_source(SourceFile("x", src))
    feats = features_named(ast)
    assert feats["max_nesting"] == 2  # MOVE inside IF inside loop
    assert feats["performs"] == 1 and feats["ifs"] == 1


def test_cyclomatic_equals_decision_count_plus_structure():
    # 2 ifs + until + 3-arm evaluate = 1 + 2 + 1 + 3 = 7
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. D. PROCEDURE DIVISION. MAIN. "
        "IF A > 1 DISPLAY 1 END-IF. "
        "IF B > 1 DISPLAY 2 END-IF. "
        "PERFORM UNTIL X > 2 ADD 1 TO X END-PERFORM. "
        "EVALUATE Y WHEN 1 DISPLAY 1 WHEN 2 DISPLAY 2 WHEN 3 DISPLAY 3 END-EVALUATE. "
        "STOP RUN."
    )
    ast = parse_source(SourceFile("d", src))
    cfg = build_cfg(ast)
    assert cyclomatic(cfg) == decision_complexity(ast) == measure(ast).cyclomatic == 7


def test_metrics_record_json_roundtrip():
    ast = parse_source(SourceFile("t", T1))
    record = measure(ast)
    assert record.cyclomatic >= 1
    data = record.to_json()
    assert list(data) == ["cyclomatic", "coupling", "lines", "features"]
    assert MetricsRecord.from_json(data) == record

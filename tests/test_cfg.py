import random

import pytest

from relicforge.analysis import (
    CfgNodeKind,
    EdgeKind,
    build_cfg,
    cyclomatic,
    decision_complexity,
    validate,
)
from relicforge.cobol import SourceFile, parse_source
from relicforge.datagen import random_program


def cfg_of(body, extra_paras=""):
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. C. PROCEDURE DIVISION. MAIN. "
        + body
        + extra_paras
    )
    ast = parse_source(SourceFile("c", src))
    return ast, build_cfg(ast)


def test_straight_line_three_statements():
    ast, cfg = cfg_of("MOVE 1 TO A. MOVE 2 TO B. STOP RUN.")
    kinds = [v.kind for v in cfg.nodes]
    assert kinds == [
        CfgNodeKind.ENTRY,
        CfgNodeKind.STMT,
        CfgNodeKind.STMT,
        CfgNodeKind.STMT,
        CfgNodeKind.EXIT,
    ]
    assert len(cfg.edges) == 4
    assert all(e.kind is EdgeKind.SEQ for e in cfg.edges)
    assert cyclomatic(cfg) == 1


def test_single_if_one_branch_two_arms_one_join():
    ast, cfg = cfg_of('IF A > 1 DISPLAY "X" ELSE DISPLAY "Y" END-IF. STOP RUN.')
    kinds = [v.kind for v in cfg.nodes]
    assert kinds.count(CfgNodeKind.BRANCH) == 1
    assert kinds.count(CfgNodeKind.JOIN) == 1
    edge_kinds = sorted(e.kind.value for e in cfg.edges if e.kind is not EdgeKind.SEQ)
    assert edge_kinds == ["False", "True"]
    assert cyclomatic(cfg) == 2


def test_if_without_else_false_edge_to_join():
    ast, cfg = cfg_of('IF A > 1 DISPLAY "X" END-IF. STOP RUN.')
    branch = next(v for v in cfg.nodes if v.kind is CfgNodeKind.BRANCH)
    join = next(v for v in cfg.nodes if v.kind is CfgNodeKind.JOIN)
    false_edges = [e for e in cfg.edges if e.kind is EdgeKind.FALSE]
    assert false_edges == [type(false_edges[0])(branch.id, join.id, EdgeKind.FALSE)]
    assert cyclomatic(cfg) == 2


def test_until_loop_with_nested_if():
    ast, cfg = cfg_of(
        "PERFORM UNTIL X > 3 IF Y = 1 MOVE 2 TO Y END-IF ADD 1 TO X END-PERFORM. STOP RUN."
    )
    assert cfg.branch_count() == 2
    assert cfg.loop_back_count() == 1
    assert cyclomatic(cfg) == 3


def test_evaluate_case_edges_plus_default():
    ast, cfg = cfg_of(
        "EVALUATE X WHEN 1 MOVE 1 TO A WHEN 2 MOVE 2 TO A WHEN OTHER MOVE 0 TO A END-EVALUATE. STOP RUN."
    )
    case_edges = [e for e in cfg.edges if e.kind is EdgeKind.CASE]
    false_edges = [e for e in cfg.edges if e.kind is EdgeKind.FALSE]
    assert len(case_edges) == 2
    assert len(false_edges) == 1  # the no-match default
    assert cyclomatic(cfg) == 3  # 1 + 2 arms


def test_perform_paragraph_is_opaque():
    ast, cfg = cfg_of(
        "PERFORM SUB. PERFORM SUB. STOP RUN. ",
        extra_paras="SUB. DISPLAY 1.",
    )
    assert cfg.branch_count() == 0
    assert cyclomatic(cfg) == 1


def test_inline_times_is_a_loop():
    ast, cfg = cfg_of("PERFORM 3 TIMES DISPLAY 1 END-PERFORM. STOP RUN.")
    assert cfg.branch_count() == 1
    assert cfg.loop_back_count() == 1
    assert cyclomatic(cfg) == 2


def test_paragraph_times_loops_without_inlining():
    ast, cfg = cfg_of("PERFORM SUB 3 TIMES. STOP RUN. ", extra_paras="SUB. DISPLAY 1.")
    assert cfg.branch_count() == 1
    assert cfg.loop_back_count() == 1
    assert cyclomatic(cfg) == 2
    # The callee is one opaque node: Entry, loop Branch, call Stmt,
    # STOP RUN, SUB's DISPLAY, Exit.
    assert len(cfg.nodes) == 6


def test_goto_dead_code_pruned_and_counted():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. G. PROCEDURE DIVISION. "
        'P1. GO TO P3. DISPLAY "DEAD". '
        'P2. DISPLAY "DEAD TOO". '
        'P3. DISPLAY "END".'
    )
    ast = parse_source(SourceFile("g", src))
    cfg = build_cfg(ast)
    assert cfg.pruned == 2
    assert validate(cfg) == []
    assert cyclomatic(cfg) == 1


def test_stop_run_mid_program_keeps_later_paragraphs_connected():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. S. PROCEDURE DIVISION. "
        "MAIN. PERFORM SUB. STOP RUN. "
        "SUB. DISPLAY 1."
    )
    ast = parse_source(SourceFile("s", src))
    cfg = build_cfg(ast)
    assert cfg.pruned == 0
    assert validate(cfg) == []


def test_exactly_one_entry_and_exit_everywhere():
    for seed in range(20):
        ast = random_program(random.Random(seed))
        cfg = build_cfg(ast)
        kinds = [v.kind for v in cfg.nodes]
        assert kinds.count(CfgNodeKind.ENTRY) == 1
        assert kinds.count(CfgNodeKind.EXIT) == 1


@pytest.mark.parametrize("seed", range(40))
def test_invariants_hold_on_generated_programs(seed):
    ast = random_program(random.Random(seed))
    cfg = build_cfg(ast)
    assert validate(cfg) == []
    assert cyclomatic(cfg) == decision_complexity(ast)


def test_only_branch_nodes_fan_out():
    ast = random_program(random.Random(3), allow_goto=True)
    cfg = build_cfg(ast)
    out_degree = {}
    for e in cfg.edges:
        out_degree[e.src] = out_degree.get(e.src, 0) + 1
    branch_ids = {v.id for v in cfg.nodes if v.kind is CfgNodeKind.BRANCH}
    for node_id, degree in out_degree.items():
        if degree > 1:
            assert node_id in branch_ids


def test_json_form_is_stable():
    ast, cfg = cfg_of("MOVE 1 TO A. STOP RUN.")
    data = cfg.to_json()
    assert set(data) == {"nodes", "edges", "entry", "exit", "pruned"}
    assert sorted(data["edges"]) == [[0, 1, "Seq"], [1, 2, "Seq"], [2, 3, "Seq"]]

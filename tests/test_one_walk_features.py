"""The one-walk analysis features against the multi-pass code they replaced.

step_features and file_features each used to walk a tree several times;
the references below are those versions, with the literal counters they
read, kept as they were. Every array and list must come out
exactly equal, not merely close.
"""

import random

import numpy as np
import pytest

from relicforge.analysis import build_cfg, file_features, measure, step_features
from relicforge.analysis.cfg import Cfg, CfgNodeKind, cyclomatic
from relicforge.analysis.steps import EDGE_ORDER
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement
from relicforge.corpus import curate, ingest, load_ast
from relicforge.datagen import acceptance_corpus, random_program, sample_program
from tests.test_metrics import coupling

_CALL_KINDS = (n.NodeKind.CALL, n.NodeKind.PERFORM_PARA)
_PERFORM_KINDS = (
    n.NodeKind.PERFORM_PARA,
    n.NodeKind.PERFORM_TIMES,
    n.NodeKind.PERFORM_UNTIL,
    n.NodeKind.PERFORM_VARYING,
)


# --- the reference: the multi-pass code as it was -----------------------------


def count_literals(e) -> int:
    if e is None:
        return 0
    if isinstance(e, (n.NumLit, n.StrLit)):
        return 1
    if isinstance(e, n.VarRef):
        return 0
    if isinstance(e, n.BinOp):
        return count_literals(e.left) + count_literals(e.right)
    if isinstance(e, n.Comparison):
        return count_literals(e.left) + count_literals(e.right)
    if isinstance(e, n.NotCond):
        return count_literals(e.inner)
    return count_literals(e.left) + count_literals(e.right)


def node_literal_count(node) -> int:
    """Literals in this node's own attributes (not descendants)."""
    kind = node.kind
    if kind is n.NodeKind.MOVE:
        return count_literals(node.src)
    if kind is n.NodeKind.COMPUTE:
        return count_literals(node.expr)
    if kind is n.NodeKind.ARITH:
        return count_literals(node.a) + count_literals(node.b)
    if kind is n.NodeKind.IF:
        return count_literals(node.cond)
    if kind is n.NodeKind.EVALUATE:
        return count_literals(node.subject) + len(node.arms)
    if kind is n.NodeKind.PERFORM_TIMES:
        return count_literals(node.count)
    if kind is n.NodeKind.PERFORM_UNTIL:
        return count_literals(node.cond)
    if kind is n.NodeKind.PERFORM_VARYING:
        return (
            count_literals(node.from_)
            + count_literals(node.by)
            + count_literals(node.until)
        )
    if kind is n.NodeKind.DISPLAY:
        return sum(count_literals(a) for a in node.args)
    if kind is n.NodeKind.CALL:
        return 1  # the program-name literal
    if kind is n.NodeKind.DATA_ITEM:
        return 0 if node.value is None else 1
    return 0


def _string_literal_count(ast: n.CobolAst) -> int:
    count = 0

    def visit_expr(e) -> None:
        nonlocal count
        if isinstance(e, n.StrLit):
            count += 1
        elif isinstance(e, n.BinOp):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, n.Comparison):
            visit_expr(e.left)
            visit_expr(e.right)
        elif isinstance(e, n.NotCond):
            visit_expr(e.inner)
        elif isinstance(e, (n.AndCond, n.OrCond)):
            visit_expr(e.left)
            visit_expr(e.right)

    for node in n.iter_preorder(ast.program):
        kind = node.kind
        if kind is n.NodeKind.MOVE:
            visit_expr(node.src)
        elif kind is n.NodeKind.COMPUTE:
            visit_expr(node.expr)
        elif kind is n.NodeKind.ARITH:
            visit_expr(node.a)
            visit_expr(node.b)
        elif kind is n.NodeKind.IF:
            visit_expr(node.cond)
        elif kind is n.NodeKind.EVALUATE:
            visit_expr(node.subject)
            count += sum(1 for arm in node.arms if isinstance(arm.value, n.StrLit))
        elif kind is n.NodeKind.PERFORM_TIMES:
            visit_expr(node.count)
        elif kind is n.NodeKind.PERFORM_UNTIL:
            visit_expr(node.cond)
        elif kind is n.NodeKind.PERFORM_VARYING:
            visit_expr(node.from_)
            visit_expr(node.by)
            visit_expr(node.until)
        elif kind is n.NodeKind.DISPLAY:
            for a in node.args:
                visit_expr(a)
        elif kind is n.NodeKind.CALL:
            count += 1  # the program-name literal
        elif kind is n.NodeKind.DATA_ITEM and isinstance(node.value, str):
            count += 1
    return count


def ref_nesting_levels(ast: n.CobolAst) -> dict[int, int]:
    """Pre-order index -> statement nesting level (top-level stmt = 0)."""
    levels: dict[int, int] = {}
    index = {id(v): i for i, v in enumerate(n.iter_preorder(ast.program))}

    def walk(node: n.Node, level: int) -> None:
        if is_statement(node):
            levels[index[id(node)]] = level
            child_level = level + 1
        else:
            child_level = 0
        for child in n.child_nodes(node):
            walk(child, child_level)

    walk(ast.program, 0)
    return levels


def ref_file_features(ast: n.CobolAst, cfg: Cfg) -> list[float]:
    program = ast.program
    all_nodes = list(n.iter_preorder(program))
    stmts = [v for v in all_nodes if is_statement(v)]
    data = [v for v in all_nodes if v.kind is n.NodeKind.DATA_ITEM]
    kinds = [v.kind for v in stmts]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = [v for v in stmts if v.kind is n.NodeKind.CALL]
    levels = list(ref_nesting_levels(ast).values())
    para_lens = [
        sum(1 for v in n.iter_preorder(p) if is_statement(v))
        for p in program.paragraphs
    ]
    branches = sum(1 for v in cfg.nodes if v.kind is CfgNodeKind.BRANCH)
    literals = sum(node_literal_count(v) for v in all_nodes)

    features = [
        float(ast.source_lines),
        float(ast.token_count),
        float(len(all_nodes)),
        float(len(cfg.edges)),
        float(cfg.loop_back_count()),
        float(len(program.paragraphs)),
        float(len(stmts)),
        float(len(calls)),
        float(coupling(ast)),
        float(sum(1 for k in kinds if k in _PERFORM_KINDS)),
        float(kinds.count(n.NodeKind.IF)),
        float(kinds.count(n.NodeKind.EVALUATE)),
        float(kinds.count(n.NodeKind.GOTO)),
        float(kinds.count(n.NodeKind.MOVE)),
        float(kinds.count(n.NodeKind.COMPUTE)),
        float(kinds.count(n.NodeKind.ARITH)),
        float(kinds.count(n.NodeKind.DISPLAY)),
        float(kinds.count(n.NodeKind.ACCEPT)),
        float(max(levels, default=0)),
        ratio(sum(levels), len(levels)),
        float(len(data)),
        float(sum(1 for d in data if not d.is_group and d.is_numeric)),
        float(sum(1 for d in data if not d.is_group and not d.is_numeric)),
        float(sum(1 for d in data if d.is_group)),
        float(cyclomatic(cfg)),
        float(max(para_lens, default=0)),
        ratio(sum(para_lens), len(para_lens)),
        ratio(branches, len(stmts)),
        float(literals),
        float(_string_literal_count(ast)),
    ]
    assert len(features) == 30
    return features


def _arrival_kinds(program: n.Program) -> dict[int, str]:
    """id(node) -> incoming edge label."""
    kinds: dict[int, str] = {id(program): "TreeChild"}

    def mark_body(body, kind: str) -> None:
        prev_stmt = None
        for stmt in body:
            if prev_stmt is None:
                kinds[id(stmt)] = kind
            else:
                kinds[id(stmt)] = "Seq"
            prev_stmt = stmt

    def walk(node: n.Node) -> None:
        kind = node.kind
        if kind is n.NodeKind.PROGRAM:
            for child in n.child_nodes(node):
                kinds.setdefault(id(child), "TreeChild")
            _mark_siblings(node.data_items)
            _mark_siblings(node.paragraphs)
        elif kind is n.NodeKind.DATA_ITEM:
            for child in node.children:
                kinds.setdefault(id(child), "TreeChild")
            _mark_siblings(node.children)
        elif kind is n.NodeKind.PARAGRAPH:
            mark_body(node.body, "TreeChild")
        elif kind is n.NodeKind.IF:
            mark_body(node.then_body, "True")
            mark_body(node.else_body, "False")
        elif kind is n.NodeKind.EVALUATE:
            for arm in node.arms:
                mark_body(arm.body, "Case")
            if node.other:
                mark_body(node.other, "Case")
        elif kind in (
            n.NodeKind.PERFORM_UNTIL,
            n.NodeKind.PERFORM_VARYING,
        ) or (kind is n.NodeKind.PERFORM_TIMES and node.body is not None):
            mark_body(node.body, "LoopBack")
        for child in n.child_nodes(node):
            walk(child)

    def _mark_siblings(children) -> None:
        prev = None
        for child in children:
            if prev is not None:
                kinds[id(child)] = "Seq"
            prev = child

    walk(program)
    return kinds


def ref_step_features(ast: n.CobolAst, cfg: Cfg) -> tuple[np.ndarray, np.ndarray]:
    program = ast.program
    order = list(n.iter_preorder(program))
    total = len(order)
    node_feats = np.zeros((total, 12))
    edge_feats = np.zeros((total, 6))

    parents: dict[int, n.Node] = {}
    depths: dict[int, int] = {id(program): 0}
    sizes: dict[int, int] = {}
    siblings: dict[int, int] = {id(program): 0}

    def measure_subtree(node: n.Node) -> int:
        size = 1
        for i, child in enumerate(n.child_nodes(node)):
            parents[id(child)] = node
            depths[id(child)] = depths[id(node)] + 1
            siblings[id(child)] = i
            size += measure_subtree(child)
        sizes[id(node)] = size
        return size

    measure_subtree(program)
    nesting = ref_nesting_levels(ast)
    arrivals = _arrival_kinds(program)

    para_of: dict[int, int] = {}
    for pi, para in enumerate(program.paragraphs):
        for node in n.iter_preorder(para):
            para_of[id(node)] = pi
    para_count = len(program.paragraphs)

    stmt_order = [i for i, node in enumerate(order) if is_statement(node)]
    stmt_pos = {i: k for k, i in enumerate(stmt_order)}
    stmt_count = len(stmt_order)

    lit_cache: dict[int, int] = {}

    def subtree_literals(node: n.Node) -> int:
        key = id(node)
        if key not in lit_cache:
            lit_cache[key] = node_literal_count(node) + sum(
                subtree_literals(c) for c in n.child_nodes(node)
            )
        return lit_cache[key]

    kind_count = len(n.NodeKind)
    for i, node in enumerate(order):
        key = id(node)
        kind = node.kind
        node_feats[i, 0] = n.KIND_IDS[kind] / kind_count
        node_feats[i, 1] = depths[key]
        node_feats[i, 2] = len(n.child_nodes(node))
        node_feats[i, 3] = siblings[key]
        node_feats[i, 4] = sizes[key]
        node_feats[i, 5] = nesting.get(i, 0)
        node_feats[i, 6] = 1.0 if kind in n.LOOP_KINDS else 0.0
        node_feats[i, 7] = 1.0 if kind in n.BRANCH_KINDS else 0.0
        node_feats[i, 8] = 1.0 if kind in _CALL_KINDS else 0.0
        node_feats[i, 9] = subtree_literals(node)
        if key in para_of and para_count:
            node_feats[i, 10] = para_of[key] / para_count
        if i in stmt_pos and stmt_count:
            node_feats[i, 11] = stmt_pos[i] / stmt_count
        edge_feats[i, EDGE_ORDER.index(arrivals.get(key, "TreeChild"))] = 1.0

    return node_feats, edge_feats


# --- the checks -------------------------------------------------------------


def assert_same_features(ast: n.CobolAst) -> None:
    cfg = build_cfg(ast)
    ref_node, ref_edge = ref_step_features(ast, cfg)
    sf = step_features(ast)
    assert sf.dtype == ref_node.dtype == ref_edge.dtype
    assert np.array_equal(sf[:, :12], ref_node)
    assert np.array_equal(sf[:, 12:], ref_edge)
    assert file_features(ast) == ref_file_features(ast, cfg)
    record = measure(ast)
    assert record.coupling == coupling(ast)
    assert record.cyclomatic == cyclomatic(cfg)


@pytest.mark.parametrize("seed", range(200))
def test_random_programs(seed):
    for allow_goto in (False, True):
        assert_same_features(random_program(random.Random(seed), allow_goto=allow_goto))


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    assert_same_features(sample_program(random.Random(seed)))


def test_acceptance_corpus(tmp_path):
    acceptance_corpus(tmp_path, count=40, seed=3)
    manifest = curate(ingest(tmp_path), tmp_path)
    eligible = manifest.eligible()
    assert len(eligible) == 40
    for record in eligible:
        ast = load_ast(tmp_path, record)
        assert_same_features(ast)


def test_empty_procedure_division():
    ast = parse_source(
        SourceFile("e", "IDENTIFICATION DIVISION. PROGRAM-ID. E. PROCEDURE DIVISION.")
    )
    assert ast.paragraphs == []
    assert_same_features(ast)


def test_string_literals_and_data_values():
    ast = parse_source(SourceFile("s", (
        "IDENTIFICATION DIVISION. PROGRAM-ID. S. DATA DIVISION. WORKING-STORAGE SECTION. "
        '01 G. 05 A PIC X(3) VALUE "ABC". 05 B PIC 9(2) VALUE 7. 01 C PIC 9. '
        "PROCEDURE DIVISION. MAIN. "
        'MOVE "X" TO A. IF A = "Y" OR B > 3 DISPLAY "T" 4 ELSE CALL "SUB" END-IF. '
        'EVALUATE A WHEN "P" DISPLAY 1 WHEN 2 PERFORM 3 TIMES ADD 1 TO B END-PERFORM '
        "WHEN OTHER COMPUTE B = (B + 2) * 3 END-EVALUATE. "
        'PERFORM VARYING C FROM 1 BY 1 UNTIL NOT C < 4 DISPLAY "V" END-PERFORM. '
        "STOP RUN."
    )))
    assert_same_features(ast)

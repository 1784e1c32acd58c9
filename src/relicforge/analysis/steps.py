"""Per-step features for the sequence model: one (steps, 18) float64 matrix.

One row per AST node in pre-order. Columns 0-11 hold the node features;
columns 12-17 one-hot the edge the node arrives by, in `EDGE_ORDER`. The
arrival edge describes how the node is entered from its structural
context: then/else bodies get True/False, evaluate arms get Case, loop
bodies get LoopBack, a statement following its sibling gets Seq, and
everything else (root included, by convention) gets TreeChild. One
recursive walk computes every column: what a node inherits (depth,
nesting level, paragraph, arrival edge) is passed down, and what it
synthesizes (subtree size and literal count) is summed on the way back
up. The features read the tree alone, not a control-flow graph.
"""

from __future__ import annotations

import numpy as np

from relicforge.analysis.metrics import is_statement
from relicforge.cobol import nodes as n

EDGE_ORDER = ("Seq", "True", "False", "LoopBack", "Case", "TreeChild")
_SEQ, _TRUE, _FALSE, _LOOP_BACK, _CASE, _TREE_CHILD = range(len(EDGE_ORDER))

# Twelve node features, then the arrival edge.
STEP_FEATURE_COUNT = 12 + len(EDGE_ORDER)
# The arrival edge's columns of a row, by edge.
_ONE_HOT = [[float(k == e) for k in range(len(EDGE_ORDER))] for e in range(len(EDGE_ORDER))]

_CALL_KINDS = (n.NodeKind.CALL, n.NodeKind.PERFORM_PARA)
_KIND_COUNT = len(n.NodeKind)


def _entries(node: n.Node) -> list[tuple[n.Node, int]]:
    """child_nodes(node), each with the edge it is entered by."""
    kind = node.kind
    if kind is n.PROGRAM:
        return _body(node.data_items, _TREE_CHILD) + _body(node.paragraphs, _TREE_CHILD)
    if kind is n.DATA_ITEM:
        return _body(node.children, _TREE_CHILD)
    if kind is n.PARAGRAPH:
        return _body(node.body, _TREE_CHILD)
    if kind is n.IF:
        return _body(node.then_body, _TRUE) + _body(node.else_body, _FALSE)
    if kind is n.EVALUATE:
        arms = [arm.body for arm in node.arms] + [node.other or ()]
        return [entry for body in arms for entry in _body(body, _CASE)]
    if kind in n.LOOP_KINDS:
        return _body(node.body or (), _LOOP_BACK)
    return []


def _body(nodes, first: int) -> list[tuple[n.Node, int]]:
    """A sibling run: the first entered by `first`, the rest by Seq."""
    return [(node, first if k == 0 else _SEQ) for k, node in enumerate(nodes)]


def step_features(ast: n.CobolAst) -> np.ndarray:
    """The (steps, STEP_FEATURE_COUNT) float64 feature matrix of `ast`."""
    program = ast.program
    data_count = len(program.data_items)
    rows: list[list[float]] = []
    statements = 0

    def visit(node: n.Node, depth: int, sibling: int, level: int, para: int,
              arrival: int) -> tuple[int, int]:
        nonlocal statements
        kind = node.kind
        if kind is n.PARAGRAPH:
            para = sibling - data_count
        # Columns 10 and 11 hold the paragraph and statement ranks until
        # the walk has counted both.
        row = [n.KIND_IDS[kind] / _KIND_COUNT, depth, 0, sibling, 0, 0,
               kind in n.LOOP_KINDS, kind in n.BRANCH_KINDS, kind in _CALL_KINDS,
               0, para, 0, *_ONE_HOT[arrival]]
        if is_statement(node):
            row[5] = level
            row[11] = statements
            statements += 1
            level += 1
        else:
            level = 0
        rows.append(row)
        size, literals = 1, n.node_literal_counts(node)[0]
        entries = _entries(node)
        for k, (child, edge) in enumerate(entries):
            child_size, child_literals = visit(child, depth + 1, k, level, para, edge)
            size += child_size
            literals += child_literals
        row[2], row[4], row[9] = len(entries), size, literals
        return size, literals

    visit(program, 0, 0, 0, 0, _TREE_CHILD)
    matrix = np.array(rows, dtype=float)
    if program.paragraphs:
        matrix[:, 10] /= len(program.paragraphs)
    if statements:
        matrix[:, 11] /= statements
    return matrix

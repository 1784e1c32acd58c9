"""Per-step node and edge features for the sequence model.

One step per AST node in pre-order. The edge vector describes how the
node is entered from its structural context: then/else bodies get
True/False, evaluate arms get Case, loop bodies get LoopBack, a statement
following its sibling gets Seq, and everything else (root included, by
convention) gets TreeChild. One recursive walk computes every column:
what a node inherits (depth, nesting level, paragraph, arrival edge) is
passed down, and what it synthesizes (subtree size and literal count) is
summed on the way back up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from relicforge.analysis.cfg import Cfg
from relicforge.analysis.metrics import is_statement
from relicforge.cobol import nodes as n

NODE_FEATURE_COUNT = 12
EDGE_FEATURE_COUNT = 6

EDGE_ORDER = ("Seq", "True", "False", "LoopBack", "Case", "TreeChild")
_SEQ, _TRUE, _FALSE, _LOOP_BACK, _CASE, _TREE_CHILD = range(len(EDGE_ORDER))

_CALL_KINDS = (n.NodeKind.CALL, n.NodeKind.PERFORM_PARA)
_KIND_COUNT = len(n.NodeKind)


@dataclass
class StepFeatures:
    node_feats: np.ndarray  # (steps, 12) float64
    edge_feats: np.ndarray  # (steps, 6) float64

    def __len__(self) -> int:
        return self.node_feats.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.concatenate([self.node_feats, self.edge_feats], axis=1)


def _entries(node: n.Node) -> list[tuple[n.Node, int]]:
    """child_nodes(node), each with the edge it is entered by."""
    kind = node.kind
    if kind is n.NodeKind.PROGRAM:
        return _body(node.data_items, _TREE_CHILD) + _body(node.paragraphs, _TREE_CHILD)
    if kind is n.NodeKind.DATA_ITEM:
        return _body(node.children, _TREE_CHILD)
    if kind is n.NodeKind.PARAGRAPH:
        return _body(node.body, _TREE_CHILD)
    if kind is n.NodeKind.IF:
        return _body(node.then_body, _TRUE) + _body(node.else_body, _FALSE)
    if kind is n.NodeKind.EVALUATE:
        arms = [arm.body for arm in node.arms] + [node.other or ()]
        return [entry for body in arms for entry in _body(body, _CASE)]
    if kind in n.LOOP_KINDS:
        return _body(node.body or (), _LOOP_BACK)
    return []


def _body(nodes, first: int) -> list[tuple[n.Node, int]]:
    """A sibling run: the first entered by `first`, the rest by Seq."""
    return [(node, first if k == 0 else _SEQ) for k, node in enumerate(nodes)]


def step_features(ast: n.CobolAst, cfg: Cfg) -> StepFeatures:
    program = ast.program
    data_count = len(program.data_items)
    rows: list[list[float]] = []
    arrivals: list[int] = []
    statements = 0

    def visit(node: n.Node, depth: int, sibling: int, level: int, para: int,
              arrival: int) -> tuple[int, int]:
        nonlocal statements
        kind = node.kind
        if kind is n.NodeKind.PARAGRAPH:
            para = sibling - data_count
        # Columns 10 and 11 hold the paragraph and statement ranks until
        # the walk has counted both.
        row = [n.KIND_IDS[kind] / _KIND_COUNT, depth, 0, sibling, 0, 0,
               kind in n.LOOP_KINDS, kind in n.BRANCH_KINDS, kind in _CALL_KINDS,
               0, para, 0]
        if is_statement(node):
            row[5] = level
            row[11] = statements
            statements += 1
            level += 1
        else:
            level = 0
        rows.append(row)
        arrivals.append(arrival)
        size, literals = 1, n.node_literal_count(node)
        entries = _entries(node)
        for k, (child, edge) in enumerate(entries):
            child_size, child_literals = visit(child, depth + 1, k, level, para, edge)
            size += child_size
            literals += child_literals
        row[2], row[4], row[9] = len(entries), size, literals
        return size, literals

    visit(program, 0, 0, 0, 0, _TREE_CHILD)
    node_feats = np.array(rows, dtype=float)
    if program.paragraphs:
        node_feats[:, 10] /= len(program.paragraphs)
    if statements:
        node_feats[:, 11] /= statements
    edge_feats = np.zeros((len(rows), EDGE_FEATURE_COUNT))
    edge_feats[np.arange(len(rows)), arrivals] = 1.0
    return StepFeatures(node_feats=node_feats, edge_feats=edge_feats)


def statement_mask(ast: n.CobolAst) -> np.ndarray:
    """1.0 at statement steps, 0.0 at Program/DataItem/Paragraph steps."""
    order = list(n.iter_preorder(ast.program))
    return np.array([1.0 if is_statement(v) else 0.0 for v in order])

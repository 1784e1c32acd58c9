"""Per-step features for the sequence model: one (steps, 18) float64 matrix.

One row per AST node in pre-order. Columns 0-11 hold the node features;
columns 12-17 one-hot the edge the node arrives by, in `EDGE_ORDER`. The
arrival edge describes how the node is entered from its structural
context: then/else bodies get True/False, evaluate arms get Case, loop
bodies get LoopBack, a statement following its sibling gets Seq, and
everything else (root included, by convention) gets TreeChild.
`_FIRST_EDGES` holds that choice per parent class, one edge per child list
of `n.child_lists`, which gives the rows their pre-order. One
recursive walk computes every column: what a node inherits (depth,
nesting level, paragraph, arrival edge) is passed down, and what it
synthesizes (subtree size and literal count) is summed on the way back
up. The features read the tree alone, not a control-flow graph.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement

EDGE_ORDER = ("Seq", "True", "False", "LoopBack", "Case", "TreeChild")
_SEQ, _TRUE, _FALSE, _LOOP_BACK, _CASE, _TREE_CHILD = range(len(EDGE_ORDER))

# Twelve node features, then the arrival edge.
STEP_FEATURE_COUNT = 12 + len(EDGE_ORDER)
# The arrival edge's columns of a row, by edge.
_ONE_HOT = [[float(k == e) for k in range(len(EDGE_ORDER))] for e in range(len(EDGE_ORDER))]

# Columns 0, 6, 7 and 8 of a row by node class: kind id, loop, branch and
# call flags.
_KIND_COLUMNS = {
    cls: (n.KIND_IDS[cls.kind] / len(n.NodeKind), cls in n.LOOP_KINDS,
          cls in n.BRANCH_KINDS, cls is n.Call or cls is n.PerformPara)
    for cls in n.Node.__args__
}


# The edge the first child of each child list (`n.child_lists`) arrives by,
# by parent class; every later child of a list arrives by Seq. An EVALUATE
# has one list per arm and one for OTHER, so its Case repeats.
_FIRST_EDGES = {
    n.Program: (_TREE_CHILD, _TREE_CHILD),
    n.DataItem: (_TREE_CHILD,),
    n.Paragraph: (_TREE_CHILD,),
    n.If: (_TRUE, _FALSE),
    n.Evaluate: repeat(_CASE),
    n.PerformTimes: (_LOOP_BACK,),
    n.PerformUntil: (_LOOP_BACK,),
    n.PerformVarying: (_LOOP_BACK,),
}


def step_features(ast: n.CobolAst) -> np.ndarray:
    """The (steps, STEP_FEATURE_COUNT) float64 feature matrix of `ast`."""
    program = ast.program
    data_count = len(program.data_items)
    rows: list[list[float]] = []
    statements = 0

    def visit(node: n.Node, depth: int, sibling: int, level: int, para: int,
              arrival: int) -> tuple[int, int]:
        nonlocal statements
        cls = node.__class__
        if cls is n.Paragraph:
            para = sibling - data_count
        # Columns 10 and 11 hold the paragraph and statement ranks until
        # the walk has counted both.
        kind_id, is_loop, is_branch, is_call = _KIND_COLUMNS[node.__class__]
        row = [kind_id, depth, 0, sibling, 0, 0, is_loop, is_branch, is_call,
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
        k = 0
        for body, edge in zip(n.child_lists(node), _FIRST_EDGES.get(node.__class__, ())):
            for child in body:
                child_size, child_literals = visit(child, depth + 1, k, level, para, edge)
                size += child_size
                literals += child_literals
                k += 1
                edge = _SEQ
        row[2], row[4], row[9] = k, size, literals
        return size, literals

    visit(program, 0, 0, 0, 0, _TREE_CHILD)
    matrix = np.array(rows, dtype=float)
    if program.paragraphs:
        matrix[:, 10] /= len(program.paragraphs)
    if statements:
        matrix[:, 11] /= statements
    return matrix

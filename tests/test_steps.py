import random

import numpy as np
import pytest

from relicforge.analysis import EDGE_ORDER, step_features
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program


def steps_of(src):
    ast = parse_source(SourceFile("s", src))
    return ast, step_features(ast)


BRANCHY = (
    "IDENTIFICATION DIVISION. PROGRAM-ID. B. PROCEDURE DIVISION. MAIN. "
    'IF A > 1 MOVE 1 TO B MOVE 2 TO C ELSE DISPLAY "N" END-IF. '
    "PERFORM UNTIL X > 2 ADD 1 TO X END-PERFORM. "
    "EVALUATE Y WHEN 1 DISPLAY 1 WHEN OTHER DISPLAY 0 END-EVALUATE. "
    "STOP RUN."
)


def edge_kind(sf, i):
    return EDGE_ORDER[int(np.argmax(sf[i, 12:]))]


def test_sequence_length_equals_node_count():
    ast, sf = steps_of(BRANCHY)
    assert len(sf) == len(list(n.iter_preorder(ast.program)))


def test_root_conventions():
    ast, sf = steps_of(BRANCHY)
    assert sf[0, 1] == 0  # depth
    assert sf[0, 3] == 0  # sibling index
    assert edge_kind(sf, 0) == "TreeChild"


def test_if_node_flags():
    ast, sf = steps_of(BRANCHY)
    order = list(n.iter_preorder(ast.program))
    i = next(k for k, v in enumerate(order) if v.kind is n.NodeKind.IF)
    assert sf[i, 7] == 1.0  # is_branch
    assert sf[i, 6] == 0.0  # is_loop
    loop = next(k for k, v in enumerate(order) if v.kind is n.NodeKind.PERFORM_UNTIL)
    assert sf[loop, 6] == 1.0


def test_arrival_edges_by_role():
    ast, sf = steps_of(BRANCHY)
    order = list(n.iter_preorder(ast.program))
    if_node = next(v for v in order if v.kind is n.NodeKind.IF)
    idx = {id(v): k for k, v in enumerate(order)}
    assert edge_kind(sf, idx[id(if_node.then_body[0])]) == "True"
    assert edge_kind(sf, idx[id(if_node.then_body[1])]) == "Seq"
    assert edge_kind(sf, idx[id(if_node.else_body[0])]) == "False"
    loop = next(v for v in order if v.kind is n.NodeKind.PERFORM_UNTIL)
    assert edge_kind(sf, idx[id(loop.body[0])]) == "LoopBack"
    ev = next(v for v in order if v.kind is n.NodeKind.EVALUATE)
    assert edge_kind(sf, idx[id(ev.arms[0].body[0])]) == "Case"
    assert edge_kind(sf, idx[id(ev.other[0])]) == "Case"
    assert edge_kind(sf, idx[id(if_node)]) == "TreeChild"  # first stmt in paragraph


def test_one_hot_rows():
    ast, sf = steps_of(BRANCHY)
    sums = sf[:, 12:].sum(axis=1)
    assert np.all(sums == 1.0)
    assert set(np.unique(sf[:, 12:])) <= {0.0, 1.0}


def test_is_call_marks_call_and_perform_para():
    src = (
        "IDENTIFICATION DIVISION. PROGRAM-ID. C. PROCEDURE DIVISION. MAIN. "
        'CALL "X". PERFORM SUB. STOP RUN. SUB. DISPLAY 1.'
    )
    ast, sf = steps_of(src)
    order = list(n.iter_preorder(ast.program))
    for k, v in enumerate(order):
        expected = 1.0 if v.kind in (n.NodeKind.CALL, n.NodeKind.PERFORM_PARA) else 0.0
        assert sf[k, 8] == expected


def test_subtree_size_and_depth():
    ast, sf = steps_of(BRANCHY)
    order = list(n.iter_preorder(ast.program))
    assert sf[0, 4] == len(order)  # root subtree is everything
    idx = {id(v): k for k, v in enumerate(order)}
    if_node = next(v for v in order if v.kind is n.NodeKind.IF)
    assert sf[idx[id(if_node)], 4] == 4  # If + 3 children
    assert sf[idx[id(if_node)], 1] == 2  # Program > Paragraph > If


@pytest.mark.parametrize("seed", range(20))
def test_generated_programs_finite_and_sized(seed):
    ast = random_program(random.Random(seed), allow_goto=(seed % 4 == 0))
    sf = step_features(ast)
    assert len(sf) == len(list(n.iter_preorder(ast.program)))
    assert np.all(np.isfinite(sf[:, :12]))
    assert np.all(np.isfinite(sf[:, 12:]))
    assert sf.shape == (len(sf), 18)


def test_kind_feature_normalized():
    ast, sf = steps_of(BRANCHY)
    assert np.all(sf[:, 0] < 1.0)
    assert np.all(sf[:, 0] >= 0.0)

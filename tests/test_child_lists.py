"""The child-list table in `cobol.nodes` covers every node class.

Pre-order refs, step-feature rows, file metrics and the JSON form all take
a node's children from `n.child_lists`. A node class that held nodes but
had no entry would drop out of all of them at once, so every class whose
fields hold nodes must have child lists, and every leaf none.
"""

import dataclasses
import random
import re

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program, sample_program

NODE_CLASSES = n.Node.__args__
# Names that, in a field's annotation, mean the field holds nodes: the node
# classes, the statement union, and an EVALUATE's WHEN arms.
_NODE_NAMES = {cls.__name__ for cls in NODE_CLASSES} | {"Stmt", "WhenArm"}


def holds_nodes(cls: type) -> bool:
    return any(
        _NODE_NAMES & set(re.findall(r"\w+", str(f.type)))
        for f in dataclasses.fields(cls)
    )


def field_children(node: n.Node) -> list[int]:
    """ids of the nodes held in the node's own fields, through lists, tuples
    and WHEN arms, in no particular order."""
    found = []

    def scan(value) -> None:
        if isinstance(value, NODE_CLASSES):
            found.append(id(value))
        elif isinstance(value, (list, tuple)):
            for item in value:
                scan(item)
        elif isinstance(value, n.WhenArm):
            scan(value.body)

    for f in dataclasses.fields(node):
        scan(getattr(node, f.name))
    return found


def parse(body: str):
    src = ("IDENTIFICATION DIVISION. PROGRAM-ID. T. DATA DIVISION. "
           "WORKING-STORAGE SECTION. 01 X PIC 9. PROCEDURE DIVISION. MAIN. "
           + body + " P. DISPLAY 1.")
    return parse_source(SourceFile("t", src))


def statement(body: str, cls: type) -> n.Node:
    return next(v for v in n.iter_preorder(parse(body).program) if isinstance(v, cls))


def test_the_node_classes_split_into_parents_and_leaves():
    parents = {cls.__name__ for cls in NODE_CLASSES if holds_nodes(cls)}
    assert parents == {"Program", "DataItem", "Paragraph", "If", "Evaluate",
                       "PerformTimes", "PerformUntil", "PerformVarying"}


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_every_parent_class_has_an_entry_and_no_leaf_has_one(cls):
    assert (cls in n._CHILD_LISTS) == holds_nodes(cls)


@pytest.mark.parametrize("seed", range(40))
def test_child_lists_hold_every_node_a_field_holds(seed):
    rng = random.Random(seed)
    ast = random_program(rng, allow_goto=seed % 4 == 1) if seed % 2 else sample_program(rng)
    for node in n.iter_preorder(ast.program):
        listed = [id(child) for body in n.child_lists(node) for child in body]
        assert sorted(listed) == sorted(field_children(node)), type(node).__name__


def test_evaluate_without_other_ends_with_an_empty_list():
    node = statement("EVALUATE X WHEN 1 DISPLAY 1 WHEN 2 DISPLAY 2 END-EVALUATE.",
                     n.Evaluate)
    assert node.other is None
    lists = n.child_lists(node)
    assert [len(body) for body in lists] == [1, 1, 0]


def test_counted_paragraph_perform_has_one_empty_list():
    node = statement("PERFORM P 3 TIMES.", n.PerformTimes)
    assert node.body is None and node.target == "P"
    assert [len(body) for body in n.child_lists(node)] == [0]


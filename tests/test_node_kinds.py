"""Each node class and its `kind` stay one-to-one.

Code tells nodes apart by class, while `to_json` names a node by its
`kind` and the step features turn that kind into an id through
`KIND_IDS`. Two classes sharing a kind would print alike and feed the
model alike while the code treats them apart; a kind id that moved would
break every checkpoint trained before it.
"""

from relicforge.cobol import nodes as n
from relicforge.transpile import jnodes as j

# The node classes in the order of their step-feature kind ids. Checkpoints
# were trained on these ids, so the order is fixed.
COBOL_CLASSES = (
    "Program", "DataItem", "Paragraph", "Move", "Compute", "Arith", "If",
    "Evaluate", "PerformPara", "PerformTimes", "PerformUntil", "PerformVarying",
    "Display", "Accept", "Call", "GoTo", "StopRun",
)


def test_each_cobol_node_class_has_its_own_kind():
    kinds = [cls.kind for cls in n.Node.__args__]
    assert len(set(kinds)) == len(kinds)
    assert set(kinds) == set(n.NodeKind)
    assert all(cls.kind.value == cls.__name__ for cls in n.Node.__args__)


def test_kind_ids_follow_the_class_order():
    assert tuple(cls.__name__ for cls in n.Node.__args__) == COBOL_CLASSES
    assert [n.KIND_IDS[cls.kind] for cls in n.Node.__args__] == list(range(len(COBOL_CLASSES)))


def test_each_java_node_class_has_its_own_kind():
    classes = (*j.JStmt.__args__, j.JField, j.JMethod, j.JavaAst)
    kinds = [cls.kind for cls in classes]
    assert len(set(kinds)) == len(kinds)
    assert set(kinds) == set(j.JKind)
    assert {cls.__name__: cls.kind.value for cls in (j.JField, j.JMethod, j.JavaAst)} == {
        "JField": "Field", "JMethod": "Method", "JavaAst": "Class",
    }
    assert all(cls.kind.value == cls.__name__ for cls in j.JStmt.__args__)

"""Every tree class in `cobol.nodes` is slotted.

Curated trees stay in memory for a whole run, one per kept text, and
slots keep each node free of a per-instance `__dict__`. The trees also
cross process boundaries when curate runs a pool, so a parsed tree must
survive a pickle round trip unchanged.
"""

import dataclasses
import pickle
import random

import pytest

from relicforge.cobol import SourceFile, SourceFormat, nodes as n, parse_source, pretty_print
from relicforge.datagen import random_program, sample_program

TREE_CLASSES = sorted(
    (c for c in vars(n).values() if isinstance(c, type) and dataclasses.is_dataclass(c)),
    key=lambda c: c.__name__,
)


def parsed_trees():
    for seed in range(40):
        rng = random.Random(seed)
        for program in (random_program(rng, allow_goto=seed % 2 == 0), sample_program(rng)):
            yield parse_source(SourceFile(f"t{seed}", pretty_print(program), SourceFormat.FREE))


def instances(obj, found):
    """Every dataclass instance reachable from obj, by class."""
    if dataclasses.is_dataclass(obj):
        found.setdefault(type(obj), []).append(obj)
        for f in dataclasses.fields(obj):
            instances(getattr(obj, f.name), found)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            instances(item, found)
    return found


@pytest.mark.parametrize("cls", TREE_CLASSES, ids=lambda c: c.__name__)
def test_tree_class_defines_slots(cls):
    assert "__slots__" in vars(cls)


def test_no_tree_instance_has_a_dict():
    found = {}
    for ast in parsed_trees():
        instances(ast, found)
    assert set(found) == set(TREE_CLASSES)
    for cls, objs in found.items():
        assert not any(hasattr(obj, "__dict__") for obj in objs), cls.__name__


def test_a_parsed_tree_survives_a_pickle_round_trip():
    for ast in parsed_trees():
        back = pickle.loads(pickle.dumps(ast))
        assert back == ast
        assert n.to_json(back.program) == n.to_json(ast.program)

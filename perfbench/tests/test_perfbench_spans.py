"""Span recording, wrapper install/restore, and self-time arithmetic."""

import sys
import types

import pytest

from perfbench.spans import Span, Tracer, self_times


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),  # overlaps a: union is 1..6
        Span("a.leaf", 2.0, 3.0, parent=1),
        Span("late", 8.0, 12.0, parent=0),  # clipped to the root's end
    ]
    got = self_times(spans)
    assert got == pytest.approx([10 - 5 - 2, 3 - 1, 3, 1, 4])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([Span("x", 2.0, 2.5)]) == [0.5]


@pytest.fixture
def module():
    mod = types.ModuleType("perfbench_fake_layer")

    def double(x):
        return 2 * x

    def boom():
        raise ValueError("no")

    def outer(x):
        return mod.double(x) + 1

    class Box:
        def get(self):
            return "got"

    mod.double, mod.boom, mod.outer, mod.Box = double, boom, outer, Box
    sys.modules[mod.__name__] = mod
    yield mod
    del sys.modules[mod.__name__]


def test_wrappers_record_nested_spans_and_restore(module):
    original = module.double
    with Tracer() as tracer:
        tracer.wrap(module.__name__, "outer", "fake.outer")
        tracer.wrap(module.__name__, "double", "fake.double", lambda a, k, r: {"got": r})
        assert module.outer(3) == 7
    assert module.double is original
    names = [s.name for s in tracer.spans]
    assert names == ["fake.outer", "fake.double"]
    assert tracer.spans[1].parent == 0
    assert tracer.spans[1].info == {"got": 6}
    assert all(s.end >= s.start for s in tracer.spans)


def test_wrapping_a_method_by_dotted_name(module):
    original = module.Box.__dict__["get"]
    with Tracer() as tracer:
        tracer.wrap(module.__name__, "Box.get", "fake.get")
        assert module.Box().get() == "got"
    assert module.Box.__dict__["get"] is original
    assert [s.name for s in tracer.spans] == ["fake.get"]


def test_wrapper_closes_span_and_reraises(module):
    with Tracer() as tracer:
        tracer.wrap(module.__name__, "boom", "fake.boom")
        with pytest.raises(ValueError):
            module.boom()
        with tracer.stage("stage.after"):
            pass
    assert tracer.spans[0].info == {"raised": "ValueError"}
    assert tracer.spans[1].parent is None

"""COBOL-to-Java translation: action labels, rule engine, emitter, and
Java-side parsing and metrics."""

from relicforge.transpile.actions import (
    CLASS_ORDER,
    NUM_CLASSES,
    Action,
    ActionKind,
    applicable,
    chain_shape,
    default_action,
    default_actions,
)
from relicforge.transpile.emitter import emit_java
from relicforge.transpile.engine import (
    class_name_for,
    external_method_name,
    translate_rules,
    translate_with_fallbacks,
)
from relicforge.transpile.jmetrics import java_metrics
from relicforge.transpile.jnodes import node_count
from relicforge.transpile.jparser import parse_java

__all__ = [
    "CLASS_ORDER",
    "NUM_CLASSES",
    "Action",
    "ActionKind",
    "applicable",
    "chain_shape",
    "class_name_for",
    "default_action",
    "default_actions",
    "emit_java",
    "external_method_name",
    "java_metrics",
    "node_count",
    "parse_java",
    "translate_rules",
    "translate_with_fallbacks",
]

"""Post-translation metrics over JavaAst.

A translation has no jumps. Its methods chain in declaration order as the
source paragraphs they came from chained by fall-through, calls stay opaque
statements, and `return` is a plain statement (halting is interpreter
semantics, as the source side's STOP RUN is). Its control-flow graph is
therefore structured, built from forks and loops alone: the Exit has no
successor, a Branch has two or more, and every other node has one. So
V(G) = E - N + 2 is one plus the sum, over the Branches, of each one's
fan-out minus one (McCabe, IEEE TSE 1976): an if-else or a loop test forks
two ways and adds 1, a switch forks to each case and the default and adds
the number of cases. `java_metrics` counts those decisions in one walk
instead of building the graph. The source side keeps its graph
(`analysis.cfg`): GO TO can strand code that is pruned before counting.
"""

from __future__ import annotations

from typing import NamedTuple

from relicforge.transpile import jnodes as j

# Statements whose Branch forks two ways.
_DECISIONS = frozenset({j.IF_ELSE, j.WHILE, j.DO_WHILE, j.FOR})


class JavaMetrics(NamedTuple):
    """The two figures scoring compares with the source's."""

    cyclomatic: int
    coupling: int


def java_metrics(jast: j.JavaAst) -> JavaMetrics:
    """V(G) of the class's one graph, and the number of distinct call
    targets that leave the class."""
    own = jast.method_names()
    cyclomatic = 1
    external: set[str] = set()
    for s in j.all_statements(jast):
        kind = s.kind
        if kind in _DECISIONS:
            cyclomatic += 1
        elif kind is j.SWITCH:
            cyclomatic += len(s.cases)
        elif kind is j.METHOD_CALL and s.name not in own:
            external.add(s.name)
    return JavaMetrics(cyclomatic, len(external))

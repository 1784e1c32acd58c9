"""Post-translation metrics over JavaAst.

One CFG per class, built from the same CfgBuilder shapes as the source
graph: methods chain in declaration order exactly as the source paragraphs
they came from chained by fall-through, and calls stay opaque Stmt nodes.
That keeps the decision rules identical on both sides, so the translated
complexity is comparable to (and never inflated over) the source figure.
Return is a plain node: halting is interpreter semantics, same as the
source side's stop statement.
"""

from __future__ import annotations

from typing import NamedTuple

from relicforge.analysis.cfg import (
    BRANCH,
    CASE,
    ENTRY,
    EXIT,
    FALSE,
    LOOP_BACK,
    SEQ,
    TRUE,
    Cfg,
    CfgBuilder,
    Out,
    cyclomatic,
)
from relicforge.transpile import jnodes as j


class _JavaBuilder(CfgBuilder):
    def build_stmt(self, stmt) -> tuple[int, list[Out]]:
        kind = stmt.kind
        if kind is j.IF_ELSE:
            return self.fork(((stmt.then_body, TRUE), (stmt.else_body, FALSE)))
        if kind is j.SWITCH:
            arms = [(case.body, CASE) for case in stmt.cases]
            return self.fork(arms + [(stmt.default or [], FALSE)])
        if kind in (j.WHILE, j.FOR):
            return self.loop(stmt.body)
        if kind is j.DO_WHILE:
            # Post-test loop, a shape the COBOL side has no statement for.
            body_head, body_outs = self.build_seq(stmt.body)
            branch = self.add(BRANCH)
            self.connect(body_outs, branch)
            head = body_head if body_head is not None else branch
            self.edge(branch, head, LOOP_BACK)
            return head, [Out(branch, FALSE)]
        return self.plain()


def build_java_cfg(jast: j.JavaAst) -> Cfg:
    b = _JavaBuilder()
    entry = b.add(ENTRY)
    outs = [Out(entry, SEQ)]
    for method in jast.methods:
        head, m_outs = b.build_seq(method.body)
        if head is None:
            continue  # empty method bodies add no flow
        b.connect(outs, head)
        outs = m_outs
    exit_id = b.add(EXIT)
    b.connect(outs, exit_id)
    return Cfg(nodes=b.nodes, edges=b.edges, entry=entry, exit=exit_id, pruned=0)


def java_coupling(jast: j.JavaAst) -> int:
    """Distinct call targets that leave the class."""
    own = jast.method_names()
    return len(
        {
            s.name
            for s in j.all_statements(jast)
            if s.kind is j.METHOD_CALL and s.name not in own
        }
    )


class JavaMetrics(NamedTuple):
    """The two figures scoring compares with the source's."""

    cyclomatic: int
    coupling: int


def java_metrics(jast: j.JavaAst) -> JavaMetrics:
    return JavaMetrics(cyclomatic(build_java_cfg(jast)), java_coupling(jast))

"""The CFG builder and the translation's metrics against the builders
they replaced.

The COBOL and Java graphs used to come from two copies of the same
builder. The references below are those copies as they were (the Java
one's chain-exit class renamed from _Out to _JOut so both fit in one
module), with the Java coupling count as it was. Every COBOL graph must
serialize exactly as the reference's does: same node ids and kinds, same
edges in the same order, same pruned count. Every translation's
`java_metrics` must equal the reference Java graph's E - N + 2 and the
reference coupling.
"""

import random
from dataclasses import dataclass

import pytest

from relicforge.analysis import build_cfg
from relicforge.analysis.cfg import Cfg, CfgEdge, CfgNode, CfgNodeKind, EdgeKind
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program, sample_program
from relicforge.transpile import (
    Action,
    ActionKind,
    chain_shape,
    java_metrics,
    translate_rules,
    translate_with_fallbacks,
)
from relicforge.transpile import jnodes as j

# --- the reference: the two builders as they were ---------------------------


# A dangling chain exit waiting to be wired to whatever comes next.
@dataclass(frozen=True)
class _Out:
    node: int
    kind: EdgeKind


class _Builder:
    def __init__(self):
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []
        self.goto_fixups: list[tuple[int, str]] = []

    def add(self, kind: CfgNodeKind) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id, kind))
        return node_id

    def edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append(CfgEdge(src, dst, kind))

    def connect(self, outs: list[_Out], dst: int, kind: EdgeKind | None = None) -> None:
        for out in outs:
            self.edge(out.node, dst, kind if kind is not None else out.kind)

    def build_seq(self, stmts) -> tuple[int | None, list[_Out]]:
        """Build a chain for a statement list: (head id, dangling outs)."""
        head: int | None = None
        outs: list[_Out] = []
        for stmt in stmts:
            s_head, s_outs = self.build_stmt(stmt)
            if head is None:
                head = s_head
            else:
                self.connect(outs, s_head)
            outs = s_outs
        return head, outs

    def build_stmt(self, stmt: n.Stmt) -> tuple[int, list[_Out]]:
        kind = stmt.kind
        if kind is n.NodeKind.IF:
            branch = self.add(CfgNodeKind.BRANCH)
            join = self.add(CfgNodeKind.JOIN)
            then_head, then_outs = self.build_seq(stmt.then_body)
            self.edge(branch, then_head if then_head is not None else join, EdgeKind.TRUE)
            self.connect(then_outs, join)
            else_head, else_outs = self.build_seq(stmt.else_body)
            self.edge(branch, else_head if else_head is not None else join, EdgeKind.FALSE)
            self.connect(else_outs, join)
            return branch, [_Out(join, EdgeKind.SEQ)]
        if kind is n.NodeKind.EVALUATE:
            branch = self.add(CfgNodeKind.BRANCH)
            join = self.add(CfgNodeKind.JOIN)
            for arm in stmt.arms:
                arm_head, arm_outs = self.build_seq(arm.body)
                self.edge(branch, arm_head if arm_head is not None else join, EdgeKind.CASE)
                self.connect(arm_outs, join)
            other_head, other_outs = self.build_seq(stmt.other or [])
            self.edge(branch, other_head if other_head is not None else join, EdgeKind.FALSE)
            self.connect(other_outs, join)
            return branch, [_Out(join, EdgeKind.SEQ)]
        if kind in (
            n.NodeKind.PERFORM_UNTIL,
            n.NodeKind.PERFORM_VARYING,
            n.NodeKind.PERFORM_TIMES,
        ):
            branch = self.add(CfgNodeKind.BRANCH)
            if kind is n.NodeKind.PERFORM_TIMES and stmt.body is None:
                # Counted paragraph perform: the loop test is explicit but
                # the callee stays one opaque call node, never inlined.
                call = self.add(CfgNodeKind.STMT)
                self.edge(branch, call, EdgeKind.TRUE)
                self.edge(call, branch, EdgeKind.LOOP_BACK)
                return branch, [_Out(branch, EdgeKind.FALSE)]
            body_head, body_outs = self.build_seq(stmt.body)
            self.edge(branch, body_head if body_head is not None else branch, EdgeKind.TRUE)
            self.connect(body_outs, branch, EdgeKind.LOOP_BACK)
            return branch, [_Out(branch, EdgeKind.FALSE)]
        if kind is n.NodeKind.GOTO:
            node = self.add(CfgNodeKind.STMT)
            self.goto_fixups.append((node, stmt.target))
            return node, []  # no fall-through
        node = self.add(CfgNodeKind.STMT)
        return node, [_Out(node, EdgeKind.SEQ)]


def ref_build_cfg(ast: n.CobolAst) -> Cfg:
    b = _Builder()
    entry = b.add(CfgNodeKind.ENTRY)

    chains: list[tuple[str, int | None, list[_Out]]] = []
    for para in ast.program.paragraphs:
        head, outs = b.build_seq(para.body)
        chains.append((para.name, head, outs))

    exit_id = b.add(CfgNodeKind.EXIT)

    # Fall-through anchor for each paragraph: its own first node, else the
    # next nonempty paragraph's, else Exit.
    anchors: dict[str, int] = {}
    next_anchor = exit_id
    for name, head, _ in reversed(chains):
        if head is not None:
            next_anchor = head
        anchors[name] = next_anchor

    heads = [head for _, head, _ in chains]
    b.edge(entry, next((h for h in heads if h is not None), exit_id), EdgeKind.SEQ)
    for i, (_, _, outs) in enumerate(chains):
        following = next((h for h in heads[i + 1 :] if h is not None), exit_id)
        b.connect(outs, following)
    for node_id, target in b.goto_fixups:
        b.edge(node_id, anchors[target], EdgeKind.SEQ)

    return _ref_prune(b, entry, exit_id)


def _ref_prune(b: _Builder, entry: int, exit_id: int) -> Cfg:
    adj: dict[int, list[int]] = {}
    for e in b.edges:
        adj.setdefault(e.src, []).append(e.dst)
    seen = {entry}
    stack = [entry]
    while stack:
        for dst in adj.get(stack.pop(), []):
            if dst not in seen:
                seen.add(dst)
                stack.append(dst)
    seen.add(exit_id)  # the Exit node survives even in pathological graphs
    pruned = len(b.nodes) - len(seen)
    nodes = [v for v in b.nodes if v.id in seen]
    edges = [e for e in b.edges if e.src in seen and e.dst in seen]
    return Cfg(nodes=nodes, edges=edges, entry=entry, exit=exit_id, pruned=pruned)


class _JOut:
    __slots__ = ("node", "kind")

    def __init__(self, node: int, kind: EdgeKind):
        self.node = node
        self.kind = kind


class _JBuilder:
    def __init__(self):
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []

    def add(self, kind: CfgNodeKind) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id, kind))
        return node_id

    def edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append(CfgEdge(src, dst, kind))

    def connect(self, outs: list[_JOut], dst: int, kind: EdgeKind | None = None) -> None:
        for out in outs:
            self.edge(out.node, dst, kind if kind is not None else out.kind)

    def build_seq(self, stmts) -> tuple[int | None, list[_JOut]]:
        head: int | None = None
        outs: list[_JOut] = []
        for stmt in stmts:
            s_head, s_outs = self.build_stmt(stmt)
            if head is None:
                head = s_head
            else:
                self.connect(outs, s_head)
            outs = s_outs
        return head, outs

    def build_stmt(self, stmt) -> tuple[int, list[_JOut]]:
        kind = stmt.kind
        if kind is j.JKind.IF_ELSE:
            branch = self.add(CfgNodeKind.BRANCH)
            join = self.add(CfgNodeKind.JOIN)
            then_head, then_outs = self.build_seq(stmt.then_body)
            self.edge(branch, then_head if then_head is not None else join, EdgeKind.TRUE)
            self.connect(then_outs, join)
            else_head, else_outs = self.build_seq(stmt.else_body)
            self.edge(branch, else_head if else_head is not None else join, EdgeKind.FALSE)
            self.connect(else_outs, join)
            return branch, [_JOut(join, EdgeKind.SEQ)]
        if kind is j.JKind.SWITCH:
            branch = self.add(CfgNodeKind.BRANCH)
            join = self.add(CfgNodeKind.JOIN)
            for case in stmt.cases:
                c_head, c_outs = self.build_seq(case.body)
                self.edge(branch, c_head if c_head is not None else join, EdgeKind.CASE)
                self.connect(c_outs, join)
            d_head, d_outs = self.build_seq(stmt.default or [])
            self.edge(branch, d_head if d_head is not None else join, EdgeKind.FALSE)
            self.connect(d_outs, join)
            return branch, [_JOut(join, EdgeKind.SEQ)]
        if kind in (j.JKind.WHILE, j.JKind.FOR):
            branch = self.add(CfgNodeKind.BRANCH)
            body_head, body_outs = self.build_seq(stmt.body)
            self.edge(branch, body_head if body_head is not None else branch, EdgeKind.TRUE)
            self.connect(body_outs, branch, EdgeKind.LOOP_BACK)
            return branch, [_JOut(branch, EdgeKind.FALSE)]
        if kind is j.JKind.DO_WHILE:
            body_head, body_outs = self.build_seq(stmt.body)
            branch = self.add(CfgNodeKind.BRANCH)
            self.connect(body_outs, branch)
            self.edge(branch, body_head if body_head is not None else branch, EdgeKind.LOOP_BACK)
            return body_head if body_head is not None else branch, [_JOut(branch, EdgeKind.FALSE)]
        node = self.add(CfgNodeKind.STMT)
        return node, [_JOut(node, EdgeKind.SEQ)]


def ref_build_java_cfg(jast: j.JavaAst) -> Cfg:
    b = _JBuilder()
    entry = b.add(CfgNodeKind.ENTRY)
    outs = [_JOut(entry, EdgeKind.SEQ)]
    for method in jast.methods:
        head, m_outs = b.build_seq(method.body)
        if head is None:
            continue  # empty method bodies add no flow
        b.connect(outs, head)
        outs = m_outs
    exit_id = b.add(CfgNodeKind.EXIT)
    b.connect(outs, exit_id)
    return Cfg(nodes=b.nodes, edges=b.edges, entry=entry, exit=exit_id, pruned=0)


def ref_java_coupling(jast: j.JavaAst) -> int:
    """Distinct call targets that leave the class."""
    own = jast.method_names()
    return len(
        {
            s.name
            for s in j.all_statements(jast)
            if s.kind is j.METHOD_CALL and s.name not in own
        }
    )


# --- the checks -------------------------------------------------------------

LOOP_ACTIONS = (ActionKind.LOOP_TO_WHILE, ActionKind.LOOP_TO_DO_WHILE, ActionKind.LOOP_TO_FOR)


def translations(ast: n.CobolAst) -> list[j.JavaAst]:
    """The rules translation, then every loop forced to each loop action,
    then every IF ladder that allows it forced to a switch."""
    order = list(n.iter_preorder(ast.program))
    loops = [ref for ref, v in enumerate(order) if v.kind in n.LOOP_KINDS]
    ladders = [
        ref for ref, v in enumerate(order)
        if v.kind is n.NodeKind.IF and chain_shape(v) is not None
    ]
    forced = [{ref: Action(kind) for ref in loops} for kind in LOOP_ACTIONS]
    forced.append({ref: Action(ActionKind.IF_CHAIN_TO_SWITCH) for ref in ladders})
    out = [translate_rules(ast).jast]
    out.extend(translate_with_fallbacks(ast, actions).jast for actions in forced)
    return out


def assert_same_graphs(ast: n.CobolAst) -> list[j.JavaAst]:
    assert build_cfg(ast).to_json() == ref_build_cfg(ast).to_json()
    jasts = translations(ast)
    for jast in jasts:
        ref = ref_build_java_cfg(jast)
        assert java_metrics(jast) == (
            len(ref.edges) - len(ref.nodes) + 2, ref_java_coupling(jast)
        )
    return jasts


def java_kinds(jasts: list[j.JavaAst]) -> set[j.JKind]:
    return {s.kind for jast in jasts for s in j.all_statements(jast)}


@pytest.mark.parametrize("seed", range(200))
def test_random_programs(seed):
    for allow_goto in (False, True):
        assert_same_graphs(random_program(random.Random(seed), allow_goto=allow_goto))


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    assert_same_graphs(sample_program(random.Random(seed)))


def test_empty_procedure_division():
    ast = parse_source(
        SourceFile("e", "IDENTIFICATION DIVISION. PROGRAM-ID. E. PROCEDURE DIVISION.")
    )
    assert ast.paragraphs == []
    assert_same_graphs(ast)


def test_forced_translations_reach_every_java_shape():
    """The comparison above covers each statement shape the Java builder
    has, and GO TO leaves something for the COBOL side to prune."""
    jasts: list[j.JavaAst] = []
    pruned = 0
    for seed in range(40):
        for allow_goto in (False, True):
            ast = random_program(random.Random(seed), allow_goto=allow_goto)
            jasts.extend(translations(ast))
            pruned += build_cfg(ast).pruned
    assert {
        j.JKind.IF_ELSE, j.JKind.SWITCH, j.JKind.WHILE, j.JKind.DO_WHILE, j.JKind.FOR
    } <= java_kinds(jasts)
    assert pruned > 0

"""Control-flow graphs of COBOL programs.

One CFG per program (P=1). Paragraphs chain by fall-through; plain PERFORM
of a paragraph is an opaque statement node so the E-N+2 identity with
decision counting stays exact, while every loop form (UNTIL, VARYING, and
both TIMES forms) is a Branch with a LoopBack edge — the counted paragraph
perform keeps its callee opaque but its loop test explicit, matching the
loop its translation unrolls into. GO TO adds a Seq edge to the target
paragraph's first statement; code left unreachable that way is pruned and
counted. Pruning runs only when a GO TO was placed: without one every node
is reachable and `pruned` is 0. STOP RUN is a plain statement node:
halting is interpreter semantics, and modeling it as fall-through keeps
paragraphs after a mid-program stop connected. Only Branch nodes fan out. An Evaluate branch
carries one Case edge per arm plus a False default edge.

No pipeline stage builds this graph. `metrics.measure` counts its edges,
loop-back edges, Branch nodes and V(G) in one walk of the tree, and the
graph is the reference the tests hold those counts to. The translation
side has no jumps, so `transpile.jmetrics` counts its decisions too.

A node is only an id and a kind: V(G) = E - N + 2 needs the edge and node
counts alone, so no node records which statement it came from.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

from relicforge.cobol import nodes as n


class CfgNodeKind(enum.Enum):
    ENTRY = "Entry"
    EXIT = "Exit"
    STMT = "Stmt"
    BRANCH = "Branch"
    JOIN = "Join"


# Module constants for function bodies: on Python 3.10 and 3.11 a
# `CfgNodeKind.BRANCH` read goes through EnumType's `__getattr__` hook (about
# 140-230 ns against 15-50 ns for a global), and the builder reads them per node.
ENTRY = CfgNodeKind.ENTRY
EXIT = CfgNodeKind.EXIT
STMT = CfgNodeKind.STMT
BRANCH = CfgNodeKind.BRANCH
JOIN = CfgNodeKind.JOIN


class EdgeKind(enum.Enum):
    SEQ = "Seq"
    TRUE = "True"
    FALSE = "False"
    LOOP_BACK = "LoopBack"
    CASE = "Case"


# Module constants for function bodies, as for CfgNodeKind above: one
# `EdgeKind.SEQ` read costs about 140-230 ns on Python 3.10 and 3.11.
SEQ = EdgeKind.SEQ
TRUE = EdgeKind.TRUE
FALSE = EdgeKind.FALSE
LOOP_BACK = EdgeKind.LOOP_BACK
CASE = EdgeKind.CASE


class CfgNode(NamedTuple):
    id: int
    kind: CfgNodeKind


class CfgEdge(NamedTuple):
    src: int
    dst: int
    kind: EdgeKind


@dataclass
class Cfg:
    nodes: list[CfgNode]
    edges: list[CfgEdge]
    entry: int
    exit: int
    pruned: int = 0

    def branch_count(self) -> int:
        return sum(1 for node in self.nodes if node.kind is BRANCH)

    def loop_back_count(self) -> int:
        return sum(1 for e in self.edges if e.kind is LOOP_BACK)

    def to_json(self) -> dict:
        return {
            "nodes": [{"id": v.id, "kind": v.kind.value} for v in self.nodes],
            "edges": [[e.src, e.dst, e.kind.value] for e in self.edges],
            "entry": self.entry,
            "exit": self.exit,
            "pruned": self.pruned,
        }


# A dangling chain exit waiting to be wired to whatever comes next.
class Out(NamedTuple):
    node: int
    kind: EdgeKind


_new = tuple.__new__  # skips the Python-level __new__ of a NamedTuple


class _Builder:
    """Maps each statement onto a fork, a loop or a plain node; every shape
    returns (head id, dangling outs). A GO TO's edge waits in `goto_fixups`
    until every paragraph's anchor is known."""

    def __init__(self):
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []
        self.goto_fixups: list[tuple[int, str]] = []

    def add(self, kind: CfgNodeKind) -> int:
        nodes = self.nodes
        node_id = len(nodes)
        nodes.append(_new(CfgNode, (node_id, kind)))
        return node_id

    def edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append(_new(CfgEdge, (src, dst, kind)))

    def connect(self, outs: list[Out], dst: int, kind: EdgeKind | None = None) -> None:
        append = self.edges.append
        for node, out_kind in outs:
            append(_new(CfgEdge, (node, dst, kind if kind is not None else out_kind)))

    def build_seq(self, stmts) -> tuple[int | None, list[Out]]:
        """Build a chain for a statement list: (head id, dangling outs)."""
        head: int | None = None
        outs: list[Out] = []
        for stmt in stmts:
            s_head, s_outs = self.build_stmt(stmt)
            if head is None:
                head = s_head
            else:
                self.connect(outs, s_head)
            outs = s_outs
        return head, outs

    def build_stmt(self, stmt: n.Stmt) -> tuple[int, list[Out]]:
        cls = stmt.__class__
        if cls is n.If:
            return self.fork(((stmt.then_body, TRUE), (stmt.else_body, FALSE)))
        if cls is n.Evaluate:
            arms = [(arm.body, CASE) for arm in stmt.arms]
            return self.fork(arms + [(stmt.other or [], FALSE)])
        if cls in n.LOOP_KINDS:
            # A pre-test loop: the Branch enters the body on True, the body
            # loops back to it, and False leaves. A counted paragraph
            # perform's body is one opaque call node, never inlined.
            branch = self.add(BRANCH)
            if cls is n.PerformTimes and stmt.body is None:
                head = self.add(STMT)
                outs = [_new(Out, (head, SEQ))]
            else:
                head, outs = self.build_seq(stmt.body)
            self.edge(branch, head if head is not None else branch, TRUE)
            self.connect(outs, branch, LOOP_BACK)
            return branch, [_new(Out, (branch, FALSE))]
        node = self.add(STMT)
        if cls is n.GoTo:
            self.goto_fixups.append((node, stmt.target))
            return node, []  # no fall-through
        return node, [_new(Out, (node, SEQ))]

    def fork(self, arms) -> tuple[int, list[Out]]:
        """A Branch with one edge per (body, edge kind) arm into a Join; an
        empty arm's edge goes straight to the Join."""
        branch = self.add(BRANCH)
        join = self.add(JOIN)
        for body, kind in arms:
            head, outs = self.build_seq(body)
            self.edge(branch, head if head is not None else join, kind)
            self.connect(outs, join)
        return branch, [_new(Out, (join, SEQ))]


def build_cfg(ast: n.CobolAst) -> Cfg:
    b = _Builder()
    entry = b.add(ENTRY)

    chains: list[tuple[str, int | None, list[Out]]] = []
    for para in ast.program.paragraphs:
        head, outs = b.build_seq(para.body)
        chains.append((para.name, head, outs))

    exit_id = b.add(EXIT)

    # Each chain falls through to the next nonempty paragraph's first node,
    # else Exit. A GO TO lands on its paragraph's anchor: the paragraph's
    # own first node, else where the paragraph falls through to.
    follows: list[int] = []
    anchors: dict[str, int] = {}
    follow = exit_id
    for name, head, _ in reversed(chains):
        follows.append(follow)
        if head is not None:
            follow = head
        anchors[name] = follow
    follows.reverse()

    b.edge(entry, follow, SEQ)
    for (_, _, outs), dst in zip(chains, follows):
        b.connect(outs, dst)
    if not b.goto_fixups:
        # Without a GO TO every node is reachable: nothing to prune.
        return Cfg(nodes=b.nodes, edges=b.edges, entry=entry, exit=exit_id)
    for node_id, target in b.goto_fixups:
        b.edge(node_id, anchors[target], SEQ)

    # Prune what GO TO left unreachable; Exit survives even so.
    seen = _reach(entry, [(e.src, e.dst) for e in b.edges]) | {exit_id}
    nodes = [v for v in b.nodes if v.id in seen]
    edges = [e for e in b.edges if e.src in seen and e.dst in seen]
    return Cfg(nodes=nodes, edges=edges, entry=entry, exit=exit_id,
               pruned=len(b.nodes) - len(seen))


def _reach(start: int, pairs: list[tuple[int, int]]) -> set[int]:
    """Every node reachable from start along the (src, dst) pairs."""
    adj: dict[int, list[int]] = {}
    for src, dst in pairs:
        adj.setdefault(src, []).append(dst)
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj.get(stack.pop(), []):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def validate(cfg: Cfg) -> list[str]:
    """Invariant check used by tests; returns human-readable violations."""
    problems: list[str] = []
    kinds = [v.kind for v in cfg.nodes]
    if kinds.count(ENTRY) != 1 or kinds.count(EXIT) != 1:
        problems.append("must have exactly one Entry and one Exit")
    ids = {v.id for v in cfg.nodes}
    from_entry = _reach(cfg.entry, [(e.src, e.dst) for e in cfg.edges])
    if ids - from_entry:
        problems.append(f"{len(ids - from_entry)} nodes unreachable from Entry")
    to_exit = _reach(cfg.exit, [(e.dst, e.src) for e in cfg.edges])
    if ids - to_exit:
        problems.append(f"{len(ids - to_exit)} nodes cannot reach Exit")
    fan_out = Counter(e.src for e in cfg.edges)
    for v in cfg.nodes:
        out = fan_out[v.id]
        if v.kind is EXIT:
            if out != 0:
                problems.append("Exit must have no successors")
        elif out > 1 and v.kind is not BRANCH:
            problems.append(f"non-Branch node {v.id} fans out")
    return problems


def cyclomatic(cfg: Cfg) -> int:
    """McCabe complexity V(G) = E - N + 2 with P=1."""
    return len(cfg.edges) - len(cfg.nodes) + 2

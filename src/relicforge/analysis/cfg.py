"""Control-flow graphs, and the one builder both languages' graphs use.

CfgBuilder holds the shapes (fork, loop, plain statement); build_cfg maps
COBOL onto them here and jmetrics.build_java_cfg maps the emitted Java, so
V(G) before and after translation follows the same rules. One CFG per
program (P=1). Paragraphs chain by fall-through; plain PERFORM of a
paragraph is an opaque statement node so the E-N+2 identity with decision
counting stays exact, while every loop form (UNTIL, VARYING, and both
TIMES forms) is a Branch with a LoopBack edge — the counted paragraph
perform keeps its callee opaque but its loop test explicit, matching the
loop its translation unrolls into. GO TO adds a Seq edge to the target
paragraph's first statement; code left unreachable that way is pruned and
counted. STOP RUN is a plain statement node: halting is interpreter
semantics, and modeling it as fall-through keeps paragraphs after a
mid-program stop connected. Only Branch nodes fan out. An Evaluate branch
carries one Case edge per arm plus a False default edge.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

from relicforge.cobol import nodes as n


class CfgNodeKind(enum.Enum):
    ENTRY = "Entry"
    EXIT = "Exit"
    STMT = "Stmt"
    BRANCH = "Branch"
    JOIN = "Join"


class EdgeKind(enum.Enum):
    SEQ = "Seq"
    TRUE = "True"
    FALSE = "False"
    LOOP_BACK = "LoopBack"
    CASE = "Case"


@dataclass(frozen=True)
class CfgNode:
    id: int
    kind: CfgNodeKind
    stmt_ref: int | None = None


@dataclass(frozen=True)
class CfgEdge:
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
        return sum(1 for node in self.nodes if node.kind is CfgNodeKind.BRANCH)

    def loop_back_count(self) -> int:
        return sum(1 for e in self.edges if e.kind is EdgeKind.LOOP_BACK)

    def to_json(self) -> dict:
        return {
            "nodes": [
                {"id": v.id, "kind": v.kind.value, "stmt_ref": v.stmt_ref}
                for v in self.nodes
            ],
            "edges": [[e.src, e.dst, e.kind.value] for e in self.edges],
            "entry": self.entry,
            "exit": self.exit,
            "pruned": self.pruned,
        }


# A dangling chain exit waiting to be wired to whatever comes next.
@dataclass(frozen=True)
class Out:
    node: int
    kind: EdgeKind


class CfgBuilder:
    """The shape rules both languages' graphs are built from.

    A subclass supplies build_stmt, mapping each statement kind onto fork,
    loop or plain; every shape returns (head id, dangling outs). Nodes
    carry the pre-order index `refs` gives their statement, if any.
    """

    def __init__(self, refs: dict[int, int] | None = None):
        self.refs = refs or {}  # id(ast node) -> pre-order index
        self.nodes: list[CfgNode] = []
        self.edges: list[CfgEdge] = []

    def add(self, kind: CfgNodeKind, stmt=None) -> int:
        node_id = len(self.nodes)
        self.nodes.append(CfgNode(node_id, kind, self.refs.get(id(stmt))))
        return node_id

    def edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append(CfgEdge(src, dst, kind))

    def connect(self, outs: list[Out], dst: int, kind: EdgeKind | None = None) -> None:
        for out in outs:
            self.edge(out.node, dst, kind if kind is not None else out.kind)

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

    def fork(self, stmt, arms) -> tuple[int, list[Out]]:
        """A Branch with one edge per (body, edge kind) arm into a Join; an
        empty arm's edge goes straight to the Join."""
        branch = self.add(CfgNodeKind.BRANCH, stmt)
        join = self.add(CfgNodeKind.JOIN)
        for body, kind in arms:
            head, outs = self.build_seq(body)
            self.edge(branch, head if head is not None else join, kind)
            self.connect(outs, join)
        return branch, [Out(join, EdgeKind.SEQ)]

    def loop(self, stmt, body) -> tuple[int, list[Out]]:
        """A pre-test loop: the Branch enters the body on True, the body
        loops back to it, and False leaves."""
        branch = self.add(CfgNodeKind.BRANCH, stmt)
        head, outs = self.build_seq(body)
        self.edge(branch, head if head is not None else branch, EdgeKind.TRUE)
        self.connect(outs, branch, EdgeKind.LOOP_BACK)
        return branch, [Out(branch, EdgeKind.FALSE)]

    def plain(self, stmt) -> tuple[int, list[Out]]:
        node = self.add(CfgNodeKind.STMT, stmt)
        return node, [Out(node, EdgeKind.SEQ)]


class _CobolBuilder(CfgBuilder):
    def __init__(self, refs: dict[int, int]):
        super().__init__(refs)
        self.goto_fixups: list[tuple[int, str]] = []

    def build_stmt(self, stmt: n.Stmt) -> tuple[int, list[Out]]:
        kind = stmt.kind
        if kind is n.NodeKind.IF:
            return self.fork(stmt, ((stmt.then_body, EdgeKind.TRUE),
                                    (stmt.else_body, EdgeKind.FALSE)))
        if kind is n.NodeKind.EVALUATE:
            arms = [(arm.body, EdgeKind.CASE) for arm in stmt.arms]
            return self.fork(stmt, arms + [(stmt.other or [], EdgeKind.FALSE)])
        if kind is n.NodeKind.PERFORM_TIMES and stmt.body is None:
            # Counted paragraph perform: the loop test is explicit but
            # the callee stays one opaque call node, never inlined.
            branch = self.add(CfgNodeKind.BRANCH, stmt)
            call = self.add(CfgNodeKind.STMT)
            self.edge(branch, call, EdgeKind.TRUE)
            self.edge(call, branch, EdgeKind.LOOP_BACK)
            return branch, [Out(branch, EdgeKind.FALSE)]
        if kind in n.LOOP_KINDS:
            return self.loop(stmt, stmt.body)
        if kind is n.NodeKind.GOTO:
            node = self.add(CfgNodeKind.STMT, stmt)
            self.goto_fixups.append((node, stmt.target))
            return node, []  # no fall-through
        return self.plain(stmt)


def build_cfg(ast: n.CobolAst) -> Cfg:
    refs = {id(node): i for i, node in enumerate(n.iter_preorder(ast.program))}
    b = _CobolBuilder(refs)
    entry = b.add(CfgNodeKind.ENTRY)

    chains: list[tuple[str, int | None, list[Out]]] = []
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
    if kinds.count(CfgNodeKind.ENTRY) != 1 or kinds.count(CfgNodeKind.EXIT) != 1:
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
        if v.kind is CfgNodeKind.EXIT:
            if out != 0:
                problems.append("Exit must have no successors")
        elif out > 1 and v.kind is not CfgNodeKind.BRANCH:
            problems.append(f"non-Branch node {v.id} fans out")
    return problems


def cyclomatic(cfg: Cfg) -> int:
    """McCabe complexity V(G) = E - N + 2 with P=1."""
    return len(cfg.edges) - len(cfg.nodes) + 2

"""build_cfg against the builder it replaced.

The reference below is the COBOL graph builder as it was: frozen
dataclass nodes and edges, and reachability pruning run on every graph.
It is paired with the one-walk file_features of that time, so that
`measure` can be checked end to end. The builder now keeps nodes and
edges as tuples and prunes only after a GO TO; every graph must have the
same node ids, kinds, edges in the same order, entry, exit and pruned
count, and every record from `measure` must be equal. `measure` builds
no graph: it counts the edges, loop-back edges, Branch nodes and V(G) of
the pruned graph in its one walk of the tree, so the GO TO pruning shapes
below check those counts against the reference graph.
"""

import random
from collections import Counter
from dataclasses import dataclass

import pytest

from relicforge.analysis import build_cfg, measure
from relicforge.analysis.cfg import CfgNodeKind, EdgeKind, cyclomatic
from relicforge.analysis.metrics import MetricsRecord
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol import nodes as n
from relicforge.corpus import curate, ingest, load_ast
from relicforge.datagen import random_program, sample_program

# --- the reference: the builder and file_features as they were ----------------


@dataclass(frozen=True)
class _Node:
    id: int
    kind: CfgNodeKind


@dataclass(frozen=True)
class _Edge:
    src: int
    dst: int
    kind: EdgeKind


@dataclass(frozen=True)
class _Out:
    node: int
    kind: EdgeKind


@dataclass
class _Cfg:
    nodes: list[_Node]
    edges: list[_Edge]
    entry: int
    exit: int
    pruned: int = 0


class _Builder:
    def __init__(self):
        self.nodes: list[_Node] = []
        self.edges: list[_Edge] = []
        self.goto_fixups: list[tuple[int, str]] = []

    def add(self, kind: CfgNodeKind) -> int:
        node_id = len(self.nodes)
        self.nodes.append(_Node(node_id, kind))
        return node_id

    def edge(self, src: int, dst: int, kind: EdgeKind) -> None:
        self.edges.append(_Edge(src, dst, kind))

    def connect(self, outs: list[_Out], dst: int, kind: EdgeKind | None = None) -> None:
        for out in outs:
            self.edge(out.node, dst, kind if kind is not None else out.kind)

    def build_seq(self, stmts) -> tuple[int | None, list[_Out]]:
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

    def fork(self, arms) -> tuple[int, list[_Out]]:
        branch = self.add(CfgNodeKind.BRANCH)
        join = self.add(CfgNodeKind.JOIN)
        for body, kind in arms:
            head, outs = self.build_seq(body)
            self.edge(branch, head if head is not None else join, kind)
            self.connect(outs, join)
        return branch, [_Out(join, EdgeKind.SEQ)]

    def loop(self, body) -> tuple[int, list[_Out]]:
        branch = self.add(CfgNodeKind.BRANCH)
        head, outs = self.build_seq(body)
        self.edge(branch, head if head is not None else branch, EdgeKind.TRUE)
        self.connect(outs, branch, EdgeKind.LOOP_BACK)
        return branch, [_Out(branch, EdgeKind.FALSE)]

    def build_stmt(self, stmt: n.Stmt) -> tuple[int, list[_Out]]:
        kind = stmt.kind
        if kind is n.NodeKind.IF:
            return self.fork(((stmt.then_body, EdgeKind.TRUE),
                              (stmt.else_body, EdgeKind.FALSE)))
        if kind is n.NodeKind.EVALUATE:
            arms = [(arm.body, EdgeKind.CASE) for arm in stmt.arms]
            return self.fork(arms + [(stmt.other or [], EdgeKind.FALSE)])
        if kind is n.NodeKind.PERFORM_TIMES and stmt.body is None:
            branch = self.add(CfgNodeKind.BRANCH)
            call = self.add(CfgNodeKind.STMT)
            self.edge(branch, call, EdgeKind.TRUE)
            self.edge(call, branch, EdgeKind.LOOP_BACK)
            return branch, [_Out(branch, EdgeKind.FALSE)]
        if kind in _LOOP_KINDS:
            return self.loop(stmt.body)
        if kind is n.NodeKind.GOTO:
            node = self.add(CfgNodeKind.STMT)
            self.goto_fixups.append((node, stmt.target))
            return node, []
        node = self.add(CfgNodeKind.STMT)
        return node, [_Out(node, EdgeKind.SEQ)]


def _reach(start: int, pairs: list[tuple[int, int]]) -> set[int]:
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


def ref_build_cfg(ast: n.CobolAst) -> _Cfg:
    b = _Builder()
    entry = b.add(CfgNodeKind.ENTRY)

    chains: list[tuple[str, int | None, list[_Out]]] = []
    for para in ast.program.paragraphs:
        head, outs = b.build_seq(para.body)
        chains.append((para.name, head, outs))

    exit_id = b.add(CfgNodeKind.EXIT)

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

    seen = _reach(entry, [(e.src, e.dst) for e in b.edges]) | {exit_id}
    nodes = [v for v in b.nodes if v.id in seen]
    edges = [e for e in b.edges if e.src in seen and e.dst in seen]
    return _Cfg(nodes=nodes, edges=edges, entry=entry, exit=exit_id,
                pruned=len(b.nodes) - len(seen))


_LOOP_KINDS = frozenset(
    {n.NodeKind.PERFORM_TIMES, n.NodeKind.PERFORM_UNTIL, n.NodeKind.PERFORM_VARYING}
)
_STRUCTURAL = (n.NodeKind.PROGRAM, n.NodeKind.DATA_ITEM, n.NodeKind.PARAGRAPH)
_PERFORM_KINDS = (
    n.NodeKind.PERFORM_PARA,
    n.NodeKind.PERFORM_TIMES,
    n.NodeKind.PERFORM_UNTIL,
    n.NodeKind.PERFORM_VARYING,
)


def _children(node: n.Node) -> list[n.Node]:
    """Structural children in source order, spelled out per class, so that
    the reference does not read `nodes`' own child table."""
    kind = node.kind
    if kind is n.NodeKind.PROGRAM:
        return [*node.data_items, *node.paragraphs]
    if kind is n.NodeKind.DATA_ITEM:
        return list(node.children)
    if kind is n.NodeKind.PARAGRAPH:
        return list(node.body)
    if kind is n.NodeKind.IF:
        return [*node.then_body, *node.else_body]
    if kind is n.NodeKind.EVALUATE:
        arms = [stmt for arm in node.arms for stmt in arm.body]
        return arms + list(node.other or [])
    if kind in (n.NodeKind.PERFORM_TIMES, n.NodeKind.PERFORM_UNTIL,
                n.NodeKind.PERFORM_VARYING):
        return list(node.body or [])
    return []


def _preorder_levels(program: n.Program) -> list[tuple[n.Node, int | None]]:
    out: list[tuple[n.Node, int | None]] = []

    def walk(node: n.Node, level: int) -> None:
        if node.kind in _STRUCTURAL:
            out.append((node, None))
            level = 0
        else:
            out.append((node, level))
            level += 1
        for child in _children(node):
            walk(child, level)

    walk(program, 0)
    return out


def _literals(e, kinds: tuple) -> int:
    """Literals of the classes in `kinds` within an expression or condition."""
    if isinstance(e, (n.NumLit, n.StrLit)):
        return int(isinstance(e, kinds))
    if e is None or isinstance(e, n.VarRef):
        return 0
    if isinstance(e, n.NotCond):
        return _literals(e.inner, kinds)
    return _literals(e.left, kinds) + _literals(e.right, kinds)


def _node_literals(node: n.Node, kinds: tuple = (n.NumLit, n.StrLit)) -> int:
    """Literals of the classes in `kinds` in this node's own attributes."""
    kind = node.kind
    if kind is n.NodeKind.MOVE:
        return _literals(node.src, kinds)
    if kind is n.NodeKind.COMPUTE:
        return _literals(node.expr, kinds)
    if kind is n.NodeKind.ARITH:
        return _literals(node.a, kinds) + _literals(node.b, kinds)
    if kind in (n.NodeKind.IF, n.NodeKind.PERFORM_UNTIL):
        return _literals(node.cond, kinds)
    if kind is n.NodeKind.EVALUATE:
        arms = sum(_literals(arm.value, kinds) for arm in node.arms)
        return _literals(node.subject, kinds) + arms
    if kind is n.NodeKind.PERFORM_TIMES:
        return _literals(node.count, kinds)
    if kind is n.NodeKind.PERFORM_VARYING:
        return sum(_literals(e, kinds) for e in (node.from_, node.by, node.until))
    if kind is n.NodeKind.DISPLAY:
        return sum(_literals(a, kinds) for a in node.args)
    if kind is n.NodeKind.CALL:
        return int(n.StrLit in kinds)
    if kind is n.NodeKind.DATA_ITEM and node.value is not None:
        return int((n.StrLit if isinstance(node.value, str) else n.NumLit) in kinds)
    return 0


def ref_file_features(ast: n.CobolAst, cfg: _Cfg) -> list[float]:
    program = ast.program
    walked = _preorder_levels(program)
    stmts = [v for v, level in walked if level is not None]
    levels = [level for _, level in walked if level is not None]
    data = [v for v, _ in walked if v.kind is n.NodeKind.DATA_ITEM]
    kinds = Counter(v.kind for v in stmts)
    para_lens: list[int] = []
    for v, level in walked:
        if v.kind is n.NodeKind.PARAGRAPH:
            para_lens.append(0)
        elif level is not None:
            para_lens[-1] += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = [v.program for v in stmts if v.kind is n.NodeKind.CALL]
    literals = sum(_node_literals(v) for v, _ in walked)
    strings = sum(_node_literals(v, (n.StrLit,)) for v, _ in walked)
    branches = sum(1 for v in cfg.nodes if v.kind is CfgNodeKind.BRANCH)
    loop_backs = sum(1 for e in cfg.edges if e.kind is EdgeKind.LOOP_BACK)
    return [
        float(ast.source_lines),
        float(ast.token_count),
        float(len(walked)),
        float(len(cfg.edges)),
        float(loop_backs),
        float(len(program.paragraphs)),
        float(len(stmts)),
        float(len(calls)),
        float(len(set(calls))),
        float(sum(kinds[k] for k in _PERFORM_KINDS)),
        float(kinds[n.NodeKind.IF]),
        float(kinds[n.NodeKind.EVALUATE]),
        float(kinds[n.NodeKind.GOTO]),
        float(kinds[n.NodeKind.MOVE]),
        float(kinds[n.NodeKind.COMPUTE]),
        float(kinds[n.NodeKind.ARITH]),
        float(kinds[n.NodeKind.DISPLAY]),
        float(kinds[n.NodeKind.ACCEPT]),
        float(max(levels, default=0)),
        ratio(sum(levels), len(levels)),
        float(len(data)),
        float(sum(1 for d in data if not d.is_group and d.is_numeric)),
        float(sum(1 for d in data if not d.is_group and not d.is_numeric)),
        float(sum(1 for d in data if d.is_group)),
        float(len(cfg.edges) - len(cfg.nodes) + 2),
        float(max(para_lens, default=0)),
        ratio(sum(para_lens), len(para_lens)),
        ratio(branches, len(stmts)),
        float(literals),
        float(strings),
    ]


def ref_measure(ast: n.CobolAst) -> MetricsRecord:
    cfg = ref_build_cfg(ast)
    features = ref_file_features(ast, cfg)
    return MetricsRecord(
        cyclomatic=len(cfg.edges) - len(cfg.nodes) + 2,
        coupling=int(features[8]),
        lines=ast.source_lines,
        features=features,
    )


# --- the checks -------------------------------------------------------------


def _graph(cfg) -> tuple:
    return (
        [(v.id, v.kind) for v in cfg.nodes],
        [(e.src, e.dst, e.kind) for e in cfg.edges],
        cfg.entry,
        cfg.exit,
        cfg.pruned,
    )


def assert_same_cfg(ast: n.CobolAst) -> None:
    cfg = build_cfg(ast)
    assert _graph(cfg) == _graph(ref_build_cfg(ast))
    assert measure(ast) == ref_measure(ast)
    assert cyclomatic(cfg) == measure(ast).cyclomatic


@pytest.mark.parametrize("seed", range(300))
def test_random_programs(seed):
    for allow_goto in (False, True):
        assert_same_cfg(random_program(random.Random(seed), allow_goto=allow_goto))


def test_goto_programs_leave_something_to_prune():
    assert any(
        build_cfg(random_program(random.Random(seed), allow_goto=True)).pruned
        for seed in range(40)
    )


@pytest.mark.parametrize("seed", range(5))
def test_sample_programs(seed):
    assert_same_cfg(sample_program(random.Random(seed)))


def test_fixture_corpus(fixture_corpus):
    root, _ = fixture_corpus
    eligible = curate(ingest(root), root).eligible()
    assert len(eligible) == 12
    for record in eligible:
        ast = load_ast(root, record)
        assert_same_cfg(ast)


NUMBERING_CASES = {
    "nested_data_and_empty_paragraphs": """
IDENTIFICATION DIVISION. PROGRAM-ID. P.
DATA DIVISION. WORKING-STORAGE SECTION.
01 REC.
   05 A PIC 9(2) VALUE 1.
   05 INNER.
      10 B PIC X(3) VALUE 'AB'.
      10 C PIC 9.
77 D PIC 9(4) VALUE 0.
01 E PIC 9.
PROCEDURE DIVISION.
FIRST-P.
SECOND-P.
    IF A = 1 PERFORM THIRD-P 2 TIMES ELSE CALL 'X' USING B END-IF.
THIRD-P.
FOURTH-P.
    EVALUATE A WHEN 1 MOVE 2 TO A WHEN 2 DISPLAY A END-EVALUATE.
""",
    "implicit_main_and_goto_into_empty_paragraphs": """
IDENTIFICATION DIVISION. PROGRAM-ID. Q.
DATA DIVISION. WORKING-STORAGE SECTION.
01 N PIC 9(2) VALUE 0.
PROCEDURE DIVISION.
    MOVE 1 TO N.
    GO TO EMPTY-P.
    DISPLAY 'DEAD'.
HIDDEN-P.
    PERFORM UNTIL N > 3 ADD 1 TO N END-PERFORM.
EMPTY-P.
LAST-P.
    PERFORM 2 TIMES DISPLAY N END-PERFORM.
    STOP RUN.
""",
    "no_data_division": """
IDENTIFICATION DIVISION. PROGRAM-ID. R.
PROCEDURE DIVISION.
MAIN.
    PERFORM VARYING I FROM 1 BY 1 UNTIL I > 2 DISPLAY I END-PERFORM.
    STOP RUN.
""",
}


def _case(name: str) -> n.CobolAst:
    return parse_source(SourceFile("t", NUMBERING_CASES[name]))


@pytest.mark.parametrize("name", sorted(NUMBERING_CASES))
def test_numbering_cases(name):
    assert_same_cfg(_case(name))


def test_numbering_cases_cover_nesting_and_pruning():
    nested = _case("nested_data_and_empty_paragraphs")
    assert [len(d.children) for d in nested.data_items] == [2, 0, 0]
    assert [len(d.children) for d in nested.data_items[0].children] == [0, 2]
    assert build_cfg(nested).pruned == 0
    assert build_cfg(_case("implicit_main_and_goto_into_empty_paragraphs")).pruned > 0


# --- GO TO pruning: `measure` counts the graph without building it -----------

PRUNING_HEADER = """IDENTIFICATION DIVISION. PROGRAM-ID. G.
DATA DIVISION. WORKING-STORAGE SECTION.
01 N PIC 9(2) VALUE 0.
PROCEDURE DIVISION.
"""
PRUNING_CASES = {
    "if_both_arms_go_to": """
MAIN.
    IF N = 1 GO TO TWO-P ELSE GO TO THREE-P END-IF.
    DISPLAY 'DEAD'.
TWO-P.
    DISPLAY 'TWO'.
THREE-P.
    DISPLAY 'THREE'.
""",
    "evaluate_every_arm_and_other_go_to": """
MAIN.
    EVALUATE N WHEN 1 GO TO TWO-P WHEN 2 GO TO THREE-P
        WHEN OTHER GO TO THREE-P END-EVALUATE.
    DISPLAY 'DEAD'.
TWO-P.
    DISPLAY 'TWO'.
THREE-P.
    DISPLAY 'THREE'.
""",
    "evaluate_every_arm_go_to_without_other": """
MAIN.
    EVALUATE N WHEN 1 GO TO TWO-P WHEN 2 GO TO THREE-P END-EVALUATE.
    DISPLAY 'LIVE'.
    GO TO THREE-P.
TWO-P.
    DISPLAY 'TWO'.
THREE-P.
    DISPLAY 'THREE'.
""",
    "loop_bodies_end_in_go_to": """
MAIN.
    PERFORM UNTIL N > 3 ADD 1 TO N GO TO TWO-P END-PERFORM.
    PERFORM 2 TIMES DISPLAY N GO TO TWO-P END-PERFORM.
    PERFORM VARYING N FROM 1 BY 1 UNTIL N > 2 GO TO TWO-P END-PERFORM.
TWO-P.
    DISPLAY 'TWO'.
""",
    "go_to_an_empty_paragraph": """
MAIN.
    GO TO EMPTY-P.
SKIPPED-P.
    DISPLAY 'DEAD'.
EMPTY-P.
LAST-P.
    DISPLAY 'LAST'.
""",
    "go_to_the_last_paragraph": """
MAIN.
    GO TO LAST-P.
SKIPPED-P.
    DISPLAY 'DEAD'.
LAST-P.
    DISPLAY 'LAST'.
""",
    "go_to_an_empty_last_paragraph": """
MAIN.
    GO TO LAST-P.
SKIPPED-P.
    DISPLAY 'DEAD'.
LAST-P.
""",
    "backward_go_to": """
MAIN.
    GO TO B-P.
A-P.
    DISPLAY 'A'.
    GO TO C-P.
B-P.
    ADD 1 TO N.
    IF N < 3 GO TO B-P END-IF.
    GO TO A-P.
SKIPPED-P.
    DISPLAY 'DEAD'.
C-P.
    STOP RUN.
""",
    "paragraph_reached_only_through_perform": """
MAIN.
    GO TO END-P.
SUB-P.
    DISPLAY 'SUB'.
COUNTED-P.
    DISPLAY 'COUNTED'.
END-P.
    PERFORM SUB-P.
    PERFORM COUNTED-P 2 TIMES.
    STOP RUN.
""",
    "statements_after_go_to_in_nested_bodies": """
MAIN.
    IF N = 1
        DISPLAY 'A'
        GO TO TWO-P
        DISPLAY 'DEAD'
        IF N = 2 DISPLAY 'DEAD' ELSE GO TO MAIN END-IF
    ELSE
        PERFORM UNTIL N > 2
            ADD 1 TO N
            GO TO TWO-P
            PERFORM 2 TIMES DISPLAY 'DEAD' END-PERFORM
        END-PERFORM
    END-IF.
    DISPLAY 'AFTER'.
TWO-P.
    EVALUATE N
        WHEN 1 GO TO MAIN
            EVALUATE N WHEN 2 DISPLAY 'DEAD' END-EVALUATE
        WHEN OTHER DISPLAY 'OTHER'
    END-EVALUATE.
""",
}


def _pruning_case(name: str) -> n.CobolAst:
    return parse_source(SourceFile("t", PRUNING_HEADER + PRUNING_CASES[name]))


@pytest.mark.parametrize("name", sorted(PRUNING_CASES))
def test_pruning_cases(name):
    assert_same_cfg(_pruning_case(name))


def test_pruning_cases_prune():
    pruned = {name: build_cfg(_pruning_case(name)).pruned for name in PRUNING_CASES}
    unpruned = {"evaluate_every_arm_go_to_without_other", "loop_bodies_end_in_go_to"}
    assert {name for name, count in pruned.items() if not count} == unpruned


@pytest.mark.parametrize("seed", range(500))
def test_measure_counts_the_graph_of_go_to_programs(seed):
    ast = random_program(random.Random(seed), allow_goto=True)
    assert measure(ast) == ref_measure(ast)

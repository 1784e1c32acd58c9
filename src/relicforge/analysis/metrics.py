"""Static metrics: cyclomatic complexity, coupling, 30-dim file features."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from relicforge.analysis.cfg import Cfg, CfgNodeKind, build_cfg, cyclomatic
from relicforge.cobol import nodes as n

FEATURE_NAMES = (
    "lines",
    "tokens",
    "ast_nodes",
    "cfg_edges",
    "cfg_cycles",
    "paragraphs",
    "statements",
    "calls_total",
    "calls_distinct",
    "performs",
    "ifs",
    "evaluates",
    "gotos",
    "moves",
    "computes",
    "arith_ops",
    "displays",
    "accepts",
    "max_nesting",
    "mean_nesting",
    "data_items",
    "numeric_items",
    "alnum_items",
    "group_items",
    "cyclomatic",
    "max_paragraph_len",
    "mean_paragraph_len",
    "branch_density",
    "literal_count",
    "string_literal_count",
)

_CALLS_DISTINCT = FEATURE_NAMES.index("calls_distinct")

_STRUCTURAL = (n.NodeKind.PROGRAM, n.NodeKind.DATA_ITEM, n.NodeKind.PARAGRAPH)

_PERFORM_KINDS = (
    n.NodeKind.PERFORM_PARA,
    n.NodeKind.PERFORM_TIMES,
    n.NodeKind.PERFORM_UNTIL,
    n.NodeKind.PERFORM_VARYING,
)


def is_statement(node: n.Node) -> bool:
    return node.kind not in _STRUCTURAL


def statement_nodes(ast: n.CobolAst) -> list[n.Stmt]:
    return [v for v in n.iter_preorder(ast.program) if is_statement(v)]


def coupling(ast: n.CobolAst) -> int:
    """Distinct CALL target program names (fan-out)."""
    return len({v.program for v in statement_nodes(ast) if v.kind is n.NodeKind.CALL})


def decision_complexity(ast: n.CobolAst) -> int:
    """Independent complexity count straight off the AST: one per binary
    decision, plus the arm count of each Evaluate, plus one.

    Plain PERFORM of a paragraph is opaque here exactly as it is in the
    CFG, and every loop form counts one decision (a counted paragraph
    perform tests its counter each pass), so this equals
    cyclomatic(build_cfg(ast)) whenever every statement is reachable.
    GO TO can strand statements; those are pruned from the CFG but still
    counted here, so the identity is asserted only over fully-reachable
    programs.
    """
    total = 1
    for node in statement_nodes(ast):
        kind = node.kind
        if kind in (
            n.NodeKind.IF,
            n.NodeKind.PERFORM_UNTIL,
            n.NodeKind.PERFORM_VARYING,
            n.NodeKind.PERFORM_TIMES,
        ):
            total += 1
        elif kind is n.NodeKind.EVALUATE:
            total += len(node.arms)
    return total


def _preorder_levels(program: n.Program) -> list[tuple[n.Node, int | None]]:
    """Every node in pre-order with its statement nesting level (top-level
    statement = 0; None for Program, DataItem and Paragraph nodes)."""
    out: list[tuple[n.Node, int | None]] = []

    def walk(node: n.Node, level: int) -> None:
        if node.kind in _STRUCTURAL:
            out.append((node, None))
            level = 0
        else:
            out.append((node, level))
            level += 1
        for child in n.child_nodes(node):
            walk(child, level)

    walk(program, 0)
    return out


def nesting_levels(ast: n.CobolAst) -> dict[int, int]:
    """Pre-order index -> statement nesting level (top-level stmt = 0)."""
    walked = _preorder_levels(ast.program)
    return {i: level for i, (_, level) in enumerate(walked) if level is not None}


def file_features(ast: n.CobolAst, cfg: Cfg) -> list[float]:
    """The FEATURE_NAMES values, counted off one pre-order walk and the CFG."""
    program = ast.program
    walked = _preorder_levels(program)
    stmts = [v for v, level in walked if level is not None]
    levels = [level for _, level in walked if level is not None]
    data = [v for v, _ in walked if v.kind is n.NodeKind.DATA_ITEM]
    kinds = Counter(v.kind for v in stmts)
    # Paragraphs follow the data items, so each statement counts toward the
    # last Paragraph entry before it.
    para_lens: list[int] = []
    for v, level in walked:
        if v.kind is n.NodeKind.PARAGRAPH:
            para_lens.append(0)
        elif level is not None:
            para_lens[-1] += 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = [v.program for v in stmts if v.kind is n.NodeKind.CALL]
    branches = sum(1 for v in cfg.nodes if v.kind is CfgNodeKind.BRANCH)
    literals = sum(n.node_literal_count(v) for v, _ in walked)
    strings = sum(n.node_literal_count(v, (n.StrLit,)) for v, _ in walked)

    features = [
        float(ast.source_lines),
        float(ast.token_count),
        float(len(walked)),
        float(len(cfg.edges)),
        float(cfg.loop_back_count()),
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
        float(cyclomatic(cfg)),
        float(max(para_lens, default=0)),
        ratio(sum(para_lens), len(para_lens)),
        ratio(branches, len(stmts)),
        float(literals),
        float(strings),
    ]
    assert len(features) == 30
    return features


@dataclass
class MetricsRecord:
    cyclomatic: int
    coupling: int
    lines: int
    features: list[float]

    def to_json(self) -> dict:
        return {
            "cyclomatic": self.cyclomatic,
            "coupling": self.coupling,
            "lines": self.lines,
            "features": list(self.features),
        }

    @classmethod
    def from_json(cls, data: dict) -> "MetricsRecord":
        return cls(
            cyclomatic=data["cyclomatic"],
            coupling=data["coupling"],
            lines=data["lines"],
            features=list(data["features"]),
        )


def measure(ast: n.CobolAst) -> MetricsRecord:
    cfg = build_cfg(ast)
    features = file_features(ast, cfg)
    return MetricsRecord(
        cyclomatic=cyclomatic(cfg),
        coupling=int(features[_CALLS_DISTINCT]),
        lines=ast.source_lines,
        features=features,
    )

"""Static metrics: cyclomatic complexity, coupling, 30-dim file features."""

from __future__ import annotations

from dataclasses import dataclass

from relicforge.analysis.cfg import Cfg, build_cfg, cyclomatic
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
    return len({v.program for v in statement_nodes(ast) if v.kind is n.CALL})


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
        if kind in (n.IF, n.PERFORM_UNTIL, n.PERFORM_VARYING, n.PERFORM_TIMES):
            total += 1
        elif kind is n.EVALUATE:
            total += len(node.arms)
    return total


def file_features(ast: n.CobolAst, cfg: Cfg) -> list[float]:
    """The FEATURE_NAMES values, counted off one walk of the tree and the CFG."""
    program = ast.program
    kind_ids = n.KIND_IDS
    tally = [0] * len(kind_ids)  # statements of each kind, by KIND_IDS
    levels: list[int] = []  # each statement's nesting level, top level 0
    calls: list[str] = []
    data: list[n.DataItem] = []
    literals = strings = 0

    def walk_data(items: list[n.DataItem]) -> None:
        nonlocal literals, strings
        for item in items:
            data.append(item)
            if item.value is not None:
                found, found_strings = n.node_literal_counts(item)
                literals += found
                strings += found_strings
            walk_data(item.children)

    def walk_body(body, level: int) -> int:
        """Statements in body, nested ones included."""
        nonlocal literals, strings
        count = len(body)
        for stmt in body:
            kind = stmt.kind
            tally[kind_ids[kind]] += 1
            levels.append(level)
            if kind is n.CALL:
                calls.append(stmt.program)
            found, found_strings = n.node_literal_counts(stmt)
            literals += found
            strings += found_strings
            children = n.child_nodes(stmt)
            if children:
                count += walk_body(children, level + 1)
        return count

    walk_data(program.data_items)
    para_lens = [walk_body(para.body, 0) for para in program.paragraphs]
    stmt_count = len(levels)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def kinds(*wanted: n.NodeKind) -> float:
        return float(sum(tally[kind_ids[k]] for k in wanted))

    features = [
        float(ast.source_lines),
        float(ast.token_count),
        float(1 + len(data) + len(program.paragraphs) + stmt_count),
        float(len(cfg.edges)),
        float(cfg.loop_back_count()),
        float(len(program.paragraphs)),
        float(stmt_count),
        float(len(calls)),
        float(len(set(calls))),
        kinds(*_PERFORM_KINDS),
        kinds(n.IF),
        kinds(n.EVALUATE),
        kinds(n.GOTO),
        kinds(n.MOVE),
        kinds(n.COMPUTE),
        kinds(n.ARITH),
        kinds(n.DISPLAY),
        kinds(n.ACCEPT),
        float(max(levels, default=0)),
        ratio(sum(levels), stmt_count),
        float(len(data)),
        float(sum(1 for d in data if not d.is_group and d.is_numeric)),
        float(sum(1 for d in data if not d.is_group and not d.is_numeric)),
        float(sum(1 for d in data if d.is_group)),
        float(cyclomatic(cfg)),
        float(max(para_lens, default=0)),
        ratio(sum(para_lens), len(para_lens)),
        ratio(cfg.branch_count(), stmt_count),
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

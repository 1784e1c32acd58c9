"""Static metrics: the 30-dim file features, McCabe complexity among them.

`file_features` counts everything in one walk over the tree, the numbers
of the control-flow graph included: `cfg_edges`, `cfg_cycles`,
`cyclomatic` and the Branch count behind `branch_density` all equal those
of the pruned graph `cfg.build_cfg` makes, which the tests hold them to.
`measure` builds no graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from relicforge.analysis.cfg import build_cfg  # noqa: F401  the traced benchmark wraps it here
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
_CYCLOMATIC = FEATURE_NAMES.index("cyclomatic")

# The classes the walk tests per statement, as module constants: a global
# read is cheaper than a read through the `n` module.
_If, _Evaluate, _GoTo, _Call = n.If, n.Evaluate, n.GoTo, n.Call
_LOOPS = n.LOOP_KINDS


class _Paragraph:
    """What happens to control that enters a paragraph: the graph nodes it
    reaches, Branch nodes among them, their decisions (fan-out - 1 each),
    loop-back edges, whether it falls out the end, and its GO TO targets."""

    __slots__ = ("nodes", "branches", "decisions", "loop_backs", "falls_out", "jumps")

    def __init__(self):
        self.nodes = self.branches = self.decisions = self.loop_backs = 0
        self.falls_out = False
        self.jumps: list[str] = []


def file_features(ast: n.CobolAst) -> list[float]:
    """The FEATURE_NAMES values, counted off one walk of the tree.

    The graph of `cfg.build_cfg` has one node per statement, plus a Join
    per fork and one opaque call node per counted paragraph perform; only
    Branch nodes fan out (IF 2, EVALUATE arms + 1, every loop 2). Over the
    nodes control can reach, Exit aside, V(G) = 1 + sum(fan-out - 1) and
    E = N + V(G) - 1. GO TO jumps only to a paragraph's start, so the walk
    keeps one summary per paragraph, and the paragraphs reached from Entry
    are summed afterwards.
    """
    program = ast.program
    tally: dict[type, int] = {}  # statements of each node class
    levels: list[int] = []  # each statement's nesting level, top level 0
    calls: list[str] = []
    data: list[n.DataItem] = []
    literals = strings = 0
    para: _Paragraph

    def walk_data(items: list[n.DataItem]) -> None:
        nonlocal literals, strings
        for item in items:
            data.append(item)
            if item.value is not None:
                found, found_strings = n.node_literal_counts(item)
                literals += found
                strings += found_strings
            walk_data(item.children)

    def walk_body(body, level: int, live: bool) -> bool:
        """Tally the statements in body, nested ones included; count into
        `para` the graph nodes of those control reaches when `live`.
        Returns whether control falls out the end of body."""
        nonlocal literals, strings
        for stmt in body:
            cls = stmt.__class__
            tally[cls] = tally.get(cls, 0) + 1
            levels.append(level)
            found, found_strings = n.node_literal_counts(stmt)
            literals += found
            strings += found_strings
            if cls is _If or cls is _Evaluate:
                arms = n.child_lists(stmt)  # then and else, or each WHEN and OTHER
                # The Join is reached only when some arm falls through; an
                # empty arm is an edge straight to it.
                joined = False
                for arm in arms:
                    joined = walk_body(arm, level + 1, live) or joined
                if live:
                    para.nodes += 1 + joined
                    para.branches += 1
                    para.decisions += len(arms) - 1
                    live = joined
            elif cls in _LOOPS:
                loop_body = stmt.body
                if loop_body is None:  # a counted paragraph perform: one call node
                    looped = True
                else:
                    looped = walk_body(loop_body, level + 1, live) and bool(loop_body)
                if live:
                    para.nodes += 1 + (loop_body is None)
                    para.branches += 1
                    para.decisions += 1
                    para.loop_backs += looped
            elif live:
                para.nodes += 1
                if cls is _GoTo:
                    para.jumps.append(stmt.target)
                    live = False
            if cls is _Call:
                calls.append(stmt.program)
        return live

    walk_data(program.data_items)
    paragraphs = program.paragraphs
    summaries: list[_Paragraph] = []
    para_lens: list[int] = []
    for paragraph in paragraphs:
        para = _Paragraph()
        before = len(levels)
        para.falls_out = walk_body(paragraph.body, 0, True)
        summaries.append(para)
        para_lens.append(len(levels) - before)

    nodes, branches, decisions, loop_backs = _reached(paragraphs, summaries)
    cyclomatic = 1 + decisions
    stmt_count = len(levels)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def kinds(cls: type) -> float:
        return float(tally.get(cls, 0))

    features = [
        float(ast.source_lines),
        float(ast.token_count),
        float(1 + len(data) + len(paragraphs) + stmt_count),
        float(nodes + cyclomatic - 1),
        float(loop_backs),
        float(len(paragraphs)),
        float(stmt_count),
        float(len(calls)),
        float(len(set(calls))),
        float(sum(tally.get(cls, 0) for cls in (n.PerformPara, *_LOOPS))),
        kinds(n.If),
        kinds(n.Evaluate),
        kinds(n.GoTo),
        kinds(n.Move),
        kinds(n.Compute),
        kinds(n.Arith),
        kinds(n.Display),
        kinds(n.Accept),
        float(max(levels, default=0)),
        ratio(sum(levels), stmt_count),
        float(len(data)),
        float(sum(1 for d in data if not d.is_group and d.is_numeric)),
        float(sum(1 for d in data if not d.is_group and not d.is_numeric)),
        float(sum(1 for d in data if d.is_group)),
        float(cyclomatic),
        float(max(para_lens, default=0)),
        ratio(sum(para_lens), len(para_lens)),
        ratio(branches, stmt_count),
        float(literals),
        float(strings),
    ]
    assert len(features) == 30
    return features


def _reached(paragraphs: list[n.Paragraph],
             summaries: list[_Paragraph]) -> tuple[int, int, int, int]:
    """(nodes, Branch nodes, decisions, loop-back edges) over the paragraphs
    control reaches from Entry, Entry counted among the nodes. Control
    that enters a paragraph with no statements falls out of it at once,
    into the next paragraph or Exit."""
    nodes, branches, decisions, loop_backs = 1, 0, 0, 0
    by_name: dict[str, int] | None = None
    seen: set[int] = set()
    todo = [0]  # paragraphs control enters, by index
    while todo:
        index = todo.pop()
        if index == len(paragraphs) or index in seen:
            continue
        seen.add(index)
        summary = summaries[index]
        nodes += summary.nodes
        branches += summary.branches
        decisions += summary.decisions
        loop_backs += summary.loop_backs
        if summary.falls_out:
            todo.append(index + 1)
        if summary.jumps:
            if by_name is None:
                by_name = {p.name: i for i, p in enumerate(paragraphs)}
            todo.extend(by_name[target] for target in summary.jumps)
    return nodes, branches, decisions, loop_backs


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
    features = file_features(ast)
    return MetricsRecord(
        cyclomatic=int(features[_CYCLOMATIC]),
        coupling=int(features[_CALLS_DISTINCT]),
        lines=ast.source_lines,
        features=features,
    )

"""AST node types for the COBOL subset.

Nodes are the things that occupy tree positions: the program, data items,
paragraphs, and statements. Expressions and conditions are plain attribute
values on their owning statement, not nodes. Pre-order position over nodes
is the statement reference used everywhere downstream.

Every class is slotted: curate keeps each kept text's tree in memory for
the whole run, and slots make each tree about a quarter smaller.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class NodeKind(enum.Enum):
    PROGRAM = "Program"
    DATA_ITEM = "DataItem"
    PARAGRAPH = "Paragraph"
    MOVE = "Move"
    COMPUTE = "Compute"
    ARITH = "Arith"
    IF = "If"
    EVALUATE = "Evaluate"
    PERFORM_PARA = "PerformPara"
    PERFORM_TIMES = "PerformTimes"
    PERFORM_UNTIL = "PerformUntil"
    PERFORM_VARYING = "PerformVarying"
    DISPLAY = "Display"
    ACCEPT = "Accept"
    CALL = "Call"
    GOTO = "GoTo"
    STOP_RUN = "StopRun"


# NodeKind's members as module constants, for function bodies (`n.MOVE`).
# On Python 3.10 and 3.11 every `NodeKind.MOVE` read goes through EnumType's
# Python-level `__getattr__` hook: about 140-230 ns a read against 15-50 ns
# for a global, and the tree walks read several per node.
PROGRAM = NodeKind.PROGRAM
DATA_ITEM = NodeKind.DATA_ITEM
PARAGRAPH = NodeKind.PARAGRAPH
MOVE = NodeKind.MOVE
COMPUTE = NodeKind.COMPUTE
ARITH = NodeKind.ARITH
IF = NodeKind.IF
EVALUATE = NodeKind.EVALUATE
PERFORM_PARA = NodeKind.PERFORM_PARA
PERFORM_TIMES = NodeKind.PERFORM_TIMES
PERFORM_UNTIL = NodeKind.PERFORM_UNTIL
PERFORM_VARYING = NodeKind.PERFORM_VARYING
DISPLAY = NodeKind.DISPLAY
ACCEPT = NodeKind.ACCEPT
CALL = NodeKind.CALL
GOTO = NodeKind.GOTO
STOP_RUN = NodeKind.STOP_RUN


KIND_IDS = {kind: i for i, kind in enumerate(NodeKind)}


# --- expressions and conditions (attribute values, not nodes) ---


@dataclass(frozen=True, slots=True)
class NumLit:
    value: int


@dataclass(frozen=True, slots=True)
class StrLit:
    value: str


@dataclass(frozen=True, slots=True)
class VarRef:
    name: str


@dataclass(frozen=True, slots=True)
class BinOp:
    op: str  # + - * /
    left: Expr
    right: Expr


Expr = NumLit | StrLit | VarRef | BinOp


@dataclass(frozen=True, slots=True)
class Comparison:
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class NotCond:
    inner: Cond


@dataclass(frozen=True, slots=True)
class AndCond:
    left: Cond
    right: Cond


@dataclass(frozen=True, slots=True)
class OrCond:
    left: Cond
    right: Cond


Cond = Comparison | NotCond | AndCond | OrCond


# --- nodes ---


@dataclass(slots=True)
class DataItem:
    line: int
    level: int
    name: str
    picture: str | None  # None for group items
    value: int | str | None
    children: list[DataItem] = field(default_factory=list)

    kind = NodeKind.DATA_ITEM

    @property
    def is_group(self) -> bool:
        return self.picture is None

    @property
    def is_numeric(self) -> bool:
        return self.picture is not None and self.picture.startswith("9")


def picture_width(picture: str) -> int:
    """Width of an expanded or repeat-count picture, e.g. 9(3) -> 3, XX -> 2."""
    width = 0
    i = 0
    while i < len(picture):
        ch = picture[i]
        if ch not in "9X":
            raise ValueError(f"bad picture {picture!r}")
        if i + 1 < len(picture) and picture[i + 1] == "(":
            close = picture.index(")", i + 2)
            width += int(picture[i + 2 : close])
            i = close + 1
        else:
            width += 1
            i += 1
    return width


@dataclass(slots=True)
class Move:
    line: int
    src: Expr
    dst: str

    kind = NodeKind.MOVE


@dataclass(slots=True)
class Compute:
    line: int
    dst: str
    expr: Expr

    kind = NodeKind.COMPUTE


@dataclass(slots=True)
class Arith:
    """ADD/SUBTRACT/MULTIPLY/DIVIDE in their verb forms.

    op is one of ADD, SUBTRACT, MULTIPLY, DIVIDE. Result target is `giving`
    when present, else `b` (which must then be a VarRef). Semantics:
    ADD a TO b -> b+a; SUBTRACT a FROM b -> b-a; MULTIPLY a BY b -> b*a;
    DIVIDE a INTO b -> b/a. The DIVIDE x BY y GIVING g surface form is
    normalized at parse time to a=y, b=x, giving=g (same quotient).
    """

    line: int
    op: str
    a: Expr
    b: Expr
    giving: str | None

    kind = NodeKind.ARITH


@dataclass(slots=True)
class If:
    line: int
    cond: Cond
    then_body: list[Stmt]
    else_body: list[Stmt]

    kind = NodeKind.IF


@dataclass(frozen=True, slots=True)
class WhenArm:
    value: NumLit | StrLit
    body: tuple  # tuple[Stmt, ...]; tuple so the arm stays hashable-free but immutable


@dataclass(slots=True)
class Evaluate:
    line: int
    subject: Expr
    arms: list[WhenArm]
    other: list[Stmt] | None

    kind = NodeKind.EVALUATE


@dataclass(slots=True)
class PerformPara:
    line: int
    target: str

    kind = NodeKind.PERFORM_PARA


@dataclass(slots=True)
class PerformTimes:
    """PERFORM n TIMES with an inline body, or PERFORM para n TIMES."""

    line: int
    count: Expr
    body: list[Stmt] | None
    target: str | None

    kind = NodeKind.PERFORM_TIMES


@dataclass(slots=True)
class PerformUntil:
    line: int
    cond: Cond
    body: list[Stmt]

    kind = NodeKind.PERFORM_UNTIL


@dataclass(slots=True)
class PerformVarying:
    line: int
    var: str
    from_: Expr
    by: Expr
    until: Cond
    body: list[Stmt]

    kind = NodeKind.PERFORM_VARYING


@dataclass(slots=True)
class Display:
    line: int
    args: list[Expr]

    kind = NodeKind.DISPLAY


@dataclass(slots=True)
class Accept:
    line: int
    target: str

    kind = NodeKind.ACCEPT


@dataclass(slots=True)
class Call:
    line: int
    program: str
    using: list[str]

    kind = NodeKind.CALL


@dataclass(slots=True)
class GoTo:
    line: int
    target: str

    kind = NodeKind.GOTO


@dataclass(slots=True)
class StopRun:
    line: int

    kind = NodeKind.STOP_RUN


Stmt = (
    Move
    | Compute
    | Arith
    | If
    | Evaluate
    | PerformPara
    | PerformTimes
    | PerformUntil
    | PerformVarying
    | Display
    | Accept
    | Call
    | GoTo
    | StopRun
)

LOOP_KINDS = frozenset(
    {NodeKind.PERFORM_TIMES, NodeKind.PERFORM_UNTIL, NodeKind.PERFORM_VARYING}
)
BRANCH_KINDS = frozenset({NodeKind.IF, NodeKind.EVALUATE})
# Every other kind is a statement.
_STRUCTURAL = (NodeKind.PROGRAM, NodeKind.DATA_ITEM, NodeKind.PARAGRAPH)


@dataclass(slots=True)
class Paragraph:
    line: int
    name: str
    body: list[Stmt]

    kind = NodeKind.PARAGRAPH


@dataclass(slots=True)
class Program:
    line: int
    program_id: str
    data_items: list[DataItem]
    paragraphs: list[Paragraph]

    kind = NodeKind.PROGRAM


@dataclass(slots=True)
class CobolAst:
    """A parsed program plus the source measurements taken while parsing."""

    program: Program
    source_lines: int = 0
    token_count: int = 0

    @property
    def program_id(self) -> str:
        return self.program.program_id

    @property
    def data_items(self) -> list[DataItem]:
        return self.program.data_items

    @property
    def paragraphs(self) -> list[Paragraph]:
        return self.program.paragraphs


Node = Program | DataItem | Paragraph | Stmt


def is_statement(node: Node) -> bool:
    return node.kind not in _STRUCTURAL


def child_nodes(node: Node) -> list[Node]:
    """Structural children of a node, in source order."""
    kind = node.kind
    if kind is PROGRAM:
        return [*node.data_items, *node.paragraphs]
    if kind is DATA_ITEM:
        return list(node.children)
    if kind is PARAGRAPH:
        return list(node.body)
    if kind is IF:
        return [*node.then_body, *node.else_body]
    if kind is EVALUATE:
        out: list[Node] = []
        for arm in node.arms:
            out.extend(arm.body)
        if node.other:
            out.extend(node.other)
        return out
    if kind is PERFORM_TIMES:
        return list(node.body) if node.body else []
    if kind in (PERFORM_UNTIL, PERFORM_VARYING):
        return list(node.body)
    return []


def iter_preorder(root: Node):
    """Yield root and all descendants, depth-first, children in source order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(child_nodes(node)))


# --- expression and condition rendering (shared by printer, JSON, features) ---

PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def expr_text(e: Expr) -> str:
    if isinstance(e, NumLit):
        return str(e.value)
    if isinstance(e, StrLit):
        return '"' + e.value.replace('"', '""') + '"'
    if isinstance(e, VarRef):
        return e.name
    left = expr_text(e.left)
    right = expr_text(e.right)
    if isinstance(e.left, BinOp) and PRECEDENCE[e.left.op] < PRECEDENCE[e.op]:
        left = f"({left})"
    if isinstance(e.right, BinOp) and PRECEDENCE[e.right.op] <= PRECEDENCE[e.op]:
        right = f"({right})"
    return f"{left} {e.op} {right}"


def cond_text(c: Cond) -> str:
    if isinstance(c, Comparison):
        return f"{expr_text(c.left)} {c.op} {expr_text(c.right)}"
    if isinstance(c, NotCond):
        return f"NOT {cond_text(c.inner)}"
    if isinstance(c, AndCond):
        return f"{cond_text(c.left)} AND {cond_text(c.right)}"
    return f"{cond_text(c.left)} OR {cond_text(c.right)}"


# (literals, string literals) of a leaf; shared, so that counting builds
# no tuple per leaf.
_NO_LITERALS = (0, 0)
_NUM_LITERAL = (1, 0)
_STR_LITERAL = (1, 1)


def literal_counts(e: Expr | Cond | None) -> tuple[int, int]:
    """(literals, string literals) within an expression or condition."""
    if isinstance(e, NumLit):
        return _NUM_LITERAL
    if isinstance(e, StrLit):
        return _STR_LITERAL
    if e is None or isinstance(e, VarRef):
        return _NO_LITERALS
    if isinstance(e, NotCond):
        return literal_counts(e.inner)
    left = literal_counts(e.left)
    right = literal_counts(e.right)
    return left[0] + right[0], left[1] + right[1]


def _sum_counts(counts) -> tuple[int, int]:
    literals = strings = 0
    for found, found_strings in counts:
        literals += found
        strings += found_strings
    return literals, strings


def node_literal_counts(node: Node) -> tuple[int, int]:
    """(literals, string literals) in this node's own attributes (not
    descendants). A CALL's program name is a string literal, and a data
    item's VALUE the literal it spells."""
    kind = node.kind
    if kind is MOVE:
        return literal_counts(node.src)
    if kind is COMPUTE:
        return literal_counts(node.expr)
    if kind is ARITH:
        return _sum_counts((literal_counts(node.a), literal_counts(node.b)))
    if kind is IF:
        return literal_counts(node.cond)
    if kind is EVALUATE:
        return _sum_counts(
            [literal_counts(node.subject)] + [literal_counts(arm.value) for arm in node.arms]
        )
    if kind is PERFORM_TIMES:
        return literal_counts(node.count)
    if kind is PERFORM_UNTIL:
        return literal_counts(node.cond)
    if kind is PERFORM_VARYING:
        return _sum_counts(
            (literal_counts(node.from_), literal_counts(node.by), literal_counts(node.until))
        )
    if kind is DISPLAY:
        return _sum_counts(map(literal_counts, node.args))
    if kind is CALL:
        return _STR_LITERAL
    if kind is DATA_ITEM and node.value is not None:
        return _STR_LITERAL if isinstance(node.value, str) else _NUM_LITERAL
    return _NO_LITERALS


# --- JSON form ---


def _attrs(node: Node) -> dict:
    kind = node.kind
    if kind is PROGRAM:
        return {"program_id": node.program_id}
    if kind is DATA_ITEM:
        a = {"level": node.level, "name": node.name}
        if node.picture is not None:
            a["picture"] = node.picture
        if node.value is not None:
            a["value"] = node.value
        return a
    if kind is PARAGRAPH:
        return {"name": node.name}
    if kind is MOVE:
        return {"src": expr_text(node.src), "dst": node.dst}
    if kind is COMPUTE:
        return {"dst": node.dst, "expr": expr_text(node.expr)}
    if kind is ARITH:
        a = {"op": node.op, "a": expr_text(node.a), "b": expr_text(node.b)}
        if node.giving is not None:
            a["giving"] = node.giving
        return a
    if kind is IF:
        return {"cond": cond_text(node.cond), "then_len": len(node.then_body)}
    if kind is EVALUATE:
        return {
            "subject": expr_text(node.subject),
            "arms": [
                {"value": expr_text(arm.value), "len": len(arm.body)}
                for arm in node.arms
            ],
            "has_other": node.other is not None,
        }
    if kind is PERFORM_PARA:
        return {"target": node.target}
    if kind is PERFORM_TIMES:
        a = {"count": expr_text(node.count)}
        if node.target is not None:
            a["target"] = node.target
        return a
    if kind is PERFORM_UNTIL:
        return {"cond": cond_text(node.cond)}
    if kind is PERFORM_VARYING:
        return {
            "var": node.var,
            "from": expr_text(node.from_),
            "by": expr_text(node.by),
            "until": cond_text(node.until),
        }
    if kind is DISPLAY:
        return {"args": [expr_text(a) for a in node.args]}
    if kind is ACCEPT:
        return {"target": node.target}
    if kind is CALL:
        return {"program": node.program, "using": list(node.using)}
    if kind is GOTO:
        return {"target": node.target}
    return {}


def to_json(node: Node) -> dict:
    """Nested dict form: kind, line, node-specific attrs, children."""
    out = {"kind": node.kind.value, "line": node.line}
    out.update(_attrs(node))
    out["children"] = [to_json(c) for c in child_nodes(node)]
    return out


def signature(node: Node):
    """Structural identity: everything to_json captures except line numbers."""

    def strip(d: dict):
        items = []
        for k, v in d.items():
            if k == "line":
                continue
            if k == "children":
                items.append((k, tuple(strip(c) for c in v)))
            elif isinstance(v, list):
                items.append(
                    (k, tuple(tuple(sorted(x.items())) if isinstance(x, dict) else x for x in v))
                )
            else:
                items.append((k, v))
        return tuple(items)

    return strip(to_json(node))

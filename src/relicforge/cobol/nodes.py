"""AST node types for the COBOL subset.

Nodes are the things that occupy tree positions: the program, data items,
paragraphs, and statements. Expressions and conditions are plain attribute
values on their owning statement, not nodes. Pre-order position over nodes
is the statement reference used everywhere downstream.
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


KIND_IDS = {kind: i for i, kind in enumerate(NodeKind)}


# --- expressions and conditions (attribute values, not nodes) ---


@dataclass(frozen=True)
class NumLit:
    value: int


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: Expr
    right: Expr


Expr = NumLit | StrLit | VarRef | BinOp


@dataclass(frozen=True)
class Comparison:
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr


@dataclass(frozen=True)
class NotCond:
    inner: Cond


@dataclass(frozen=True)
class AndCond:
    left: Cond
    right: Cond


@dataclass(frozen=True)
class OrCond:
    left: Cond
    right: Cond


Cond = Comparison | NotCond | AndCond | OrCond


# --- nodes ---


@dataclass
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


@dataclass
class Move:
    line: int
    src: Expr
    dst: str

    kind = NodeKind.MOVE


@dataclass
class Compute:
    line: int
    dst: str
    expr: Expr

    kind = NodeKind.COMPUTE


@dataclass
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


@dataclass
class If:
    line: int
    cond: Cond
    then_body: list[Stmt]
    else_body: list[Stmt]

    kind = NodeKind.IF


@dataclass(frozen=True)
class WhenArm:
    value: NumLit | StrLit
    body: tuple  # tuple[Stmt, ...]; tuple so the arm stays hashable-free but immutable


@dataclass
class Evaluate:
    line: int
    subject: Expr
    arms: list[WhenArm]
    other: list[Stmt] | None

    kind = NodeKind.EVALUATE


@dataclass
class PerformPara:
    line: int
    target: str

    kind = NodeKind.PERFORM_PARA


@dataclass
class PerformTimes:
    """PERFORM n TIMES with an inline body, or PERFORM para n TIMES."""

    line: int
    count: Expr
    body: list[Stmt] | None
    target: str | None

    kind = NodeKind.PERFORM_TIMES


@dataclass
class PerformUntil:
    line: int
    cond: Cond
    body: list[Stmt]

    kind = NodeKind.PERFORM_UNTIL


@dataclass
class PerformVarying:
    line: int
    var: str
    from_: Expr
    by: Expr
    until: Cond
    body: list[Stmt]

    kind = NodeKind.PERFORM_VARYING


@dataclass
class Display:
    line: int
    args: list[Expr]

    kind = NodeKind.DISPLAY


@dataclass
class Accept:
    line: int
    target: str

    kind = NodeKind.ACCEPT


@dataclass
class Call:
    line: int
    program: str
    using: list[str]

    kind = NodeKind.CALL


@dataclass
class GoTo:
    line: int
    target: str

    kind = NodeKind.GOTO


@dataclass
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


@dataclass
class Paragraph:
    line: int
    name: str
    body: list[Stmt]

    kind = NodeKind.PARAGRAPH


@dataclass
class Program:
    line: int
    program_id: str
    data_items: list[DataItem]
    paragraphs: list[Paragraph]

    kind = NodeKind.PROGRAM


@dataclass
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


def child_nodes(node: Node) -> list[Node]:
    """Structural children of a node, in source order."""
    kind = node.kind
    if kind is NodeKind.PROGRAM:
        return [*node.data_items, *node.paragraphs]
    if kind is NodeKind.DATA_ITEM:
        return list(node.children)
    if kind is NodeKind.PARAGRAPH:
        return list(node.body)
    if kind is NodeKind.IF:
        return [*node.then_body, *node.else_body]
    if kind is NodeKind.EVALUATE:
        out: list[Node] = []
        for arm in node.arms:
            out.extend(arm.body)
        if node.other:
            out.extend(node.other)
        return out
    if kind is NodeKind.PERFORM_TIMES:
        return list(node.body) if node.body else []
    if kind in (NodeKind.PERFORM_UNTIL, NodeKind.PERFORM_VARYING):
        return list(node.body)
    return []


def iter_preorder(root: Node):
    """Yield root and all descendants, depth-first, children in source order."""
    yield root
    for child in child_nodes(root):
        yield from iter_preorder(child)


def preorder_nodes(ast: CobolAst) -> list[Node]:
    return list(iter_preorder(ast.program))


def node_index(ast: CobolAst) -> dict[int, Node]:
    """Map pre-order position -> node. Position 0 is the Program node."""
    return dict(enumerate(iter_preorder(ast.program)))


# --- expression and condition rendering (shared by printer, JSON, features) ---

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}


def expr_text(e: Expr) -> str:
    if isinstance(e, NumLit):
        return str(e.value)
    if isinstance(e, StrLit):
        return '"' + e.value.replace('"', '""') + '"'
    if isinstance(e, VarRef):
        return e.name
    left = expr_text(e.left)
    right = expr_text(e.right)
    if isinstance(e.left, BinOp) and _PRECEDENCE[e.left.op] < _PRECEDENCE[e.op]:
        left = f"({left})"
    if isinstance(e.right, BinOp) and _PRECEDENCE[e.right.op] <= _PRECEDENCE[e.op]:
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


def count_literals(e: Expr | Cond | None, kinds: tuple = (NumLit, StrLit)) -> int:
    """Literals of the classes in `kinds` within an expression or condition."""
    if isinstance(e, (NumLit, StrLit)):
        return int(isinstance(e, kinds))
    if e is None or isinstance(e, VarRef):
        return 0
    if isinstance(e, NotCond):
        return count_literals(e.inner, kinds)
    return count_literals(e.left, kinds) + count_literals(e.right, kinds)


def node_literal_count(node: Node, kinds: tuple = (NumLit, StrLit)) -> int:
    """Literals of the classes in `kinds` in this node's own attributes (not
    descendants). A CALL's program name is a string literal, and a data
    item's VALUE the literal it spells."""
    kind = node.kind
    if kind is NodeKind.MOVE:
        return count_literals(node.src, kinds)
    if kind is NodeKind.COMPUTE:
        return count_literals(node.expr, kinds)
    if kind is NodeKind.ARITH:
        return count_literals(node.a, kinds) + count_literals(node.b, kinds)
    if kind is NodeKind.IF:
        return count_literals(node.cond, kinds)
    if kind is NodeKind.EVALUATE:
        arms = sum(count_literals(arm.value, kinds) for arm in node.arms)
        return count_literals(node.subject, kinds) + arms
    if kind is NodeKind.PERFORM_TIMES:
        return count_literals(node.count, kinds)
    if kind is NodeKind.PERFORM_UNTIL:
        return count_literals(node.cond, kinds)
    if kind is NodeKind.PERFORM_VARYING:
        return (
            count_literals(node.from_, kinds)
            + count_literals(node.by, kinds)
            + count_literals(node.until, kinds)
        )
    if kind is NodeKind.DISPLAY:
        return sum(count_literals(a, kinds) for a in node.args)
    if kind is NodeKind.CALL:
        return int(StrLit in kinds)
    if kind is NodeKind.DATA_ITEM and node.value is not None:
        return int((StrLit if isinstance(node.value, str) else NumLit) in kinds)
    return 0


# --- JSON form ---


def _attrs(node: Node) -> dict:
    kind = node.kind
    if kind is NodeKind.PROGRAM:
        return {"program_id": node.program_id}
    if kind is NodeKind.DATA_ITEM:
        a = {"level": node.level, "name": node.name}
        if node.picture is not None:
            a["picture"] = node.picture
        if node.value is not None:
            a["value"] = node.value
        return a
    if kind is NodeKind.PARAGRAPH:
        return {"name": node.name}
    if kind is NodeKind.MOVE:
        return {"src": expr_text(node.src), "dst": node.dst}
    if kind is NodeKind.COMPUTE:
        return {"dst": node.dst, "expr": expr_text(node.expr)}
    if kind is NodeKind.ARITH:
        a = {"op": node.op, "a": expr_text(node.a), "b": expr_text(node.b)}
        if node.giving is not None:
            a["giving"] = node.giving
        return a
    if kind is NodeKind.IF:
        return {"cond": cond_text(node.cond), "then_len": len(node.then_body)}
    if kind is NodeKind.EVALUATE:
        return {
            "subject": expr_text(node.subject),
            "arms": [
                {"value": expr_text(arm.value), "len": len(arm.body)}
                for arm in node.arms
            ],
            "has_other": node.other is not None,
        }
    if kind is NodeKind.PERFORM_PARA:
        return {"target": node.target}
    if kind is NodeKind.PERFORM_TIMES:
        a = {"count": expr_text(node.count)}
        if node.target is not None:
            a["target"] = node.target
        return a
    if kind is NodeKind.PERFORM_UNTIL:
        return {"cond": cond_text(node.cond)}
    if kind is NodeKind.PERFORM_VARYING:
        return {
            "var": node.var,
            "from": expr_text(node.from_),
            "by": expr_text(node.by),
            "until": cond_text(node.until),
        }
    if kind is NodeKind.DISPLAY:
        return {"args": [expr_text(a) for a in node.args]}
    if kind is NodeKind.ACCEPT:
        return {"target": node.target}
    if kind is NodeKind.CALL:
        return {"program": node.program, "using": list(node.using)}
    if kind is NodeKind.GOTO:
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

"""Java-side AST: one class, long/String fields, void methods without
parameters.

The AST holds only what the rule engine writes: a paragraph becomes a
method that takes no arguments, and every statement is an instance of one
of the `JStmt` classes below, each of which `parse_java` reads back.
Expression and condition trees are shared with the COBOL side (NumLit,
StrLit, VarRef, BinOp, Comparison, ...); JCall adds runtime-helper and
input calls, and appears only inside an expression. Statements carry no
line numbers; emission order is the only identity that matters on this
side.

Code tells nodes apart by class (`stmt.__class__ is IfElse`). A node's
`kind`, a `JKind` member, is its name in `to_json` and nothing more.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from relicforge.cobol.nodes import (
    AndCond,
    BinOp,
    Comparison,
    Cond,
    Expr,
    NotCond,
    NumLit,
    OrCond,
    PRECEDENCE,
    StrLit,
    VarRef,
)


@dataclass(frozen=True)
class JCall:
    name: str
    args: tuple = ()


JExpr = Expr | JCall

# Runtime helpers the emitter appends to every class. `in` reads one input
# line, `num` parses a decimal, `fit` truncates/pads to a declared width,
# `str` renders a value for printing.
BUILTINS = frozenset({"in", "num", "fit", "str"})


class JKind(enum.Enum):
    CLASS = "Class"
    FIELD = "Field"
    METHOD = "Method"
    ASSIGN = "Assign"
    IF_ELSE = "IfElse"
    WHILE = "While"
    DO_WHILE = "DoWhile"
    FOR = "For"
    SWITCH = "Switch"
    METHOD_CALL = "MethodCall"
    PRINT = "Print"
    RETURN = "Return"
    BREAK = "Break"


@dataclass
class Assign:
    target: str
    expr: JExpr

    kind = JKind.ASSIGN


@dataclass
class IfElse:
    cond: Cond
    then_body: list
    else_body: list

    kind = JKind.IF_ELSE


@dataclass
class While:
    cond: Cond
    body: list

    kind = JKind.WHILE


@dataclass
class DoWhile:
    body: list
    cond: Cond

    kind = JKind.DO_WHILE


@dataclass
class For:
    init: Assign | None
    cond: Cond | None
    update: Assign | None
    body: list

    kind = JKind.FOR


@dataclass(frozen=True)
class SwitchCase:
    value: NumLit | StrLit
    body: tuple


@dataclass
class Switch:
    subject: JExpr
    cases: list[SwitchCase]
    default: list | None

    kind = JKind.SWITCH


@dataclass
class MethodCall:
    """Statement-level call. external_name carries the original program
    name for calls that leave the class (CALL 'PROG' stubs)."""

    name: str
    args: list
    external_name: str | None = None

    kind = JKind.METHOD_CALL


@dataclass
class Print:
    args: list

    kind = JKind.PRINT


@dataclass
class Return:
    kind = JKind.RETURN


@dataclass
class Break:
    kind = JKind.BREAK


JStmt = (
    Assign
    | IfElse
    | While
    | DoWhile
    | For
    | Switch
    | MethodCall
    | Print
    | Return
    | Break
)


@dataclass
class JField:
    name: str
    jtype: str  # "long" | "String"
    initial: int | str
    width: int = 0  # declared picture width; String fit() constant

    kind = JKind.FIELD


@dataclass
class JMethod:
    name: str
    body: list

    kind = JKind.METHOD


@dataclass
class JavaAst:
    class_name: str
    fields: list[JField] = field(default_factory=list)
    methods: list[JMethod] = field(default_factory=list)

    kind = JKind.CLASS

    def method_names(self) -> set[str]:
        return {m.name for m in self.methods}


def child_stmts(stmt: JStmt) -> list:
    """Nested statements of a statement, in emission order."""
    cls = stmt.__class__
    if cls is IfElse:
        return [*stmt.then_body, *stmt.else_body]
    if cls is While or cls is DoWhile or cls is For:
        return list(stmt.body)
    if cls is Switch:
        out = []
        for case in stmt.cases:
            out.extend(case.body)
        if stmt.default:
            out.extend(stmt.default)
        return out
    return []


def iter_stmts(stmts) -> "list[JStmt]":
    out = []
    for stmt in stmts:
        out.append(stmt)
        out.extend(iter_stmts(child_stmts(stmt)))
    return out


def all_statements(jast: JavaAst) -> list:
    out = []
    for method in jast.methods:
        out.extend(iter_stmts(method.body))
    return out


def node_count(jast: JavaAst) -> int:
    """Class + fields + methods + statement nodes (expressions excluded,
    mirroring the source-side node accounting)."""
    return 1 + len(jast.fields) + len(jast.methods) + len(all_statements(jast))


_JAVA_CMP = {"=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}


def java_quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def jexpr_text(e: JExpr) -> str:
    if isinstance(e, NumLit):
        return str(e.value)
    if isinstance(e, StrLit):
        return java_quote(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, JCall):
        return f"{e.name}({', '.join(jexpr_text(a) for a in e.args)})"
    if isinstance(e, BinOp):
        prec = PRECEDENCE[e.op]
        left = jexpr_text(e.left)
        right = jexpr_text(e.right)
        if isinstance(e.left, BinOp) and PRECEDENCE[e.left.op] < prec:
            left = f"({left})"
        if isinstance(e.right, BinOp) and PRECEDENCE[e.right.op] <= prec:
            right = f"({right})"
        return f"{left} {e.op} {right}"
    raise TypeError(f"not a Java expression: {e!r}")


def jcond_text(c: Cond, parent: str = "") -> str:
    if isinstance(c, Comparison):
        return f"{jexpr_text(c.left)} {_JAVA_CMP[c.op]} {jexpr_text(c.right)}"
    if isinstance(c, NotCond):
        return f"!({jcond_text(c.inner)})"
    if isinstance(c, AndCond):
        text = f"{jcond_text(c.left, 'and')} && {jcond_text(c.right, 'and')}"
        return f"({text})" if parent == "or" else text
    if isinstance(c, OrCond):
        text = f"{jcond_text(c.left, 'or')} || {jcond_text(c.right, 'or')}"
        return f"({text})" if parent == "and" else text
    raise TypeError(f"not a condition: {c!r}")


def _stmt_json(stmt: JStmt) -> dict:
    out: dict = {"kind": stmt.kind.value}
    cls = stmt.__class__
    if cls is Assign:
        out["target"] = stmt.target
        out["expr"] = jexpr_text(stmt.expr)
    elif cls is IfElse or cls is While or cls is DoWhile:
        out["cond"] = jcond_text(stmt.cond)
    elif cls is For:
        out["init"] = assign_text(stmt.init)
        out["cond"] = jcond_text(stmt.cond) if stmt.cond else ""
        out["update"] = assign_text(stmt.update)
    elif cls is Switch:
        out["subject"] = jexpr_text(stmt.subject)
        out["cases"] = [jexpr_text(c.value) for c in stmt.cases]
        out["has_default"] = stmt.default is not None
    elif cls is MethodCall:
        out["name"] = stmt.name
        out["args"] = [jexpr_text(a) for a in stmt.args]
        if stmt.external_name is not None:
            out["external"] = stmt.external_name
    elif cls is Print:
        out["args"] = [jexpr_text(a) for a in stmt.args]
    out["children"] = [_stmt_json(s) for s in child_stmts(stmt)]
    return out


def assign_text(a: Assign | None) -> str:
    """`target = expr` without the semicolon, as a for header writes it."""
    return f"{a.target} = {jexpr_text(a.expr)}" if a else ""


def to_json(jast: JavaAst) -> dict:
    """Uniform kind/children tree; feeds reports and the AST renderer."""
    children: list[dict] = []
    for f in jast.fields:
        children.append(
            {
                "kind": JField.kind.value,
                "name": f.name,
                "jtype": f.jtype,
                "initial": f.initial,
                "children": [],
            }
        )
    for m in jast.methods:
        children.append(
            {
                "kind": JMethod.kind.value,
                "name": m.name,
                "children": [_stmt_json(s) for s in m.body],
            }
        )
    return {"kind": JavaAst.kind.value, "class_name": jast.class_name, "children": children}

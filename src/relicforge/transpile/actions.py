"""Per-statement translation actions and their applicability rules.

An action tells the rule engine how to render one COBOL statement in Java.
`_ACTIONS` maps each statement class to the action kinds it admits, its
fixed default first; a model (or an oracle label file) may override the
default with any other kind in that row, and IfChainToSwitch also needs
an If whose ladder has a `chain_shape`. ExtractMethodAt is in no row: any
statement may carry it, with a split point the engine checks against the
paragraph. PassThrough means "no choice to make": the engine's fixed
structural mapping applies, which for GO TO is omission (scoring judges a
file with a GO TO on behavior alone).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement


class ActionKind(enum.Enum):
    # Member order is the model's class order (`CLASS_ORDER`).
    PASS_THROUGH = "PassThrough"
    LOOP_TO_FOR = "LoopToFor"
    LOOP_TO_WHILE = "LoopToWhile"
    LOOP_TO_DO_WHILE = "LoopToDoWhile"
    IF_TO_IF = "IfToIf"
    IF_CHAIN_TO_SWITCH = "IfChainToSwitch"
    EVALUATE_TO_SWITCH = "EvaluateToSwitch"
    MOVE_TO_ASSIGN = "MoveToAssign"
    COMPUTE_TO_EXPR = "ComputeToExpr"
    CALL_TO_METHOD_CALL = "CallToMethodCall"
    DISPLAY_TO_PRINT = "DisplayToPrint"
    EXTRACT_METHOD = "ExtractMethodAt"


# Module constants for function bodies: on Python 3.10 and 3.11 an
# `ActionKind.IF_TO_IF` read goes through EnumType's `__getattr__` hook (about
# 140-230 ns against 15-50 ns for a global), and actions are read per statement.
PASS_THROUGH = ActionKind.PASS_THROUGH
LOOP_TO_FOR = ActionKind.LOOP_TO_FOR
LOOP_TO_WHILE = ActionKind.LOOP_TO_WHILE
LOOP_TO_DO_WHILE = ActionKind.LOOP_TO_DO_WHILE
IF_TO_IF = ActionKind.IF_TO_IF
IF_CHAIN_TO_SWITCH = ActionKind.IF_CHAIN_TO_SWITCH
EVALUATE_TO_SWITCH = ActionKind.EVALUATE_TO_SWITCH
MOVE_TO_ASSIGN = ActionKind.MOVE_TO_ASSIGN
COMPUTE_TO_EXPR = ActionKind.COMPUTE_TO_EXPR
CALL_TO_METHOD_CALL = ActionKind.CALL_TO_METHOD_CALL
DISPLAY_TO_PRINT = ActionKind.DISPLAY_TO_PRINT
EXTRACT_METHOD = ActionKind.EXTRACT_METHOD


# Model output space: index in this tuple == class id, in enum order.
CLASS_ORDER: tuple[ActionKind, ...] = tuple(ActionKind)


@dataclass(frozen=True)
class Action:
    kind: ActionKind
    node_index: int | None = None  # ExtractMethodAt split point (pre-order)

    def to_json(self) -> dict:
        out: dict = {"action": self.kind.value}
        if self.node_index is not None:
            out["node_index"] = self.node_index
        return out

    @classmethod
    def from_json(cls, data: dict) -> "Action":
        """Raises ValueError for an unknown action and TypeError for a
        `node_index` that is neither absent, null nor an int (a bool is not)."""
        node_index = data.get("node_index")
        if node_index is not None and type(node_index) is not int:
            raise TypeError(f"node_index is a {type(node_index).__name__}, not an int")
        return cls(ActionKind(data["action"]), node_index)


_ACTIONS: dict[type, tuple[ActionKind, ...]] = {
    n.Move: (MOVE_TO_ASSIGN,),
    n.Compute: (COMPUTE_TO_EXPR,),
    n.Arith: (COMPUTE_TO_EXPR,),
    n.If: (IF_TO_IF, IF_CHAIN_TO_SWITCH),
    n.Evaluate: (EVALUATE_TO_SWITCH,),
    n.PerformPara: (CALL_TO_METHOD_CALL,),
    n.PerformTimes: (LOOP_TO_FOR, LOOP_TO_WHILE, LOOP_TO_DO_WHILE),
    n.PerformUntil: (LOOP_TO_WHILE, LOOP_TO_FOR, LOOP_TO_DO_WHILE),
    n.PerformVarying: (LOOP_TO_FOR, LOOP_TO_WHILE, LOOP_TO_DO_WHILE),
    n.Display: (DISPLAY_TO_PRINT,),
    n.Call: (CALL_TO_METHOD_CALL,),
    n.Accept: (PASS_THROUGH,),
    n.GoTo: (PASS_THROUGH,),
    n.StopRun: (PASS_THROUGH,),
}


def default_action(stmt: n.Stmt) -> Action:
    return Action(_ACTIONS[stmt.__class__][0])


def default_actions(ast: n.CobolAst) -> list[tuple[int, Action]]:
    """(stmt_ref, action) for every statement node, in pre-order."""
    out = []
    for ref, node in enumerate(n.iter_preorder(ast.program)):
        if is_statement(node):
            out.append((ref, default_action(node)))
    return out


@dataclass(frozen=True)
class ChainShape:
    """An IF/ELSE-IF ladder comparing one variable against literals."""

    subject: str
    arms: tuple  # tuple of (If node, literal, then_body)
    default: tuple  # terminal else body (possibly empty)


def _chain_comparison(cond: n.Cond) -> tuple[str, n.NumLit | n.StrLit] | None:
    if (
        isinstance(cond, n.Comparison)
        and cond.op == "="
        and isinstance(cond.left, n.VarRef)
        and isinstance(cond.right, (n.NumLit, n.StrLit))
    ):
        return cond.left.name, cond.right
    return None


def chain_shape(stmt: n.If) -> ChainShape | None:
    head = _chain_comparison(stmt.cond)
    if head is None:
        return None
    subject = head[0]
    arms: list = []
    node: n.If = stmt
    while True:
        step = _chain_comparison(node.cond)
        if step is None or step[0] != subject:
            # A same-variable ladder ended at a foreign If: that If and
            # everything under it belongs to the default arm.
            return ChainShape(subject, tuple(arms), (node,))
        arms.append((node, step[1], tuple(node.then_body)))
        tail = node.else_body
        if len(tail) == 1 and isinstance(tail[0], n.If):
            node = tail[0]
            continue
        return ChainShape(subject, tuple(arms), tuple(tail))


def applicable(stmt: n.Stmt, action: Action) -> bool:
    kind = action.kind
    if kind is EXTRACT_METHOD:
        # Bounds and split-point checks need paragraph context; the engine
        # validates them. Any statement may carry the label.
        return action.node_index is not None
    # Membership first: chain_shape reads `.cond`, which only an If has.
    return kind in _ACTIONS.get(stmt.__class__, ()) and (
        kind is not IF_CHAIN_TO_SWITCH or chain_shape(stmt) is not None
    )

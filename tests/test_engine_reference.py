"""The rule engine against a reference engine kept here as it was:
`_DEFAULTS` with the `applicable` chain that restated it, and `_Translator`
with its two passes over the split requests (`_nested_extract_requests`,
then `_apply_extracts` once per paragraph), a third split branch in
`_action_for` and one builder per loop shape.

`transpile.actions` now reads defaults and applicability from one
`_ACTIONS` table, and `transpile.engine` decides every split request in
one `_plan_splits` pass and builds every loop in one `_loop`. On seeded
random, labeled and sample programs, each with action dicts that request
every kind on any ref, splits whose `node_index` is None, negative, past
the end, nested or in another paragraph, and refs outside the tree,
`translate_with_fallbacks` must return the reference's `TranspileResult`:
the same JavaAst, `actions_used` and `fallbacks` in the same order.

The reference keeps the old `_var`, which spelled an undeclared name
without reserving it; every program here declares each name it uses.
"""

import random

import pytest

from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement
from relicforge.datagen import labeled_program, oracle_labels, random_program, sample_program
from relicforge.transpile import jnodes as j
from relicforge.transpile import translate_with_fallbacks
from relicforge.transpile import actions as live
from relicforge.transpile.actions import (
    CALL_TO_METHOD_CALL,
    CLASS_ORDER,
    COMPUTE_TO_EXPR,
    DISPLAY_TO_PRINT,
    EVALUATE_TO_SWITCH,
    EXTRACT_METHOD,
    IF_CHAIN_TO_SWITCH,
    IF_TO_IF,
    LOOP_TO_DO_WHILE,
    LOOP_TO_FOR,
    LOOP_TO_WHILE,
    MOVE_TO_ASSIGN,
    PASS_THROUGH,
    Action,
    ActionKind,
    chain_shape,
)
from relicforge.transpile.engine import (
    _TAKEN_BASE,
    Fallback,
    TranspileResult,
    _Field,
    _sanitize,
    class_name_for,
    external_method_name,
)

# --- the reference: the action rules and the engine as they were ---------------------

_LOOP_ACTIONS = frozenset(
    {ActionKind.LOOP_TO_FOR, ActionKind.LOOP_TO_WHILE, ActionKind.LOOP_TO_DO_WHILE}
)

_LOOP_KINDS = frozenset(
    {n.NodeKind.PERFORM_TIMES, n.NodeKind.PERFORM_UNTIL, n.NodeKind.PERFORM_VARYING}
)

_DEFAULTS = {
    n.NodeKind.MOVE: ActionKind.MOVE_TO_ASSIGN,
    n.NodeKind.COMPUTE: ActionKind.COMPUTE_TO_EXPR,
    n.NodeKind.ARITH: ActionKind.COMPUTE_TO_EXPR,
    n.NodeKind.IF: ActionKind.IF_TO_IF,
    n.NodeKind.EVALUATE: ActionKind.EVALUATE_TO_SWITCH,
    n.NodeKind.PERFORM_PARA: ActionKind.CALL_TO_METHOD_CALL,
    n.NodeKind.PERFORM_TIMES: ActionKind.LOOP_TO_FOR,
    n.NodeKind.PERFORM_UNTIL: ActionKind.LOOP_TO_WHILE,
    n.NodeKind.PERFORM_VARYING: ActionKind.LOOP_TO_FOR,
    n.NodeKind.DISPLAY: ActionKind.DISPLAY_TO_PRINT,
    n.NodeKind.CALL: ActionKind.CALL_TO_METHOD_CALL,
    n.NodeKind.ACCEPT: ActionKind.PASS_THROUGH,
    n.NodeKind.GOTO: ActionKind.PASS_THROUGH,
    n.NodeKind.STOP_RUN: ActionKind.PASS_THROUGH,
}


def default_action(stmt: n.Stmt) -> Action:
    return Action(_DEFAULTS[stmt.kind])


def applicable(stmt: n.Stmt, action: Action) -> bool:
    kind = action.kind
    if kind is EXTRACT_METHOD:
        # Bounds and split-point checks need paragraph context; the engine
        # validates them. Any statement may carry the label.
        return action.node_index is not None
    if kind is PASS_THROUGH:
        return stmt.kind in (n.NodeKind.ACCEPT, n.NodeKind.GOTO, n.NodeKind.STOP_RUN)
    if kind in _LOOP_ACTIONS:
        return stmt.kind in _LOOP_KINDS
    if kind is IF_TO_IF:
        return stmt.kind is n.NodeKind.IF
    if kind is IF_CHAIN_TO_SWITCH:
        return stmt.kind is n.NodeKind.IF and chain_shape(stmt) is not None
    if kind is EVALUATE_TO_SWITCH:
        return stmt.kind is n.NodeKind.EVALUATE
    if kind is MOVE_TO_ASSIGN:
        return stmt.kind is n.NodeKind.MOVE
    if kind is COMPUTE_TO_EXPR:
        return stmt.kind in (n.NodeKind.COMPUTE, n.NodeKind.ARITH)
    if kind is CALL_TO_METHOD_CALL:
        return stmt.kind in (n.NodeKind.CALL, n.NodeKind.PERFORM_PARA)
    if kind is DISPLAY_TO_PRINT:
        return stmt.kind is n.NodeKind.DISPLAY
    return False


class _Translator:
    def __init__(self, ast: n.CobolAst, actions: dict[int, Action]):
        self.ast = ast
        self.actions = actions
        order = list(n.iter_preorder(ast.program))
        self.refs: dict[int, int] = {id(node): i for i, node in enumerate(order)}
        self.by_ref: dict[int, n.Node] = dict(enumerate(order))
        self.result = TranspileResult(j.JavaAst(class_name_for(ast.program_id)))
        self.taken: set[str] = set(_TAKEN_BASE)
        self.vars: dict[str, _Field] = {}
        self.para_methods: dict[str, str] = {}
        self.temp_serial = 0

    # -- naming ------------------------------------------------------------

    def _temp(self) -> str:
        while True:
            name = f"t{self.temp_serial}"
            self.temp_serial += 1
            if name not in self.taken:
                self.taken.add(name)
                return name

    def _declare_fields(self) -> None:
        def walk(item: n.DataItem, prefix: str) -> None:
            if item.is_group:
                for child in item.children:
                    walk(child, prefix + item.name + "-")
                return
            jname = _sanitize(prefix + item.name, self.taken)
            width = n.picture_width(item.picture)
            if item.is_numeric:
                initial = item.value if isinstance(item.value, int) else 0
                jtype = "long"
            else:
                raw = item.value if isinstance(item.value, str) else ""
                initial = (raw + " " * width)[:width]
                jtype = "String"
            self.result.jast.fields.append(j.JField(jname, jtype, initial, width))
            # First declaration wins for bare-name references.
            self.vars.setdefault(item.name, _Field(jname, jtype, width))

        for item in self.ast.data_items:
            walk(item, "")

    def _declare_methods(self) -> None:
        for i, para in enumerate(self.ast.paragraphs):
            if i == 0:
                self.para_methods[para.name] = "run"
            else:
                self.para_methods[para.name] = _sanitize(para.name, self.taken)

    # -- action handling ----------------------------------------------------

    def _action_for(self, stmt: n.Stmt) -> Action:
        ref = self.refs[id(stmt)]
        fallback = default_action(stmt)
        requested = self.actions.get(ref, fallback)
        if requested.kind is EXTRACT_METHOD:
            # The split itself was handled (or fell back) during method
            # assembly and actions_used already records the outcome; the
            # statement body renders by its default rule.
            self.result.actions_used.setdefault(ref, fallback)
            return fallback
        if requested.kind is not fallback.kind and not applicable(stmt, requested):
            reason = f"{requested.kind.value} not applicable to {stmt.kind.value}"
            self.result.fallbacks.append(
                Fallback(ref, requested.kind.value, fallback.kind.value, reason)
            )
            requested = fallback
        self.result.actions_used[ref] = requested
        return requested

    # -- expression translation ----------------------------------------------

    def _var(self, name: str) -> _Field:
        # Unknown names map to a bare long field reference; both interpreters
        # then fail the same way at runtime (undefined variable).
        got = self.vars.get(name)
        if got is None:
            got = _Field("".join(ch if ch.isalnum() else "_" for ch in name.lower()), "long", 0)
        return got

    def expr(self, e: n.Expr) -> j.JExpr:
        if isinstance(e, (n.NumLit, n.StrLit)):
            return e
        if isinstance(e, n.VarRef):
            return n.VarRef(self._var(e.name).jname)
        if isinstance(e, n.BinOp):
            return n.BinOp(e.op, self.expr(e.left), self.expr(e.right))
        raise TypeError(f"unknown expression {e!r}")

    def cond(self, c: n.Cond) -> n.Cond:
        if isinstance(c, n.Comparison):
            return n.Comparison(c.op, self.expr(c.left), self.expr(c.right))
        if isinstance(c, n.NotCond):
            return n.NotCond(self.cond(c.inner))
        if isinstance(c, n.AndCond):
            return n.AndCond(self.cond(c.left), self.cond(c.right))
        if isinstance(c, n.OrCond):
            return n.OrCond(self.cond(c.left), self.cond(c.right))
        raise TypeError(f"unknown condition {c!r}")

    def _is_stringy(self, e: n.Expr) -> bool:
        if isinstance(e, n.StrLit):
            return True
        if isinstance(e, n.VarRef):
            return self._var(e.name).jtype == "String"
        return False

    def _store(self, dst: str, value: j.JExpr, value_stringy: bool) -> j.Assign:
        """Assignment with the shared COBOL store rule baked in: numeric
        values fit-to-width on String targets, strings parse on long ones."""
        target = self._var(dst)
        if target.jtype == "String":
            if not value_stringy:
                value = j.JCall("str", (value,))
            return j.Assign(target.jname, j.JCall("fit", (value, n.NumLit(target.width))))
        if value_stringy:
            value = j.JCall("num", (value,))
        return j.Assign(target.jname, value)

    # -- statement translation -----------------------------------------------

    def stmts(self, body: list[n.Stmt]) -> list:
        out: list = []
        for stmt in body:
            out.extend(self.stmt(stmt))
        return out

    def stmt(self, stmt: n.Stmt) -> list:
        action = self._action_for(stmt)
        kind = stmt.kind
        if kind is n.NodeKind.MOVE:
            return [self._store(stmt.dst, self.expr(stmt.src), self._is_stringy(stmt.src))]
        if kind is n.NodeKind.COMPUTE:
            return [self._store(stmt.dst, self.expr(stmt.expr), False)]
        if kind is n.NodeKind.ARITH:
            sym = {"ADD": "+", "SUBTRACT": "-", "MULTIPLY": "*", "DIVIDE": "/"}[stmt.op]
            value = n.BinOp(sym, self.expr(stmt.b), self.expr(stmt.a))
            target = stmt.giving if stmt.giving else stmt.b.name
            return [self._store(target, value, False)]
        if kind is n.NodeKind.IF:
            if action.kind is IF_CHAIN_TO_SWITCH:
                return [self._chain_switch(stmt)]
            return [j.IfElse(self.cond(stmt.cond), self.stmts(stmt.then_body),
                             self.stmts(stmt.else_body))]
        if kind is n.NodeKind.EVALUATE:
            return [self._switch(self.expr(stmt.subject),
                                 [(arm.value, list(arm.body)) for arm in stmt.arms],
                                 list(stmt.other) if stmt.other is not None else None)]
        if kind is n.NodeKind.PERFORM_PARA:
            return [j.MethodCall(self.para_methods[stmt.target], [])]
        if kind is n.NodeKind.PERFORM_TIMES:
            if stmt.target is not None:
                body = [j.MethodCall(self.para_methods[stmt.target], [])]
            else:
                body = self.stmts(stmt.body)
            return self._counted_loop(action.kind, self.expr(stmt.count), body)
        if kind is n.NodeKind.PERFORM_UNTIL:
            return self._until_loop(action.kind, n.NotCond(self.cond(stmt.cond)),
                                    self.stmts(stmt.body))
        if kind is n.NodeKind.PERFORM_VARYING:
            return self._varying_loop(action, stmt)
        if kind is n.NodeKind.DISPLAY:
            return [j.Print([self.expr(a) for a in stmt.args])]
        if kind is n.NodeKind.ACCEPT:
            read = j.JCall("in", ())
            return [self._store(stmt.target, read, True)]
        if kind is n.NodeKind.CALL:
            args = [n.VarRef(self._var(name).jname) for name in stmt.using]
            return [j.MethodCall(external_method_name(stmt.program), args, stmt.program)]
        if kind is n.NodeKind.GOTO:
            return []
        if kind is n.NodeKind.STOP_RUN:
            return [j.Return()]
        raise TypeError(f"unknown statement {stmt!r}")

    def _counted_loop(self, action: ActionKind, count: j.JExpr, body: list) -> list:
        t = self._temp()
        self.result.jast.fields.append(j.JField(t, "long", 0, 0))
        guard = n.Comparison(">", n.VarRef(t), n.NumLit(0))
        step = j.Assign(t, n.BinOp("-", n.VarRef(t), n.NumLit(1)))
        if action is LOOP_TO_WHILE:
            return [j.Assign(t, count), j.While(guard, body + [step])]
        if action is LOOP_TO_DO_WHILE:
            return [j.Assign(t, count), j.DoWhile(body + [step], guard)]
        return [j.For(j.Assign(t, count), guard, step, body)]

    def _until_loop(self, action: ActionKind, guard: n.Cond, body: list) -> list:
        if action is LOOP_TO_WHILE:
            return [j.While(guard, body)]
        if action is LOOP_TO_FOR:
            return [j.For(None, guard, None, body)]
        return [j.DoWhile(body, guard)]

    def _varying_loop(self, action: Action, stmt: n.PerformVarying) -> list:
        var = self._var(stmt.var).jname
        init = j.Assign(var, self.expr(stmt.from_))
        guard = n.NotCond(self.cond(stmt.until))
        step = j.Assign(var, n.BinOp("+", n.VarRef(var), self.expr(stmt.by)))
        body = self.stmts(stmt.body)
        if action.kind is LOOP_TO_FOR:
            return [j.For(init, guard, step, body)]
        if action.kind is LOOP_TO_WHILE:
            return [init, j.While(guard, body + [step])]
        return [init, j.DoWhile(body + [step], guard)]

    def _switch(self, subject: j.JExpr, arms: list, other: list[n.Stmt] | None) -> j.Switch:
        cases: list[j.SwitchCase] = []
        seen: set = set()
        for value, body in arms:
            key = (type(value).__name__, value.value)
            if key in seen:
                continue  # later duplicate arms are dead under first-match
            seen.add(key)
            cases.append(j.SwitchCase(value, tuple(self.stmts(body))))
        default = self.stmts(other) if other is not None else None
        return j.Switch(subject, cases, default)

    def _chain_switch(self, stmt: n.If) -> j.Switch:
        shape = chain_shape(stmt)
        assert shape is not None  # applicability guaranteed by _action_for
        chain_action = self.result.actions_used[self.refs[id(stmt)]]
        arms = []
        for node, literal, body in shape.arms:
            if node is not stmt:
                # Absorbed ladder Ifs translate as part of this switch.
                self.result.actions_used[self.refs[id(node)]] = chain_action
            arms.append((literal, list(body)))
        return self._switch(
            n.VarRef(self._var(shape.subject).jname), arms, list(shape.default)
        )

    # -- method assembly -----------------------------------------------------

    def _apply_extracts(self) -> None:
        """At most one accepted method split per paragraph; a request that
        cannot split, or comes after the accepted one, falls back."""
        split_by_para: dict[int, tuple[int, Action]] = {}
        for pi, para in enumerate(self.ast.paragraphs):
            top_refs = {self.refs[id(s)] for s in para.body}
            requests = sorted(
                (ref, act)
                for ref, act in self.actions.items()
                if act.kind is EXTRACT_METHOD and ref in top_refs
            )
            for ref, act in requests:
                reason = None
                node = self.by_ref.get(act.node_index)
                if node is None:
                    reason = f"split index {act.node_index} out of bounds"
                elif self.refs[id(node)] not in top_refs:
                    reason = f"split index {act.node_index} not a top-level statement here"
                elif pi in split_by_para:
                    reason = "paragraph already split"
                if reason is not None:
                    self.result.fallbacks.append(
                        Fallback(ref, act.kind.value, default_action(
                            self.by_ref[ref]).kind.value, reason)
                    )
                    self.result.actions_used[ref] = default_action(self.by_ref[ref])
                    continue
                split_by_para[pi] = (ref, act)
                self.result.actions_used[ref] = act
        self.splits = split_by_para

    def _nested_extract_requests(self) -> None:
        """Extract labels on nested (non top-level) statements fall back."""
        top_refs = {
            self.refs[id(s)] for para in self.ast.paragraphs for s in para.body
        }
        for ref, act in sorted(self.actions.items()):
            if act.kind is EXTRACT_METHOD and ref not in top_refs:
                reason = "split point must be a top-level statement"
                node = self.by_ref.get(ref)
                if node is not None and is_statement(node):
                    used = default_action(node)
                else:
                    used = Action(PASS_THROUGH)
                self.result.fallbacks.append(
                    Fallback(ref, act.kind.value, used.kind.value, reason))
                self.actions[ref] = used

    def translate(self) -> TranspileResult:
        self._declare_fields()
        self._declare_methods()
        self._nested_extract_requests()
        self._apply_extracts()
        jast = self.result.jast
        paragraphs = self.ast.paragraphs
        for pi, para in enumerate(paragraphs):
            method = self.para_methods[para.name]
            split = self.splits.get(pi)
            if split is None:
                jast.methods.append(j.JMethod(method, self.stmts(para.body)))
                continue
            ref, act = split
            target = self.by_ref[act.node_index]
            pos = next(i for i, s in enumerate(para.body) if s is target)
            tail_name = _sanitize(method + "_tail", self.taken)
            head = self.stmts(para.body[:pos]) + [j.MethodCall(tail_name, [])]
            jast.methods.append(j.JMethod(method, head))
            jast.methods.append(j.JMethod(tail_name, self.stmts(para.body[pos:])))
        if not paragraphs:
            jast.methods.append(j.JMethod("run", []))
        elif len(paragraphs) > 1:
            run = jast.methods[0]
            followers = [
                j.MethodCall(self.para_methods[p.name], []) for p in paragraphs[1:]
            ]
            if not (run.body and run.body[-1].kind is j.JKind.RETURN):
                run.body.extend(followers)
        # A trailing return in run() is implied by method end; dropping it
        # keeps the halt semantics and shrinks the tree.
        run = jast.methods[0]
        if run.body and run.body[-1].kind is j.JKind.RETURN:
            run.body.pop()
        return self.result


def ref_translate_with_fallbacks(ast, actions=None):
    return _Translator(ast, dict(actions or {})).translate()


# --- the comparison ----------------------------------------------------------------


def _programs():
    """Seeded programs of every generator, each with its family name."""
    for seed in range(40):
        yield f"random-{seed}", random_program(random.Random(seed), allow_goto=seed % 2 == 0)
        yield f"labeled-{seed}", labeled_program(random.Random(seed), divergent=seed % 3 != 0)
        yield f"sample-{seed}", sample_program(random.Random(seed))


PROGRAMS = dict(_programs())


def _action_dicts(ast, rng, count=6):
    """`count` random action dicts over the tree, every kind on any ref (refs
    past the tree included), each split pointing at None, a negative index,
    an index past the end, any node, or a top-level statement of the
    label's own paragraph."""
    order = list(n.iter_preorder(ast.program))
    size = len(order)
    refs = {id(node): ref for ref, node in enumerate(order)}
    paragraphs = [[refs[id(s)] for s in para.body] for para in ast.paragraphs]
    tops = [(ref, body) for body in paragraphs for ref in body]
    for _ in range(count):
        actions = {}
        for ref in rng.sample(range(size + 3), k=rng.randint(1, min(size + 3, 12))):
            kind = rng.choice(CLASS_ORDER)
            node_index = None
            if kind is EXTRACT_METHOD:
                node_index = rng.choice(
                    [None, -1 - rng.randrange(3), size + rng.randrange(3), rng.randrange(size)]
                )
            actions[ref] = Action(kind, node_index)
        for ref, body in rng.sample(tops, k=min(len(tops), rng.randint(0, 3))):
            actions[ref] = Action(EXTRACT_METHOD, rng.choice(body))
        yield actions


@pytest.mark.parametrize("family", ["random", "labeled", "sample"])
def test_translation_matches_the_reference_engine(family):
    rng = random.Random(family)
    splits = fallbacks = 0
    for name, ast in PROGRAMS.items():
        if not name.startswith(family + "-"):
            continue
        dicts = [None, *_action_dicts(ast, rng)]
        if family == "labeled":
            dicts.append(oracle_labels(ast))
        for actions in dicts:
            want = ref_translate_with_fallbacks(ast, actions)
            got = translate_with_fallbacks(ast, actions)
            assert got.jast == want.jast, name
            assert got.actions_used == want.actions_used, name
            assert got.fallbacks == want.fallbacks, name
            splits += sum(m.name.endswith("_tail") for m in got.jast.methods)
            fallbacks += len(got.fallbacks)
    # The dicts reach both accepted splits and fallbacks.
    assert splits and fallbacks


def test_the_action_table_admits_what_the_reference_rules_admitted():
    for name, ast in PROGRAMS.items():
        for node in n.iter_preorder(ast.program):
            if is_statement(node):
                assert live.default_action(node) == default_action(node), name
            for kind in ActionKind:
                for node_index in (None, 3):
                    action = Action(kind, node_index)
                    assert live.applicable(node, action) == applicable(node, action), (
                        name, node.kind, action)

"""Rule engine: CobolAst -> JavaAst, steered by per-statement actions.

The program becomes one class. Data items become fields (PIC 9 -> long,
PIC X -> String, groups flattened with underscore-joined names). The first
paragraph becomes run(); remaining paragraphs become private methods, and
run() ends with sequential calls to them, mirroring paragraph fall-through.
Width handling is baked into the emitted code via fit()/num()/str() calls,
so the Java side needs no picture knowledge at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from relicforge.cobol import nodes as n
from relicforge.cobol.nodes import is_statement
from relicforge.transpile import jnodes as j
from relicforge.transpile.actions import (
    EXTRACT_METHOD,
    IF_CHAIN_TO_SWITCH,
    LOOP_TO_FOR,
    LOOP_TO_WHILE,
    PASS_THROUGH,
    Action,
    ActionKind,
    applicable,
    chain_shape,
    default_action,
)

_JAVA_RESERVED = frozenset(
    {
        "abstract", "assert", "boolean", "break", "byte", "case", "catch",
        "char", "class", "const", "continue", "default", "do", "double",
        "else", "enum", "extends", "final", "finally", "float", "for",
        "goto", "if", "implements", "import", "instanceof", "int",
        "interface", "long", "native", "new", "package", "private",
        "protected", "public", "return", "short", "static", "strictfp",
        "super", "switch", "synchronized", "this", "throw", "throws",
        "transient", "try", "void", "volatile", "while",
    }
)

_TAKEN_BASE = _JAVA_RESERVED | j.BUILTINS | {"main", "run", "args"}


@dataclass(frozen=True)
class Fallback:
    stmt_ref: int
    requested: str
    used: str
    reason: str


@dataclass
class TranspileResult:
    jast: j.JavaAst
    actions_used: dict[int, Action] = field(default_factory=dict)
    fallbacks: list[Fallback] = field(default_factory=list)


def _sanitize(name: str, taken: set[str]) -> str:
    base = "".join(ch if ch.isalnum() else "_" for ch in name.lower())
    if not base or base[0].isdigit():
        base = "v_" + base
    candidate = base
    serial = 2
    while candidate in taken:
        candidate = f"{base}_{serial}"
        serial += 1
    taken.add(candidate)
    return candidate


def class_name_for(program_id: str) -> str:
    parts = [p for p in "".join(ch if ch.isalnum() else " " for ch in program_id).split() if p]
    name = "".join(p[:1].upper() + p[1:].lower() for p in parts)
    return name if name and not name[0].isdigit() else "Program" + name


def external_method_name(program: str) -> str:
    return "prog_" + "".join(ch if ch.isalnum() else "_" for ch in program)


@dataclass(frozen=True)
class _Field:
    jname: str
    jtype: str  # "long" | "String"
    width: int


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
        # An undeclared name gets a Java name of its own that no field or
        # temp takes, so both interpreters fail the same way at runtime
        # (undefined variable) instead of Java reading a field.
        got = self.vars.get(name)
        if got is None:
            got = self.vars[name] = _Field(_sanitize(name, self.taken), "long", 0)
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
        cls = stmt.__class__
        if cls is n.Move:
            return [self._store(stmt.dst, self.expr(stmt.src), self._is_stringy(stmt.src))]
        if cls is n.Compute:
            return [self._store(stmt.dst, self.expr(stmt.expr), False)]
        if cls is n.Arith:
            sym = {"ADD": "+", "SUBTRACT": "-", "MULTIPLY": "*", "DIVIDE": "/"}[stmt.op]
            value = n.BinOp(sym, self.expr(stmt.b), self.expr(stmt.a))
            target = stmt.giving if stmt.giving else stmt.b.name
            return [self._store(target, value, False)]
        if cls is n.If:
            if action.kind is IF_CHAIN_TO_SWITCH:
                return [self._chain_switch(stmt)]
            return [j.IfElse(self.cond(stmt.cond), self.stmts(stmt.then_body),
                             self.stmts(stmt.else_body))]
        if cls is n.Evaluate:
            return [self._switch(self.expr(stmt.subject),
                                 [(arm.value, list(arm.body)) for arm in stmt.arms],
                                 list(stmt.other) if stmt.other is not None else None)]
        if cls is n.PerformPara:
            return [j.MethodCall(self.para_methods[stmt.target], [])]
        if cls is n.PerformTimes:
            if stmt.target is not None:
                body = [j.MethodCall(self.para_methods[stmt.target], [])]
            else:
                body = self.stmts(stmt.body)
            count = self.expr(stmt.count)
            t = self._temp()
            self.result.jast.fields.append(j.JField(t, "long", 0, 0))
            return self._loop(action.kind, j.Assign(t, count),
                              n.Comparison(">", n.VarRef(t), n.NumLit(0)),
                              j.Assign(t, n.BinOp("-", n.VarRef(t), n.NumLit(1))), body)
        if cls is n.PerformUntil:
            guard = n.NotCond(self.cond(stmt.cond))
            return self._loop(action.kind, None, guard, None, self.stmts(stmt.body))
        if cls is n.PerformVarying:
            var = self._var(stmt.var).jname
            init = j.Assign(var, self.expr(stmt.from_))
            guard = n.NotCond(self.cond(stmt.until))
            step = j.Assign(var, n.BinOp("+", n.VarRef(var), self.expr(stmt.by)))
            return self._loop(action.kind, init, guard, step, self.stmts(stmt.body))
        if cls is n.Display:
            return [j.Print([self.expr(a) for a in stmt.args])]
        if cls is n.Accept:
            read = j.JCall("in", ())
            return [self._store(stmt.target, read, True)]
        if cls is n.Call:
            args = [n.VarRef(self._var(name).jname) for name in stmt.using]
            return [j.MethodCall(external_method_name(stmt.program), args, stmt.program)]
        if cls is n.GoTo:
            return []
        if cls is n.StopRun:
            return [j.Return()]
        raise TypeError(f"unknown statement {stmt!r}")

    def _loop(self, action: ActionKind, init: j.Assign | None, guard: n.Cond,
              step: j.Assign | None, body: list) -> list:
        """A PERFORM loop in the shape its action names: `for (init; guard;
        step)`, or the init before a while or do-while whose body ends with
        the step."""
        if action is LOOP_TO_FOR:
            return [j.For(init, guard, step, body)]
        if step is not None:
            body = body + [step]
        loop = j.While(guard, body) if action is LOOP_TO_WHILE else j.DoWhile(body, guard)
        return [loop] if init is None else [init, loop]

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

    def _plan_splits(self) -> dict[int, tuple[int, int, Action]]:
        """Decide every ExtractMethodAt request once, nested ones first and
        then by ref. A paragraph takes at most one split, at one of its own
        top-level statements, requested from a top-level statement of it;
        every other request falls back. Each request leaves `self.actions`,
        so its statement renders by its default rule. Returns paragraph
        index -> (label ref, split position in the body, action)."""
        top = {
            self.refs[id(s)]: (pi, pos)
            for pi, para in enumerate(self.ast.paragraphs)
            for pos, s in enumerate(para.body)
        }
        requests = sorted(
            (ref for ref, act in self.actions.items() if act.kind is EXTRACT_METHOD),
            key=lambda ref: (ref in top, ref),
        )
        splits: dict[int, tuple[int, int, Action]] = {}
        for ref in requests:
            act = self.actions.pop(ref)
            at = top.get(act.node_index)
            if ref not in top:
                reason = "split point must be a top-level statement"
            elif act.node_index not in self.by_ref:
                reason = f"split index {act.node_index} out of bounds"
            elif at is None or at[0] != top[ref][0]:
                reason = f"split index {act.node_index} not a top-level statement here"
            elif at[0] in splits:
                reason = "paragraph already split"
            else:
                splits[at[0]] = (ref, at[1], act)
                continue
            node = self.by_ref.get(ref)
            used = default_action(node) if node and is_statement(node) else Action(PASS_THROUGH)
            self.result.fallbacks.append(Fallback(ref, act.kind.value, used.kind.value, reason))
        return splits

    def translate(self) -> TranspileResult:
        self._declare_fields()
        self._declare_methods()
        splits = self._plan_splits()
        jast = self.result.jast
        paragraphs = self.ast.paragraphs
        for pi, para in enumerate(paragraphs):
            method = self.para_methods[para.name]
            if pi not in splits:
                jast.methods.append(j.JMethod(method, self.stmts(para.body)))
                continue
            ref, pos, act = splits[pi]
            tail_name = _sanitize(method + "_tail", self.taken)
            head = self.stmts(para.body[:pos]) + [j.MethodCall(tail_name, [])]
            jast.methods.append(j.JMethod(method, head))
            jast.methods.append(j.JMethod(tail_name, self.stmts(para.body[pos:])))
            self.result.actions_used[ref] = act  # its statement rendered by default
        if not paragraphs:
            jast.methods.append(j.JMethod("run", []))
        elif len(paragraphs) > 1:
            run = jast.methods[0]
            followers = [
                j.MethodCall(self.para_methods[p.name], []) for p in paragraphs[1:]
            ]
            if not (run.body and isinstance(run.body[-1], j.Return)):
                run.body.extend(followers)
        # A trailing return in run() is implied by method end; dropping it
        # keeps the halt semantics and shrinks the tree.
        run = jast.methods[0]
        if run.body and isinstance(run.body[-1], j.Return):
            run.body.pop()
        return self.result


def translate_with_fallbacks(
    ast: n.CobolAst, actions: dict[int, Action] | None = None
) -> TranspileResult:
    """Inapplicable actions fall back to defaults and are recorded, so a
    bad model prediction degrades to the rules path."""
    return _Translator(ast, dict(actions or {})).translate()


def translate_rules(ast: n.CobolAst) -> TranspileResult:
    """Pure rules path: defaults everywhere."""
    return translate_with_fallbacks(ast, None)

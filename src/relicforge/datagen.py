"""Seeded synthetic program generation.

random_program builds arbitrary-but-valid ASTs for property tests: every
identifier is declared, paragraph names are unique, PERFORM/GO TO targets
resolve, and loop bodies are nonempty, so the result always survives
parse(pretty_print(ast)). Expressions stay inside the grammar subset
(atoms where the parser wants atoms).

labeled_program and oracle_labels produce training/evaluation corpora
where the best per-statement action is a deterministic function of the
step features, so a sequence model can recover the labels from held-out
files. sample_program emits the mixed-construct profile used for the
bundled fixture corpus (roughly 35 lines, 5 PERFORMs, 6 distinct calls
per file).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from relicforge.cobol import SourceFile, nodes as n, parse_source, pretty_print
from relicforge.cobol.nodes import is_statement
from relicforge.transpile import Action, chain_shape, default_action
from relicforge.transpile.actions import (
    EXTRACT_METHOD,
    IF_CHAIN_TO_SWITCH,
    LOOP_TO_FOR,
    LOOP_TO_WHILE,
)

_CALL_TARGETS = ("BILLING", "LEDGER", "AUDIT", "PAYROLL", "ARCHIVE")


class _Gen:
    def __init__(self, rng: random.Random, allow_goto: bool, max_depth: int):
        self.rng = rng
        self.allow_goto = allow_goto
        self.max_depth = max_depth
        self.numeric_vars: list[str] = []
        self.alnum_vars: list[str] = []
        self.para_names: list[str] = []
        self.line = 1

    def next_line(self) -> int:
        self.line += 1
        return self.line

    def pick_numeric(self) -> str:
        return self.rng.choice(self.numeric_vars)

    def atom(self, numeric: bool = True) -> n.Expr:
        if numeric:
            if self.rng.random() < 0.5:
                return n.NumLit(self.rng.randint(0, 99))
            return n.VarRef(self.pick_numeric())
        if self.alnum_vars and self.rng.random() < 0.5:
            return n.VarRef(self.rng.choice(self.alnum_vars))
        return n.StrLit(self.rng.choice(["OK", "ERR", "A B", 'SAY "HI"']))

    def expr(self, depth: int = 0) -> n.Expr:
        if depth >= 2 or self.rng.random() < 0.5:
            return self.atom()
        op = self.rng.choice("+-*/")
        right = self.expr(depth + 1)
        if op == "/":
            right = n.NumLit(self.rng.randint(1, 9))  # keep quotients defined
        return n.BinOp(op, self.expr(depth + 1), right)

    def cond(self, depth: int = 0) -> n.Cond:
        roll = self.rng.random()
        base = n.Comparison(
            self.rng.choice(["=", "<>", "<", "<=", ">", ">="]),
            n.VarRef(self.pick_numeric()),
            n.NumLit(self.rng.randint(0, 20)),
        )
        if depth >= 1:
            return base
        if roll < 0.15:
            return n.AndCond(base, self.cond(depth + 1))
        if roll < 0.25:
            return n.OrCond(base, self.cond(depth + 1))
        if roll < 0.32:
            return n.NotCond(self.cond(depth + 1))
        return base

    def statement(self, depth: int, para_index: int) -> n.Stmt:
        choices = ["move", "compute", "arith", "display", "accept", "call"]
        if depth < self.max_depth:
            choices += ["if", "if", "evaluate", "until", "varying", "times"]
        # Forward-only transfers: no PERFORM recursion, no GO TO cycles.
        if para_index < len(self.para_names) - 1:
            choices.append("perform")
            if self.allow_goto:
                choices.append("goto")
        what = self.rng.choice(choices)
        line = self.next_line()
        if what == "move":
            numeric = self.rng.random() < 0.7 or not self.alnum_vars
            dst = self.pick_numeric() if numeric else self.rng.choice(self.alnum_vars)
            return n.Move(line, self.atom(numeric), dst)
        if what == "compute":
            return n.Compute(line, self.pick_numeric(), self.expr())
        if what == "arith":
            op = self.rng.choice(["ADD", "SUBTRACT", "MULTIPLY", "DIVIDE"])
            a = n.NumLit(self.rng.randint(1, 9)) if op == "DIVIDE" else self.atom()
            giving = self.pick_numeric() if self.rng.random() < 0.3 else None
            return n.Arith(line, op, a, n.VarRef(self.pick_numeric()), giving)
        if what == "display":
            args = [self.atom(self.rng.random() < 0.6) for _ in range(self.rng.randint(1, 3))]
            return n.Display(line, args)
        if what == "accept":
            return n.Accept(line, self.pick_numeric())
        if what == "call":
            using = self.rng.sample(
                self.numeric_vars, k=min(len(self.numeric_vars), self.rng.randint(0, 2))
            )
            return n.Call(line, self.rng.choice(_CALL_TARGETS), using)
        if what == "perform":
            return n.PerformPara(line, self.rng.choice(self.para_names[para_index + 1 :]))
        if what == "goto":
            return n.GoTo(line, self.rng.choice(self.para_names[para_index + 1 :]))
        if what == "if":
            cond = self.cond()
            then_body = self.body(depth + 1, para_index)
            else_body = self.body(depth + 1, para_index) if self.rng.random() < 0.4 else []
            return n.If(line, cond, then_body, else_body)
        if what == "evaluate":
            subject = n.VarRef(self.pick_numeric())
            values = self.rng.sample(range(10), k=self.rng.randint(1, 4))
            arms = [
                n.WhenArm(n.NumLit(v), tuple(self.body(depth + 1, para_index)))
                for v in values
            ]
            other = self.body(depth + 1, para_index) if self.rng.random() < 0.5 else None
            return n.Evaluate(line, subject, arms, other)
        if what == "until":
            var = self.pick_numeric()
            cond = n.Comparison(">", n.VarRef(var), n.NumLit(self.rng.randint(2, 6)))
            body = self.body(depth + 1, para_index)
            body.append(n.Arith(self.next_line(), "ADD", n.NumLit(1), n.VarRef(var), None))
            return n.PerformUntil(line, cond, body)
        if what == "varying":
            var = self.pick_numeric()
            return n.PerformVarying(
                line,
                var,
                n.NumLit(1),
                n.NumLit(1),
                n.Comparison(">", n.VarRef(var), n.NumLit(self.rng.randint(2, 5))),
                self.body(depth + 1, para_index),
            )
        count = n.NumLit(self.rng.randint(1, 4))
        if self.rng.random() < 0.3 and para_index < len(self.para_names) - 1:
            return n.PerformTimes(
                line, count, None, self.rng.choice(self.para_names[para_index + 1 :])
            )
        return n.PerformTimes(line, count, self.body(depth + 1, para_index), None)

    def body(self, depth: int, para_index: int) -> list[n.Stmt]:
        count = self.rng.randint(1, 2 if depth >= 2 else 3)
        return [self.statement(depth, para_index) for _ in range(count)]


def random_program(
    rng: random.Random,
    *,
    allow_goto: bool = False,
    max_depth: int = 3,
    program_id: str = "GEN",
) -> n.CobolAst:
    g = _Gen(rng, allow_goto, max_depth)

    data_items: list[n.DataItem] = []
    for i in range(rng.randint(2, 5)):
        name = f"N{i}"
        g.numeric_vars.append(name)
        data_items.append(
            n.DataItem(g.next_line(), 1, name, f"9({rng.randint(1, 6)})", rng.randint(0, 9))
        )
    for i in range(rng.randint(0, 2)):
        name = f"S{i}"
        g.alnum_vars.append(name)
        data_items.append(n.DataItem(g.next_line(), 1, name, f"X({rng.randint(2, 8)})", None))
    if rng.random() < 0.4:
        group = n.DataItem(g.next_line(), 1, "REC", None, None)
        for i in range(rng.randint(1, 3)):
            name = f"F{i}"
            g.numeric_vars.append(name)
            group.children.append(n.DataItem(g.next_line(), 5, name, "9(4)", None))
        data_items.append(group)

    para_count = rng.randint(1, 4)
    g.para_names = [f"P{i}" for i in range(para_count)]
    paragraphs = []
    for pi, name in enumerate(g.para_names):
        body = g.body(0, pi)
        if pi == 0 and rng.random() < 0.5:
            body.append(n.StopRun(g.next_line()))
        paragraphs.append(n.Paragraph(g.next_line(), name, body))

    program = n.Program(1, program_id, data_items, paragraphs)
    total = len(list(n.iter_preorder(program)))
    return n.CobolAst(program, source_lines=g.line, token_count=total)


# -- labeled corpora ----------------------------------------------------------
#
# Four refactoring rules define the "best" action per statement. Each rule
# keys on features the step encoder exposes directly (statement kind,
# child count, sibling index), so the labels are learnable one timestep at
# a time and never conflict across files:
#   - PERFORM UNTIL reads better as a counted for-loop       -> LoopToFor
#   - PERFORM n TIMES reads better as an explicit while      -> LoopToWhile
#   - an IF ladder of >= 2 equality arms reads as a switch   -> IfChainToSwitch
#   - the 6th statement of a 10-statement paragraph starts a
#     method split                                            -> ExtractMethodAt

_SPLIT_PARA_LEN = 10
_SPLIT_AT = 5


def oracle_labels(ast: n.CobolAst) -> dict[int, Action]:
    """Best-action labels for every statement under the fixed rule set.

    Ladder Ifs absorbed into a switch share the head's label, matching
    what the rule engine records in actions_used when it applies one.
    """
    order = list(n.iter_preorder(ast.program))
    refs = {id(node): i for i, node in enumerate(order)}
    labels = {ref: default_action(node) for ref, node in enumerate(order)
              if is_statement(node)}
    for node in order:
        kind = node.kind
        if kind is n.IF:
            shape = chain_shape(node)
            if shape is not None and len(shape.arms) >= 2:
                for arm_if, _literal, _body in shape.arms:
                    labels[refs[id(arm_if)]] = Action(IF_CHAIN_TO_SWITCH)
        elif kind is n.PERFORM_UNTIL:
            labels[refs[id(node)]] = Action(LOOP_TO_FOR)
        elif kind is n.PERFORM_TIMES:
            labels[refs[id(node)]] = Action(LOOP_TO_WHILE)
    for para in ast.program.paragraphs:
        if len(para.body) == _SPLIT_PARA_LEN:
            ref = refs[id(para.body[_SPLIT_AT])]
            labels[ref] = Action(EXTRACT_METHOD, ref)
    return labels


class _LabeledGen:
    """Builds programs whose constructs keep the oracle rules unambiguous:
    plain Ifs are relational with a single then-statement and no else,
    ladder Ifs carry exactly one then-statement plus a nonempty terminal
    else, loops always run at least one iteration, no paragraph except the
    split one reaches six top-level statements, and nothing re-executes a
    paragraph (no PERFORM <para>, no GO TO)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.line = 1
        self.vars = [f"V{i}" for i in range(5)]
        self.counters: list[str] = []

    def next_line(self) -> int:
        self.line += 1
        return self.line

    def var(self) -> str:
        return self.rng.choice(self.vars)

    def counter(self) -> str:
        name = f"C{len(self.counters)}"
        self.counters.append(name)
        return name

    def move(self) -> n.Stmt:
        return n.Move(self.next_line(), n.NumLit(self.rng.randint(0, 99)), self.var())

    def add(self) -> n.Stmt:
        return n.Arith(
            self.next_line(), "ADD", n.NumLit(self.rng.randint(1, 9)),
            n.VarRef(self.var()), None,
        )

    def display(self) -> n.Stmt:
        return n.Display(self.next_line(), [n.VarRef(self.var())])

    def filler(self) -> n.Stmt:
        return self.rng.choice((self.move, self.add, self.display))()

    def chain(self, depth: int) -> n.Stmt:
        subject = self.var()
        values = self.rng.sample(range(10), k=depth)
        node: n.Stmt | None = None
        tail: list[n.Stmt] = [self.move()]
        for value in reversed(values):
            node = n.If(
                self.next_line(),
                n.Comparison("=", n.VarRef(subject), n.NumLit(value)),
                [self.move()],
                [node] if node is not None else tail,
            )
        assert node is not None
        return node

    def plain_if(self) -> n.Stmt:
        return n.If(
            self.next_line(),
            n.Comparison(self.rng.choice((">", "<", ">=", "<=")),
                         n.VarRef(self.var()), n.NumLit(self.rng.randint(1, 20))),
            [self.display()],
            [],
        )

    def until_loop(self) -> n.Stmt:
        counter = self.counter()  # declared with VALUE 0: always iterates
        bound = self.rng.randint(2, 4)
        body: list[n.Stmt] = [
            n.Arith(self.next_line(), "ADD", n.NumLit(1), n.VarRef(counter), None)
        ]
        if self.rng.random() < 0.5:
            body.append(n.Display(self.next_line(), [n.VarRef(counter)]))
        return n.PerformUntil(
            self.next_line(),
            n.Comparison(">=", n.VarRef(counter), n.NumLit(bound)),
            body,
        )

    def times_loop(self) -> n.Stmt:
        return n.PerformTimes(
            self.next_line(), n.NumLit(self.rng.randint(2, 5)), [self.add()], None
        )

    def varying_loop(self) -> n.Stmt:
        var = self.var()
        return n.PerformVarying(
            self.next_line(), var, n.NumLit(1), n.NumLit(1),
            n.Comparison(">", n.VarRef(var), n.NumLit(self.rng.randint(2, 4))),
            [self.add()],
        )

    def evaluate(self) -> n.Stmt:
        values = self.rng.sample(range(10), k=self.rng.randint(2, 3))
        arms = [n.WhenArm(n.NumLit(v), (self.filler(),)) for v in values]
        return n.Evaluate(self.next_line(), n.VarRef(self.var()), arms, [self.filler()])

    def call(self) -> n.Stmt:
        return n.Call(
            self.next_line(), self.rng.choice(_CALL_TARGETS),
            [self.var()] if self.rng.random() < 0.7 else [],
        )

    def split_paragraph_body(self) -> list[n.Stmt]:
        body = [self.filler() for _ in range(_SPLIT_PARA_LEN)]
        body[_SPLIT_AT] = self.move()  # the statement that opens the split
        return body


def labeled_program(
    rng: random.Random, *, divergent: bool = True, program_id: str = "ACC"
) -> n.CobolAst:
    """One corpus file. Divergent files exercise all four oracle rules
    (roughly 30% of their statements get a non-default label); the rest
    use only constructs whose best action matches the rule default."""
    g = _LabeledGen(rng)

    if divergent:
        paragraphs = [
            n.Paragraph(g.next_line(), "MAIN", [
                g.chain(3),
                g.until_loop(),
                g.times_loop(),
                g.chain(2),
            ]),
            n.Paragraph(g.next_line(), "CALCS", [
                g.chain(2),
                g.until_loop(),
                g.times_loop(),
                g.call(),
            ]),
            n.Paragraph(g.next_line(), "BATCH", g.split_paragraph_body()),
            n.Paragraph(g.next_line(), "FINISH", [
                g.display(),
                n.StopRun(g.next_line()),
            ]),
        ]
    else:
        paragraphs = [
            n.Paragraph(g.next_line(), "MAIN", [
                g.plain_if(),
                g.varying_loop(),
                g.filler(),
                g.call(),
            ]),
            n.Paragraph(g.next_line(), "CALCS", [
                g.evaluate(),
                g.plain_if(),
                g.filler(),
            ]),
            n.Paragraph(g.next_line(), "FINISH", [
                g.display(),
                n.StopRun(g.next_line()),
            ]),
        ]

    data_items = [
        n.DataItem(g.next_line(), 1, name, "9(4)", rng.randint(0, 9))
        for name in g.vars
    ]
    data_items += [
        n.DataItem(g.next_line(), 1, name, "9(4)", 0) for name in g.counters
    ]

    program = n.Program(1, program_id, data_items, paragraphs)
    total = len(list(n.iter_preorder(program)))
    return n.CobolAst(program, source_lines=g.line, token_count=total)


def sample_program(rng: random.Random, program_id: str = "SAMPLE") -> n.CobolAst:
    """Reference-profile generator for the bundled corpus: every file prints
    as exactly 35 source lines with 5 PERFORM statements, 6 distinct call
    targets, and cyclomatic complexity 8; literals, operands, and arm bodies
    are jittered per file so texts and traces still differ."""
    g = _LabeledGen(rng)
    names = ("V0", "C0")

    def pick() -> str:
        return rng.choice(names)

    def filler() -> n.Stmt:
        kind = rng.randrange(3)
        if kind == 0:
            return n.Move(g.next_line(), n.NumLit(rng.randint(0, 99)), pick())
        if kind == 1:
            return n.Arith(g.next_line(), "ADD", n.NumLit(rng.randint(1, 9)),
                           n.VarRef(pick()), None)
        return n.Display(g.next_line(), [n.VarRef(pick())])

    # Counter starts at VALUE 0 and the bound is >= 2, so the loop always runs.
    until = n.PerformUntil(
        g.next_line(),
        n.Comparison(">=", n.VarRef("C0"), n.NumLit(rng.randint(2, 4))),
        [n.Arith(g.next_line(), "ADD", n.NumLit(1), n.VarRef("C0"), None)],
    )
    vary_bound = rng.randint(3, 5)
    varying = n.PerformVarying(
        g.next_line(), "V0", n.NumLit(1), n.NumLit(1),
        n.Comparison(">", n.VarRef("V0"), n.NumLit(vary_bound)),
        [n.Arith(g.next_line(), "ADD", n.NumLit(rng.randint(1, 3)),
                 n.VarRef("C0"), None)],
    )
    arms = [
        n.WhenArm(n.NumLit(value), (filler(),))
        for value in rng.sample(range(4, 20), k=3)
    ]
    evaluate = n.Evaluate(g.next_line(), n.VarRef("C0"), arms, None)
    guarded = n.If(
        g.next_line(),
        n.Comparison(rng.choice((">", "<", ">=", "<=")),
                     n.VarRef("V0"), n.NumLit(rng.randint(1, 20))),
        [n.PerformPara(g.next_line(), "NOTIFY")],
        [],
    )
    main_body: list[n.Stmt] = [
        until,
        n.Call(g.next_line(), "BILLING", [pick()]),
        n.PerformPara(g.next_line(), "NOTIFY"),
        varying,
        n.Call(g.next_line(), "LEDGER", []),
        evaluate,
        n.Call(g.next_line(), "AUDIT", [pick()]),
        n.PerformTimes(g.next_line(), n.NumLit(rng.randint(2, 4)), None, "NOTIFY"),
        guarded,
        n.Call(g.next_line(), "ARCHIVE", []),
        n.Call(g.next_line(), "PAYROLL", [pick()]),
        n.StopRun(g.next_line()),
    ]
    paragraphs = [
        n.Paragraph(g.next_line(), "MAIN", main_body),
        n.Paragraph(g.next_line(), "NOTIFY", [
            n.Call(g.next_line(), "DISPATCH", [pick()]),
        ]),
    ]
    data_items = [
        n.DataItem(g.next_line(), 1, "V0", "9(4)", rng.randint(0, 9)),
        n.DataItem(g.next_line(), 1, "C0", "9(4)", 0),
    ]

    program = n.Program(1, program_id, data_items, paragraphs)
    total = len(list(n.iter_preorder(program)))
    draft = n.CobolAst(program, source_lines=0, token_count=total)
    printed = len(pretty_print(draft).splitlines())
    return n.CobolAst(program, source_lines=printed, token_count=total)


def write_labels(path: Path | str, labels: dict[int, Action]) -> None:
    data = {
        "labels": [
            {"stmt_ref": ref, **labels[ref].to_json()} for ref in sorted(labels)
        ]
    }
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def acceptance_corpus(
    root: Path | str, count: int = 200, seed: int = 42, divergent_share: float = 0.8
) -> int:
    """Write `count` labeled .cbl files under root; returns how many use
    the divergent profile. Labels are computed on the reparsed text so
    statement refs always match what a manifest-driven run will see."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    divergent_count = 0
    for i in range(count):
        rng = random.Random(f"{seed}:{i}")
        divergent = rng.random() < divergent_share
        divergent_count += divergent
        ast = labeled_program(rng, divergent=divergent, program_id=f"ACC{i:03d}")
        text = pretty_print(ast)
        stem = root / f"acc_{i:03d}"
        stem.with_suffix(".cbl").write_text(text, encoding="utf-8")
        reparsed = parse_source(SourceFile(f"acc_{i:03d}.cbl", text))
        write_labels(stem.with_suffix(".labels.json"), oracle_labels(reparsed))
    return divergent_count

"""Seeded input generators for the benchmark workloads.

Every generator writes a corpus directory from a seed and records what
the curate stage should make of each file, so a run can check the
program's verdicts against the generator's intent. The same seed always
gives byte-identical files.

- acceptance: labeled programs as datagen.acceptance_corpus writes them,
  all clean, with an exact divergent share.
- differential: random_program files (half with GO TO) that interpret_cobol
  ends on every input, stratified by size, of which a fixed number are
  made to loop forever and so hit the interpreters' step limit. Fixing
  that number, and the loop, keeps the expensive step-limit tail the same
  size under every seed.
- dirty_intake: sample_program files passed through a seeded mutator
  that damages, breaks, duplicates, or shrinks a fixed share of them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from relicforge import datagen
from relicforge.cobol import SourceFile, parse_source, pretty_print
from relicforge.cobol import nodes as n
from relicforge.cobol.repair import RepairRule
from relicforge.corpus import CorpusConfig, Status
from relicforge.evaluate import OutcomeKind, input_battery, interpret_cobol

KEPT = Status.KEPT.value
REPAIRED = Status.REPAIRED.value
REJECTED = Status.REJECTED.value
DUPLICATE = Status.DUPLICATE.value
TRIVIAL = Status.TRIVIAL.value

MIN_STATEMENTS = CorpusConfig().min_statements


@dataclass
class Corpus:
    root: Path
    intended: dict[str, str] = field(default_factory=dict)  # path -> curate status
    kinds: dict[str, str] = field(default_factory=dict)  # path -> generator kind
    expected_rules: dict[str, list[str]] = field(default_factory=dict)  # path -> sorted rules

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def add(self, name: str, data: bytes, kind: str, status: str, rules=()) -> None:
        (self.root / name).write_bytes(data)
        self.kinds[name] = kind
        self.intended[name] = status
        if rules:
            self.expected_rules[name] = sorted(rule.value for rule in rules)

    def sizes(self) -> dict:
        return {
            "files": len(self.intended),
            "by_status": dict(sorted(Counter(self.intended.values()).items())),
            "by_kind": dict(sorted(Counter(self.kinds.values()).items())),
        }


def _statement_counts(ast: n.CobolAst) -> tuple[int, int]:
    structural = (n.NodeKind.PROGRAM, n.NodeKind.DATA_ITEM, n.NodeKind.PARAGRAPH)
    kinds = [v.kind for v in n.iter_preorder(ast.program) if v.kind not in structural]
    return len(kinds), kinds.count(n.NodeKind.DISPLAY)


def is_trivial(ast: n.CobolAst) -> bool:
    """The curate trivial filter, restated: too few statements or all Display."""
    statements, displays = _statement_counts(ast)
    return statements < MIN_STATEMENTS or (statements > 0 and displays == statements)


# -- acceptance -----------------------------------------------------------------


DIVERGENT_SHARE = 0.8  # datagen.acceptance_corpus's default


def acceptance(root: Path, seed: int, count: int) -> Corpus:
    """datagen.acceptance_corpus's files and label sidecars, except that
    exactly DIVERGENT_SHARE of them are divergent: the divergent profile
    is larger, so a share that varied with the seed moved every stage."""
    corpus = Corpus(root)
    divergent = round(DIVERGENT_SHARE * count)
    flags = [index < divergent for index in range(count)]
    random.Random(f"{seed}:acceptance").shuffle(flags)
    for index, flag in enumerate(flags):
        rng = random.Random(f"{seed}:acceptance:{index}")
        ast = datagen.labeled_program(rng, divergent=flag, program_id=f"ACC{index:03d}")
        text = pretty_print(ast)
        name = f"acc_{index:03d}"
        reparsed = parse_source(SourceFile(f"{name}.cbl", text))
        datagen.write_labels(corpus.root / f"{name}.labels.json", datagen.oracle_labels(reparsed))
        corpus.add(f"{name}.cbl", text.encode("utf-8"), "divergent" if flag else "plain", KEPT)
    return corpus


# -- differential ---------------------------------------------------------------


def _halts_on_battery(ast: n.CobolAst, name: str) -> bool:
    """Whether every input-battery run of the file ends before the step limit."""
    return all(
        interpret_cobol(ast, vector).outcome.kind is not OutcomeKind.STEP_LIMIT
        for vector in input_battery(name)
    )


def _loop_forever(ast: n.CobolAst, rng: random.Random) -> None:
    """Open P0 with a loop whose body keeps its counter at one digit, so
    the exit test never holds and every run ends at the step limit."""
    var = ast.program.data_items[0].name
    body = [n.Move(1, n.NumLit(rng.randint(0, 9)), var)]
    forever = n.PerformUntil(1, n.Comparison(">", n.VarRef(var), n.NumLit(9_999_999)), body)
    ast.program.paragraphs[0].body.insert(0, forever)


# Upper statement counts of eight size classes, each holding about an
# eighth of random_program output. A corpus takes the same number of files
# from every (size class, GO TO or not) pair, so its size and cost barely
# move with the seed; unstratified, curate time alone moved by 8% between
# seeds.
SIZE_CLASSES = (4, 6, 7, 10, 13, 17, 24, 60)


def _size_class(ast: n.CobolAst) -> int | None:
    statements, _ = _statement_counts(ast)
    return next((k for k, top in enumerate(SIZE_CLASSES) if statements <= top), None)


def differential(root: Path, seed: int, count: int, looping: int) -> Corpus:
    """`count` random_program files, `looping` of them made to loop forever.

    Each candidate is named first, because its input battery depends on
    its name, and kept only if interpret_cobol ends every battery run
    before the step limit. The programs random_program writes that hit
    the limit cost from 0.5 to 1.5 s each in interpret_cobol alone and
    print up to 250k lines, so the handful a corpus drew spread wall time
    by 48% and peak memory by 9% over five seeds. The step-limit files
    are therefore terminating files given the same endless loop, which
    makes each of them cost the same.
    """
    corpus = Corpus(root)
    classes = [(size, goto) for size in range(len(SIZE_CLASSES)) for goto in (False, True)]
    quota = {c: count // len(classes) + (k < count % len(classes)) for k, c in enumerate(classes)}
    picked: list[tuple[str, n.CobolAst]] = []
    taken = dict.fromkeys(classes, 0)
    draw = 0
    while len(picked) < count:
        goto = draw % 2 == 1
        name = f"d_{draw:05d}.cbl"
        ast = datagen.random_program(random.Random(f"{seed}:differential:{draw}"),
                                     allow_goto=goto, program_id=f"D{draw:05d}")
        draw += 1
        key = (_size_class(ast), goto)
        if key not in taken or taken[key] >= quota[key] or is_trivial(ast):
            continue
        if _halts_on_battery(parse_source(SourceFile(name, pretty_print(ast))), name):
            taken[key] += 1
            picked.append((name, ast))
    rng = random.Random(f"{seed}:differential:loops")
    loops = set(rng.sample(range(count), looping))
    for index, (name, ast) in enumerate(picked):
        kind = "terminating"
        if index in loops:
            _loop_forever(ast, rng)
            kind = "step_limit"
        corpus.add(name, pretty_print(ast).encode("utf-8"), kind, KEPT)
    return corpus


# -- dirty_intake -----------------------------------------------------------------

# (kind, share of files, intended status, repair rules the damage should fire)
DIRTY_MIX = (
    ("clean", 0.40, KEPT, ()),
    ("no_end_if", 0.06, REPAIRED, (RepairRule.INSERT_END_IF,)),
    ("no_end_perform", 0.06, REPAIRED, (RepairRule.INSERT_END_PERFORM,)),
    ("no_end_evaluate", 0.06, REPAIRED, (RepairRule.INSERT_END_EVALUATE,)),
    ("no_final_period", 0.06, REPAIRED, (RepairRule.APPEND_FINAL_PERIOD,)),
    ("open_quote", 0.06, REPAIRED, (RepairRule.CLOSE_STRING_LITERAL,)),
    ("two_faults", 0.05, REPAIRED,
     (RepairRule.INSERT_END_PERFORM, RepairRule.APPEND_FINAL_PERIOD)),
    ("garbage", 0.07, REJECTED, ()),
    ("undecodable", 0.02, REJECTED, ()),
    ("exact_duplicate", 0.06, DUPLICATE, ()),
    ("crlf_duplicate", 0.06, DUPLICATE, ()),
    ("trivial", 0.04, TRIVIAL, ()),
)
_DUPLICATE_KINDS = ("exact_duplicate", "crlf_duplicate")
_GARBAGE = (
    ("PROCEDURE DIVISION.", "PROCEDURE DIVISON."),
    ("    STOP RUN.\n", "    MOVE TO TO.\n    STOP RUN.\n"),
    ("    STOP RUN.\n", "    @@@\n    STOP RUN.\n"),
)


def _drop_line(text: str, line: str, rng: random.Random) -> str:
    rows = text.split("\n")
    hits = [i for i, row in enumerate(rows) if row == line]
    del rows[rng.choice(hits)]
    return "\n".join(rows)


def _drop_final_period(text: str) -> str:
    body = text.rstrip("\n")
    return body[:-1] + "\n"


def mutate(text: str, kind: str, rng: random.Random) -> bytes:
    """Apply one DIRTY_MIX damage kind to a printed sample_program."""
    if kind == "no_end_if":
        text = _drop_line(text, "    END-IF.", rng)
    elif kind == "no_end_perform":
        text = _drop_line(text, "    END-PERFORM.", rng)
    elif kind == "no_end_evaluate":
        text = _drop_line(text, "    END-EVALUATE.", rng)
    elif kind == "no_final_period":
        text = _drop_final_period(text)
    elif kind == "open_quote":
        target = rng.choice(("BILLING", "LEDGER", "AUDIT", "ARCHIVE", "PAYROLL"))
        text = text.replace(f'CALL "{target}"', f'CALL "{target}', 1)
    elif kind == "two_faults":
        text = _drop_final_period(_drop_line(text, "    END-PERFORM.", rng))
    elif kind == "garbage":
        old, new = rng.choice(_GARBAGE)
        text = text.replace(old, new, 1)
    elif kind == "undecodable":
        return text.encode("utf-8") + b"\xff\xfe\n"
    elif kind == "crlf_duplicate":
        text = text.replace("\n", "  \r\n")
    elif kind != "clean" and kind != "exact_duplicate":
        raise ValueError(f"unknown mutation kind {kind!r}")
    return text.encode("utf-8")


def _trivial_text(index: int, rng: random.Random) -> str:
    words = ("START", "READY", "DONE", "HELLO", "PING")
    if index % 2:
        stmts = [f'DISPLAY "{rng.choice(words)}".', "STOP RUN."]  # too few statements
    else:
        stmts = [f'DISPLAY "{rng.choice(words)} {k}".' for k in range(3)]  # Display only
    return "\n".join(
        ["IDENTIFICATION DIVISION.", f"PROGRAM-ID. T{index:04d}.",
         "PROCEDURE DIVISION.", "MAIN."] + [f"    {s}" for s in stmts]
    ) + "\n"


def _quota(count: int) -> list[str]:
    """Exact per-kind counts for `count` files; rounding slack goes to clean."""
    sizes = {kind: int(share * count) for kind, share, _, _ in DIRTY_MIX}
    sizes["clean"] += count - sum(sizes.values())
    return [kind for kind, *_ in DIRTY_MIX for _ in range(sizes[kind])]


def dirty_intake(root: Path, seed: int, count: int) -> Corpus:
    corpus = Corpus(root)
    rng = random.Random(f"{seed}:dirty_intake")
    kinds = _quota(count)
    # Duplicates go last so each copies a clean file that sorts before it
    # and therefore stays the keeper.
    head = [k for k in kinds if k not in _DUPLICATE_KINDS]
    rng.shuffle(head)
    kinds = head + [k for k in kinds if k in _DUPLICATE_KINDS]
    spec = {kind: (status, rules) for kind, _, status, rules in DIRTY_MIX}
    clean_texts: list[str] = []
    for index, kind in enumerate(kinds):
        status, rules = spec[kind]
        if kind == "trivial":
            data = _trivial_text(index, rng).encode("utf-8")
        elif kind in _DUPLICATE_KINDS:
            data = mutate(rng.choice(clean_texts), kind, rng)
        else:
            ast = datagen.sample_program(rng, program_id=f"S{index:04d}")
            text = pretty_print(ast)
            if kind == "clean":
                clean_texts.append(text)
            data = mutate(text, kind, rng)
        corpus.add(f"f_{index:04d}.cbl", data, kind, status, rules)
    return corpus

"""Nesting deeper than `MAX_NESTING` is a parse error, not a RecursionError.

Every stage after the parser walks the tree recursively, so the parser
bounds how deep a tree may be, flat operator chains included. A file at the bound goes through every
stage; a file past it is Rejected by `repair` and so by `curate`.
"""

import pytest

from relicforge.analysis import measure
from relicforge.cobol import SourceFile
from relicforge.cobol.parser import MAX_NESTING, parse
from relicforge.cobol.repair import Verdict, repair
from relicforge.cobol.tokens import tokenize
from relicforge.corpus import Status, curate, ingest
from relicforge.errors import ParseFailure
from relicforge.evaluate import score_file
from relicforge.model import sample_from_ast
from relicforge.transpile import translate_rules

HEADER = (
    "IDENTIFICATION DIVISION.\nPROGRAM-ID. DEEP.\nDATA DIVISION.\n"
    "WORKING-STORAGE SECTION.\n01 X PIC 9(4) VALUE 1.\nPROCEDURE DIVISION.\nMAIN.\n"
)


CHAIN_OPERATORS = {"plus": "+", "minus": "-", "times": "*", "divide": "/", "and": "AND",
                   "or": "OR"}


def nested(kind: str, depth: int) -> str:
    """A program whose one sentence nests `depth` levels of `kind`."""
    if kind == "parentheses":
        body = "COMPUTE X = " + "(1 + " * depth + "X" + ")" * depth + "."
    elif kind == "not":
        body = "IF " + "NOT " * depth + "X = 1 DISPLAY X END-IF."
    elif kind == "if":
        body = "IF X = 1 " * depth + "DISPLAY X" + " END-IF" * depth + "."
    elif kind == "perform_until":
        body = "PERFORM UNTIL X > 0 " * depth + "ADD 1 TO X" + " END-PERFORM" * depth + "."
    elif kind == "evaluate":
        body = "EVALUATE X WHEN 1 " * depth + "DISPLAY X" + " END-EVALUATE" * depth + "."
    elif kind == "unary_minus":
        body = "COMPUTE X = " + "- " * depth + "X."
    elif kind in CHAIN_OPERATORS:
        # A flat chain of depth + 2 operands: every operator after the first
        # opens one level.
        op = CHAIN_OPERATORS[kind]
        if op in ("AND", "OR"):
            body = "IF " + f" {op} ".join(["X = 1"] * (depth + 2)) + " DISPLAY X END-IF."
        else:
            body = "COMPUTE X = " + f" {op} ".join(["X"] + ["1"] * (depth + 1)) + "."
    else:  # mixed: statement bodies around an expression in parentheses
        half = depth // 2
        inner = "COMPUTE X = " + "(1 + " * (depth - half) + "X" + ")" * (depth - half)
        body = "EVALUATE X WHEN 1 " * half + inner + " END-EVALUATE" * half + "."
    return HEADER + body + "\nDISPLAY X.\nSTOP RUN.\n"


KINDS = ["parentheses", "not", "if", "perform_until", "evaluate", "unary_minus", "mixed",
         *CHAIN_OPERATORS]


@pytest.mark.parametrize("kind", KINDS)
def test_a_file_at_the_bound_goes_through_every_stage(kind):
    _fixed, log = repair(SourceFile("deep", nested(kind, MAX_NESTING)))
    assert log.verdict is Verdict.CLEAN
    ast = log.ast
    measure(ast)
    sample_from_ast(ast, None)
    result = translate_rules(ast)
    assert score_file(ast, result.jast) == {"correct": True, "reason": ""}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 10_000])
def test_a_file_past_the_bound_is_rejected(kind, depth):
    _fixed, log = repair(SourceFile("deep", nested(kind, depth)))
    assert log.verdict is Verdict.REJECTED
    assert log.entries == []


def test_the_bound_is_reported_where_it_is_crossed():
    with pytest.raises(ParseFailure) as caught:
        parse(tokenize(SourceFile("deep", nested("not", MAX_NESTING + 1))))
    [error] = caught.value.errors
    assert error.expected == f"nesting depth at most {MAX_NESTING}"
    assert (error.line, error.found) == (8, "NOT")


def test_a_chain_past_the_bound_is_reported_at_its_operator():
    with pytest.raises(ParseFailure) as caught:
        parse(tokenize(SourceFile("deep", nested("and", MAX_NESTING + 1))))
    [error] = caught.value.errors
    assert error.expected == f"nesting depth at most {MAX_NESTING}"
    assert (error.line, error.found) == (8, "AND")


def test_a_recovered_error_leaves_the_depth_count_right():
    # Sentences after one that broke off deep inside still parse, at any depth
    # up to the bound.
    text = (HEADER + "IF X = 1 " * 50 + "MOVE TO TO X.\n"
            + "IF X = 1 " * MAX_NESTING + "DISPLAY X" + " END-IF" * MAX_NESTING + ".\n")
    with pytest.raises(ParseFailure) as caught:
        parse(tokenize(SourceFile("deep", text)))
    assert [e.expected for e in caught.value.errors] == ["operand"]


def test_curate_rejects_deep_files_and_keeps_the_rest(tmp_path):
    deep = ("parentheses", "not", "if", "perform_until", *CHAIN_OPERATORS)
    for kind in deep:
        (tmp_path / f"{kind}.cbl").write_text(nested(kind, 10_000), encoding="utf-8")
    (tmp_path / "shallow.cbl").write_text(nested("if", 3), encoding="utf-8")
    manifest = curate(ingest(tmp_path), tmp_path)
    status = {r.relative_path: r.status for r in manifest.records}
    assert status == {**{f"{kind}.cbl": Status.REJECTED for kind in deep},
                      "shallow.cbl": Status.KEPT}

"""Nesting deeper than `MAX_NESTING` is a parse error, not a RecursionError.

Every stage after the parser walks the tree recursively, so the parser
bounds how deep a tree may be, operator chains included: a chain's
operators count at the depth of the tree they build. A file at the bound
goes through every stage; a file past it is Rejected by `repair` and so by
`curate`. The Java parser, which reads external translations, has a bound
of its own, counted the same way: it admits the translation of every file
at the COBOL bound, and past it a file is a ParseFailure.
"""

import pytest

from relicforge.analysis import measure
from relicforge.cobol import SourceFile, parse_source
from relicforge.cobol.parser import MAX_NESTING, parse
from relicforge.cobol.repair import Verdict, repair
from relicforge.cobol.tokens import tokenize
from relicforge.corpus import Status, curate, ingest
from relicforge.errors import ParseFailure
from relicforge.evaluate import interpret_java, score_file
from relicforge.evaluate.values import OutcomeKind
from relicforge.model import sample_from_ast
from relicforge.transpile import emit_java, java_metrics, parse_java, translate_rules
from relicforge.transpile import jparser

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
    elif kind == "accept":
        # Translated as `x = num(in());`, two call levels below the last IF.
        body = "IF X = 1 " * depth + "ACCEPT X" + " END-IF" * depth + "."
    elif kind == "until_guard":
        # Translated as `!(x > 0 || (x < 0 && !(x == 3)))`: a `!(` and a
        # parenthesis more than the source nests.
        guard = "PERFORM UNTIL X > 0 OR X < 0 AND NOT X = 3 ADD 1 TO X END-PERFORM"
        body = "IF X = 1 " * (depth - 1) + guard + " END-IF" * (depth - 1) + "."
    elif kind == "left_groups":
        # The emitter drops the parentheses of `(X + 1)`; its `+` joins the
        # chain of the `+` after it.
        body = "COMPUTE X = " + "(X + 1) + (" * depth + "X" + ")" * depth + "."
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


KINDS = ["parentheses", "not", "if", "perform_until", "evaluate", "accept", "until_guard",
         "left_groups", "unary_minus", "mixed", *CHAIN_OPERATORS]


@pytest.mark.parametrize("kind", KINDS)
def test_a_file_at_the_bound_goes_through_every_stage(kind):
    _fixed, log = repair(SourceFile("deep", nested(kind, MAX_NESTING)))
    assert log.verdict is Verdict.CLEAN
    ast = log.ast
    measure(ast)
    sample_from_ast(ast, None)
    result = translate_rules(ast)
    assert score_file(ast, result.jast) == {"correct": True, "reason": ""}
    # The translation is within the Java parser's bound.
    text = emit_java(result.jast)
    assert emit_java(parse_java(text)) == text


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


# 50 groups, each the first operand of a chain of 50 operators: the
# innermost X sits 2,500 operators down inside 50 parentheses.
HEAVY_FIRST = "(" * 50 + "X" + (" + 1" * 50 + ")") * 50
# 95 parentheses as the second operand of 21 operators nest 115 levels.
HEAVY_SECOND = "1 + " + "(1 + " * 95 + "X" + ")" * 95 + " + 1" * 20
# The last operand of a chain sits under one operator however long the
# chain, so 50 operators before 99 parentheses nest 99 levels.
HEAVY_LAST = "1" + " + 1" * 50 + " + " + "(1 + " * 99 + "X" + ")" * 99


@pytest.mark.parametrize("expr", [HEAVY_FIRST, HEAVY_SECOND], ids=["first", "second"])
def test_a_chain_counts_the_operators_above_each_operand(expr):
    _fixed, log = repair(SourceFile("deep", HEADER + f"COMPUTE X = {expr}.\nSTOP RUN.\n"))
    assert log.verdict is Verdict.REJECTED
    with pytest.raises(ParseFailure) as caught:
        parse_java(java_class(f"x = {expr.replace('X', 'x')};"))
    assert caught.value.errors[0].expected == f"nesting depth at most {jparser.MAX_NESTING}"


def test_a_chain_does_not_charge_its_last_operand():
    _fixed, log = repair(SourceFile("deep", HEADER + f"COMPUTE X = {HEAVY_LAST}.\nSTOP RUN.\n"))
    assert log.verdict is Verdict.CLEAN
    measure(log.ast)
    result = translate_rules(log.ast)
    assert score_file(log.ast, result.jast) == {"correct": True, "reason": ""}
    text = emit_java(result.jast)
    assert emit_java(parse_java(text)) == text


def test_curate_rejects_deep_files_and_keeps_the_rest(tmp_path):
    deep = ("parentheses", "not", "if", "perform_until", *CHAIN_OPERATORS)
    for kind in deep:
        (tmp_path / f"{kind}.cbl").write_text(nested(kind, 10_000), encoding="utf-8")
    (tmp_path / "heavy_first.cbl").write_text(
        HEADER + f"COMPUTE X = {HEAVY_FIRST}.\nSTOP RUN.\n", encoding="utf-8")
    (tmp_path / "shallow.cbl").write_text(nested("if", 3), encoding="utf-8")
    manifest = curate(ingest(tmp_path), tmp_path)
    status = {r.relative_path: r.status for r in manifest.records}
    assert status == {**{f"{kind}.cbl": Status.REJECTED for kind in (*deep, "heavy_first")},
                      "shallow.cbl": Status.KEPT}


def test_a_99_deep_if_nest_translation_round_trips():
    _fixed, log = repair(SourceFile("deep", nested("if", 99)))
    text = emit_java(translate_rules(log.ast).jast)
    assert emit_java(parse_java(text)) == text


def java_class(body: str) -> str:
    return ("public class Deep {\n    private long x = 1;\n\n"
            "    public void run() {\n" + body + "\n    }\n}\n")


JAVA_KINDS = ["if", "while", "do", "for", "switch", "parentheses", "not", "group", "call"]


def java_nested(kind: str, depth: int) -> str:
    """A class whose run() nests `depth` levels of `kind`, its body first."""
    k = depth - 1
    if kind == "if":
        body = "if (x == 1) {" * k + "x = 2;" + "}" * k
    elif kind == "while":
        body = "while (x == 0) {" * k + "x = 2;" + "}" * k
    elif kind == "do":
        body = "do {" * k + "x = 2;" + "} while (x == 0);" * k
    elif kind == "for":
        body = "for (; x == 0; ) {" * k + "x = 2;" + "}" * k
    elif kind == "switch":
        body = "switch (x) { case 1: {" * k + "x = 2;" + "break; } }" * k
    elif kind == "parentheses":
        body = "x = " + "(1 + " * k + "x" + ")" * k + ";"
    elif kind == "not":
        body = "if (" + "!(" * k + "x == 1" + ")" * k + ") { x = 2; }"
    elif kind == "group":
        body = "if (" + "(" * k + "x == 1" + ")" * k + ") { x = 2; }"
    else:  # call
        body = "x = " + "num(" * k + "x" + ")" * k + ";"
    return java_class(body)


@pytest.mark.parametrize("kind", JAVA_KINDS)
def test_java_at_the_bound_goes_through_metrics_and_the_interpreter(kind):
    jast = parse_java(java_nested(kind, jparser.MAX_NESTING))
    java_metrics(jast)
    interpret_java(jast, [])


@pytest.mark.parametrize("kind", JAVA_KINDS)
@pytest.mark.parametrize("depth", [jparser.MAX_NESTING + 1, 10_000])
def test_java_past_the_bound_is_a_parse_failure(kind, depth):
    with pytest.raises(ParseFailure) as caught:
        parse_java(java_nested(kind, depth))
    [error] = caught.value.errors
    assert error.expected == f"nesting depth at most {jparser.MAX_NESTING}"


def test_a_java_backtrack_leaves_the_depth_count_right():
    # `(x + 1) * 2` is first tried as a condition group and backtracked; a
    # level left open by each try would add up past the bound.
    body = "if ((x + 1) * 2 == 4) { x = 2; }\n" * (jparser.MAX_NESTING + 1)
    jast = parse_java(java_class(body))
    assert len(jast.methods[0].body) == jparser.MAX_NESTING + 1


JAVA_CHAIN_OPERATORS = {"plus": "+", "minus": "-", "times": "*", "divide": "/", "and": "&&",
                        "or": "||"}


def java_chain(kind: str, terms: int) -> str:
    """A class whose run() holds one flat chain of `terms` operands."""
    op = JAVA_CHAIN_OPERATORS[kind]
    if kind in ("and", "or"):
        body = "if (" + f" {op} ".join(["x == 1"] * terms) + ") { x = 2; }"
    else:
        body = "x = " + f" {op} ".join(["x"] + ["1"] * (terms - 1)) + ";"
    return java_class(body)


@pytest.mark.parametrize("kind", JAVA_CHAIN_OPERATORS)
def test_a_java_chain_at_the_bound_goes_through_metrics_and_the_interpreter(kind):
    # The method body opens one level and every operator after the first one
    # more, so MAX_NESTING operators fit.
    jast = parse_java(java_chain(kind, jparser.MAX_NESTING + 1))
    java_metrics(jast)
    assert interpret_java(jast, []).outcome.kind is OutcomeKind.HALTED


@pytest.mark.parametrize("kind", JAVA_CHAIN_OPERATORS)
@pytest.mark.parametrize("terms", [jparser.MAX_NESTING + 2, 10_000])
def test_a_java_chain_past_the_bound_is_reported_at_its_operator(kind, terms):
    with pytest.raises(ParseFailure) as caught:
        parse_java(java_chain(kind, terms))
    [error] = caught.value.errors
    assert error.expected == f"nesting depth at most {jparser.MAX_NESTING}"
    assert error.found == JAVA_CHAIN_OPERATORS[kind]


def test_a_long_display_translation_round_trips():
    # A DISPLAY has no operand limit; println joins its terms with `+` and
    # they count as no chain.
    ast = parse_source(SourceFile("wide", HEADER + "DISPLAY " + "X " * 300 + ".\nSTOP RUN.\n"))
    text = emit_java(translate_rules(ast).jast)
    jast = parse_java(text)
    assert len(jast.methods[0].body[0].args) == 300
    assert emit_java(jast) == text

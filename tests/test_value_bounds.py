"""Integer literals and `fit` widths outside what the emitted Java can hold.

Both interpreters run on 64-bit values, and the translation writes a
literal as a Java `long`. A COBOL or Java integer literal past that range is
a parse error, whatever its length: the parsers count its significant
digits before converting it, so a literal longer than Python's limit on an
int conversion (4,300 digits) is rejected like any other, never raised as a
bare ValueError. A numeric string moved at run time past that range ends
the run with "numeric overflow". Leading zeros are not significant.

The Java `fit` builtin ends the run on a negative width, where the emitted
helper throws, and on a width past `MAX_PIC_CHARS`, the widest field a
translation declares.
"""

import pytest

from relicforge.cobol import SourceFile
from relicforge.cobol import nodes as n
from relicforge.cobol.parser import MAX_INT_LITERAL, MAX_PIC_CHARS, parse
from relicforge.cobol.repair import Verdict, repair
from relicforge.cobol.tokens import tokenize
from relicforge.corpus import Status, curate, ingest
from relicforge.datagen import acceptance_corpus
from relicforge.errors import ParseFailure
from relicforge.evaluate import compile_cobol, interpret_java
from relicforge.evaluate.values import ExecError, HALTED, Trace, runtime_error, to_num
from relicforge.transpile import jnodes as j
from relicforge.transpile import parse_java

NINES = "9" * 5000
ZEROS = "0" * 5000


def cobol(data: str, procedure: str) -> str:
    return (
        "IDENTIFICATION DIVISION.\nPROGRAM-ID. BIG.\nDATA DIVISION.\n"
        f"WORKING-STORAGE SECTION.\n{data}\nPROCEDURE DIVISION.\nMAIN.\n"
        f"{procedure}\nSTOP RUN.\n"
    )


N = "01 N PIC 9(4) VALUE 0."

PAST_RANGE = {
    "compute": cobol(N, f"COMPUTE N = {NINES} + 1."),
    "value": cobol(f"01 N PIC 9(4) VALUE {NINES}.", "DISPLAY N."),
    "when": cobol(N, f"EVALUATE N WHEN {NINES} DISPLAY N END-EVALUATE."),
    "level": cobol(f"{NINES} N PIC 9(4).", "DISPLAY N."),
    "one_past": cobol(N, f"COMPUTE N = {MAX_INT_LITERAL + 1} + 1."),
}


@pytest.mark.parametrize("case", PAST_RANGE)
def test_a_cobol_literal_past_the_range_is_rejected(case):
    _fixed, log = repair(SourceFile("big", PAST_RANGE[case]))
    assert log.verdict is Verdict.REJECTED
    with pytest.raises(ParseFailure):
        parse(tokenize(SourceFile("big", PAST_RANGE[case])))


def test_the_bound_is_reported_at_the_literal():
    with pytest.raises(ParseFailure) as caught:
        parse(tokenize(SourceFile("big", PAST_RANGE["compute"])))
    [error] = caught.value.errors
    assert error.expected == f"integer literal at most {MAX_INT_LITERAL}"
    assert (error.line, error.found) == (8, NINES)


@pytest.mark.parametrize("literal, value", [
    (str(MAX_INT_LITERAL), MAX_INT_LITERAL),
    (ZEROS + "5", 5),
    (ZEROS, 0),
], ids=["max", "leading_zeros", "zeros"])
def test_a_cobol_literal_within_the_range_parses(literal, value):
    ast = parse(tokenize(SourceFile("big", cobol(N, f"COMPUTE N = {literal}."))))
    assert ast.paragraphs[0].body[0].expr == n.NumLit(value)


def test_curate_rejects_a_file_with_a_literal_past_the_range(tmp_path):
    acceptance_corpus(tmp_path, count=4, seed=1)
    (tmp_path / "big.cbl").write_text(PAST_RANGE["compute"], encoding="utf-8")
    manifest = curate(ingest(tmp_path), tmp_path)
    big = next(r for r in manifest.records if r.relative_path == "big.cbl")
    assert (big.status, big.reason) == (Status.REJECTED, "unrepairable syntax")
    assert sum(r.status is Status.KEPT for r in manifest.records) == 4


def java(initial: str, expr: str) -> str:
    return (
        "public class T {\n"
        f"    private long a = {initial};\n\n"
        "    public void run() {\n"
        f"        a = {expr};\n"
        "    }\n}\n"
    )


@pytest.mark.parametrize("text", [
    java(NINES, "1"),
    java("1", NINES),
    java("1", f"-{NINES}"),
    java(str(MAX_INT_LITERAL + 1), "1"),
    java("1", f"{MAX_INT_LITERAL + 1}"),
    java(f"-{MAX_INT_LITERAL + 2}", "1"),
], ids=["long_field", "long_value", "long_negated", "one_past_field", "one_past_value",
        "one_below_min"])
def test_a_java_literal_outside_a_long_is_a_parse_failure(text):
    with pytest.raises(ParseFailure):
        parse_java(text)


def test_a_java_literal_at_either_end_of_a_long_parses():
    jast = parse_java(java(f"-{MAX_INT_LITERAL + 1}", f"{ZEROS}{MAX_INT_LITERAL}"))
    assert jast.fields[0].initial == -MAX_INT_LITERAL - 1
    assert jast.methods[0].body[0].expr == n.NumLit(MAX_INT_LITERAL)


@pytest.mark.parametrize("text, value", [
    (ZEROS + "5", 5),
    ("-" + ZEROS + "7", -7),
    (" " + ZEROS + " ", 0),
    ("0" * 20 + str(MAX_INT_LITERAL), MAX_INT_LITERAL),
], ids=["zeros_then_5", "minus_zeros_then_7", "blank_zeros", "zeros_then_max"])
def test_to_num_drops_leading_zeros(text, value):
    assert to_num(text) == value


@pytest.mark.parametrize("text", [NINES, "-" + NINES, "1" + ZEROS, str(MAX_INT_LITERAL + 1)],
                         ids=["nines", "minus_nines", "one_then_zeros", "one_past"])
def test_to_num_past_the_range_is_numeric_overflow(text):
    with pytest.raises(ExecError, match="numeric overflow"):
        to_num(text)


def _move_in_if(literal: str, taken: bool) -> n.CobolAst:
    cond = "1 = 1" if taken else "1 = 2"
    source = cobol(N, f"IF {cond} MOVE '{literal}' TO N END-IF. DISPLAY N.")
    return parse(tokenize(SourceFile("big", source)))


def test_a_long_numeric_string_in_an_untaken_branch_is_no_error():
    assert compile_cobol(_move_in_if(NINES, taken=False)).run([]) == Trace(["0"], [], HALTED)


def test_a_long_numeric_string_moved_is_numeric_overflow():
    trace = compile_cobol(_move_in_if(NINES, taken=True)).run([])
    assert trace.outcome == runtime_error(f"numeric overflow: {NINES!r}")


def test_a_numeric_string_with_long_leading_zeros_moves_as_its_value():
    assert compile_cobol(_move_in_if(ZEROS + "5", taken=True)).run([]) == Trace(
        ["5"], [], HALTED)


def _print_fit(width: int) -> j.JavaAst:
    call = j.JCall("fit", (n.VarRef("s"), n.NumLit(width)))
    return j.JavaAst("T", [j.JField("s", "String", "ab", 2)],
                     [j.JMethod("run", [j.Print([call])])])


@pytest.mark.parametrize("width", [-1, MAX_PIC_CHARS + 1, 4611686018427387904])
def test_fit_outside_its_widths_ends_the_run(width):
    trace = interpret_java(_print_fit(width), [])
    assert trace == Trace([], [], runtime_error(f"fit width out of range: {width}"))


@pytest.mark.parametrize("width, line", [
    (0, ""),
    (1, "a"),
    (4, "ab  "),
    (MAX_PIC_CHARS, "ab".ljust(MAX_PIC_CHARS)),
], ids=["zero", "one", "four", "max"])
def test_fit_within_its_widths_fits(width, line):
    assert interpret_java(_print_fit(width), []) == Trace([line], [], HALTED)

import random

import pytest

from relicforge.cobol import (
    RepairLog,
    RepairRule,
    SourceFile,
    SourceFormat,
    Verdict,
    parse_source,
    pretty_print,
    repair,
)
from relicforge.cobol import nodes as n
from relicforge.datagen import random_program

CLEAN = "IDENTIFICATION DIVISION. PROGRAM-ID. C. PROCEDURE DIVISION. MAIN. MOVE 1 TO A. STOP RUN."


def wrap(body):
    return f"IDENTIFICATION DIVISION. PROGRAM-ID. R. PROCEDURE DIVISION. MAIN. {body}"


def test_missing_end_if_repaired():
    fixed, log = repair(SourceFile("r", wrap("IF A > 1 DISPLAY 'X'. STOP RUN.")))
    assert log.verdict is Verdict.REPAIRED
    assert [e.rule for e in log.entries] == [RepairRule.INSERT_END_IF]
    parse_source(fixed)  # must now parse


def test_clean_file_untouched():
    fixed, log = repair(SourceFile("c", CLEAN))
    assert log.verdict is Verdict.CLEAN
    assert log.entries == []
    assert fixed.text == CLEAN


def test_eleven_unclosed_ifs_rejected():
    body = " ".join(f"IF A > {i} DISPLAY 'X'" for i in range(11))
    original = wrap(body + ". STOP RUN.")
    fixed, log = repair(SourceFile("r", original))
    assert log.verdict is Verdict.REJECTED
    assert fixed.text == original  # original text unchanged on rejection
    assert len(log.entries) == 10  # the attempts stop at the cap


def test_ten_unclosed_ifs_fit_under_cap():
    body = " ".join(f"IF A > {i} DISPLAY 'X'" for i in range(10))
    fixed, log = repair(SourceFile("r", wrap(body + ". STOP RUN.")))
    assert log.verdict is Verdict.REPAIRED
    assert len(log.entries) == 10


def test_missing_end_evaluate_repaired():
    fixed, log = repair(SourceFile("r", wrap("EVALUATE X WHEN 1 DISPLAY 'A'. STOP RUN.")))
    assert log.verdict is Verdict.REPAIRED
    assert log.entries[0].rule is RepairRule.INSERT_END_EVALUATE


def test_missing_end_perform_repaired():
    fixed, log = repair(SourceFile("r", wrap("PERFORM UNTIL A > 1 ADD 1 TO A. STOP RUN.")))
    assert log.verdict is Verdict.REPAIRED
    assert log.entries[0].rule is RepairRule.INSERT_END_PERFORM


def test_unterminated_string_closed():
    src = "IDENTIFICATION DIVISION.\nPROGRAM-ID. S.\nPROCEDURE DIVISION.\nMAIN.\n    DISPLAY \"OOPS.\n    STOP RUN."
    fixed, log = repair(SourceFile("s", src))
    assert log.verdict is Verdict.REPAIRED
    assert log.entries[0].rule is RepairRule.CLOSE_STRING_LITERAL
    assert log.entries[0].line == 5


def test_missing_final_period_appended():
    fixed, log = repair(SourceFile("p", wrap("MOVE 1 TO A")))
    assert log.verdict is Verdict.REPAIRED
    assert log.entries[0].rule is RepairRule.APPEND_FINAL_PERIOD
    assert fixed.text.endswith(".")


def test_nested_missing_end_ifs_innermost_first():
    fixed, log = repair(
        SourceFile("n", wrap("IF A > 1 IF B > 2 DISPLAY 'X'. STOP RUN."))
    )
    assert log.verdict is Verdict.REPAIRED
    assert [e.rule for e in log.entries] == [RepairRule.INSERT_END_IF] * 2
    ast = parse_source(fixed)
    outer = ast.paragraphs[0].body[0]
    assert outer.then_body[0].kind.value == "If"  # nesting reconstructed inner-first


def test_unrepairable_garbage_rejected():
    fixed, log = repair(SourceFile("g", "NOT EVEN COBOL ( ) ( )"))
    assert log.verdict is Verdict.REJECTED
    assert fixed.text == "NOT EVEN COBOL ( ) ( )"


def test_unresolved_perform_not_repairable():
    fixed, log = repair(SourceFile("u", wrap("PERFORM NOPARA. STOP RUN.")))
    assert log.verdict is Verdict.REJECTED
    assert log.entries == []


def test_repair_idempotent_on_repaired_output():
    fixed, log = repair(SourceFile("r", wrap("IF A > 1 DISPLAY 'X'. STOP RUN.")))
    again, log2 = repair(fixed)
    assert log2.verdict is Verdict.CLEAN
    assert again.text == fixed.text


def test_repair_idempotent_on_rejected_output():
    original = wrap(" ".join(f"IF A > {i} DISPLAY 'X'" for i in range(11)) + ".")
    fixed, log = repair(SourceFile("r", original))
    again, log2 = repair(fixed)
    assert log2.verdict is Verdict.REJECTED
    assert again.text == fixed.text == original


def test_fixed_format_clean_passes_raw():
    rows = [
        "000100 IDENTIFICATION DIVISION.",
        "000200 PROGRAM-ID. F.",
        "000300 PROCEDURE DIVISION.",
        "000400 MAIN.",
        "000500     MOVE 1 TO A.",
        "000600     STOP RUN.",
    ]
    src = "\n".join(rows)
    fixed, log = repair(SourceFile("f", src, SourceFormat.FIXED))
    assert log.verdict is Verdict.CLEAN
    assert fixed.text == src
    assert fixed.format is SourceFormat.FIXED


def test_fixed_format_repair_normalizes_to_free():
    rows = [
        "000100 IDENTIFICATION DIVISION.",
        "000200 PROGRAM-ID. F.",
        "000300 PROCEDURE DIVISION.",
        "000400 MAIN.",
        "000500     IF A > 1 DISPLAY 'X'.",
        "000600     STOP RUN.",
    ]
    fixed, log = repair(SourceFile("f", "\n".join(rows), SourceFormat.FIXED))
    assert log.verdict is Verdict.REPAIRED
    assert fixed.format is SourceFormat.FREE
    assert "000500" not in fixed.text  # sequence columns stripped
    parse_source(fixed)


@pytest.mark.parametrize("seed", range(30))
def test_generated_programs_are_clean(seed):
    text = pretty_print(random_program(random.Random(seed)))
    _, log = repair(SourceFile(f"g{seed}", text))
    assert log.verdict is Verdict.CLEAN


def test_repair_terminates_on_arbitrary_bytes():
    rng = random.Random(99)
    alphabet = "ABC ().\"'19-\n"
    for _ in range(50):
        junk = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
        _, log = repair(SourceFile("junk", junk))
        assert log.verdict in (Verdict.CLEAN, Verdict.REPAIRED, Verdict.REJECTED)


FIXED_CLEAN = "\n".join([
    "000100 IDENTIFICATION DIVISION.",
    "000200 PROGRAM-ID. F.",
    "000300 PROCEDURE DIVISION.",
    "000400 MAIN.",
    "000500     MOVE 1 TO A.",
    "000600     STOP RUN.",
    "",
    "",
])

# (source, rules repair must fire); the trailing blank lines make the
# normalized text longer than the last token's line.
TREE_CASES = {
    "clean_free": (SourceFile("c", CLEAN + "\n\n\n"), []),
    "clean_fixed": (SourceFile("f", FIXED_CLEAN, SourceFormat.FIXED), []),
    "end_if": (SourceFile("r", wrap("IF A > 1 DISPLAY 'X'. STOP RUN.\n\n")),
               [RepairRule.INSERT_END_IF]),
    "end_evaluate": (SourceFile("r", wrap("EVALUATE X WHEN 1 DISPLAY 'A'. STOP RUN.")),
                     [RepairRule.INSERT_END_EVALUATE]),
    "end_perform": (SourceFile("r", wrap("PERFORM UNTIL A > 1 ADD 1 TO A. STOP RUN.")),
                    [RepairRule.INSERT_END_PERFORM]),
    "close_string": (SourceFile("r", wrap("DISPLAY 'OPEN.\nSTOP RUN.\n")),
                     [RepairRule.CLOSE_STRING_LITERAL]),
    "final_period": (SourceFile("r", wrap("MOVE 1 TO A. STOP RUN\n\n")),
                     [RepairRule.APPEND_FINAL_PERIOD]),
    "two_faults": (SourceFile("r", wrap("MOVE 1 TO A. PERFORM UNTIL A > 1 ADD 1 TO A\n")),
                   [RepairRule.INSERT_END_PERFORM, RepairRule.APPEND_FINAL_PERIOD]),
    "fixed_repaired": (
        SourceFile("f", FIXED_CLEAN.replace("MOVE 1", "IF A > 1 MOVE 1"), SourceFormat.FIXED),
        [RepairRule.INSERT_END_IF],
    ),
}


@pytest.mark.parametrize("case", sorted(TREE_CASES))
def test_repair_returns_parse_source_tree(case):
    source, rules = TREE_CASES[case]
    fixed, log = repair(source)
    assert [e.rule for e in log.entries] == rules
    assert log.verdict is (Verdict.REPAIRED if rules else Verdict.CLEAN)
    expected = parse_source(fixed)
    assert n.to_json(log.ast.program) == n.to_json(expected.program)
    assert log.ast.source_lines == expected.source_lines
    assert log.ast.token_count == expected.token_count


def test_rejected_file_returns_no_tree():
    _fixed, log = repair(SourceFile("u", wrap("PERFORM NOPARA. STOP RUN.")))
    assert log.verdict is Verdict.REJECTED
    assert log.ast is None


def test_tree_stays_out_of_log_json_and_equality():
    _fixed, log = repair(SourceFile("c", CLEAN))
    assert log.ast is not None
    assert log.to_json() == {"verdict": "Clean", "entries": []}
    assert log == RepairLog([], Verdict.CLEAN)

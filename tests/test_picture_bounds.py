"""A picture wider than the emitted Java can hold is a parse error.

The translation declares a numeric field as `long` (18 decimal digits) and
writes an alphanumeric field's initial value as one string literal (at most
65,535 characters in a class file). A wider picture is Rejected by `repair`
and so by `curate`, before the translation or either interpreter builds a
field that wide. A file at either bound goes through every stage.
"""

import pytest

from relicforge.analysis import measure
from relicforge.cobol import SourceFile
from relicforge.cobol.parser import MAX_PIC_CHARS, MAX_PIC_DIGITS, parse
from relicforge.cobol.repair import Verdict, repair
from relicforge.cobol.tokens import tokenize
from relicforge.corpus import MANIFEST_NAME, Split, Status, curate, ingest
from relicforge.corpus import split as split_corpus
from relicforge.datagen import acceptance_corpus
from relicforge.errors import ParseFailure
from relicforge.evaluate import build_training_set, run_evaluation, score_file
from relicforge.model import sample_from_ast
from relicforge.transpile import emit_java, translate_rules


def program(picture: str) -> str:
    """A program with one field of the given picture, moved and displayed."""
    value = "1" if picture.startswith("9") else "'A'"
    return (
        "IDENTIFICATION DIVISION.\nPROGRAM-ID. WIDE.\nDATA DIVISION.\n"
        f"WORKING-STORAGE SECTION.\n01 W PIC {picture}.\nPROCEDURE DIVISION.\nMAIN.\n"
        f"MOVE {value} TO W.\nDISPLAY W.\nSTOP RUN.\n"
    )


AT_BOUND = [f"9({MAX_PIC_DIGITS})", f"9({MAX_PIC_DIGITS - 1})9", f"X({MAX_PIC_CHARS})"]

# Each form is one character past its bound, except the last, the width
# that once made a corpus run allocate gigabytes.
PAST_BOUND = [
    f"9({MAX_PIC_DIGITS + 1})",
    f"9({MAX_PIC_DIGITS})9",
    f"9X({MAX_PIC_DIGITS})",
    f"X({MAX_PIC_CHARS + 1})",
    f"X({MAX_PIC_CHARS})X",
    "X(900000000)",
]


@pytest.mark.parametrize("picture", AT_BOUND)
def test_a_picture_at_the_bound_goes_through_every_stage(picture):
    _fixed, log = repair(SourceFile("wide", program(picture)))
    assert log.verdict is Verdict.CLEAN
    ast = log.ast
    measure(ast)
    sample_from_ast(ast, None)
    result = translate_rules(ast)
    emit_java(result.jast)
    assert score_file(ast, result.jast) == {"correct": True, "reason": ""}


@pytest.mark.parametrize("picture", PAST_BOUND)
def test_a_picture_past_the_bound_is_rejected(picture):
    _fixed, log = repair(SourceFile("wide", program(picture)))
    assert log.verdict is Verdict.REJECTED
    assert log.entries == []


@pytest.mark.parametrize(
    "picture, limit",
    [(f"9({MAX_PIC_DIGITS + 1})", MAX_PIC_DIGITS), (f"X({MAX_PIC_CHARS + 1})", MAX_PIC_CHARS)],
)
def test_the_bound_is_reported_at_the_item(picture, limit):
    with pytest.raises(ParseFailure) as caught:
        parse(tokenize(SourceFile("wide", program(picture))))
    [error] = caught.value.errors
    assert error.expected == f"picture of at most {limit} characters"
    assert (error.line, error.found) == (5, picture)


def _wide_corpus(root):
    """A small labeled corpus plus one file per too-wide picture."""
    acceptance_corpus(root, count=12, seed=3)
    for i, picture in enumerate(PAST_BOUND):
        (root / f"wide{i}.cbl").write_text(program(picture), encoding="utf-8")
    manifest = curate(ingest(root), root)
    split_corpus(manifest, seed=1)
    manifest.write_jsonl(root / MANIFEST_NAME)
    return manifest


def test_curate_rejects_each_too_wide_picture(tmp_path):
    manifest = _wide_corpus(tmp_path)
    wide = {r.relative_path: (r.status, r.reason) for r in manifest.records
            if r.relative_path.startswith("wide")}
    assert wide == {f"wide{i}.cbl": (Status.REJECTED, "unrepairable syntax")
                    for i in range(len(PAST_BOUND))}


def test_evaluation_and_training_set_finish_beside_too_wide_files(tmp_path):
    manifest = _wide_corpus(tmp_path)
    summary, rows, _ = run_evaluation(tmp_path / MANIFEST_NAME, "rules")
    test = [r for r in manifest.records if r.split is Split.TEST]
    assert summary.n == len(rows) == len(test) > 0
    train = [r for r in manifest.records if r.split is Split.TRAIN]
    # Every record, the rejected ones included: those give no sample.
    assert len(build_training_set(tmp_path, manifest.records)) == len(train) + len(test)

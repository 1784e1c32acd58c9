"""Deep PERFORM recursion ends a run with "call depth exceeded", never a
RecursionError, and at the same call whatever the caller's stack depth.

Each call level holds Python frames for every statement list open around
its call site, so the interpreters weigh a call by that nesting. The
programs below recurse through `k` nested IFs.
"""

import pytest

from relicforge.cobol import SourceFile, parse_source
from relicforge.corpus import Status, curate, ingest
from relicforge.corpus import split as split_corpus
from relicforge.datagen import acceptance_corpus
from relicforge.evaluate import interpret_cobol, interpret_java, run_evaluation, score_file
from relicforge.evaluate.values import runtime_error
from relicforge.transpile import translate_rules


HEADER = (
    "IDENTIFICATION DIVISION. PROGRAM-ID. RECUR. DATA DIVISION.\n"
    "WORKING-STORAGE SECTION. 01 X PIC 9 VALUE 0.\n"
    "PROCEDURE DIVISION.\n"
)


def recursive_source(k: int) -> str:
    call = "PERFORM P"
    for _ in range(k):
        call = f"IF X = 0 {call} END-IF"
    return HEADER + f"MAIN. DISPLAY X. PERFORM P. STOP RUN.\nP. DISPLAY X. {call}.\n"


def runs(k: int):
    ast = parse_source(SourceFile("recur", recursive_source(k)))
    return interpret_cobol(ast, []), interpret_java(translate_rules(ast).jast, [])


def from_deep_stack(frames: int, fn):
    """`fn()` called `frames` Python frames deeper than the caller."""
    if frames == 0:
        return fn()
    return from_deep_stack(frames - 1, fn)


@pytest.mark.parametrize("k", range(13))
def test_deep_recursion_ends_with_call_depth_exceeded(k):
    for trace in runs(k):
        assert trace.outcome == runtime_error("call depth exceeded")


@pytest.mark.parametrize(
    "source",
    [
        recursive_source(0),
        recursive_source(8),
        HEADER + "MAIN. DISPLAY X. PERFORM MAIN.\n",
        HEADER + "MAIN. DISPLAY X.\nP. DISPLAY X. PERFORM P.\n",
    ],
    ids=["perform", "perform-in-8-ifs", "perform-main", "fall-through"],
)
def test_both_sides_cut_recursion_at_the_same_call(source):
    """The first paragraph and run() start at depth 0; a later paragraph
    weighs 1 whether it is reached by fall-through or by the follow-on
    call its translation's run() makes."""
    ast = parse_source(SourceFile("recur", source))
    assert score_file(ast, translate_rules(ast).jast) == {"correct": True, "reason": ""}


def test_the_cut_does_not_depend_on_the_callers_stack():
    plain = runs(8)
    assert from_deep_stack(200, lambda: runs(8)) == plain
    cobol, java = plain
    # MAIN's DISPLAY, then P once per level the depth admits.
    assert len(cobol.display_lines) > 1 and len(java.display_lines) > 1


def test_a_corpus_holding_deep_recursion_is_scored(tmp_path):
    acceptance_corpus(tmp_path, count=6, seed=1)
    (tmp_path / "recur.cbl").write_text(recursive_source(8), encoding="utf-8")
    manifest = curate(ingest(tmp_path), tmp_path)
    record = next(r for r in manifest.records if r.relative_path == "recur.cbl")
    assert record.status is Status.KEPT
    split_corpus(manifest, seed=1)

    summary, rows, _ = run_evaluation(manifest, "rules", root=tmp_path, per_fold=True)
    scored = len(rows) + sum(fold.n for fold in summary.per_fold)
    assert scored == len(manifest.eligible()) == 7

"""Bad text gets a verdict: the lexicon is ASCII-only, so a non-ASCII
letter or digit is an illegal character and its file is Rejected, never a
hang or an exception out of `repair` or `curate`.

Each run sits under a SIGALRM guard, so a scanner that stops advancing
fails the test instead of stalling the suite.
"""

import contextlib
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relicforge.cobol import SourceFile, Verdict, repair, tokenize
from relicforge.corpus import Status, curate, ingest
from relicforge.errors import LexError

PROGRAM = (
    "IDENTIFICATION DIVISION.\n"
    "PROGRAM-ID. U.\n"
    "DATA DIVISION.\n"
    "WORKING-STORAGE SECTION.\n"
    "01 X PIC 9(3) VALUE 0.\n"
    "PROCEDURE DIVISION.\n"
    "MAIN.\n"
    "    MOVE {} TO X.\n"
    "    ADD 1 TO X.\n"
    "    DISPLAY X.\n"
    "    STOP RUN.\n"
)


@contextlib.contextmanager
def time_limit(seconds: int):
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# Letters and digits outside ASCII: str.isalpha() or str.isdigit() holds for
# each, and "٣" (Arabic-Indic three) even converts with int().
NON_ASCII = ["é", "ß", "Ω", "Aé", "²", "٣", "1²", "ｘ"]


@pytest.mark.parametrize("text", NON_ASCII)
def test_non_ascii_letter_or_digit_is_an_illegal_character(text):
    with time_limit(5), pytest.raises(LexError) as exc:
        tokenize(SourceFile("u", f"MOVE {text} TO X."))
    bad = next(ch for ch in text if not ch.isascii())
    assert exc.value.reason == f"illegal character {bad!r}"
    assert (exc.value.line, exc.value.col) == (1, 6 + text.index(bad))


@pytest.mark.parametrize("text", NON_ASCII)
def test_repair_rejects_non_ascii_letters_and_digits(text):
    source = SourceFile("u", PROGRAM.format(text))
    with time_limit(5):
        fixed, log = repair(source)
    assert log.verdict is Verdict.REJECTED
    assert fixed is source


def test_curate_rejects_non_ascii_files_and_keeps_the_rest(tmp_path):
    for i, text in enumerate(NON_ASCII):
        (tmp_path / f"u{i}.cbl").write_text(PROGRAM.format(text), encoding="utf-8")
    (tmp_path / "z.cbl").write_text(PROGRAM.format("7"), encoding="utf-8")
    with time_limit(30):
        manifest = curate(ingest(tmp_path), tmp_path)
    by_id = manifest.by_id()
    for i in range(len(NON_ASCII)):
        assert by_id[f"u{i}.cbl"].status is Status.REJECTED
        assert by_id[f"u{i}.cbl"].reason == "unrepairable syntax"
    assert by_id["z.cbl"].status is Status.KEPT


def _spliced(insert: str, at: int) -> str:
    base = PROGRAM.format("7")
    at %= len(base) + 1
    return base[:at] + insert + base[at:]


@settings(deadline=None, derandomize=True, database=None, max_examples=300)
@given(st.one_of(st.text(), st.builds(_spliced, st.text(max_size=8), st.integers(0, 400))))
def test_repair_gives_every_text_a_verdict(text):
    with time_limit(10):
        _fixed, log = repair(SourceFile("h", text))
    assert log.verdict in (Verdict.CLEAN, Verdict.REPAIRED, Verdict.REJECTED)
    assert (log.ast is None) == (log.verdict is Verdict.REJECTED)

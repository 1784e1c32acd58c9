"""A repair retry re-lexes only the spliced line.

`tokenize(file, base=(tokens, line))` keeps the tokens before `line`,
scans `line` from the PIC state its predecessor token leaves, and reuses
the tokens after it unless the state at the end of `line` changed. The
reference here is `ref_repair`, the repair loop as it was, which lexes
every attempt in full. On every input both must give the same file, log
and tree, and every `base` call made along the way must return what a
full `tokenize` returns, LexError included.
"""

import importlib
import random

import pytest

from perfbench import gen
from relicforge.cobol import SourceFile, SourceFormat, nodes as n, pretty_print, tokenize
from relicforge.cobol.parser import parse, source_line_count
from relicforge.cobol.repair import MAX_REPAIRS, RepairEntry, RepairLog, Verdict
from relicforge.cobol.tokens import FREE, TokenKind, normalize_source
from relicforge.datagen import sample_program
from relicforge.errors import LexError, ParseFailure

# The package re-exports a function named `repair`, so look the module up by name.
repair_module = importlib.import_module("relicforge.cobol.repair")

# --- the reference: repair as it was, a full lex per attempt --------------------


def _ref_attempt(file):
    try:
        tokens = tokenize(file)
    except LexError as e:
        return None, e
    try:
        ast = parse(tokens)
    except ParseFailure as pf:
        return None, pf.errors
    ast.source_lines = source_line_count(file)
    return ast, None


def ref_repair(file, max_repairs=MAX_REPAIRS):
    ast, problem = _ref_attempt(file)
    if ast is not None:
        return file, RepairLog([], Verdict.CLEAN, ast)
    text = normalize_source(file.text, file.format)
    entries = []
    while len(entries) < max_repairs:
        choice = repair_module._pick(problem)
        if choice is None:
            return file, RepairLog(entries, Verdict.REJECTED)
        rule, issue = choice
        text, line = repair_module._apply(rule, issue, text)
        entries.append(RepairEntry(rule, line))
        fixed = SourceFile(file.id, text, FREE)
        ast, problem = _ref_attempt(fixed)
        if ast is not None:
            return fixed, RepairLog(entries, Verdict.REPAIRED, ast)
    return file, RepairLog(entries, Verdict.REJECTED)


# --- helpers ---------------------------------------------------------------------


def lex_outcome(file, base=None):
    try:
        return tokenize(file, base=base)
    except LexError as e:
        return ("LexError", e.line, e.col, e.reason)


def ends_in_pic(tokens, line):
    """The PIC state the lexer is in after `line`."""
    before = [t for t in tokens if t.line <= line]
    return bool(before) and before[-1].kind is TokenKind.KEYWORD and before[-1].text in (
        "PIC", "PICTURE")


class Spy:
    """Stands in for `repair.tokenize`; checks each `base` call against a
    full lex and records (line, PIC state before it, state change at its end)."""

    def __init__(self):
        self.calls = []

    def __call__(self, file, base=None):
        got = lex_outcome(file, base)
        if base is not None:
            full = lex_outcome(file)
            assert got == full
            old, line = base
            changed = isinstance(full, list) and ends_in_pic(old, line) != ends_in_pic(full, line)
            self.calls.append((line, ends_in_pic(old, line - 1), changed))
        if isinstance(got, tuple):
            raise LexError(*got[1:])
        return got


def outcome(repair_fn, file, max_repairs):
    fixed, log = repair_fn(file, max_repairs)
    tree = None if log.ast is None else (
        n.to_json(log.ast.program), log.ast.source_lines, log.ast.token_count)
    return fixed, log.to_json(), tree


def assert_same_repair(monkeypatch, file, max_repairs=MAX_REPAIRS):
    spy = Spy()
    with monkeypatch.context() as patched:
        patched.setattr(repair_module, "tokenize", spy)
        got = outcome(repair_module.repair, file, max_repairs)
    assert got == outcome(ref_repair, file, max_repairs)
    return got, spy.calls


HEAD = "IDENTIFICATION DIVISION.\nPROGRAM-ID. P.\nDATA DIVISION.\nWORKING-STORAGE SECTION.\n"

# --- repair against the reference --------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dirty_intake_files(tmp_path, monkeypatch, seed):
    corpus = gen.dirty_intake(tmp_path, seed, 500)
    based = 0
    for path in sorted(tmp_path.iterdir()):
        try:
            text = path.read_bytes().decode("utf-8")
        except UnicodeDecodeError:
            continue
        _got, calls = assert_same_repair(monkeypatch, SourceFile(path.name, text))
        based += len(calls)
    assert len(corpus.intended) == 500
    assert based > 100  # the retries after a parse error reuse tokens


_DELETABLE = ("END-IF", "END-PERFORM", "END-EVALUATE", ".", '"', "'")


def _damage(text, rng):
    """Delete 1-4 random terminators, periods or quotes."""
    for _ in range(rng.randint(1, 4)):
        spots = [(i, w) for i in range(len(text)) for w in _DELETABLE if text.startswith(w, i)]
        at, word = rng.choice(spots)
        text = text[:at] + text[at + len(word):]
    return text


@pytest.mark.parametrize("seed", range(6))
def test_random_deletions(monkeypatch, seed):
    rng = random.Random(f"deletions:{seed}")
    based = repaired = 0
    for k in range(60):
        text = _damage(pretty_print(sample_program(rng, program_id=f"D{k}")), rng)
        (_fixed, log, _tree), calls = assert_same_repair(monkeypatch, SourceFile("d", text))
        based += len(calls)
        repaired += log["verdict"] == "Repaired" and len(log["entries"]) > 1
    assert based > 0 and repaired > 0


def test_fixed_format_first_attempt(monkeypatch):
    rng = random.Random(4)
    for k in range(20):
        text = gen.mutate(pretty_print(sample_program(rng, program_id=f"F{k}")),
                          "two_faults", rng).decode("utf-8")
        fixed_text = "\n".join("000100" + row for row in text.split("\n"))
        (fixed, log, _tree), calls = assert_same_repair(
            monkeypatch, SourceFile("f", fixed_text, SourceFormat.FIXED))
        assert log["verdict"] == "Repaired" and fixed.format is FREE
        assert calls  # the fixed-format attempt's tokens are reused


def test_pic_at_end_of_line_before_the_splice(monkeypatch):
    text = HEAD + "01 A PIC\n9(3). PROCEDURE DIVISION. MAIN. IF A = 1 DISPLAY A.\n    STOP RUN.\n"
    (_fixed, log, _tree), calls = assert_same_repair(monkeypatch, SourceFile("p", text))
    assert log == {"verdict": "Repaired", "entries": [{"rule": "InsertEndIf", "line": 6}]}
    assert calls == [(6, True, False)]


def test_picture_on_the_line_after_the_splice(monkeypatch):
    text = (HEAD + "01 A PIC 9(3).\nPROCEDURE DIVISION.\nMAIN.\n"
            "    IF A = 1 DISPLAY A. 01 B PIC\nX(4).\n    STOP RUN.\n")
    (_fixed, log, _tree), calls = assert_same_repair(monkeypatch, SourceFile("p", text))
    assert log["entries"] == [{"rule": "InsertEndIf", "line": 8}]
    assert calls == [(8, False, False)]


def test_last_line_edit_with_trailing_blank_lines(monkeypatch):
    text = HEAD + "01 A PIC\nX(5). PROCEDURE DIVISION. MAIN. DISPLAY A\n\n  \t\n\n"
    (fixed, log, _tree), calls = assert_same_repair(monkeypatch, SourceFile("t", text))
    assert log == {"verdict": "Repaired", "entries": [{"rule": "AppendFinalPeriod", "line": 6}]}
    assert fixed.text.endswith("DISPLAY A.")
    assert calls == [(6, True, False)]


def test_open_string_then_a_later_splice(monkeypatch):
    text = (HEAD + "01 A PIC 9(3).\nPROCEDURE DIVISION.\nMAIN.\n    IF A = 1\n"
            '        DISPLAY "OPEN.\n    STOP RUN.\n')
    (_fixed, log, _tree), calls = assert_same_repair(monkeypatch, SourceFile("o", text))
    assert [e["rule"] for e in log["entries"]] == ["CloseStringLiteral", "InsertEndIf"]
    assert [line for line, _, _ in calls] == [10]  # the retry after the LexError lexes in full


def test_running_out_of_repairs(monkeypatch):
    body = "".join(f"    IF A = {k} DISPLAY A\n" for k in range(MAX_REPAIRS + 1))
    text = HEAD + "01 A PIC 9(3).\nPROCEDURE DIVISION.\nMAIN.\n" + body + "    STOP RUN.\n"
    (fixed, log, tree), calls = assert_same_repair(monkeypatch, SourceFile("m", text))
    assert log["verdict"] == "Rejected" and len(log["entries"]) == MAX_REPAIRS
    assert fixed.text == text and tree is None
    assert len(calls) == MAX_REPAIRS
    (_fixed, log, _tree), _calls = assert_same_repair(monkeypatch, SourceFile("m", text), 3)
    assert log["verdict"] == "Rejected" and len(log["entries"]) == 3


# --- tokenize with base against a full tokenize ----------------------------------------


_EDITS = (" PIC", " PICTURE", " X(5)", " 9", " END-IF ", " @", ' "', " '", ".", "")


def _edit_line(rows, line, rng):
    row = rows[line - 1]
    cut = rng.randint(0, len(row))
    kind = rng.randrange(4)
    if kind == 0:  # append: may leave the line in the PIC state
        rows[line - 1] = row.rstrip() + rng.choice(_EDITS)
    elif kind == 1:  # insert mid-line
        rows[line - 1] = row[:cut] + rng.choice(_EDITS) + " " + row[cut:]
    elif kind == 2:  # drop a stretch: may take a trailing PIC away
        rows[line - 1] = row[:cut] + row[cut + rng.randint(1, 6):]
    else:  # rewrite the line's end and drop the blank lines after the last one
        rows[line - 1] = row[:cut].rstrip() + rng.choice(_EDITS)
        if line == len(rows) or not "".join(rows[line:]).strip():
            del rows[line:]
    return rows


def _texts():
    rng = random.Random(11)
    for k in range(40):
        text = pretty_print(sample_program(rng, program_id=f"T{k}"))
        rows = text.split("\n")
        # Move some pictures to the next line, so PIC ends a line.
        yield "\n".join(row.replace(" PIC ", " PIC\n", 1) if k % 2 else row for row in rows)


def test_tokenize_with_base_equals_full_tokenize():
    rng = random.Random(5)
    changed = unchanged = errors = 0
    for text in _texts():
        for _ in range(25):
            rows = text.split("\n")
            old = tokenize(SourceFile("b", text))
            line = rng.randint(1, len(rows))
            new = SourceFile("b", "\n".join(_edit_line(rows, line, rng)))
            full = lex_outcome(new)
            assert lex_outcome(new, (old, line)) == full
            if isinstance(full, tuple):
                errors += 1
            elif ends_in_pic(old, line) != ends_in_pic(full, line):
                changed += 1
            else:
                unchanged += 1
    assert changed > 20 and unchanged > 100 and errors > 20


def test_base_from_a_fixed_format_text():
    text = HEAD + "01 A PIC\nX(5). PROCEDURE DIVISION. MAIN. DISPLAY A.\n"
    fixed = SourceFile("x", "\n".join("000100" + row for row in text.split("\n")),
                       SourceFormat.FIXED)
    old = tokenize(fixed)
    rows = normalize_source(fixed.text, fixed.format).split("\n")
    rows[5] += " PIC"
    new = SourceFile("x", "\n".join(rows))
    assert tokenize(new, base=(old, 6)) == tokenize(new)

"""Corpus pipeline tests: ingest, curate, dedup, trivial filter, split."""

import hashlib
import importlib
import json
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from relicforge.cobol import SourceFormat, pretty_print
from relicforge.corpus import (
    CorpusConfig,
    CorpusManifest,
    Record,
    Split,
    Status,
    curate,
    ingest,
    load_ast,
    normalize_text,
    split,
)
from relicforge.datagen import random_program
from relicforge.errors import FormatError, SplitError
from relicforge.evaluate import run_evaluation
from tests.test_ingest_listing import assert_reference_intake


def build(root: Path, jobs: int = 1) -> CorpusManifest:
    return curate(ingest(root), root, jobs=jobs)


def test_empty_directory(tmp_path):
    assert ingest(tmp_path).records == []


def test_ingest_path_order_and_hashes(tmp_path):
    (tmp_path / "b.cbl").write_text("DISPLAY 'B'.\n")
    (tmp_path / "a.cbl").write_text("DISPLAY 'A'.\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.cob").write_text("DISPLAY 'C'.\n")
    manifest = ingest(tmp_path)
    assert [r.id for r in manifest.records] == ["a.cbl", "b.cbl", "sub/c.cob"]
    assert all(r.status is None for r in manifest.records)
    curate(manifest, tmp_path)
    assert [r.id for r in manifest.records] == ["a.cbl", "b.cbl", "sub/c.cob"]
    assert all(len(r.md5) == 32 for r in manifest.records)


def test_curate_hashes_the_text_it_judges(tmp_path):
    first = pretty_print(random_program(random.Random(1)))
    (tmp_path / "a.cbl").write_text(first, encoding="utf-8")
    (tmp_path / "b.cbl").write_text(first, encoding="utf-8")
    manifest = ingest(tmp_path)
    changed = pretty_print(random_program(random.Random(2)))
    (tmp_path / "b.cbl").write_text(changed, encoding="utf-8")
    curate(manifest, tmp_path)
    b = manifest.by_id()["b.cbl"]
    assert b.status is Status.KEPT and b.duplicate_of is None
    assert b.md5 == hashlib.md5(normalize_text(changed).encode("utf-8")).hexdigest()
    assert b.lines == changed.count("\n") + 1
    assert load_ast(tmp_path, b) is not None


def test_ingest_skips_other_extensions(tmp_path):
    (tmp_path / "a.cbl").write_text("DISPLAY 1.\n")
    (tmp_path / "a.java").write_text("class A {}\n")
    (tmp_path / "a.labels.json").write_text("{}\n")
    manifest = ingest(tmp_path)
    assert [r.id for r in manifest.records] == ["a.cbl"]
    assert manifest.records[0].oracle_java == "a.java"
    assert manifest.records[0].oracle_labels == "a.labels.json"


def test_ingest_undecodable_file_rejected_without_abort(tmp_path):
    for i in range(4):
        (tmp_path / f"ok{i}.cbl").write_text(f"DISPLAY {i}.\n")
    (tmp_path / "junk.cbl").write_bytes(b"\xff\xfe\x00bad")
    manifest = build(tmp_path)
    assert len(manifest.records) == 5
    assert all(r.status is not None for r in manifest.records)
    bad = manifest.by_id()["junk.cbl"]
    assert bad.status is Status.REJECTED
    assert bad.reason == "not valid UTF-8"


def test_normalize_text_crlf_and_trailing():
    assert normalize_text("MOVE 1 TO N.  \r\nDISPLAY N.\t\r\n") == "MOVE 1 TO N.\nDISPLAY N.\n"
    assert normalize_text("move 1 to n.") == "move 1 to n."  # case untouched


def test_a_byte_order_mark_is_not_part_of_the_text(tmp_path):
    """A file saved with a UTF-8 byte order mark is judged on the text
    after it: a Duplicate of its twin without one, Kept when it has none."""
    text = pretty_print(random_program(random.Random(1)))
    (tmp_path / "a.cbl").write_text(text, encoding="utf-8")
    (tmp_path / "b.cbl").write_text(text, encoding="utf-8-sig")
    (tmp_path / "c.cbl").write_text(pretty_print(random_program(random.Random(2))),
                                    encoding="utf-8-sig")
    by_id = build(tmp_path).by_id()
    assert by_id["a.cbl"].status is Status.KEPT
    assert (by_id["b.cbl"].status, by_id["b.cbl"].duplicate_of) == (Status.DUPLICATE, "a.cbl")
    assert by_id["b.cbl"].md5 == by_id["a.cbl"].md5
    assert by_id["c.cbl"].status is Status.KEPT
    assert load_ast(tmp_path, by_id["c.cbl"]) is not None


def test_a_byte_order_mark_keeps_fixed_format_columns(tmp_path):
    text = (
        "000100 IDENTIFICATION DIVISION.\n"
        "000200 PROGRAM-ID. FX.\n"
        "000300 PROCEDURE DIVISION.\n"
        "000400 MAIN.\n"
        "000500     MOVE 1 TO N.\n"
        "000600     ADD 1 TO N.\n"
        "000700     DISPLAY N.\n"
    )
    (tmp_path / "a.cbl").write_text(text, encoding="utf-8-sig")
    config = CorpusConfig(format=SourceFormat.FIXED)
    record = curate(ingest(tmp_path), tmp_path, config=config).by_id()["a.cbl"]
    assert record.status is Status.KEPT
    assert normalize_text("\ufeff" + text) == text


def test_fixture_counts(fixture_corpus):
    root, expected = fixture_corpus
    manifest = build(root)
    assert manifest.counts() == expected
    assert sum(manifest.counts().values()) == len(manifest.records) == 20


def test_every_record_has_terminal_status(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    assert all(r.status is not None for r in manifest.records)


def test_duplicates_point_at_first_path(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    by_id = manifest.by_id()
    assert by_id["zdup1.cbl"].status is Status.DUPLICATE
    assert by_id["zdup1.cbl"].duplicate_of == "clean01.cbl"
    assert by_id["zdup4.cbl"].duplicate_of == "clean01.cbl"
    assert by_id["zdup2.cbl"].duplicate_of == "clean02.cbl"
    assert by_id["clean01.cbl"].status is Status.KEPT


def test_crlf_variant_hashes_equal(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    by_id = manifest.by_id()
    assert len(by_id["clean02.cbl"].md5) == 32
    assert by_id["zdup2.cbl"].md5 == by_id["clean02.cbl"].md5


def test_no_md5_shared_between_survivors(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    survivors = [
        r.md5
        for r in manifest.records
        if r.status not in (Status.DUPLICATE, Status.REJECTED)
    ]
    assert len(survivors) == len(set(survivors))


def test_metrics_attached_only_to_eligible(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    for record in manifest.records:
        if record.status in (Status.KEPT, Status.REPAIRED):
            assert record.metrics is not None
            assert len(record.metrics.features) == 30
        else:
            assert record.metrics is None


def test_rejection_reasons(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    by_id = manifest.by_id()
    assert by_id["bad1.cbl"].reason == "unrepairable syntax"
    assert by_id["bad2.cbl"].reason == "unrepairable syntax"


def test_all_clean_corpus_has_no_demotions(tmp_path):
    for i in range(6):
        (tmp_path / f"p{i}.cbl").write_text(
            "IDENTIFICATION DIVISION.\n"
            f"PROGRAM-ID. P{i}.\n"
            "PROCEDURE DIVISION.\n"
            "MAIN.\n"
            f"    MOVE {i} TO N.\n"
            "    ADD 2 TO N.\n"
            "    DISPLAY N.\n"
        )
    counts = build(tmp_path).counts()
    assert counts == {"clean": 6, "repaired": 0, "rejected": 0, "duplicate": 0, "trivial": 0}


def test_curate_idempotent(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    first = [json.dumps(r.to_json(), sort_keys=True) for r in manifest.records]
    curate(manifest, root)
    second = [json.dumps(r.to_json(), sort_keys=True) for r in manifest.records]
    assert first == second


def test_parallel_curate_identical(fixture_corpus):
    root, _ = fixture_corpus
    serial = build(root)
    parallel = build(root, jobs=3)
    assert [r.to_json() for r in serial.records] == [r.to_json() for r in parallel.records]


def test_manifest_round_trip(fixture_corpus, tmp_path_factory):
    root, _ = fixture_corpus
    manifest = build(root)
    split(manifest, seed=7)
    path = tmp_path_factory.mktemp("out") / "corpus.manifest.jsonl"
    manifest.write_jsonl(path)
    again = CorpusManifest.read_jsonl(path)
    assert [r.to_json() for r in again.records] == [r.to_json() for r in manifest.records]
    first_line = path.read_text().splitlines()[0]
    assert list(json.loads(first_line)) == [
        "id", "relative_path", "md5", "lines", "status", "duplicate_of",
        "reason", "metrics", "split", "fold", "oracle_java", "oracle_labels",
    ]


def _broken_manifest(tmp_path: Path, bad_line: str) -> Path:
    """A manifest whose third line is `bad_line`, after a good record and
    a blank line."""
    good = Record(id="a.cbl", relative_path="a.cbl", md5="0" * 32, lines=3,
                  status=Status.KEPT, split=Split.TRAIN)
    path = tmp_path / "corpus.manifest.jsonl"
    path.write_text(json.dumps(good.to_json()) + "\n\n" + bad_line + "\n", encoding="utf-8")
    return path


def _record_json(**changes) -> str:
    data = Record(id="b.cbl", relative_path="b.cbl", md5="1" * 32, lines=4).to_json()
    data.update(changes)
    return json.dumps(data)


@pytest.mark.parametrize(
    "bad_line, cause",
    [
        ('{"id": "b.cbl", "relative_pa', "JSONDecodeError"),
        ('{"id": "b.cbl", "md5": "x", "lines": 1}', "KeyError: 'relative_path'"),
        (_record_json(status="Kept-ish"), "ValueError: 'Kept-ish' is not a valid Status"),
        (_record_json(split="Validation"), "ValueError: 'Validation' is not a valid Split"),
        ('["b.cbl"]', "TypeError"),
        (_record_json(fold="2"), "TypeError: fold is a str, not an int"),
        (_record_json(fold=True), "TypeError: fold is a bool, not an int"),
    ],
    ids=["bad_json", "missing_key", "unknown_status", "unknown_split", "not_an_object",
         "str_fold", "bool_fold"],
)
def test_read_jsonl_names_file_and_line(tmp_path, bad_line, cause):
    path = _broken_manifest(tmp_path, bad_line)
    with pytest.raises(FormatError) as info:
        CorpusManifest.read_jsonl(path)
    message = str(info.value)
    assert message.startswith(f"{path}: line 3: ")
    assert cause in message


def test_read_jsonl_names_the_line_of_an_undecodable_byte(tmp_path):
    path = _broken_manifest(tmp_path, "")
    path.write_bytes(path.read_bytes() + b'{"id": "\xff"}\n')
    with pytest.raises(FormatError, match=r": line 4: .*UnicodeDecodeError"):
        CorpusManifest.read_jsonl(path)


def test_run_evaluation_reports_a_broken_manifest(tmp_path):
    path = _broken_manifest(tmp_path, '{"id": "b.cbl"')
    with pytest.raises(FormatError, match=re.escape(f"{path}: line 3: ")):
        run_evaluation(path, "rules")


def test_load_ast_reproduces_curate_verdicts(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    by_id = manifest.by_id()
    assert load_ast(root, by_id["clean01.cbl"]).program_id == "CLEAN1"
    assert load_ast(root, by_id["fix2.cbl"]).program_id == "FIXB"
    assert load_ast(root, by_id["bad1.cbl"]) is None


def synthetic_manifest(count: int) -> CorpusManifest:
    return CorpusManifest(
        [
            Record(id=f"f{i:06d}.cbl", relative_path=f"f{i:06d}.cbl", md5=f"{i:032x}",
                   lines=10, status=Status.KEPT)
            for i in range(count)
        ]
    )


def test_split_ten_records():
    manifest = synthetic_manifest(10)
    split(manifest, seed=1)
    trains = [r for r in manifest.records if r.split is Split.TRAIN]
    tests = [r for r in manifest.records if r.split is Split.TEST]
    assert len(trains) == 8 and len(tests) == 2
    fold_sizes = sorted(
        sum(1 for r in trains if r.fold == f) for f in range(5)
    )
    assert fold_sizes == [1, 1, 2, 2, 2]
    assert all(r.fold is None for r in tests)


def test_split_large_corpus_matches_published_sizes():
    manifest = synthetic_manifest(42_000)
    split(manifest, seed=3)
    trains = sum(1 for r in manifest.records if r.split is Split.TRAIN)
    tests = sum(1 for r in manifest.records if r.split is Split.TEST)
    assert trains == 33_600 and tests == 8_400
    sizes = [sum(1 for r in manifest.records if r.fold == f) for f in range(5)]
    assert max(sizes) - min(sizes) <= 1


def test_split_deterministic_and_seed_sensitive():
    a = synthetic_manifest(40)
    b = synthetic_manifest(40)
    c = synthetic_manifest(40)
    split(a, seed=11)
    split(b, seed=11)
    split(c, seed=12)
    key = lambda m: [(r.id, r.split, r.fold) for r in m.records]
    assert key(a) == key(b)
    assert key(a) != key(c)


def test_split_changes_only_split_and_fold():
    a = synthetic_manifest(40)
    b = synthetic_manifest(40)
    split(a, seed=11)
    split(b, seed=12)
    strip = lambda m: [
        {k: v for k, v in r.to_json().items() if k not in ("split", "fold")}
        for r in m.records
    ]
    assert strip(a) == strip(b)


def test_split_requires_five_eligible():
    with pytest.raises(SplitError):
        split(synthetic_manifest(4), seed=1)
    split(synthetic_manifest(5), seed=1)  # boundary passes


def test_split_ignores_ineligible_records():
    manifest = synthetic_manifest(10)
    manifest.records[0].status = Status.TRIVIAL
    manifest.records[1].status = Status.REJECTED
    split(manifest, seed=2)
    assert manifest.records[0].split is None
    assert manifest.records[1].split is None
    assigned = sum(1 for r in manifest.records if r.split is not None)
    assert assigned == 8


def test_split_on_fixture_assigns_only_eligible(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    split(manifest, seed=42)
    for record in manifest.records:
        eligible = record.status in (Status.KEPT, Status.REPAIRED)
        assert (record.split is not None) == eligible
        if record.split is Split.TRAIN:
            assert record.fold in range(5)
        else:
            assert record.fold is None
    # 12 eligible -> 9 train / 3 test
    assert sum(1 for r in manifest.records if r.split is Split.TRAIN) == 9
    assert sum(1 for r in manifest.records if r.split is Split.TEST) == 3


def test_fixed_format_corpus(tmp_path):
    text = (
        "000100 IDENTIFICATION DIVISION.\n"
        "000200 PROGRAM-ID. FX.\n"
        "000300 PROCEDURE DIVISION.\n"
        "000400 MAIN.\n"
        "000500     MOVE 1 TO N.\n"
        "000600     ADD 1 TO N.\n"
        "000700     DISPLAY N.\n"
    )
    (tmp_path / "a.cbl").write_text(text)
    config = CorpusConfig(format=SourceFormat.FIXED)
    manifest = curate(ingest(tmp_path), tmp_path, config=config)
    assert manifest.by_id()["a.cbl"].status is Status.KEPT
    assert load_ast(tmp_path, manifest.by_id()["a.cbl"], config).program_id == "FX"


def test_curate_and_load_ast_parse_each_clean_file_once(tmp_path, monkeypatch):
    """Curate parses each clean file once and hands its tree on, so
    `load_ast` parses nothing; a manifest read back from JSONL holds no
    trees, and `load_ast` parses each of its files once."""
    for seed in range(6):
        text = pretty_print(random_program(random.Random(seed), program_id=f"P{seed}"))
        (tmp_path / f"p{seed}.cbl").write_text(text)
    calls = []
    # The package re-exports a function named `repair`, so look the modules up by name.
    for name in ("relicforge.cobol.parser", "relicforge.cobol.repair"):
        module = importlib.import_module(name)
        real = module.parse
        monkeypatch.setattr(
            module, "parse", lambda tokens, real=real: calls.append(1) or real(tokens)
        )
    manifest = curate(ingest(tmp_path), tmp_path)
    assert manifest.counts()["clean"] == 6
    assert len(calls) == 6
    calls.clear()
    for record in manifest.records:
        assert load_ast(tmp_path, record) is record.ast is not None
    assert len(calls) == 0
    manifest.write_jsonl(tmp_path / "m.jsonl")
    for record in CorpusManifest.read_jsonl(tmp_path / "m.jsonl").records:
        assert record.ast is None
        assert load_ast(tmp_path, record) is not None
    assert len(calls) == 6


# --- one read and one repair per distinct text -------------------------------


def add_copies(root: Path) -> None:
    """To the fixture corpus (two exact copies and a CRLF copy of clean
    files) add an exact copy of a Rejected file, a CRLF copy of a Repaired
    one and an exact copy of a Trivial one: 23 files, 16 distinct texts."""
    (root / "zdup5.cbl").write_bytes((root / "bad2.cbl").read_bytes())
    (root / "zdup6.cbl").write_bytes((root / "fix1.cbl").read_bytes().replace(b"\n", b"\r\n"))
    (root / "zdup7.cbl").write_bytes((root / "triv1.cbl").read_bytes())


def test_curate_repairs_each_distinct_text_once(fixture_corpus, monkeypatch):
    root, _ = fixture_corpus
    add_copies(root)
    pipeline = importlib.import_module("relicforge.corpus.pipeline")
    texts = []
    real = pipeline.repair
    monkeypatch.setattr(
        pipeline, "repair", lambda file: texts.append(file.text) or real(file)
    )
    manifest = build(root)
    assert len(texts) == len(set(texts)) == 16
    assert manifest.counts()["duplicate"] == 6
    by_id = manifest.by_id()
    assert by_id["zdup5.cbl"].status is Status.REJECTED
    assert by_id["zdup6.cbl"].duplicate_of == "fix1.cbl"
    assert by_id["zdup7.cbl"].duplicate_of == "triv1.cbl"
    assert by_id["triv1.cbl"].status is Status.TRIVIAL


def test_curate_writes_the_reference_intake_manifest(fixture_corpus, tmp_path_factory):
    root, _ = fixture_corpus
    add_copies(root)
    for jobs in (1, 2):
        assert_reference_intake(root, tmp_path_factory.mktemp("out"), jobs=jobs)


def test_intake_reads_each_source_once(fixture_corpus, monkeypatch):
    root, _ = fixture_corpus
    add_copies(root)
    pipeline = importlib.import_module("relicforge.corpus.pipeline")
    reads = Counter()
    real = pipeline.read_normalized
    monkeypatch.setattr(
        pipeline, "read_normalized",
        lambda root, record: reads.update([record.id]) or real(root, record),
    )
    manifest = build(root)
    assert sorted(reads) == sorted(manifest.by_id()) and len(reads) == 23
    assert set(reads.values()) == {1}


def test_file_fixed_between_ingest_and_curate_is_judged(tmp_path):
    text = pretty_print(random_program(random.Random(1)))
    (tmp_path / "a.cbl").write_bytes(b"\xff\xfe" + text.encode("utf-8"))
    (tmp_path / "a.java").write_text("class A {}\n")
    manifest = ingest(tmp_path)
    (tmp_path / "a.cbl").write_text(text, encoding="utf-8")
    a = curate(manifest, tmp_path).by_id()["a.cbl"]
    assert (a.status, a.reason, a.oracle_java) == (Status.KEPT, None, "a.java")
    assert a.lines == text.count("\n") + 1 and a.metrics is not None


def test_file_turned_undecodable_after_ingest_is_not_utf8(tmp_path):
    text = pretty_print(random_program(random.Random(1)))
    (tmp_path / "a.cbl").write_text(text, encoding="utf-8")
    manifest = ingest(tmp_path)
    (tmp_path / "a.cbl").write_bytes(b"\xff\xfe" + text.encode("utf-8"))
    a = curate(manifest, tmp_path).by_id()["a.cbl"]
    assert (a.status, a.reason, a.md5, a.lines) == (Status.REJECTED, "not valid UTF-8", "", 0)


def test_file_deleted_after_ingest_is_unreadable(tmp_path):
    for name in ("a.cbl", "b.cbl"):
        (tmp_path / name).write_text(pretty_print(random_program(random.Random(1))))
    manifest = ingest(tmp_path)
    (tmp_path / "a.cbl").unlink()
    by_id = curate(manifest, tmp_path).by_id()
    a, b = by_id["a.cbl"], by_id["b.cbl"]
    assert (a.status, a.reason, a.md5, a.lines) == (
        Status.REJECTED, "unreadable: FileNotFoundError", "", 0)
    assert (b.status, b.duplicate_of) == (Status.KEPT, None)

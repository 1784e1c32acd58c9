"""Corpus pipeline tests: ingest, curate, dedup, trivial filter, split."""

import importlib
import json
import random
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
from relicforge.errors import SplitError


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
    assert all(len(r.md5) == 32 for r in manifest.records)
    assert all(r.status is None for r in manifest.records)


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
    manifest = ingest(tmp_path)
    assert len(manifest.records) == 5
    bad = manifest.by_id()["junk.cbl"]
    assert bad.status is Status.REJECTED
    assert bad.reason == "not valid UTF-8"


def test_normalize_text_crlf_and_trailing():
    assert normalize_text("MOVE 1 TO N.  \r\nDISPLAY N.\t\r\n") == "MOVE 1 TO N.\nDISPLAY N.\n"
    assert normalize_text("move 1 to n.") == "move 1 to n."  # case untouched


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
    manifest = ingest(root)
    by_id = manifest.by_id()
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


def test_load_ast_reproduces_curate_verdicts(fixture_corpus):
    root, _ = fixture_corpus
    manifest = build(root)
    by_id = manifest.by_id()
    ast, _ = load_ast(root, by_id["clean01.cbl"])
    assert ast.program_id == "CLEAN1"
    ast, _ = load_ast(root, by_id["fix2.cbl"])
    assert ast.program_id == "FIXB"
    ast, verdict = load_ast(root, by_id["bad1.cbl"])
    assert ast is None and verdict.value == "Rejected"


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
    ast, _ = load_ast(tmp_path, manifest.by_id()["a.cbl"], config)
    assert ast.program_id == "FX"


def test_curate_and_load_ast_parse_each_clean_file_once(tmp_path, monkeypatch):
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
        ast, _verdict = load_ast(tmp_path, record)
        assert ast is not None
    assert len(calls) == 6

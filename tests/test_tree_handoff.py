"""Curate hands each kept text's tree to everything downstream.

The record that keeps a text holds the tree of its clean parse, and
`load_ast` returns it once the file still has the record's md5. These
tests pin down which records hold a tree, that the tree is the one a
fresh parse of the repaired text gives (at any worker count), that a
changed file still raises, and that no downstream stage changes a tree.
"""

import pytest

from relicforge.cobol import SourceFile, SourceFormat, parse_source, repair
from relicforge.corpus import Split, Status, curate, ingest, load_ast
from relicforge.corpus import split as split_corpus
from relicforge.corpus.pipeline import read_normalized
from relicforge.datagen import acceptance_corpus
from relicforge.errors import SourceError
from relicforge.evaluate import build_training_set, run_evaluation
from relicforge.model import ModelConfig, train
from tests.test_corpus import add_copies

HOLDERS = (Status.KEPT, Status.REPAIRED)


def fresh_tree(root, record):
    """A tree parsed anew from the record's file, after repair."""
    fixed, _log = repair(SourceFile(record.id, read_normalized(root, record), SourceFormat.FREE))
    return parse_source(fixed)


def test_only_the_records_that_keep_a_text_hold_its_tree(fixture_corpus):
    root, _ = fixture_corpus
    add_copies(root)
    (root / "zbytes.cbl").write_bytes(b"MOVE \xff TO N.\n")
    manifest = curate(ingest(root), root)
    statuses = {r.status for r in manifest.records}
    assert statuses == set(Status)
    for record in manifest.records:
        assert (record.ast is not None) == (record.status in HOLDERS), record.id


def test_a_record_that_becomes_a_duplicate_drops_its_tree(fixture_corpus):
    root, _ = fixture_corpus
    manifest = curate(ingest(root), root)
    assert manifest.by_id()["clean05.cbl"].ast is not None
    (root / "clean05.cbl").write_bytes((root / "clean04.cbl").read_bytes())
    record = curate(manifest, root).by_id()["clean05.cbl"]
    assert (record.status, record.ast) == (Status.DUPLICATE, None)


def test_a_held_tree_is_the_parse_of_the_repaired_text(fixture_corpus):
    root, _ = fixture_corpus
    manifest = curate(ingest(root), root)
    holders = [r for r in manifest.records if r.status in HOLDERS]
    assert {r.status for r in holders} == set(HOLDERS)
    for record in holders:
        assert record.ast == fresh_tree(root, record), record.id


def test_trees_from_a_process_pool_equal_those_from_one_worker(fixture_corpus):
    root, _ = fixture_corpus
    add_copies(root)
    one = curate(ingest(root), root, jobs=1)
    two = curate(ingest(root), root, jobs=2)
    assert [r.id for r in one.records] == [r.id for r in two.records]
    for a, b in zip(one.records, two.records):
        assert a.ast == b.ast, a.id


@pytest.mark.parametrize("change", ["edited", "deleted"])
def test_a_file_changed_after_curate_raises_though_its_record_holds_a_tree(
    fixture_corpus, change
):
    root, _ = fixture_corpus
    record = curate(ingest(root), root).by_id()["clean03.cbl"]
    assert record.ast is not None
    path = root / record.relative_path
    if change == "edited":
        path.write_text(path.read_text() + "    DISPLAY N.\n")
        reason = "source changed since curate"
    else:
        path.unlink()
        reason = "source unreadable"
    with pytest.raises(SourceError, match=reason):
        load_ast(root, record)


def test_no_stage_downstream_changes_a_tree(tmp_path):
    acceptance_corpus(tmp_path, count=30, seed=11)
    manifest = curate(ingest(tmp_path), tmp_path)
    split_corpus(manifest, seed=4)
    holders = [r for r in manifest.records if r.ast is not None]
    assert len(holders) == len(manifest.eligible()) > 0
    train_records = [r for r in manifest.records if r.split is Split.TRAIN]
    config = ModelConfig(hidden=8, epochs=1, batch=8, lr=0.02, seed=5)
    ckpt = train(build_training_set(tmp_path, train_records), config)
    run_evaluation(manifest, "rules", root=tmp_path, per_fold=True)
    run_evaluation(manifest, "ai", ckpt, root=tmp_path, per_fold=True)
    for record in holders:
        assert record.ast == fresh_tree(tmp_path, record), record.id

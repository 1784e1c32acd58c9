"""The Ai per-fold view featurizes each Train record once per evaluation.

`ref_fold_summaries` is `_fold_summaries` as it was when it called
`build_training_set` once per fold. Both must give the same per-fold
summaries, while the new one loads each Train record at most twice: once
to featurize it, once to score it in its own fold.
"""

import random
from collections import Counter

import pytest

from relicforge.cobol import pretty_print
from relicforge.corpus import CorpusConfig, Split, curate, ingest
from relicforge.corpus import split as split_corpus
from relicforge.datagen import acceptance_corpus, random_program
from relicforge.evaluate import build_training_set, run_evaluation, scoring
from relicforge.evaluate.scoring import EvalSummary, _score_records
from relicforge.model import ModelConfig, train

# --- the reference: one training set per fold ---------------------------------


def ref_fold_summaries(manifest, kind, ckpt, root, seed, label, config):
    """Cross-validation view over the Train split's round-robin folds. The
    Ai approach retrains per fold on the other folds with the checkpoint's
    own config; the other approaches just score each fold."""
    train_records = [r for r in manifest.records if r.split is Split.TRAIN]
    folds = sorted({r.fold for r in train_records if r.fold is not None})
    subs: list[EvalSummary] = []
    for fold in folds:
        records = [r for r in train_records if r.fold == fold]
        if kind == "external":
            records = [r for r in records if r.oracle_java]
        if not records:
            continue
        fold_ckpt = ckpt
        if kind == "ai":
            from relicforge.model import train as train_model

            rest = [r for r in train_records if r.fold != fold]
            dataset = build_training_set(root, rest, config)
            fold_ckpt = train_model(dataset, ckpt.config)
        sub, _ = _score_records(records, kind, fold_ckpt, root, seed, label, config)
        subs.append(sub)
    return subs


CONFIG = ModelConfig(hidden=16, epochs=8, batch=8, lr=0.02, seed=5)


@pytest.fixture
def corpus(tmp_path):
    """A 30-file labeled corpus, split into Train folds and Test, and a
    checkpoint trained on its Train split. One Train file is overwritten
    with text that no longer parses, so featurizing it gives no sample."""
    acceptance_corpus(tmp_path, count=30, seed=11)
    manifest = curate(ingest(tmp_path), tmp_path)
    split_corpus(manifest, seed=4)
    train_records = [r for r in manifest.records if r.split is Split.TRAIN]
    ckpt = train(build_training_set(tmp_path, train_records), CONFIG)
    (tmp_path / train_records[3].relative_path).write_text("MOVE TO TO.\n", encoding="utf-8")
    return tmp_path, manifest, ckpt


def test_ai_fold_summaries_match_one_training_set_per_fold(corpus):
    root, manifest, ckpt = corpus
    summary, _rows, _pairs = run_evaluation(manifest, "ai", ckpt, root=root, per_fold=True)
    want = ref_fold_summaries(manifest, "ai", ckpt, root, scoring.DEFAULT_SEED,
                              scoring.APPROACH_AI, scoring.CorpusConfig())
    assert len(want) == 5
    assert [s.to_json() for s in summary.per_fold] == [s.to_json() for s in want]


def test_each_train_record_is_loaded_at_most_twice(corpus, monkeypatch):
    root, manifest, ckpt = corpus
    loads = Counter()
    real = scoring.load_ast

    def counting(root_, record, config):
        loads[record.id] += 1
        return real(root_, record, config)

    monkeypatch.setattr(scoring, "load_ast", counting)
    run_evaluation(manifest, "ai", ckpt, root=root, per_fold=True)
    train_ids = {r.id for r in manifest.records if r.split is Split.TRAIN}
    test_ids = {r.id for r in manifest.records if r.split is Split.TEST}
    assert {loads[i] for i in train_ids} == {2}
    assert {loads[i] for i in test_ids} == {1}


# Kept by curate under `min_statements=0`: one program without paragraphs,
# one whose only paragraph is empty.
_NO_STATEMENT = {
    "bare.cbl": "IDENTIFICATION DIVISION.\nPROGRAM-ID. BARE.\nPROCEDURE DIVISION.\n",
    "empty_para.cbl": "IDENTIFICATION DIVISION.\nPROGRAM-ID. EMPTY.\nPROCEDURE DIVISION.\nMAIN.\n",
}


def test_a_program_with_no_statement_gives_no_sample(tmp_path):
    for seed in range(5):
        ast = random_program(random.Random(seed), program_id=f"P{seed}")
        (tmp_path / f"p{seed}.cbl").write_text(pretty_print(ast), encoding="utf-8")
    for name, text in _NO_STATEMENT.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    config = CorpusConfig(min_statements=0)
    manifest = curate(ingest(tmp_path), tmp_path, config)
    split_corpus(manifest, seed=1)
    assert {r.id for r in manifest.eligible()} >= set(_NO_STATEMENT)
    train_records = [r for r in manifest.records if r.split is Split.TRAIN]
    assert set(_NO_STATEMENT) & {r.id for r in train_records}

    assert len(build_training_set(tmp_path, manifest.eligible(), config)) == 5
    ckpt = train(build_training_set(tmp_path, train_records, config), CONFIG)
    summary, _rows, _pairs = run_evaluation(manifest, "ai", ckpt, root=tmp_path,
                                            per_fold=True, config=config)
    assert summary.per_fold

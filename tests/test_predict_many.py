"""`predict_many` against the per-program reference it replaced: one
batch-1 `forward` per program and a per-row argmax. Both must take the
same action for every statement, with confidences equal to float
rounding, whatever the group a program runs in; and an Ai evaluation
that predicts its Test split in chunks must score every record as before.
"""

import random
from collections import Counter

import numpy as np
import pytest

from relicforge.analysis import step_features
from relicforge.cobol import nodes as n
from relicforge.corpus import Split, curate, ingest, load_ast
from relicforge.datagen import acceptance_corpus, random_program
from relicforge.evaluate import run_evaluation, scoring
from relicforge.evaluate.scoring import load_oracle_labels
from relicforge.model import (
    ModelConfig,
    forward,
    init_checkpoint,
    predict,
    predict_many,
    sample_from_ast,
    softmax,
    train,
)
from relicforge.model.network import WIDE
from relicforge.model.predict import DEFAULT_TAU
from relicforge.transpile import CLASS_ORDER, Action, default_actions
from relicforge.transpile.actions import EXTRACT_METHOD

CONFIDENCE_TOL = 1e-12


def reference_predict(ast, ckpt, branches: Counter | None = None):
    """(stmt_ref, action, confidence) per statement, in pre-order, from one
    batch-1 `forward`. `branches` counts the decision each statement took."""
    refs = {id(node): i for i, node in enumerate(n.iter_preorder(ast.program))}
    tops_for = {}
    for para in ast.program.paragraphs:
        tops = sorted(refs[id(s)] for s in para.body)
        for ref in tops:
            tops_for[ref] = tops
    feats = step_features(ast)
    fp = forward(feats, ckpt)
    probs = softmax(fp.logits)
    denom = max(len(feats) - 1, 1)
    branches = Counter() if branches is None else branches
    out = []
    for ref, fallback in default_actions(ast):
        row = probs[ref]
        cls = int(np.argmax(row))
        confidence = float(row[cls])
        if confidence < DEFAULT_TAU:
            branches["below tau"] += 1
            out.append((ref, fallback, confidence))
            continue
        kind = CLASS_ORDER[cls]
        if kind is EXTRACT_METHOD:
            tops = tops_for.get(ref)
            if not tops:
                branches["nested split"] += 1
                out.append((ref, fallback, confidence))
                continue
            target = round(float(fp.offsets[ref]) * denom)
            snapped = min(tops, key=lambda r: (abs(r - target), r))
            branches["split moved" if snapped != ref else "split"] += 1
            out.append((ref, Action(kind, snapped), confidence))
        else:
            branches["model"] += 1
            out.append((ref, Action(kind), confidence))
    return out


def assert_same_predictions(got, want):
    assert len(got) == len(want)
    for got_one, want_one in zip(got, want):
        assert [(ref, action) for ref, action, _ in got_one] == \
            [(ref, action) for ref, action, _ in want_one]
        for (_, _, a), (_, _, b) in zip(got_one, want_one):
            assert abs(a - b) <= CONFIDENCE_TOL


def random_trees(seeds):
    return [random_program(random.Random(seed), allow_goto=seed % 2 == 1) for seed in seeds]


@pytest.fixture(scope="module")
def acceptance(tmp_path_factory):
    """40 curated acceptance trees and their oracle-labeled samples."""
    root = tmp_path_factory.mktemp("acceptance")
    acceptance_corpus(root, count=40, seed=3)
    records = curate(ingest(root), root).eligible()
    trees = [load_ast(root, record) for record in records]
    samples = [sample_from_ast(tree, load_oracle_labels(root / record.oracle_labels))
               for tree, record in zip(trees, records)]
    return trees, samples


def nested_split_sample(tree):
    """A sample labeling every nested statement of `tree` a split at itself,
    which no paragraph can take."""
    tops = {id(stmt) for para in tree.paragraphs for stmt in para.body}
    nested = [ref for ref, node in enumerate(n.iter_preorder(tree.program))
              if n.is_statement(node) and id(node) not in tops]
    return sample_from_ast(tree, {ref: Action(EXTRACT_METHOD, ref) for ref in nested})


@pytest.fixture(scope="module")
def checkpoints(acceptance):
    """Untrained, trained for 2 epochs as the acceptance benchmark trains,
    and overfit, so that predictions clear DEFAULT_TAU, some split and some
    vote to split a nested statement."""
    _, samples = acceptance
    nested = [nested_split_sample(tree) for tree in random_trees(range(500, 510))]
    return {
        "untrained": init_checkpoint(ModelConfig()),
        "2-epoch": train(samples, ModelConfig(epochs=2)),
        "overfit": train(samples + nested, ModelConfig(epochs=40, lr=0.01, batch=8)),
    }


@pytest.mark.parametrize("name", ["untrained", "2-epoch", "overfit"])
def test_predict_many_matches_the_batch_1_reference(acceptance, checkpoints, name):
    trees = random_trees(range(160)) + acceptance[0]
    ckpt = checkpoints[name]
    branches = Counter()
    want = [reference_predict(tree, ckpt, branches) for tree in trees]
    assert_same_predictions(predict_many(trees, ckpt), want)
    assert_same_predictions([predict(tree, ckpt) for tree in trees], want)
    if name == "overfit":  # every decision is exercised
        assert set(branches) == {"below tau", "nested split", "split", "split moved", "model"}


def test_input_order_is_kept(checkpoints):
    trees = random_trees(range(30))
    ckpt = checkpoints["overfit"]
    forwards = predict_many(trees, ckpt)
    backwards = predict_many(trees[::-1], ckpt)
    assert_same_predictions(backwards[::-1], forwards)
    assert_same_predictions([predict(tree, ckpt) for tree in trees], forwards)


def test_no_trees_give_no_predictions(checkpoints):
    assert predict_many([], checkpoints["overfit"]) == []


def test_trees_across_a_wide_group_boundary(checkpoints):
    trees = random_trees(range(1000, 1000 + WIDE + 1))
    ckpt = checkpoints["overfit"]
    want = [reference_predict(tree, ckpt) for tree in trees]
    assert_same_predictions(predict_many(trees, ckpt), want)


@pytest.mark.slow
def test_predict_many_matches_the_reference_on_5000_trees(checkpoints):
    trees = random_trees(range(20_000, 25_000))
    for name in ("2-epoch", "overfit"):
        ckpt = checkpoints[name]
        for start in range(0, len(trees), 500):
            part = trees[start:start + 500]
            assert_same_predictions(predict_many(part, ckpt),
                                    [reference_predict(tree, ckpt) for tree in part])


# -- an Ai evaluation predicts its Test split in chunks ---------------------------


def _ai_corpus(root):
    """Twelve curated acceptance files, all in the Test split."""
    acceptance_corpus(root, count=12, seed=5)
    manifest = curate(ingest(root), root)
    for record in manifest.records:
        record.split = Split.TEST
    return manifest


def _spoil(root, manifest):
    """An unreadable source, a changed one and an unrepairable one, each in
    a different chunk of 2: {record id: reason}."""
    test = manifest.records
    (root / test[1].relative_path).write_bytes(b"\xff\xfe bad")
    (root / test[4].relative_path).write_bytes((root / test[0].relative_path).read_bytes())
    # Without an md5 the file is rebuilt from its text, which no rule repairs.
    test[9].md5 = ""
    test[9].ast = None
    (root / test[9].relative_path).write_text("MOVE TO TO.\n", encoding="utf-8")
    return {test[1].id: "source unreadable", test[4].id: "source changed since curate",
            test[9].id: "source failed to parse"}


def test_ai_evaluation_in_chunks_keeps_every_row_in_record_order(
        tmp_path, checkpoints, monkeypatch):
    manifest = _ai_corpus(tmp_path)
    ckpt = checkpoints["overfit"]
    _, clean_rows, _ = run_evaluation(manifest, "ai", ckpt, root=tmp_path)
    spoiled = _spoil(tmp_path, manifest)

    loads, groups = Counter(), []
    real_load, real_predict = scoring.load_ast, scoring.predict_many
    monkeypatch.setattr(scoring, "WIDE", 2)
    monkeypatch.setattr(scoring, "load_ast", lambda root, record, config:
                        loads.update([record.id]) or real_load(root, record, config))
    monkeypatch.setattr(scoring, "predict_many", lambda asts, c:
                        groups.append(len(asts)) or real_predict(asts, c))
    summary, rows, pairs = run_evaluation(manifest, "ai", ckpt, root=tmp_path)

    ids = [record.id for record in manifest.records]
    assert [row.id for row in rows] == ids
    assert loads == Counter(ids)
    assert sum(groups) == len(ids) - len(spoiled) and max(groups) <= 2
    for row, clean in zip(rows, clean_rows):
        if row.id in spoiled:
            assert (row.correct, row.reason) == (False, spoiled[row.id])
            assert row.cx_after is None
        else:
            assert row == clean
    assert [pair["id"] for pair in pairs] == [i for i in ids if i not in spoiled]
    assert summary.n == len(ids)

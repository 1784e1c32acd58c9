"""Checkpoint-driven action suggestions for programs.

Every statement gets the model's argmax action when its softmax
confidence reaches `DEFAULT_TAU`, and the rule default otherwise. A
method-split prediction also needs a concrete split point: the offset
head's fraction is scaled to the node range and snapped to the nearest
top-level statement of the same paragraph, which is the only place the
rule engine accepts a split.

The network runs forward only, on the kernel that computes training's
metrics (`network._stream`): WIDE programs per time loop, longest first,
since at a handful of programs per step a step's cost is mostly numpy
call overhead. One program is a group of one.
"""

from __future__ import annotations

import numpy as np

from relicforge.analysis import (  # noqa: F401  build_cfg: the traced benchmark wraps it here
    build_cfg, step_features,
)
from relicforge.cobol import nodes as n
from relicforge.model.network import (  # noqa: F401  forward: the traced benchmark wraps it here
    WIDE, ModelCheckpoint, _stream, forward, softmax,
)
from relicforge.transpile import CLASS_ORDER, Action, default_actions
from relicforge.transpile.actions import EXTRACT_METHOD

DEFAULT_TAU = 0.6

Prediction = list[tuple[int, Action, float]]


def _top_level_refs(ast: n.CobolAst) -> dict[int, list[int]]:
    """stmt_ref -> the sorted top-level refs of its own paragraph."""
    refs = {id(node): i for i, node in enumerate(n.iter_preorder(ast.program))}
    out: dict[int, list[int]] = {}
    for para in ast.program.paragraphs:
        tops = sorted(refs[id(s)] for s in para.body)
        for ref in tops:
            out[ref] = tops
    return out


def _decide(ast: n.CobolAst, classes: list[int], confidences: list[float],
            offsets: list[float]) -> Prediction:
    """One program's actions from its per-step argmax class, that class's
    softmax probability and the split offset."""
    tops_for = _top_level_refs(ast)
    denom = max(len(classes) - 1, 1)
    out: Prediction = []
    for ref, fallback in default_actions(ast):
        confidence = confidences[ref]
        if confidence < DEFAULT_TAU:
            out.append((ref, fallback, confidence))
            continue
        kind = CLASS_ORDER[classes[ref]]
        if kind is EXTRACT_METHOD:
            tops = tops_for.get(ref)
            if not tops:
                # A nested statement cannot carry a split; keep the default.
                out.append((ref, fallback, confidence))
                continue
            target = round(offsets[ref] * denom)
            snapped = min(tops, key=lambda r: (abs(r - target), r))
            out.append((ref, Action(kind, snapped), confidence))
        else:
            out.append((ref, Action(kind), confidence))
    return out


def predict_many(asts: list[n.CobolAst], ckpt: ModelCheckpoint) -> list[Prediction]:
    """(stmt_ref, action, confidence) per statement, in pre-order, for each
    program of `asts`, in their order. Programs run WIDE at a time, longest
    first; where two classes tie for a step's maximum, the first wins."""
    feats = [step_features(ast) for ast in asts]
    order = sorted(range(len(asts)), key=lambda k: len(feats[k]), reverse=True)
    out: list[Prediction] = [[] for _ in asts]
    for start in range(0, len(order), WIDE):
        group = order[start:start + WIDE]
        logits, offsets = _stream([feats[k] for k in group], ckpt)
        probs = softmax(logits)
        classes = probs.argmax(axis=-1)
        confidences = np.take_along_axis(probs, classes[..., None], axis=-1)[..., 0]
        for col, k in enumerate(group):
            steps = len(feats[k])
            out[k] = _decide(asts[k], classes[:steps, col].tolist(),
                             confidences[:steps, col].tolist(), offsets[:steps, col].tolist())
    return out


def predict(ast: n.CobolAst, ckpt: ModelCheckpoint) -> Prediction:
    """(stmt_ref, action, confidence) per statement, in pre-order."""
    return predict_many([ast], ckpt)[0]

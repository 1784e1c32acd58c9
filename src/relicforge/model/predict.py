"""Checkpoint-driven action suggestions for one program.

Every statement gets the model's argmax action when its softmax
confidence reaches `DEFAULT_TAU`, and the rule default otherwise. A
method-split prediction also needs a concrete split point: the offset
head's fraction is scaled to the node range and snapped to the nearest
top-level statement of the same paragraph, which is the only place the
rule engine accepts a split.
"""

from __future__ import annotations

import numpy as np

from relicforge.analysis import (  # noqa: F401  build_cfg: the traced benchmark wraps it here
    build_cfg, step_features,
)
from relicforge.cobol import nodes as n
from relicforge.model.network import ModelCheckpoint, forward, softmax
from relicforge.transpile import CLASS_ORDER, Action, default_actions
from relicforge.transpile.actions import EXTRACT_METHOD

DEFAULT_TAU = 0.6


def _top_level_refs(ast: n.CobolAst) -> dict[int, list[int]]:
    """stmt_ref -> the sorted top-level refs of its own paragraph."""
    refs = {id(node): i for i, node in enumerate(n.iter_preorder(ast.program))}
    out: dict[int, list[int]] = {}
    for para in ast.program.paragraphs:
        tops = sorted(refs[id(s)] for s in para.body)
        for ref in tops:
            out[ref] = tops
    return out


def predict(ast: n.CobolAst, ckpt: ModelCheckpoint) -> list[tuple[int, Action, float]]:
    """(stmt_ref, action, confidence) per statement, in pre-order."""
    feats = step_features(ast)
    fp = forward(feats, ckpt)
    probs = softmax(fp.logits)
    tops_for = _top_level_refs(ast)
    denom = max(len(feats) - 1, 1)

    out: list[tuple[int, Action, float]] = []
    for ref, fallback in default_actions(ast):
        row = probs[ref]
        cls = int(np.argmax(row))
        confidence = float(row[cls])
        if confidence < DEFAULT_TAU:
            out.append((ref, fallback, confidence))
            continue
        kind = CLASS_ORDER[cls]
        if kind is EXTRACT_METHOD:
            tops = tops_for.get(ref)
            if not tops:
                # A nested statement cannot carry a split; keep the default.
                out.append((ref, fallback, confidence))
                continue
            target = round(float(fp.offsets[ref]) * denom)
            snapped = min(tops, key=lambda r: (abs(r - target), r))
            out.append((ref, Action(kind, snapped), confidence))
        else:
            out.append((ref, Action(kind), confidence))
    return out

"""Training samples, the Adam loop, and per-epoch history.

A sample is one program's feature sequence with a class label per step:
statement steps carry weight 1.0 and their action kind (plus a normalized
split position when the action is a method split), everything else is a
zero-weight PassThrough. Training is plain full-batch-shuffled Adam,
deterministic for a given config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from relicforge.analysis import StepFeatures, build_cfg, statement_mask, step_features
from relicforge.cobol import nodes as n
from relicforge.errors import DivergenceError, ShapeError
from relicforge.model.network import (  # noqa: F401  forward: the traced benchmark wraps it here
    ModelCheckpoint, ModelConfig, chunked_loss, forward, init_checkpoint, loss_and_grads,
)
from relicforge.transpile import CLASS_ORDER, Action, ActionKind, default_actions

CLASS_INDEX = {kind: i for i, kind in enumerate(CLASS_ORDER)}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainSample:
    steps: StepFeatures
    actions: list[Action]        # per step; PassThrough off statements
    weight: np.ndarray           # (T,) 1.0 on statement steps
    class_ids: np.ndarray        # (T,) int, index into CLASS_ORDER
    offsets: np.ndarray          # (T,) split position targets in [0, 1]
    offset_mask: np.ndarray      # (T,) 1.0 where a split target exists

    def __post_init__(self) -> None:
        total = len(self.steps)
        for name in ("actions", "weight", "class_ids", "offsets", "offset_mask"):
            if len(getattr(self, name)) != total:
                raise ShapeError(f"{name} length differs from the step count")
        if not np.any(self.weight > 0):
            raise ValueError("sample has no weighted steps")


def sample_from_ast(ast: n.CobolAst, labels: dict[int, Action] | None = None) -> TrainSample:
    """Feature sequence plus training labels for one program.

    Oracle labels override the rule defaults where given; split actions
    record their target as a fraction of the sequence so the offset head
    has a bounded regression target.
    """
    feats = step_features(ast, build_cfg(ast))
    weight = statement_mask(ast)
    total = len(feats)
    actions = [Action(ActionKind.PASS_THROUGH)] * total
    for ref, action in default_actions(ast):
        actions[ref] = action
    if labels:
        for ref, action in labels.items():
            if 0 <= ref < total and weight[ref] > 0:
                actions[ref] = action

    class_ids = np.array([CLASS_INDEX[a.kind] for a in actions], dtype=int)
    offsets = np.zeros(total)
    offset_mask = np.zeros(total)
    denom = max(total - 1, 1)
    for ref, action in enumerate(actions):
        if action.kind is ActionKind.EXTRACT_METHOD and weight[ref] > 0:
            target = action.node_index if action.node_index is not None else ref
            offsets[ref] = min(max(target / denom, 0.0), 1.0)
            offset_mask[ref] = 1.0
    return TrainSample(feats, actions, weight, class_ids, offsets, offset_mask)


def dataset_metrics(dataset: list[TrainSample], ckpt: ModelCheckpoint) -> dict:
    """Deterministic full-set loss and statement-level label accuracy."""
    loss, accuracy = chunked_loss(dataset, ckpt)
    return {"loss": loss, "accuracy": accuracy}


@dataclass
class _Adam:
    lr: float
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    def step(self, params: dict, grads: dict) -> None:
        self.t += 1
        for name, g in grads.items():
            m = self.m.setdefault(name, np.zeros_like(g))
            v = self.v.setdefault(name, np.zeros_like(g))
            m += (1.0 - ADAM_BETA1) * (g - m)
            v += (1.0 - ADAM_BETA2) * (g * g - v)
            m_hat = m / (1.0 - ADAM_BETA1**self.t)
            v_hat = v / (1.0 - ADAM_BETA2**self.t)
            params[name] -= self.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def train(dataset: list[TrainSample], config: ModelConfig) -> ModelCheckpoint:
    """Adam over seeded-shuffled batches; history[k] holds the full-set
    loss and accuracy after epoch k, with entry 0 measured pre-training."""
    config.validate()
    if not dataset:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    ckpt = init_checkpoint(config, rng)
    optimizer = _Adam(lr=config.lr)

    history = [{"epoch": 0, **dataset_metrics(dataset, ckpt)}]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch):
            batch = [dataset[i] for i in order[start:start + config.batch]]
            loss, grads = loss_and_grads(batch, ckpt, rng)
            if not math.isfinite(loss):
                raise DivergenceError(f"loss became non-finite at epoch {epoch}")
            optimizer.step(ckpt.params, grads)
        entry = {"epoch": epoch, **dataset_metrics(dataset, ckpt)}
        if not math.isfinite(entry["loss"]):
            raise DivergenceError(f"loss became non-finite at epoch {epoch}")
        history.append(entry)
    ckpt.history = history
    return ckpt

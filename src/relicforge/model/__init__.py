"""LSTM action classifier: network, training loop, checkpoints, prediction."""

from relicforge.model.checkpoint import MAGIC, VERSION, load, save
from relicforge.model.network import (
    FORGET_BIAS,
    INIT_SCALE,
    ModelCheckpoint,
    ModelConfig,
    forward,
    init_checkpoint,
    layer_dims,
    log_softmax,
    loss_and_grads,
    sigmoid,
    softmax,
    tensor_shapes,
)
from relicforge.model.predict import predict, predict_many
from relicforge.model.training import (
    CLASS_INDEX,
    TrainSample,
    dataset_metrics,
    sample_from_ast,
    train,
)

__all__ = [
    "MAGIC",
    "VERSION",
    "load",
    "save",
    "FORGET_BIAS",
    "INIT_SCALE",
    "ModelCheckpoint",
    "ModelConfig",
    "forward",
    "init_checkpoint",
    "layer_dims",
    "log_softmax",
    "loss_and_grads",
    "sigmoid",
    "softmax",
    "tensor_shapes",
    "predict",
    "predict_many",
    "CLASS_INDEX",
    "TrainSample",
    "dataset_metrics",
    "sample_from_ast",
    "train",
]

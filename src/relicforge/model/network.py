"""From-scratch stacked LSTM for per-node action classification.

Standard four-gate cells over one program's input, the (steps, 18)
float64 matrix of `analysis.step_features` with one row per node in
pre-order: input, forget, and output gates are sigmoids of W.[h, x] + b,
the candidate is a tanh, c_t = f*c + i*g and h_t = o*tanh(c_t). A class
projection plus a scalar split-offset head (sigmoid) read the top
layer's state at every step. Everything is float64 numpy; the backward
pass is hand-rolled backpropagation through time, held to a
finite-difference oracle by the test suite.

The parameter table and checkpoint format v1 keep one matrix and one
bias per gate (`layer0.W_i`, ...); the kernels stack them at call time
into one (4H, H + width) matrix ordered o, i, f, c, as in cuDNN's fused
LSTM (Appleyard et al. 2016, arXiv:1604.01946), with the sigmoid gates'
rows halved so that one tanh gives all four gates, the sigmoid being
0.5 * (1 + tanh(x / 2)). Each step runs one (B, H) @ (H, 4H) product over
a batch sorted by length and right-padded; padded steps carry zero
weight and move no loss or gradient. There are two kernels:

- The traced kernel computes every step's input projection before its
  time loop and keeps what the backward pass needs. Training runs it
  CHUNK samples at a time. `forward` is this kernel at B = 1: the tests
  hold the batched kernels to it, and the traced benchmark wraps it.
- The forward-only kernel (`_stream`) runs WIDE feature matrices per
  time loop, longest first: the loss pass of `forward_metrics`, and
  prediction (`predict.predict_many`). Its time loop runs outside the
  layer loop, so each layer keeps only h and c, and each step projects
  only its own inputs and runs only the sequences still going.
  Projecting all steps up front holds a (T, B, 4H) array: at B = 64 that
  pass peaked at 7.2 MB.

At B = 4 to 8 a step's cost is mostly numpy call overhead, so wider
calls are cheaper per sample; the limit is memory. Measured on a 2-vCPU
VM with OpenBLAS 0.3.31 over the acceptance benchmark's 96 training
samples (24 to 52 steps), as tracemalloc peaks: the metrics pass 1.28 MB
at WIDE = 64, against 1.10 MB for the traced kernel without traces at
B = 8; a 64-sample training batch 0.85 / 1.45 / 2.01 / 2.57 / 3.14 MB at
CHUNK = 4 / 8 / 12 / 16 / 20, about 3 KB per sample-step. Against the
old kernels (CHUNK = 4 and an 8-sample metrics pass), the acceptance
benchmark's peak RSS rose 0.4% / 1.8% / 2.6% and its wall time fell
11% / 12% / 13% at CHUNK = 8 / 12 / 16 (medians of 3 runs). OpenBLAS
threads large products, so none spans more than a step or a sample: dW
as one GEMM over the 3,328 rows of a 64-sample batch took 5.2 ms,
against 1.4 ms as per-step products.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from relicforge.analysis import STEP_FEATURE_COUNT
from relicforge.errors import ShapeError

INIT_SCALE = 0.08
FORGET_BIAS = 1.0

# Samples per traced training kernel call and sequences per forward-only
# time loop; see the module docstring.
CHUNK = 16
WIDE = 64


@dataclass(frozen=True)
class ModelConfig:
    """The network's shape and its training schedule.

    Dropout applies only between stacked layers, to each non-final
    layer's output. At the default `layers=1` a model trains without
    dropout, though its checkpoint records `dropout: 0.3`.
    """

    layers: int = 1
    hidden: int = 32
    dropout: float = 0.3
    lr: float = 0.001
    epochs: int = 50
    batch: int = 64
    input_dim: int = STEP_FEATURE_COUNT
    classes: int = 12
    seed: int = 42

    def validate(self) -> None:
        for name in ("layers", "hidden", "epochs", "batch", "input_dim", "classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, data: dict) -> "ModelConfig":
        return cls(**{f.name: data[f.name] for f in fields(cls)})


def layer_dims(config: ModelConfig) -> list[tuple[int, int]]:
    """(input width, hidden) per layer, bottom to top."""
    widths = [config.input_dim] + [config.hidden] * (config.layers - 1)
    return [(width, config.hidden) for width in widths]


def tensor_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
    """The parameter table. Its order is the serialization and update order."""
    out: list[tuple[str, tuple[int, ...]]] = []
    for li, (width, hidden) in enumerate(layer_dims(config)):
        for kind, shape in (("W", (hidden, hidden + width)), ("b", (hidden,))):
            out += [(f"layer{li}.{kind}_{gate}", shape) for gate in "ifoc"]
    return out + [
        ("W_y", (config.classes, config.hidden)), ("b_y", (config.classes,)),
        ("W_s", (config.hidden,)), ("b_s", (1,)),
    ]


@dataclass(eq=False)
class ModelCheckpoint:
    config: ModelConfig
    params: dict[str, np.ndarray]
    history: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        self.config.validate()
        expected = tensor_shapes(self.config)
        if list(self.params) != [name for name, _ in expected]:
            raise ShapeError("parameter table does not match the config")
        for name, shape in expected:
            if self.params[name].shape != shape:
                raise ShapeError(
                    f"{name} has shape {self.params[name].shape}, expected {shape}"
                )
            if not np.all(np.isfinite(self.params[name])):
                raise ValueError(f"{name} holds non-finite values")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelCheckpoint):
            return NotImplemented
        return (
            self.config == other.config
            and self.history == other.history
            and list(self.params) == list(other.params)
            and all(np.array_equal(self.params[k], other.params[k]) for k in self.params)
        )


def init_checkpoint(config: ModelConfig, rng: np.random.Generator | None = None) -> ModelCheckpoint:
    """Small uniform weights, zero biases except the forget gate's 1.0."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.seed)
    params: dict[str, np.ndarray] = {}
    for name, shape in tensor_shapes(config):
        base = name.split(".")[-1]
        if base == "b_f":
            params[name] = np.full(shape, FORGET_BIAS)
        elif base.startswith("b"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.uniform(-INIT_SCALE, INIT_SCALE, size=shape)
    return ModelCheckpoint(config, params)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Branch-free logistic: exactly 0 and 1 in the far tails."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


@dataclass
class _LayerTrace:
    z: np.ndarray        # (T, [B,] hidden + width), [h_prev, x_t] per step
    gates: np.ndarray    # (T, [B,] 4 * hidden): o, i, f and candidate c, activated
    c: np.ndarray
    tanh_c: np.ndarray
    mask: np.ndarray | None  # inverted-dropout mask applied on the way up


@dataclass
class ForwardPass:
    logits: np.ndarray       # (T, [B,] classes)
    offsets: np.ndarray      # (T, [B]) sigmoid split positions in (0, 1)
    offset_pre: np.ndarray   # (T, [B]) pre-sigmoid activations
    top: np.ndarray          # (T, [B,] hidden) input to both heads
    layers: list[_LayerTrace]


def _stacked(params: dict, li: int, kind: str = "W") -> np.ndarray:
    """Layer li's gate weights or biases stacked in kernel order o, i, f, c."""
    return np.concatenate([params[f"layer{li}.{kind}_{gate}"] for gate in "oifc"])


def _halved(W, b):
    """A layer's kernel weights with the sigmoid gates' rows halved (exact in
    binary), so one tanh per step gives all four gates: the input part as a
    (width, 4H) matrix, the recurrent part as a contiguous (H, 4H) one, and
    the bias."""
    hidden = W.shape[0] // 4
    scale = np.repeat([0.5, 0.5, 0.5, 1.0], hidden)
    Ws = W * scale[:, None]
    return Ws[:, hidden:].T, np.ascontiguousarray(Ws[:, :hidden].T), b * scale


def _layer(x, W, b, mask):
    """One layer over right-padded (T, B, width) inputs: the (T, B, hidden)
    outputs and the trace the backward pass needs."""
    steps, size, _ = x.shape
    hidden = W.shape[0] // 4
    Wx, Wh, bias = _halved(W, b)
    gates = x @ Wx  # the input projection of every step
    gates += bias
    z = np.zeros((steps + 1, size, W.shape[1]))  # z[t] = [h_prev, x_t]
    z[:steps, :, hidden:] = x
    h = z[:, :, :hidden]
    c = np.zeros((steps + 1, size, hidden))
    tanh_c = np.empty((steps, size, hidden))
    o, i, f, g = (gates[:, :, k * hidden:(k + 1) * hidden] for k in range(4))
    for a, sig, o_t, i_t, f_t, g_t, h_prev, h_t, c_prev, c_t, tanh_t in zip(
        gates, gates[:, :, :3 * hidden], o, i, f, g, h[:-1], h[1:], c[:-1], c[1:], tanh_c
    ):
        a += h_prev @ Wh
        np.tanh(a, out=a)
        sig += 1.0
        sig *= 0.5
        np.multiply(f_t, c_prev, out=c_t)
        c_t += i_t * g_t
        np.tanh(c_t, out=tanh_t)
        np.multiply(o_t, tanh_t, out=h_t)
    out = h[1:] if mask is None else h[1:] * mask
    return out, _LayerTrace(z[:steps], gates, c[1:], tanh_c, mask)


def _layer_backward(tr: _LayerTrace, W, dh_seq):
    """Backpropagation through time for one traced layer: the gradients of
    its (T, B, width) inputs, its stacked W and its stacked b. It consumes
    the trace: each gate's gradient is dh (o) or dc (i, f, c) times a factor
    the forward pass already fixed, and the factors, then the gradients,
    overwrite the gates in place. Every factor multiplies the same terms as
    tanh_c * o * (1 - o), g * i * (1 - i), c_prev * f * (1 - f) and
    i * (1 - g * g) do, so the results match those expressions bit for bit."""
    steps, size, hidden = tr.c.shape
    gates = tr.gates.reshape(steps, size, 4, hidden)
    o, i, f, g = (gates[:, :, k] for k in range(4))
    tmp = tr.tanh_c * o  # the one temporary
    dc_dh = tr.tanh_c  # becomes o * (1 - tanh_c * tanh_c)
    np.multiply(dc_dh, dc_dh, out=dc_dh)
    np.subtract(1.0, dc_dh, out=dc_dh)
    dc_dh *= o
    np.subtract(1.0, o, out=o)
    o *= tmp
    np.multiply(g, i, out=tmp)
    np.multiply(g, g, out=g)
    np.subtract(1.0, g, out=g)
    g *= i
    np.subtract(1.0, i, out=i)
    i *= tmp
    forget = tmp  # the carry below needs f itself
    forget[...] = f
    c_prev = tr.c[:-1]
    c_prev *= forget[1:]
    np.subtract(1.0, f, out=f)
    f[1:] *= c_prev
    f[0] = 0.0  # c_prev is zero at the first step
    Wh = np.ascontiguousarray(W[:, :hidden])
    dh_next = carry = np.zeros((size, hidden))
    for dh_out, dc_factor, a, f_t in zip(dh_seq[::-1], dc_dh[::-1], gates[::-1], forget[::-1]):
        dh = dh_out + dh_next
        dc = dh * dc_factor
        dc += carry
        a[:, 0] *= dh
        a[:, 1:] *= dc[:, None]
        dh_next = a.reshape(size, 4 * hidden) @ Wh
        carry = dc * f_t
    del tmp, forget, f_t  # free the temporary before the products below
    da = tr.gates
    dW = sum(da[:, k].T @ tr.z[:, k] for k in range(size))  # one GEMM per sample
    return da @ W[:, hidden:], dW, da.sum(axis=(0, 1))


def _run(x, params, masks) -> ForwardPass:
    """The stack and both heads over a right-padded (T, B, input_dim) batch."""
    layers = []
    for li, mask in enumerate(masks):
        x, tr = _layer(x, _stacked(params, li), _stacked(params, li, "b"), mask)
        layers.append(tr)
    logits = x @ params["W_y"].T + params["b_y"]
    offset_pre = x @ params["W_s"] + params["b_s"][0]
    return ForwardPass(logits, sigmoid(offset_pre), offset_pre, x, layers)


def _matrix(features: np.ndarray, config: ModelConfig) -> np.ndarray:
    mat = np.asarray(features, dtype=float)
    if mat.ndim != 2 or mat.shape[1] != config.input_dim:
        raise ShapeError(f"expected (steps, {config.input_dim}) features, got {mat.shape}")
    return mat


def _dropout_masks(steps: int, config: ModelConfig, rng) -> list:
    """Inverted-dropout masks for each layer's output, bottom up, or None."""
    on = rng is not None and config.dropout > 0
    return [
        (rng.random((steps, config.hidden)) >= config.dropout) / (1.0 - config.dropout)
        if on and li < config.layers - 1 else None
        for li in range(config.layers)
    ]


def forward(features, ckpt: ModelCheckpoint, rng: np.random.Generator | None = None) -> ForwardPass:
    """Run the stack over one feature sequence: the kernel at batch size 1.

    `rng` turns on training mode: inverted dropout on each non-final
    layer's output. Without it the pass is deterministic, and dropout=0
    with an rng is bitwise-identical to running without one.
    """
    mat = _matrix(features, ckpt.config)
    masks = _dropout_masks(len(mat), ckpt.config, rng)
    fp = _run(mat[:, None], ckpt.params, [m if m is None else m[:, None] for m in masks])
    top, *layers = [
        {k: v if v is None else v[:, 0] for k, v in vars(part).items() if k != "layers"}
        for part in (fp, *fp.layers)
    ]
    return ForwardPass(**top, layers=[_LayerTrace(**layer) for layer in layers])


def _pad(rows: list[np.ndarray], steps: int) -> np.ndarray:
    """Per-sample arrays stacked on a batch axis, zero past each end."""
    out = np.zeros((steps, len(rows)) + rows[0].shape[1:], dtype=rows[0].dtype)
    for k, row in enumerate(rows):
        out[:len(row), k] = row
    return out


def _objective(samples, group, logits, offsets, total_w, total_ext):
    """One padded group's share of the loss and its weighted label hits,
    plus what the gradient starts from: each step's share of the class
    weight, a (T, B, classes) mask of the target classes, the scaled offset
    weights and the offset errors."""
    w, ids, targets, m = (
        _pad([getattr(samples[k], name) for k in group], len(logits))
        for name in ("weight", "class_ids", "offsets", "offset_mask")
    )
    target = ids[..., None] == np.arange(logits.shape[-1])
    share = w / total_w
    m = m / total_ext if total_ext > 0 else m
    diff = offsets - targets
    loss = float(np.sum(share * -np.sum(log_softmax(logits), axis=-1, where=target)))
    loss += float(np.sum(m * diff * diff))
    hits = float(np.sum(w * (np.argmax(logits, axis=-1) == ids)))
    return loss, hits, (share, target, m, diff)


def _totals(samples) -> tuple[float, float]:
    """The total step weight and total offset weight of `samples`."""
    return (sum(float(s.weight.sum()) for s in samples),
            sum(float(s.offset_mask.sum()) for s in samples))


def _stream(mats: list[np.ndarray], ckpt: ModelCheckpoint):
    """The stack and both heads, forward only, over one group of feature
    matrices sorted longest first: the (T, B, classes) class logits and the
    (T, B) sigmoid split offsets, which past a sequence's end read a zero
    state. Each step runs only the sequences still going, a prefix of the
    group, and keeps only h and c per layer."""
    params = ckpt.params
    lengths = [len(mat) for mat in mats]
    x = _pad([_matrix(mat, ckpt.config) for mat in mats], lengths[0])
    kernels = [_halved(_stacked(params, li), _stacked(params, li, "b"))
               for li in range(ckpt.config.layers)]
    hidden = ckpt.config.hidden
    states = [(np.zeros((len(mats), hidden)), np.zeros((len(mats), hidden))) for _ in kernels]
    heads_W = np.concatenate([params["W_y"], params["W_s"][None]]).T
    heads = np.zeros(x.shape[:2] + (ckpt.config.classes + 1,))
    going = np.count_nonzero(np.asarray(lengths)[:, None] > np.arange(lengths[0]), axis=0)
    for t, live in enumerate(going.tolist()):
        out = x[t, :live]
        for (Wx, Wh, bias), (h, c) in zip(kernels, states):
            h, c = h[:live], c[:live]
            a = out @ Wx
            a += bias
            a += h @ Wh
            np.tanh(a, out=a)
            sig = a[:, :3 * hidden]
            sig += 1.0
            sig *= 0.5
            o, i, f, g = (a[:, k * hidden:(k + 1) * hidden] for k in range(4))
            c *= f
            g *= i
            c += g
            np.tanh(c, out=h)
            h *= o
            out = h
        np.matmul(out, heads_W, out=heads[t, :live])
    return heads[..., :-1] + params["b_y"], sigmoid(heads[..., -1] + params["b_s"][0])


def forward_metrics(samples, ckpt: ModelCheckpoint) -> tuple[float, float]:
    """The loss over `samples` and their statement-level label accuracy,
    forward only and without dropout: WIDE samples per time loop, longest
    first, each group padded to its longest member."""
    total_w, total_ext = _totals(samples)
    order = sorted(range(len(samples)), key=lambda k: len(samples[k].steps), reverse=True)
    loss = hits = 0.0
    for start in range(0, len(order), WIDE):
        group = order[start:start + WIDE]
        logits, offsets = _stream([samples[k].steps for k in group], ckpt)
        part, part_hits, _ = _objective(samples, group, logits, offsets, total_w, total_ext)
        loss += part
        hits += part_hits
    return loss, hits / total_w


def _backward(fp: ForwardPass, dlogits, doffset_pre, params: dict, grads: dict) -> None:
    """Add one chunk's gradients to the per-gate table."""
    grads["W_y"] += np.einsum("tbc,tbh->ch", dlogits, fp.top)
    grads["b_y"] += dlogits.sum(axis=(0, 1))
    grads["W_s"] += np.einsum("tb,tbh->h", doffset_pre, fp.top)
    grads["b_s"][0] += doffset_pre.sum()
    dout = dlogits @ params["W_y"]
    dout += doffset_pre[..., None] * params["W_s"]
    for li in reversed(range(len(fp.layers))):
        tr = fp.layers[li]
        dh = dout if tr.mask is None else dout * tr.mask
        dout, dW, db = _layer_backward(tr, _stacked(params, li), dh)
        for gate, dW_gate, db_gate in zip("oifc", np.split(dW, 4), np.split(db, 4)):
            grads[f"layer{li}.W_{gate}"] += dW_gate
            grads[f"layer{li}.b_{gate}"] += db_gate


def loss_and_grads(batch, ckpt: ModelCheckpoint, rng: np.random.Generator | None = None):
    """Weighted cross-entropy over class steps plus squared error on split
    offsets, with exact gradients for every parameter. Both terms are means
    over the batch's total step weight (class term) and total offset weight
    (split term), so a zero-weight step, padding included, can never move a
    parameter. The batch runs CHUNK samples at a time, shortest first, each
    chunk padded to its longest member and freed before the next runs.
    Dropout masks are drawn per sample in `batch` order, as `forward` draws
    them."""
    if not batch:
        raise ValueError("empty batch")
    total_w, total_ext = _totals(batch)
    if total_w <= 0:
        raise ValueError("batch carries no step weight")
    grads = {name: np.zeros_like(p) for name, p in ckpt.params.items()}
    masks = [_dropout_masks(len(s.steps), ckpt.config, rng) for s in batch]
    order = sorted(range(len(batch)), key=lambda k: len(batch[k].steps))
    loss = 0.0
    for start in range(0, len(order), CHUNK):
        chunk = order[start:start + CHUNK]
        steps = len(batch[chunk[-1]].steps)
        layer_masks = [
            None if mask is None else _pad([masks[k][li] for k in chunk], steps)
            for li, mask in enumerate(masks[chunk[0]])
        ]
        # The bottom trace keeps its own copy of the inputs.
        fp = _run(_pad([_matrix(batch[k].steps, ckpt.config) for k in chunk], steps),
                  ckpt.params, layer_masks)
        part, _hits, (share, target, m, diff) = _objective(
            batch, chunk, fp.logits, fp.offsets, total_w, total_ext)
        loss += part
        dlogits = softmax(fp.logits)
        dlogits -= target
        dlogits *= share[..., None]
        _backward(fp, dlogits, 2.0 * m * diff * fp.offsets * (1.0 - fp.offsets),
                  ckpt.params, grads)
        del fp  # free this chunk's traces before the next chunk runs
    return loss, grads

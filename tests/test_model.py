"""Tests for the action-labeling model: forward math, gradients,
training, checkpoint serialization, and prediction."""

import math
import random
import struct

import numpy as np
import pytest

from relicforge.analysis import StepFeatures, build_cfg, statement_mask, step_features
from relicforge.cobol import SourceFile, parse_source
from relicforge.datagen import random_program
from relicforge.errors import DivergenceError, FormatError, ShapeError
from relicforge.model import (
    CLASS_INDEX,
    FORGET_BIAS,
    INIT_SCALE,
    MAGIC,
    VERSION,
    ModelCheckpoint,
    ModelConfig,
    TrainSample,
    dataset_metrics,
    forward,
    init_checkpoint,
    layer_dims,
    load,
    log_softmax,
    loss_and_grads,
    predict,
    sample_from_ast,
    save,
    sigmoid,
    softmax,
    tensor_shapes,
    train,
)
from relicforge.model.network import CHUNK
from relicforge.transpile import CLASS_ORDER, Action, ActionKind, default_actions

# Pre-order refs: 0 Program, 1-2 DataItem, 3 Paragraph, 4 Move,
# 5 PerformVarying, 6 Arith (nested), 7 If, 8 Display (nested), 9 StopRun.
LOOP_SOURCE = """
IDENTIFICATION DIVISION.
PROGRAM-ID. LOOP-SUM.
DATA DIVISION.
WORKING-STORAGE SECTION.
01 I PIC 9(4).
01 TOTAL PIC 9(6).
PROCEDURE DIVISION.
MAIN.
    MOVE 0 TO TOTAL.
    PERFORM VARYING I FROM 1 BY 1 UNTIL I > 5
        ADD I TO TOTAL
    END-PERFORM.
    IF TOTAL > 10
        DISPLAY TOTAL
    END-IF.
    STOP RUN.
"""

# Pre-order refs: 0 Program, 1-2 DataItem, 3 Paragraph, then nine flat
# statements at refs 4..12 (all top-level in MAIN).
FLAT_SOURCE = """
IDENTIFICATION DIVISION.
PROGRAM-ID. FLAT-NINE.
DATA DIVISION.
WORKING-STORAGE SECTION.
01 A PIC 9(4).
01 B PIC 9(4).
PROCEDURE DIVISION.
MAIN.
    MOVE 1 TO A.
    MOVE 2 TO B.
    ADD A TO B.
    MOVE 3 TO A.
    SUBTRACT 1 FROM B.
    MOVE 4 TO A.
    ADD B TO A.
    DISPLAY A.
    STOP RUN.
"""


def parse(src, name="prog.cbl"):
    return parse_source(SourceFile(name, src))


def zeroed(config):
    ckpt = init_checkpoint(config)
    for name in ckpt.params:
        ckpt.params[name] = np.zeros_like(ckpt.params[name])
    return ckpt


def small_config(**overrides):
    base = dict(
        layers=1, hidden=16, dropout=0.0, lr=0.02, epochs=12, batch=4,
        input_dim=18, classes=12, seed=5,
    )
    base.update(overrides)
    return ModelConfig(**base)


# ---------------------------------------------------------------- config


def test_default_config_is_valid_and_round_trips():
    config = ModelConfig()
    config.validate()
    data = config.to_json()
    assert data["hidden"] == 32 and data["classes"] == 12
    assert ModelConfig.from_json(data) == config


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("layers", 0, "layers must be positive"),
        ("hidden", 0, "hidden must be positive"),
        ("epochs", 0, "epochs must be positive"),
        ("batch", 0, "batch must be positive"),
        ("input_dim", 0, "input_dim must be positive"),
        ("classes", -1, "classes must be positive"),
        ("lr", 0.0, "lr must be positive"),
        ("dropout", 1.0, "dropout must be in"),
        ("dropout", -0.1, "dropout must be in"),
        ("seed", -1, "seed must be non-negative"),
    ],
)
def test_config_rejects_bad_values(field, value, message):
    config = ModelConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        config.validate()


def test_layer_dims_chain_input_then_hidden():
    config = ModelConfig(layers=3, hidden=5, input_dim=7)
    assert layer_dims(config) == [(7, 5), (5, 5), (5, 5)]


def test_tensor_table_order_and_shapes():
    config = ModelConfig(layers=2, hidden=3, input_dim=4, classes=6)
    table = tensor_shapes(config)
    assert table == [
        ("layer0.W_i", (3, 7)), ("layer0.W_f", (3, 7)),
        ("layer0.W_o", (3, 7)), ("layer0.W_c", (3, 7)),
        ("layer0.b_i", (3,)), ("layer0.b_f", (3,)),
        ("layer0.b_o", (3,)), ("layer0.b_c", (3,)),
        ("layer1.W_i", (3, 6)), ("layer1.W_f", (3, 6)),
        ("layer1.W_o", (3, 6)), ("layer1.W_c", (3, 6)),
        ("layer1.b_i", (3,)), ("layer1.b_f", (3,)),
        ("layer1.b_o", (3,)), ("layer1.b_c", (3,)),
        ("W_y", (6, 3)), ("b_y", (6,)), ("W_s", (3,)), ("b_s", (1,)),
    ]


def test_init_sets_forget_bias_and_small_weights():
    config = ModelConfig(layers=2, hidden=4, input_dim=5, classes=6, seed=9)
    ckpt = init_checkpoint(config)
    ckpt.validate()
    for li in range(2):
        assert np.all(ckpt.params[f"layer{li}.b_f"] == FORGET_BIAS)
        for gate in ("b_i", "b_o", "b_c"):
            assert np.all(ckpt.params[f"layer{li}.{gate}"] == 0.0)
    assert np.all(ckpt.params["b_y"] == 0.0) and np.all(ckpt.params["b_s"] == 0.0)
    for name in ("layer0.W_i", "layer1.W_c", "W_y", "W_s"):
        weights = ckpt.params[name]
        assert np.all(np.abs(weights) <= INIT_SCALE)
        assert np.any(weights != 0.0)
    assert ckpt == init_checkpoint(config)
    other = init_checkpoint(ModelConfig(layers=2, hidden=4, input_dim=5, classes=6, seed=10))
    assert not np.array_equal(other.params["layer0.W_i"], ckpt.params["layer0.W_i"])


def test_checkpoint_validate_rejects_drift():
    config = ModelConfig(layers=1, hidden=3, input_dim=4, classes=5)
    ckpt = init_checkpoint(config)

    bad_shape = init_checkpoint(config)
    bad_shape.params["b_y"] = np.zeros((1, 5))
    with pytest.raises(ShapeError, match="b_y"):
        bad_shape.validate()

    missing = init_checkpoint(config)
    del missing.params["W_s"]
    with pytest.raises(ShapeError, match="parameter table"):
        missing.validate()

    reordered = init_checkpoint(config)
    reordered.params["layer0.W_i"] = reordered.params.pop("layer0.W_i")
    with pytest.raises(ShapeError, match="parameter table"):
        reordered.validate()

    ckpt.params["W_y"][0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ckpt.validate()


def test_checkpoint_equality_covers_history_and_params():
    config = ModelConfig(layers=1, hidden=3, input_dim=4, classes=5)
    a = init_checkpoint(config)
    b = init_checkpoint(config)
    assert a == b
    b.history = [{"epoch": 0, "loss": 1.0, "accuracy": 0.5}]
    assert a != b
    c = init_checkpoint(config)
    c.params["W_s"][0] += 1e-12
    assert a != c


# ----------------------------------------------------------- activations


def test_sigmoid_is_stable_at_extremes():
    out = sigmoid(np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0]))
    assert np.all(np.isfinite(out))
    assert out[0] == 0.0 and out[4] == 1.0
    assert out[2] == 0.5
    assert math.isclose(out[1], 1.0 / (1.0 + math.exp(10.0)), rel_tol=1e-12)


def test_softmax_rows_normalize_even_for_huge_logits():
    rows = softmax(np.array([[1e4, 0.0, -1e4], [3.0, 3.0, 3.0]]))
    assert np.all(np.isfinite(rows))
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)
    assert rows[0, 0] == pytest.approx(1.0)
    assert np.allclose(rows[1], 1.0 / 3.0, atol=1e-12)


def test_log_softmax_matches_softmax():
    logits = np.array([[2.0, -1.0, 0.5], [1e4, 0.0, -1e4]])
    logp = log_softmax(logits)
    assert np.all(np.isfinite(logp[0]))
    assert np.allclose(np.exp(logp), softmax(logits), atol=1e-12)


# ----------------------------------------------------------------- forward


def test_forward_matches_hand_computed_recurrence():
    # One layer, hidden 2, input 3; gates computed by hand from z = [h, x].
    config = ModelConfig(layers=1, hidden=2, dropout=0.0, input_dim=3, classes=12)
    ckpt = init_checkpoint(config)
    ckpt.params["layer0.W_i"] = np.array([[0.1, -0.2, 0.3, 0.0, -0.1], [0.2, 0.1, -0.3, 0.4, 0.0]])
    ckpt.params["layer0.W_f"] = np.array([[-0.1, 0.2, 0.1, -0.2, 0.3], [0.0, -0.3, 0.2, 0.1, -0.1]])
    ckpt.params["layer0.W_o"] = np.array([[0.3, 0.0, -0.1, 0.2, 0.1], [-0.2, 0.1, 0.0, -0.3, 0.2]])
    ckpt.params["layer0.W_c"] = np.array([[0.2, -0.1, 0.0, 0.3, -0.2], [0.1, 0.2, -0.2, 0.0, 0.3]])
    ckpt.params["layer0.b_i"] = np.array([0.01, -0.02])
    ckpt.params["layer0.b_f"] = np.array([1.0, 1.0])
    ckpt.params["layer0.b_o"] = np.array([0.03, 0.0])
    ckpt.params["layer0.b_c"] = np.array([-0.01, 0.02])
    ckpt.params["W_y"] = np.zeros((12, 2))
    ckpt.params["b_y"] = np.zeros(12)
    ckpt.params["W_s"] = np.array([0.5, -0.4])
    ckpt.params["b_s"] = np.array([0.1])

    features = np.array([[0.5, -1.0, 0.25], [-0.75, 0.3, 1.1]])
    fp = forward(features, ckpt)

    expected_h = np.array(
        [[-0.08223838635586415, -0.0010595293764950014],
         [-0.11445066829802866, 0.13710645398766336]]
    )
    expected_c = np.array(
        [[-0.1842403279932212, -0.0018061690728719381],
         [-0.20643913339117542, 0.26133905747317854]]
    )
    expected_pre = np.array([0.05930461857266593, -0.012067915744079671])
    expected_offsets = np.array([0.5148218108253912, 0.4969830576781544])

    assert np.allclose(fp.top, expected_h, atol=1e-12)
    assert np.allclose(fp.layers[0].c, expected_c, atol=1e-12)
    assert np.allclose(fp.offset_pre, expected_pre, atol=1e-12)
    assert np.allclose(fp.offsets, expected_offsets, atol=1e-12)
    assert np.array_equal(fp.logits, np.zeros((2, 12)))


def test_zero_parameters_yield_uniform_distribution():
    config = small_config()
    ckpt = zeroed(config)
    ast = parse(LOOP_SOURCE)
    fp = forward(step_features(ast, build_cfg(ast)), ckpt)
    assert np.array_equal(fp.logits, np.zeros((10, 12)))
    assert np.allclose(softmax(fp.logits), 1.0 / 12.0, atol=1e-12)
    assert np.allclose(fp.offsets, 0.5, atol=1e-12)


def test_forward_is_deterministic_in_eval_mode():
    config = small_config()
    ckpt = init_checkpoint(config)
    ast = parse(LOOP_SOURCE)
    feats = step_features(ast, build_cfg(ast))
    first = forward(feats, ckpt)
    second = forward(feats, ckpt)
    assert np.array_equal(first.logits, second.logits)
    assert np.array_equal(first.offsets, second.offsets)


def test_forward_accepts_feature_object_or_matrix():
    config = small_config()
    ckpt = init_checkpoint(config)
    ast = parse(LOOP_SOURCE)
    feats = step_features(ast, build_cfg(ast))
    assert np.array_equal(forward(feats, ckpt).logits, forward(feats.matrix, ckpt).logits)


def test_forward_rejects_wrong_shapes():
    ckpt = init_checkpoint(small_config())
    with pytest.raises(ShapeError):
        forward(np.zeros((4, 5)), ckpt)
    with pytest.raises(ShapeError):
        forward(np.zeros(18), ckpt)


def test_dropout_perturbs_training_mode_between_layers_only():
    config = ModelConfig(
        layers=2, hidden=8, dropout=0.5, lr=0.01, epochs=1, batch=1,
        input_dim=18, classes=12, seed=3,
    )
    ckpt = init_checkpoint(config)
    ast = parse(LOOP_SOURCE)
    feats = step_features(ast, build_cfg(ast))

    eval_fp = forward(feats, ckpt)
    assert np.array_equal(eval_fp.logits, forward(feats, ckpt).logits)

    train_fp = forward(feats, ckpt, np.random.default_rng(0))
    assert not np.array_equal(train_fp.logits, eval_fp.logits)
    replay = forward(feats, ckpt, np.random.default_rng(0))
    assert np.array_equal(train_fp.logits, replay.logits)
    other = forward(feats, ckpt, np.random.default_rng(1))
    assert not np.array_equal(train_fp.logits, other.logits)

    # The probability only matters between stacked layers.
    single = init_checkpoint(ModelConfig(
        layers=1, hidden=8, dropout=0.5, lr=0.01, epochs=1, batch=1,
        input_dim=18, classes=12, seed=3,
    ))
    lone_train = forward(feats, single, np.random.default_rng(0))
    assert np.array_equal(lone_train.logits, forward(feats, single).logits)

    # Disabled dropout makes training mode identical to eval mode.
    off = init_checkpoint(ModelConfig(
        layers=2, hidden=8, dropout=0.0, lr=0.01, epochs=1, batch=1,
        input_dim=18, classes=12, seed=3,
    ))
    assert np.array_equal(
        forward(feats, off, np.random.default_rng(0)).logits,
        forward(feats, off).logits,
    )


# -------------------------------------------------------------- loss/grads


def test_uniform_loss_is_log_class_count():
    ckpt = zeroed(small_config())
    ast = parse(LOOP_SOURCE)
    sample = sample_from_ast(ast)
    loss, _ = loss_and_grads([sample], ckpt)
    assert loss == pytest.approx(math.log(12), abs=1e-9)
    metrics = dataset_metrics([sample], ckpt)
    assert metrics["loss"] == pytest.approx(math.log(12), abs=1e-9)
    # Uniform rows argmax to class 0; only the STOP RUN default matches.
    assert metrics["accuracy"] == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_offset_term_adds_squared_error():
    ckpt = zeroed(small_config())
    ast = parse(FLAT_SOURCE)
    sample = sample_from_ast(ast, {4: Action(ActionKind.EXTRACT_METHOD, 9)})
    loss, _ = loss_and_grads([sample], ckpt)
    # Zero parameters put every offset at 0.5; the lone target is 9/12.
    assert loss == pytest.approx(math.log(12) + (0.5 - 0.75) ** 2, abs=1e-9)


def test_zero_weight_steps_cannot_move_loss_or_grads():
    ckpt = init_checkpoint(small_config())
    ast = parse(LOOP_SOURCE)
    sample = sample_from_ast(ast)
    assert sample.weight[0] == 0.0
    altered_ids = sample.class_ids.copy()
    altered_ids[0] = 5
    altered = TrainSample(
        sample.steps, list(sample.actions), sample.weight,
        altered_ids, sample.offsets, sample.offset_mask,
    )
    base_loss, base_grads = loss_and_grads([sample], ckpt)
    alt_loss, alt_grads = loss_and_grads([altered], ckpt)
    assert base_loss == alt_loss
    for name in base_grads:
        assert np.array_equal(base_grads[name], alt_grads[name])


def test_degenerate_batches_are_rejected():
    ckpt = init_checkpoint(small_config())
    with pytest.raises(ValueError, match="empty"):
        loss_and_grads([], ckpt)

    feats = StepFeatures(np.zeros((3, 12)), np.zeros((3, 6)))
    actions = [Action(ActionKind.PASS_THROUGH)] * 3
    with pytest.raises(ValueError, match="no weighted steps"):
        TrainSample(feats, actions, np.zeros(3), np.zeros(3, dtype=int),
                    np.zeros(3), np.zeros(3))
    with pytest.raises(ShapeError):
        TrainSample(feats, actions, np.ones(3), np.zeros(2, dtype=int),
                    np.zeros(3), np.zeros(3))


def test_loss_and_grads_are_deterministic():
    ckpt = init_checkpoint(small_config())
    sample = sample_from_ast(parse(LOOP_SOURCE))
    loss_a, grads_a = loss_and_grads([sample], ckpt)
    loss_b, grads_b = loss_and_grads([sample], ckpt)
    assert loss_a == loss_b
    assert all(np.array_equal(grads_a[k], grads_b[k]) for k in grads_a)


def test_gradients_match_finite_differences():
    # Parameters drawn at O(1) scale so central differences resolve every
    # coordinate; tiny-init gradients sit near double-precision noise.
    config = ModelConfig(
        layers=2, hidden=4, dropout=0.0, lr=0.01, epochs=1, batch=2,
        classes=5, input_dim=6, seed=3,
    )
    ckpt = init_checkpoint(config)
    prng = np.random.default_rng(9)
    for name in ckpt.params:
        ckpt.params[name] = prng.uniform(-0.6, 0.6, size=ckpt.params[name].shape)

    rng = np.random.default_rng(0)
    samples = []
    for k in range(2):
        steps = 6 + k
        feats = StepFeatures(rng.normal(size=(steps, 4)), rng.normal(size=(steps, 2)))
        actions = [Action(CLASS_ORDER[(i + k) % 5]) for i in range(steps)]
        ids = np.array([(i + k) % 5 for i in range(steps)])
        weight = np.ones(steps)
        weight[1] = 0.0
        offsets = np.zeros(steps)
        offset_mask = np.zeros(steps)
        offsets[2] = 0.4
        offset_mask[2] = 1.0
        samples.append(TrainSample(feats, actions, weight, ids, offsets, offset_mask))

    loss, grads = loss_and_grads(samples, ckpt)
    assert loss == pytest.approx(1.6648689310657625, abs=1e-9)

    eps = 1e-5
    worst = 0.0
    for name in ckpt.params:
        flat = ckpt.params[name].reshape(-1)
        analytic = grads[name].reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + eps
            plus, _ = loss_and_grads(samples, ckpt)
            flat[k] = original - eps
            minus, _ = loss_and_grads(samples, ckpt)
            flat[k] = original
            fd = (plus - minus) / (2 * eps)
            rel = abs(fd - analytic[k]) / max(abs(fd) + abs(analytic[k]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4


def synthetic_samples(lengths, classes, input_dim, seed=0):
    """Random features and labels; every third sample carries split targets."""
    rng = np.random.default_rng(seed)
    samples = []
    for k, steps in enumerate(lengths):
        feats = StepFeatures(
            rng.normal(size=(steps, input_dim - 2)), rng.normal(size=(steps, 2))
        )
        ids = rng.integers(0, classes, size=steps)
        weight = np.ones(steps)
        weight[0] = 0.0
        offsets = np.zeros(steps)
        offset_mask = np.zeros(steps)
        if k % 3 == 0:
            offsets[steps - 1] = rng.uniform()
            offset_mask[steps - 1] = 1.0
        actions = [Action(CLASS_ORDER[i]) for i in ids]
        samples.append(TrainSample(feats, actions, weight, ids, offsets, offset_mask))
    return samples


def scrambled(config, seed=9):
    """A checkpoint with O(1) parameters, so every gradient is well above noise."""
    ckpt = init_checkpoint(config)
    prng = np.random.default_rng(seed)
    for name in ckpt.params:
        ckpt.params[name] = prng.uniform(-0.6, 0.6, size=ckpt.params[name].shape)
    return ckpt


def test_batching_cannot_leak_between_samples():
    config = ModelConfig(
        layers=2, hidden=5, dropout=0.0, lr=0.01, epochs=1, batch=16,
        classes=6, input_dim=7, seed=1,
    )
    ckpt = scrambled(config)
    # More than two chunks, lengths mixed, the longest neither first nor last.
    lengths = ([5, 9, 3, 14, 7, 4, 10, 6, 8, 11, 2, 13, 6] * CHUNK)[:2 * CHUNK + 1]
    assert lengths.index(max(lengths)) not in (0, len(lengths) - 1)
    batch = synthetic_samples(lengths, config.classes, config.input_dim)
    loss, grads = loss_and_grads(batch, ckpt)

    total_w = sum(float(s.weight.sum()) for s in batch)
    total_ext = sum(float(s.offset_mask.sum()) for s in batch)
    expected_loss = 0.0
    expected = {name: np.zeros_like(p) for name, p in ckpt.params.items()}
    for s in batch:
        # Alone, a sample's class term is a mean over its own weight and its
        # split term over its own offset weight; rescale both to the batch's.
        bare = TrainSample(s.steps, s.actions, s.weight, s.class_ids, s.offsets,
                           np.zeros_like(s.offset_mask))
        ce, ce_grads = loss_and_grads([bare], ckpt)
        both, both_grads = loss_and_grads([s], ckpt)
        w_scale = float(s.weight.sum()) / total_w
        e_scale = float(s.offset_mask.sum()) / total_ext
        expected_loss += w_scale * ce + e_scale * (both - ce)
        for name in expected:
            expected[name] += (
                w_scale * ce_grads[name] + e_scale * (both_grads[name] - ce_grads[name])
            )
    assert abs(loss - expected_loss) <= 1e-12
    for name in grads:
        assert np.max(np.abs(grads[name] - expected[name])) <= 1e-12, name

    order = np.random.default_rng(3).permutation(len(batch))
    assert list(order) != list(range(len(batch)))
    p_loss, p_grads = loss_and_grads([batch[k] for k in order], ckpt)
    assert abs(p_loss - loss) <= 1e-12
    for name in grads:
        assert np.max(np.abs(p_grads[name] - grads[name])) <= 1e-12, name


def test_gradients_match_finite_differences_with_dropout():
    # Every evaluation gets a fresh generator with the same seed, so each
    # draws the same masks and the loss is a smooth function of the weights.
    config = ModelConfig(
        layers=2, hidden=4, dropout=0.3, lr=0.01, epochs=1, batch=3,
        classes=5, input_dim=6, seed=3,
    )
    ckpt = scrambled(config)
    samples = synthetic_samples([6, 9, 4], config.classes, config.input_dim, seed=2)

    def evaluate():
        return loss_and_grads(samples, ckpt, np.random.default_rng(4))

    loss, grads = evaluate()
    assert loss == evaluate()[0]
    assert loss != loss_and_grads(samples, ckpt)[0]  # the masks are in force

    eps = 1e-5
    worst = 0.0
    for name in ckpt.params:
        flat = ckpt.params[name].reshape(-1)
        analytic = grads[name].reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + eps
            plus, _ = evaluate()
            flat[k] = original - eps
            minus, _ = evaluate()
            flat[k] = original
            fd = (plus - minus) / (2 * eps)
            rel = abs(fd - analytic[k]) / max(abs(fd) + abs(analytic[k]), 1e-8)
            worst = max(worst, rel)
    assert worst < 1e-4


# ---------------------------------------------------------------- training


def random_dataset(count, base_seed=100):
    return [
        sample_from_ast(random_program(random.Random(base_seed + i)))
        for i in range(count)
    ]


def test_training_learns_and_logs_history():
    dataset = random_dataset(12)
    config = small_config()
    ckpt = train(dataset, config)
    ckpt.validate()

    assert [entry["epoch"] for entry in ckpt.history] == list(range(13))
    for entry in ckpt.history:
        assert math.isfinite(entry["loss"])
        assert 0.0 <= entry["accuracy"] <= 1.0
    # Tiny initial weights start the cross entropy at the uniform value.
    assert ckpt.history[0]["loss"] == pytest.approx(math.log(12), rel=0.10)
    assert ckpt.history[-1]["loss"] < 0.9 * ckpt.history[0]["loss"]
    assert ckpt.history[-1]["accuracy"] > ckpt.history[0]["accuracy"]
    assert ckpt.history[-1] == dataset_metrics(dataset, ckpt) | {"epoch": 12}


def test_training_is_reproducible():
    dataset = random_dataset(6)
    config = small_config(epochs=4)
    first = train(dataset, config)
    second = train(dataset, config)
    assert first == second


def test_training_with_dropout_between_layers_is_reproducible():
    dataset = random_dataset(6)
    config = small_config(layers=2, dropout=0.3, epochs=3, batch=2)
    first = train(dataset, config)
    assert first == train(dataset, config)
    assert first != train(dataset, small_config(layers=2, dropout=0.0, epochs=3, batch=2))


def test_batched_metrics_match_per_sample_forward():
    dataset = random_dataset(12)
    ckpt = train(dataset, small_config(layers=2, epochs=6))
    total_w = sum(float(s.weight.sum()) for s in dataset)
    total_ext = sum(float(s.offset_mask.sum()) for s in dataset)
    loss = 0.0
    hits = 0.0
    for s in dataset:
        fp = forward(s.steps, ckpt)
        steps = np.arange(len(s.steps))
        loss += float(np.sum(s.weight / total_w * -log_softmax(fp.logits)[steps, s.class_ids]))
        if total_ext > 0:
            diff = fp.offsets - s.offsets
            loss += float(np.sum(s.offset_mask / total_ext * diff * diff))
        hits += float(np.sum(s.weight * (np.argmax(fp.logits, axis=1) == s.class_ids)))
    metrics = dataset_metrics(dataset, ckpt)
    assert abs(metrics["loss"] - loss) <= 1e-12
    assert metrics["accuracy"] == hits / total_w
    assert 0.0 < metrics["accuracy"] < 1.0


def test_training_rejects_empty_dataset():
    with pytest.raises(ValueError, match="empty dataset"):
        train([], small_config())


def test_divergence_is_reported_with_the_epoch():
    sample = sample_from_ast(parse(LOOP_SOURCE))
    sample.steps.node_feats[0, 0] = np.nan
    with pytest.raises(DivergenceError, match="epoch 1"):
        train([sample], small_config(epochs=3))


# ---------------------------------------------------------------- sampling


def test_sample_defaults_follow_rules():
    ast = parse(LOOP_SOURCE)
    sample = sample_from_ast(ast)
    assert len(sample.class_ids) == 10
    assert np.array_equal(sample.weight, statement_mask(ast))
    expected = {ref: action.kind for ref, action in default_actions(ast)}
    for ref in range(10):
        kind = expected.get(ref, ActionKind.PASS_THROUGH)
        assert sample.class_ids[ref] == CLASS_INDEX[kind]
        assert sample.actions[ref].kind is kind
    assert np.all(sample.offsets == 0.0)
    assert np.all(sample.offset_mask == 0.0)


def test_oracle_labels_override_defaults_on_statements_only():
    ast = parse(LOOP_SOURCE)
    labels = {
        5: Action(ActionKind.LOOP_TO_WHILE),
        0: Action(ActionKind.EVALUATE_TO_SWITCH),  # Program step: no weight
        99: Action(ActionKind.IF_CHAIN_TO_SWITCH),  # out of range
        -1: Action(ActionKind.IF_CHAIN_TO_SWITCH),
    }
    sample = sample_from_ast(ast, labels)
    assert sample.class_ids[5] == CLASS_INDEX[ActionKind.LOOP_TO_WHILE]
    assert sample.class_ids[0] == CLASS_INDEX[ActionKind.PASS_THROUGH]
    assert sample.class_ids[4] == CLASS_INDEX[ActionKind.MOVE_TO_ASSIGN]


def test_split_labels_set_offset_targets():
    ast = parse(FLAT_SOURCE)
    targeted = sample_from_ast(ast, {4: Action(ActionKind.EXTRACT_METHOD, 9)})
    assert targeted.offsets[4] == pytest.approx(9 / 12)
    assert targeted.offset_mask[4] == 1.0
    assert np.count_nonzero(targeted.offset_mask) == 1

    # Without a node index the split trains toward its own position.
    anchored = sample_from_ast(ast, {4: Action(ActionKind.EXTRACT_METHOD)})
    assert anchored.offsets[4] == pytest.approx(4 / 12)


# -------------------------------------------------------------- checkpoint


def io_config():
    return ModelConfig(
        layers=1, hidden=2, dropout=0.0, lr=0.5, epochs=1, batch=1,
        input_dim=3, classes=3, seed=1,
    )


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    ckpt = init_checkpoint(io_config())
    ckpt.history = [
        {"epoch": 0, "loss": 2.5, "accuracy": 0.25},
        {"epoch": 1, "loss": 1.5, "accuracy": 0.5},
    ]
    path = tmp_path / "nested" / "dirs" / "model.bin"
    save(ckpt, path)

    raw = path.read_bytes()
    assert raw.startswith(MAGIC + struct.pack("<I", VERSION))

    loaded = load(path)
    assert loaded == ckpt
    assert loaded.params["W_y"].dtype == np.float64
    assert loaded.history == ckpt.history


def corrupt_bytes(raw, mode):
    if mode == "magic":
        return b"NOPE" + raw[4:]
    if mode == "version":
        return raw[:4] + struct.pack("<I", 999) + raw[8:]
    if mode == "truncated":
        return raw[:-1]
    if mode == "trailing":
        return raw + b"\x00"
    if mode == "config":
        return raw.replace(b'{"layers"', b'["layers"', 1)
    if mode == "table":
        patched = raw.replace(b'"hidden": 2', b'"hidden": 3', 1)
        if patched == raw:
            patched = raw.replace(b'"hidden":2', b'"hidden":3', 1)
        assert patched != raw
        return patched
    if mode == "history":
        return raw[:-2] + b"[}"
    if mode == "blob":
        half = struct.pack("<d", 0.5)
        assert half in raw
        return raw.replace(half, struct.pack("<d", float("inf")), 1)
    raise AssertionError(mode)


@pytest.mark.parametrize(
    "mode,message",
    [
        ("magic", "not a checkpoint file"),
        ("version", "unsupported checkpoint version 999"),
        ("truncated", "truncated checkpoint"),
        ("trailing", "trailing bytes"),
        ("config", "corrupted config"),
        ("table", "corrupted shape table"),
        ("history", "corrupted history"),
        ("blob", "non-finite"),
    ],
)
def test_load_rejects_corrupted_files(tmp_path, mode, message):
    ckpt = init_checkpoint(io_config())
    for name in ckpt.params:
        ckpt.params[name] = np.full_like(ckpt.params[name], 0.5)
    ckpt.history = []
    path = tmp_path / "model.bin"
    save(ckpt, path)

    broken = tmp_path / "broken.bin"
    broken.write_bytes(corrupt_bytes(path.read_bytes(), mode))
    with pytest.raises(FormatError, match=message):
        load(broken)


def test_save_refuses_invalid_checkpoints(tmp_path):
    ckpt = init_checkpoint(io_config())
    ckpt.params["W_y"][0, 0] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        save(ckpt, tmp_path / "model.bin")
    assert not (tmp_path / "model.bin").exists()


# ---------------------------------------------------------------- predict


def test_tau_at_one_keeps_pure_rule_defaults():
    ast = parse(LOOP_SOURCE)
    ckpt = init_checkpoint(small_config())
    predictions = predict(ast, ckpt, tau=1.0)
    defaults = default_actions(ast)
    assert [(ref, act.kind, act.node_index) for ref, act, _ in predictions] == [
        (ref, act.kind, act.node_index) for ref, act in defaults
    ]


def test_untrained_model_falls_back_on_low_confidence():
    ast = parse(LOOP_SOURCE)
    ckpt = init_checkpoint(small_config())
    predictions = predict(ast, ckpt, tau=0.5)
    defaults = dict(default_actions(ast))
    for ref, action, confidence in predictions:
        assert confidence < 0.2  # near-uniform rows sit around 1/12
        assert action.kind is defaults[ref].kind


def test_overfit_model_recalls_oracle_labels():
    ast = parse(LOOP_SOURCE)
    labels = {
        5: Action(ActionKind.LOOP_TO_WHILE),
        6: Action(ActionKind.EXTRACT_METHOD, 6),  # nested: must fall back
    }
    config = small_config(epochs=250, batch=1, seed=7)
    ckpt = train([sample_from_ast(ast, labels)], config)
    assert ckpt.history[-1]["accuracy"] >= 0.99

    by_ref = {ref: (action, conf) for ref, action, conf in predict(ast, ckpt, tau=0.6)}
    assert by_ref[5][0].kind is ActionKind.LOOP_TO_WHILE
    assert by_ref[5][1] > 0.6
    # The model votes for a split at ref 6 but a nested statement cannot
    # carry one, so the rule default survives.
    assert by_ref[6][0].kind is ActionKind.COMPUTE_TO_EXPR
    assert by_ref[6][1] > 0.6
    assert by_ref[4][0].kind is ActionKind.MOVE_TO_ASSIGN
    assert by_ref[9][0].kind is ActionKind.PASS_THROUGH


def test_split_predictions_snap_to_a_real_statement():
    ast = parse(FLAT_SOURCE)
    config = small_config(epochs=300, batch=1, seed=11)
    ckpt = train([sample_from_ast(ast, {4: Action(ActionKind.EXTRACT_METHOD, 9)})], config)

    by_ref = {ref: (action, conf) for ref, action, conf in predict(ast, ckpt, tau=0.6)}
    action, confidence = by_ref[4]
    assert action.kind is ActionKind.EXTRACT_METHOD
    assert confidence > 0.6
    assert action.node_index == 9
    for ref in range(5, 13):
        assert by_ref[ref][0].kind is not ActionKind.EXTRACT_METHOD

import gc
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn import tensor as T
from frameattn import training
from frameattn.data import SynthConfig, WindowSpec, generate_synthetic, prepare_splits
from frameattn.errors import CheckpointError, NumericError
from frameattn.losses import LossConfig, combined_loss
from frameattn.model import AttentionModel, ModelConfig
from frameattn.tensor import Tensor
from frameattn.training import (
    CHECKPOINT_MAGIC,
    AdamW,
    PlateauScheduler,
    TrainConfig,
    checkpoint_load,
    checkpoint_save,
    evaluate,
    train,
)


def small_model(seed=0, **kw):
    base = dict(
        window_len=16, channels=3, classes=4, d_model=8, heads=2, experts=2,
        dropout=0.0, conv_blocks=1, kernel=3,
    )
    base.update(kw)
    return AttentionModel(ModelConfig(**base), seed=seed)


def small_splits(seed=0, sessions=4, session_len=1200, context=True, **kw):
    cfg = SynthConfig(sessions=sessions, session_len=session_len, context=context, seed=seed, **kw)
    return prepare_splits(generate_synthetic(cfg), WindowSpec(window=16, step=8))


# AdamW


def test_adamw_zero_grad_zero_decay_leaves_params():
    m = small_model()
    before = m.state_arrays()
    opt = AdamW(m.params, m.decay_keys, lr=0.1, weight_decay=0.0)
    opt.zero_grad()
    opt.step()
    for name, arr in m.state_arrays().items():
        np.testing.assert_array_equal(arr, before[name])


def test_adamw_pure_decay_scales_matrices():
    m = small_model()
    before = m.state_arrays()
    opt = AdamW(m.params, m.decay_keys, lr=0.1, weight_decay=0.01)
    opt.zero_grad()
    opt.step()
    after = m.state_arrays()
    for name in m.params:
        if name in m.decay_keys:
            np.testing.assert_allclose(after[name], before[name] * (1.0 - 0.001), atol=1e-15)
        else:
            np.testing.assert_array_equal(after[name], before[name])


def test_adamw_first_step_bias_correction():
    # unit gradient: m_hat = v_hat = 1, so the step is -lr / (1 + eps)
    p = {"w": Tensor(np.zeros((2, 2)), requires_grad=True)}
    opt = AdamW(p, set(), lr=1e-3, weight_decay=0.0)
    p["w"].grad[...] = 1.0
    opt.step()
    expected = -1e-3 / (1.0 + 1e-8)
    np.testing.assert_allclose(p["w"].data, expected, rtol=1e-12)


def test_adamw_with_zero_decay_matches_plain_adam_oracle():
    rng = np.random.default_rng(0)
    shape = (3, 4)
    theta = rng.normal(size=shape)
    p = {"w": Tensor(theta.copy(), requires_grad=True)}
    opt = AdamW(p, {"w"}, lr=1e-2, weight_decay=0.0)

    # independent plain-Adam implementation
    m = np.zeros(shape)
    v = np.zeros(shape)
    ref = theta.copy()
    for t in range(1, 8):
        g = rng.normal(size=shape)
        p["w"].grad[...] = g
        opt.step()
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        m_hat = m / (1 - 0.9**t)
        v_hat = v / (1 - 0.999**t)
        ref -= 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        p["w"].zero_grad()
    np.testing.assert_allclose(p["w"].data, ref, atol=1e-12)


# gradient clipping


def params_with_grads(seed, scale):
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 1, 3))):
        params[name] = Tensor(np.zeros(shape), requires_grad=True)
        params[name].grad[...] = scale * rng.normal(size=shape)
    return params


def global_grad_norm(params):
    return float(np.sqrt(sum((p.grad**2).sum() for p in params.values())))


def test_clip_gradients_scales_over_norm_to_clip_norm():
    params = params_with_grads(0, 10.0)
    before = {name: p.grad.copy() for name, p in params.items()}
    assert global_grad_norm(params) > 2.0
    training.clip_gradients(params, 2.0)
    assert abs(global_grad_norm(params) - 2.0) < 1e-12
    # one common factor for every entry of every parameter
    factor = params["a"].grad[0, 0] / before["a"][0, 0]
    assert 0.0 < factor < 1.0
    for name, p in params.items():
        np.testing.assert_allclose(p.grad, factor * before[name], rtol=1e-12)


# a clip norm of 0 disables clipping
@pytest.mark.parametrize("relative_norm", [1.5, 0.0], ids=["under-norm", "disabled"])
def test_clip_gradients_leaves_gradients_bit_identical(relative_norm):
    params = params_with_grads(1, 10.0)
    before = {name: p.grad.tobytes() for name, p in params.items()}
    training.clip_gradients(params, relative_norm * global_grad_norm(params))
    assert {name: p.grad.tobytes() for name, p in params.items()} == before


# plateau scheduler


def test_plateau_halves_after_patience_epochs():
    sched = PlateauScheduler(lr=1e-3, patience=10, factor=0.5, min_lr=1e-6)
    sched.step(1.0)
    for _ in range(9):
        assert sched.step(1.0) == 1e-3
    assert sched.step(1.0) == 5e-4


def test_plateau_improvement_resets_counter():
    sched = PlateauScheduler(lr=1e-3, patience=10, factor=0.5, min_lr=1e-6)
    sched.step(1.0)
    for _ in range(8):
        sched.step(1.0)
    sched.step(0.5)  # improvement at epoch 9 of 10
    for _ in range(9):
        assert sched.step(0.5) == 1e-3
    assert sched.step(0.5) == 5e-4


def test_plateau_respects_min_lr():
    sched = PlateauScheduler(lr=2e-6, patience=1, factor=0.5, min_lr=1e-6)
    sched.step(1.0)
    assert sched.step(1.0) == 1e-6
    assert sched.step(1.0) == 1e-6


# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = small_model(seed=3)
    path = tmp_path / "ck.bin"
    checkpoint_save(m.state_arrays(), path)
    loaded = checkpoint_load(path)
    frames = np.random.default_rng(0).normal(size=(3, 16, 3))
    before = m.forward(frames).logits.data.copy()
    m2 = small_model(seed=99)  # different init, then overwritten
    m2.load_state(loaded)
    after = m2.forward(frames).logits.data
    np.testing.assert_array_equal(before, after)


def test_checkpoint_failed_write_keeps_previous_file(tmp_path):
    m = small_model(seed=3)
    path = tmp_path / "checkpoint.bin"
    checkpoint_save(m.state_arrays(), path)
    before = path.read_bytes()
    broken = {"cls.w": np.ones((8, 4)), "cls.b": np.array(["not a number"])}
    with pytest.raises(ValueError):
        checkpoint_save(broken, path)
    assert path.read_bytes() == before
    for name, arr in checkpoint_load(path).items():
        assert arr.tobytes() == m.params[name].data.tobytes()
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]


def test_checkpoint_truncated_payload_errors(tmp_path):
    m = small_model()
    path = tmp_path / "ck.bin"
    checkpoint_save(m.state_arrays(), path)
    raw = path.read_bytes()
    (tmp_path / "bad.bin").write_bytes(raw[:-5])
    with pytest.raises(CheckpointError, match="truncated"):
        checkpoint_load(tmp_path / "bad.bin")


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"FRAMEATTN v9\n")
    with pytest.raises(CheckpointError, match="version"):
        checkpoint_load(path)


@pytest.mark.parametrize(
    "records, message",
    [
        (b"w 1 -1\n", "negative extents"),
        (b"w 2 -2 -4\n" + bytes(64), "negative extents"),
        (b"w 2 4294967296 4294967296\n", "truncated"),
        (b"w 1 1\n" + bytes(8) + b"w 1 1\n" + bytes(8), "duplicate record 'w'"),
    ],
    ids=["negative", "negative-pair", "int64-overflow", "duplicate"],
)
def test_checkpoint_malformed_record_errors(tmp_path, records, message):
    path = tmp_path / "bad.bin"
    path.write_bytes((CHECKPOINT_MAGIC + "\n").encode() + records)
    with pytest.raises(CheckpointError, match=message):
        checkpoint_load(path)


def _small_checkpoint_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.bin"
        arrays = {"w": np.arange(6.0).reshape(2, 3), "b": np.array(1.5), "v": np.ones(2)}
        checkpoint_save(arrays, path)
        return path.read_bytes()


SMALL_CHECKPOINT = _small_checkpoint_bytes()


@settings(max_examples=300, deadline=None)
@given(
    edits=st.lists(
        st.tuples(
            st.integers(0, len(SMALL_CHECKPOINT) - 1),
            # header bytes that change meaning, besides any byte at all
            st.one_of(st.sampled_from(b"-09 \n"), st.integers(0, 255)),
        ),
        max_size=4,
    ),
    keep=st.integers(0, len(SMALL_CHECKPOINT)),
)
def test_checkpoint_mutation_loads_or_raises_checkpoint_error(edits, keep):
    raw = bytearray(SMALL_CHECKPOINT)
    for pos, value in edits:
        raw[pos] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ck.bin"
        path.write_bytes(bytes(raw[:keep]))
        try:
            arrays = checkpoint_load(path)
        except CheckpointError:
            return
    assert all(a.dtype == np.float64 for a in arrays.values())


def test_load_state_shape_mismatch():
    m = small_model()
    arrays = m.state_arrays()
    arrays["cls.w"] = np.zeros((8, 7))
    with pytest.raises(CheckpointError, match="cls.w"):
        m.load_state(arrays)


def test_load_state_name_mismatch():
    m = small_model()
    arrays = m.state_arrays()
    arrays.pop("cls.b")
    with pytest.raises(CheckpointError, match="cls.b"):
        m.load_state(arrays)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_state_rejects_non_finite_values_before_writing(bad):
    m = small_model()
    before = {name: p.data.copy() for name, p in m.params.items()}
    names = list(m.params)
    arrays = small_model(seed=1).state_arrays()
    arrays[names[2]][0, 0] = bad
    arrays[names[-1]][0, 0] = np.nan
    with pytest.raises(CheckpointError, match=f"non-finite value in parameter '{names[2]}'"):
        m.load_state(arrays)
    for name, p in m.params.items():
        np.testing.assert_array_equal(p.data, before[name])


def test_load_state_rejects_checkpoint_with_intra_b2(tmp_path):
    # the intra-attention score bias is gone (the softmax over timesteps is
    # shift-invariant); a checkpoint that still holds it is not this model's
    m = small_model()
    arrays = m.state_arrays()
    arrays["intra.b2"] = np.zeros((1, 1))
    path = tmp_path / "old.bin"
    checkpoint_save(arrays, path)
    with pytest.raises(CheckpointError, match=r"unexpected \['intra.b2'\]"):
        m.load_state(checkpoint_load(path))


# evaluation


def test_evaluate_does_not_mutate_params_or_optimizer():
    m = small_model()
    splits = small_splits()
    opt = AdamW(m.params, m.decay_keys, lr=1e-3)
    params_before = {k: v.data.tobytes() for k, v in m.params.items()}

    def opt_state():
        return (
            opt.t,
            {k: a.tobytes() for k, a in opt.m.items()},
            {k: a.tobytes() for k, a in opt.v.items()},
        )

    opt_before = opt_state()
    evaluate(m, splits.val, 16, LossConfig(), splits.classes)
    assert {k: v.data.tobytes() for k, v in m.params.items()} == params_before
    assert opt_state() == opt_before


# train loop


def train_config(**kw):
    base = dict(
        epochs=2,
        batch_size=16,
        lr=1e-3,
        weight_decay=1e-3,
        plateau_patience=3,
        lr_factor=0.5,
        min_lr=1e-6,
        strategy="time_sequential",
        seed=0,
        loss=LossConfig(lam=0.2),
    )
    base.update(kw)
    return TrainConfig(**base)


def model_config(**kw):
    base = dict(
        window_len=16, channels=3, classes=4, d_model=8, heads=2, experts=2,
        dropout=0.1, conv_blocks=1, kernel=3,
    )
    base.update(kw)
    return ModelConfig(**base)


def test_train_emits_one_record_per_epoch_per_split(tmp_path):
    splits = small_splits()
    result = train(model_config(), splits.train, splits.val, splits.test,
                   train_config(), tmp_path)
    records = [json.loads(line) for line in result.metrics_path.read_text().splitlines()]
    assert sum(r["split"] == "train" for r in records) == 2
    assert sum(r["split"] == "val" for r in records) == 2
    assert sum(r["split"] == "test" for r in records) == 1
    for r in records:
        assert set(r) == {"epoch", "split", "mean_f1", "per_class_f1", "loss", "strategy"}


def test_train_fixed_seed_reproduces_metrics_bytes(tmp_path):
    splits = small_splits()
    r1 = train(model_config(), splits.train, splits.val, splits.test,
               train_config(), tmp_path / "a")
    r2 = train(model_config(), splits.train, splits.val, splits.test,
               train_config(), tmp_path / "b")
    assert r1.metrics_path.read_bytes() == r2.metrics_path.read_bytes()
    assert r1.checkpoint_path.read_bytes() == r2.checkpoint_path.read_bytes()


def test_train_loss_decreases_over_first_epochs(tmp_path):
    splits = small_splits(sessions=3, session_len=2000)
    result = train(model_config(d_model=16, conv_blocks=2, kernel=5),
                   splits.train, splits.val, splits.test,
                   train_config(epochs=6, lr=3e-3), tmp_path)
    train_losses = [r["loss"] for r in result.history if r["split"] == "train"]
    assert all(b < a for a, b in zip(train_losses[:5], train_losses[1:6]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_divergence_with_diagnostics(tmp_path):
    # a huge decoupled-decay step multiplies parameter magnitude every
    # update, so parameters overflow to inf and the loss goes NaN
    splits = small_splits(sessions=3, session_len=600)
    with pytest.raises(NumericError, match="epoch"):
        train(model_config(), splits.train, splits.val, splits.test,
              train_config(lr=1e18, epochs=20, weight_decay=1.0), tmp_path)


def test_train_clips_the_global_gradient_norm(tmp_path, monkeypatch):
    # every raw gradient norm is far above the bound, so each step sees it
    # scaled to exactly clip_norm
    norms = []

    class RecordedAdamW(AdamW):
        def step(self):
            norms.append(sum(float((p.grad**2).sum()) for p in self.params.values()) ** 0.5)
            super().step()

    monkeypatch.setattr(training, "AdamW", RecordedAdamW)
    splits = small_splits(sessions=3, session_len=600)
    train(model_config(), splits.train, splits.val, splits.test,
          train_config(epochs=1, clip_norm=1e-6), tmp_path)
    assert norms
    np.testing.assert_allclose(norms, 1e-6, rtol=1e-9)


def test_train_rejects_non_finite_gradient_before_update(tmp_path, monkeypatch):
    opts, before = [], []

    class RecordedAdamW(AdamW):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            opts.append(self)

    def state(opt):
        return (
            opt.t,
            {k: p.data.tobytes() for k, p in opt.params.items()},
            {k: a.tobytes() for k, a in opt.m.items()},
            {k: a.tobytes() for k, a in opt.v.items()},
        )

    clean_backward = T.backward

    def poisoned_backward(loss):
        clean_backward(loss)
        if opts[0].t == 2:
            before.append(state(opts[0]))
            opts[0].params["moe.w1"].grad[0, 0, 0] = np.nan

    monkeypatch.setattr(training, "AdamW", RecordedAdamW)
    monkeypatch.setattr(T, "backward", poisoned_backward)
    splits = small_splits()
    with pytest.raises(NumericError, match=r"'moe.w1' at epoch 0, batch 2, lr 0.001"):
        train(model_config(), splits.train, splits.val, splits.test, train_config(), tmp_path)
    assert state(opts[0]) == before[0]


def test_train_step_and_no_grad_forward_leave_no_cyclic_garbage():
    # graphs must be freed by reference counting alone
    m = AttentionModel(ModelConfig(window_len=16, channels=3, classes=4, d_model=16), seed=0)
    opt = AdamW(m.params, m.decay_keys, lr=1e-3, weight_decay=1e-2)
    rng = np.random.default_rng(0)
    frames = rng.normal(size=(8, 16, 3))
    labels = rng.integers(0, 4, size=8)
    gc.collect()
    gc.disable()
    try:
        trace = m.forward(frames, training=True, rng=rng)
        loss = combined_loss(trace.logits, labels, LossConfig())
        opt.zero_grad()
        T.backward(loss)
        opt.step()
        del trace, loss
        after_step = gc.collect()
        with T.no_grad():
            trace = m.forward(frames)
        del trace
        after_eval = gc.collect()
    finally:
        gc.enable()
    assert (after_step, after_eval) == (0, 0)


def test_train_checkpoint_reproduces_reported_test_f1(tmp_path):
    splits = small_splits()
    cfg = train_config(epochs=3)
    mc = model_config()
    result = train(mc, splits.train, splits.val, splits.test, cfg, tmp_path)
    m = AttentionModel(mc, seed=cfg.seed)
    m.load_state(checkpoint_load(result.checkpoint_path))
    loss, report = evaluate(m, splits.test, cfg.batch_size, cfg.loss, splits.classes)
    assert report.mean_f1 == result.test_report.mean_f1
    assert loss == result.test_loss

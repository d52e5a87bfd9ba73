import gc
import hashlib
import json
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn import tensor as T
from frameattn import training
from frameattn.batching import canonical_batches
from frameattn.data import Frame, SynthConfig, WindowSpec, generate_synthetic, prepare_splits
from frameattn.errors import CheckpointError, ConfigError, NumericError
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
        opt.zero_grad()
    np.testing.assert_allclose(p["w"].data, ref, atol=1e-12)


def reference_adamw_step(opt, params, decay_keys, m, v, t):
    """One step of the AdamW formula, per parameter and out of place on copies."""
    bc1, bc2 = 1.0 - opt.beta1**t, 1.0 - opt.beta2**t
    for name, p in params.items():
        g = p.grad
        m[name] = m[name] * opt.beta1 + (1.0 - opt.beta1) * g
        v[name] = v[name] * opt.beta2 + (1.0 - opt.beta2) * g * g
        update = opt.lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + opt.eps)
        if opt.weight_decay and name in decay_keys:
            update = update + opt.lr * opt.weight_decay * p.data
        p.data -= update


def store_slices(params, decay_keys):
    """Each parameter's slice of the optimizer's flat vectors: the decayed
    parameters first, each group in dict order."""
    order = [k for k in params if k in decay_keys] + [k for k in params if k not in decay_keys]
    bounds = np.cumsum([0] + [params[k].data.size for k in order])
    return {k: slice(a, b) for k, a, b in zip(order, bounds[:-1], bounds[1:])}


def test_adamw_in_place_step_is_bit_identical_to_the_formula():
    m = small_model()
    ref = small_model()
    opt = AdamW(m.params, m.decay_keys, lr=3e-3, weight_decay=1e-2)
    assert m.decay_keys and set(m.params) - m.decay_keys  # both kinds of key
    moments = [{k: np.zeros_like(p.data) for k, p in ref.params.items()} for _ in range(2)]
    rng = np.random.default_rng(0)
    for t in range(1, 4):
        for name, p in m.params.items():
            p.grad[...] = ref.params[name].grad[...] = rng.normal(size=p.data.shape)
        opt.step()
        reference_adamw_step(opt, ref.params, ref.decay_keys, *moments, t)
    for name, at in store_slices(m.params, m.decay_keys).items():
        np.testing.assert_array_equal(m.params[name].data, ref.params[name].data, err_msg=name)
        np.testing.assert_array_equal(opt.m[at], moments[0][name].ravel(), err_msg=name)
        np.testing.assert_array_equal(opt.v[at], moments[1][name].ravel(), err_msg=name)


def test_adamw_parameters_are_views_of_its_store():
    # after a step and after load_state, every parameter's value and gradient
    # are its slice of the flat vectors, decayed parameters first
    m = small_model()
    opt = AdamW(m.params, m.decay_keys, lr=1e-3, weight_decay=1e-2)
    slices = store_slices(m.params, m.decay_keys)
    assert opt.decayed == sum(m.params[k].data.size for k in m.decay_keys)
    assert opt.data.size == opt.grad.size == opt.m.size == opt.v.size == max(
        at.stop for at in slices.values()
    )

    def check():
        for name, p in m.params.items():
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad)
            np.testing.assert_array_equal(opt.data[slices[name]], p.data.ravel(), err_msg=name)
            np.testing.assert_array_equal(opt.grad[slices[name]], p.grad.ravel(), err_msg=name)

    trace = m.forward(np.random.default_rng(0).normal(size=(4, 16, 3)), training=True)
    opt.zero_grad()
    T.backward(combined_loss(trace.logits, np.arange(4), LossConfig()))
    assert np.abs(opt.grad).sum() > 0
    opt.step()
    check()
    m.load_state(small_model(seed=5).state_arrays())
    check()
    np.testing.assert_array_equal(m.params["cls.w"].data, small_model(seed=5).params["cls.w"].data)


# gradient clipping


def store_with_grads(seed, scale):
    """An AdamW store over three parameters with random gradients; returns
    the parameters and the flat gradient vector they are views of."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in (("a", (3, 4)), ("b", (5,)), ("c", (2, 1, 3))):
        params[name] = Tensor(np.zeros(shape), requires_grad=True)
        params[name].grad[...] = scale * rng.normal(size=shape)
    return params, AdamW(params, {"a", "c"}).grad


def global_grad_norm(params):
    return float(np.sqrt(sum((p.grad**2).sum() for p in params.values())))


def test_clip_gradients_scales_over_norm_to_clip_norm():
    params, grad = store_with_grads(0, 10.0)
    before = {name: p.grad.copy() for name, p in params.items()}
    assert global_grad_norm(params) > 2.0
    training.clip_gradients(grad, 2.0)
    assert abs(global_grad_norm(params) - 2.0) < 1e-12
    # one common factor for every entry of every parameter
    factor = params["a"].grad[0, 0] / before["a"][0, 0]
    assert 0.0 < factor < 1.0
    for name, p in params.items():
        np.testing.assert_allclose(p.grad, factor * before[name], rtol=1e-12)


# a clip norm of 0 disables clipping
@pytest.mark.parametrize("relative_norm", [1.5, 0.0], ids=["under-norm", "disabled"])
def test_clip_gradients_leaves_gradients_bit_identical(relative_norm):
    params, grad = store_with_grads(1, 10.0)
    before = grad.tobytes()
    training.clip_gradients(grad, relative_norm * global_grad_norm(params))
    assert grad.tobytes() == before


def test_clip_gradients_does_not_depend_on_the_blas_thread_count(two_blas_threads):
    # as many entries as the default d128 model's store; BLAS ddot (grad @
    # grad) reads this vector's norm differently at 1 and 2 threads
    grad = np.random.default_rng(1).normal(size=604_165)
    clipped = {}
    for threads in (1, 2):
        two_blas_threads[1](threads)
        clipped[threads] = grad.copy()
        training.clip_gradients(clipped[threads], 1.0)
    assert clipped[1].tobytes() == clipped[2].tobytes()
    assert not np.array_equal(clipped[1], grad)


def test_store_norm_matches_the_per_tensor_global_norm():
    # the store's one norm covers every parameter, the non-decayed ones
    # that it keeps after the decayed ones (cls.b last) included
    m = AttentionModel(ModelConfig(window_len=24, channels=3, classes=4), seed=0)
    opt = AdamW(m.params, m.decay_keys)
    rng = np.random.default_rng(0)
    T.backward(combined_loss(m.forward(rng.normal(size=(8, 24, 3))).logits, np.arange(8) % 4,
                             LossConfig()))
    assert opt.grad.size == 604_165 and "cls.b" not in m.decay_keys
    assert np.abs(m.params["cls.b"].grad).min() > 0
    before = {name: p.grad.copy() for name, p in m.params.items()}
    half = global_grad_norm(m.params) / 2
    training.clip_gradients(opt.grad, half)
    # the scale is half / (store norm); per-tensor it is exactly 1/2
    for name, p in m.params.items():
        np.testing.assert_allclose(p.grad, before[name] / 2, rtol=1e-15, atol=0, err_msg=name)


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


def test_train_config_rejects_min_lr_above_lr():
    # the scheduler's floor would otherwise raise the lr at the first plateau
    assert TrainConfig(lr=1e-3, min_lr=1e-3).min_lr == 1e-3
    with pytest.raises(ConfigError, match=r"min_lr \(1.0\) must be <= lr \(0.001\)"):
        TrainConfig(lr=1e-3, min_lr=1.0)


# checkpoints


def test_checkpoint_round_trip_bit_exact(tmp_path):
    m = small_model(seed=3)
    path = tmp_path / "ck.bin"
    # a big-endian and a transposed record are written in row-major little-endian
    values = np.arange(12.0).reshape(3, 4) - 5.5
    extra = {"be": values.astype(">f8"), "tr": values.T}
    checkpoint_save({**m.state_arrays(), **extra}, path)
    loaded = checkpoint_load(path)
    for name, arr in extra.items():
        got = loaded.pop(name)
        assert got.dtype == "<f8" and got.shape == arr.shape
        assert got.tobytes() == np.ascontiguousarray(arr, dtype="<f8").tobytes()
    assert path.read_bytes().endswith(values.T.copy().tobytes())
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


def test_checkpoint_v2_is_refused_naming_both_versions(tmp_path):
    # v2 held every stage's parameters and moe.w1/b1/w2/b2
    path = tmp_path / "v2.bin"
    path.write_bytes(b"FRAMEATTN v2\nmoe.w1 3 1 1 1\n" + bytes(8))
    with pytest.raises(CheckpointError, match="expected 'FRAMEATTN v3', got 'FRAMEATTN v2'"):
        checkpoint_load(path)


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


def test_load_state_rejects_a_frame_local_checkpoint_with_mh_wqkv(tmp_path):
    # a frame-local cell (inter off) holds the value projection mh.wv alone;
    # a checkpoint of such a cell that still holds the whole mh.wqkv is
    # refused, naming both
    m = small_model(disabled=["intra", "inter", "pe", "moe", "gate"])
    arrays = m.state_arrays()
    arrays["mh.wqkv"] = small_model().params["mh.wqkv"].data
    del arrays["mh.wv"]
    path = tmp_path / "old.bin"
    checkpoint_save(arrays, path)
    with pytest.raises(CheckpointError, match=r"missing \['mh.wv'\], unexpected \['mh.wqkv'\]"):
        m.load_state(checkpoint_load(path))


# evaluation


def test_evaluate_does_not_mutate_params_or_optimizer():
    m = small_model()
    splits = small_splits()
    opt = AdamW(m.params, m.decay_keys, lr=1e-3)
    params_before = {k: v.data.tobytes() for k, v in m.params.items()}

    def opt_state():
        return opt.t, opt.m.tobytes(), opt.v.tobytes()

    opt_before = opt_state()
    evaluate(m, splits.val, 16, LossConfig(), splits.classes)
    assert {k: v.data.tobytes() for k, v in m.params.items()} == params_before
    assert opt_state() == opt_before


def random_frames(sessions, per_session, window=16, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Frame(rng.normal(size=(window, 3)), int(rng.integers(classes)), i, f"s{s}")
        for s in range(sessions)
        for i in range(per_session)
    ]


# 2 sessions of 8 full batches of 768 and a partial one of 56: 18 batches of
# 768 frames of 16 samples, at d_model 16 a pass above the concurrency rule
LONG_PASS, LONG_BATCH = random_frames(2, 6200), 768


def long_pass_model():
    return small_model(window_len=16, d_model=16)


@pytest.fixture
def two_blas_threads():
    """The process's BLAS at 2 threads for the test, then as it was."""
    hooks = T.blas_threads()
    if hooks is None:
        pytest.skip("no OpenBLAS thread count to set in this process")
    get, put = hooks
    before = get()
    put(2)
    yield hooks
    put(before)


def record_forwards(monkeypatch, fail_at=None):
    """Wrap AttentionModel.forward to record each call's start time, thread
    and BLAS thread count; the call on the batch ``fail_at`` raises."""
    calls = []
    lock = threading.Lock()
    get_threads = T.blas_threads()[0]
    forward = AttentionModel.forward

    def recorded(self, frames, **kw):
        with lock:
            calls.append((time.perf_counter(), threading.get_ident(), get_threads()))
        if fail_at is not None and np.array_equal(frames, fail_at):
            raise RuntimeError("forward failed on purpose")
        return forward(self, frames, **kw)

    monkeypatch.setattr(AttentionModel, "forward", recorded)
    return calls


@pytest.mark.parametrize("workers", [2, 4])
def test_concurrent_evaluate_equals_one_worker_bit_for_bit(monkeypatch, two_blas_threads, workers):
    # 4 workers on a 2-core box, switching threads every 10 us, stress the
    # in-order collection of results
    m = long_pass_model()
    batches = canonical_batches(LONG_PASS, LONG_BATCH)
    assert len(batches) >= training.CONCURRENT_MIN_BATCHES
    assert LONG_BATCH * 16 * 16 >= training.CONCURRENT_MIN_FEATURES
    assert len(batches[-1]) < LONG_BATCH
    calls = record_forwards(monkeypatch)
    two_blas_threads[1](workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        loss, acc = evaluate(m, LONG_PASS, LONG_BATCH, LossConfig(), 4)
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == len(batches)
    assert threading.get_ident() not in {ident for _, ident, _ in calls}
    assert {threads for _, _, threads in calls} == {1}
    assert two_blas_threads[0]() == workers

    monkeypatch.setattr(T, "blas_threads", lambda: None)
    loss_one, acc_one = evaluate(m, LONG_PASS, LONG_BATCH, LossConfig(), 4)
    assert loss == loss_one
    for counts in ("tp", "fp", "fn"):
        np.testing.assert_array_equal(getattr(acc, counts), getattr(acc_one, counts))


@pytest.mark.parametrize(
    "case", ["no BLAS hook", "pass too short", "batch too small"]
)
def test_evaluate_below_the_rule_runs_on_the_calling_thread(monkeypatch, two_blas_threads, case):
    m = long_pass_model()
    frames, batch = LONG_PASS, LONG_BATCH
    if case == "pass too short":
        frames = random_frames(1, (training.CONCURRENT_MIN_BATCHES - 1) * batch)
    elif case == "batch too small":
        batch = training.CONCURRENT_MIN_FEATURES // (16 * 16) - 1
    calls = record_forwards(monkeypatch)
    if case == "no BLAS hook":
        monkeypatch.setattr(T, "blas_threads", lambda: None)
    evaluate(m, frames, batch, LossConfig(), 4)
    assert len(calls) == len(canonical_batches(frames, batch))
    assert {(ident, threads) for _, ident, threads in calls} == {(threading.get_ident(), 2)}
    assert two_blas_threads[0]() == 2


@pytest.mark.parametrize("failing", ["forward", "scores"])
def test_concurrent_evaluate_error_stops_workers_and_restores_blas(
    monkeypatch, two_blas_threads, failing
):
    # batch 3 fails: in its worker's forward, or where the calling thread
    # adds up its scores
    m = long_pass_model()
    batches = canonical_batches(LONG_PASS, LONG_BATCH)
    if failing == "forward":
        calls = record_forwards(monkeypatch, fail_at=training._gather(LONG_PASS, batches[3])[0])
    else:
        calls = record_forwards(monkeypatch)
        updates = []
        update = training.MetricsAccumulator.update

        def failing_update(acc, predictions, labels):
            updates.append(len(labels))
            if len(updates) == 4:
                raise RuntimeError("scores failed on purpose")
            update(acc, predictions, labels)

        monkeypatch.setattr(training.MetricsAccumulator, "update", failing_update)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="on purpose"):
        evaluate(m, LONG_PASS, LONG_BATCH, LossConfig(), 4)
    raised = time.perf_counter()
    assert threading.active_count() == threads_before
    assert two_blas_threads[0]() == 2
    time.sleep(0.1)  # a worker still running would start another forward
    assert 4 <= len(calls) < len(batches)
    assert all(start < raised for start, _, _ in calls)


@pytest.mark.parametrize("d_model", [16, 128])
def test_eval_logits_do_not_depend_on_the_blas_thread_count(two_blas_threads, d_model):
    get, put = two_blas_threads
    m = AttentionModel(ModelConfig(window_len=24, channels=3, classes=5, d_model=d_model))
    rng = np.random.default_rng(0)
    with T.no_grad():
        for batch in (1, 7, 41, 128):
            x = rng.normal(size=(batch, 24, 3))
            put(2)
            two = m.forward(x).logits.data
            put(1)
            one = m.forward(x).logits.data
            np.testing.assert_array_equal(one, two, err_msg=f"B {batch}")


# ROADMAP item 15: on the OpenBLAS build these were measured on, d128 logits
# at batch sizes off a multiple of 8, such as these, differ in their last
# bits between 1 and 2 BLAS threads
@pytest.mark.xfail(strict=False, reason="ROADMAP item 15: BLAS-thread-dependent d128 products")
@pytest.mark.parametrize("batch", [100, 127])
def test_d128_eval_logits_at_unaligned_batches_do_not_depend_on_the_blas_thread_count(
    two_blas_threads, batch
):
    put = two_blas_threads[1]
    m = AttentionModel(ModelConfig(window_len=24, channels=3, classes=5, d_model=128))
    x = np.random.default_rng(0).normal(size=(batch, 24, 3))
    with T.no_grad():
        put(2)
        two = m.forward(x).logits.data
        put(1)
        one = m.forward(x).logits.data
    np.testing.assert_array_equal(one, two)


def d128_step_digests(batch, threads, put):
    """sha256 of the logits and of ``opt.grad`` after one d128 training step
    at ``threads`` BLAS threads, dropout live from a fixed rng."""
    m = AttentionModel(ModelConfig(window_len=24, channels=3, classes=5))
    opt = AdamW(m.params, m.decay_keys)
    rng = np.random.default_rng(batch)
    x, labels = rng.normal(size=(batch, 24, 3)), rng.integers(0, 5, size=batch)
    put(threads)
    logits = m.forward(x, training=True, rng=np.random.default_rng(0)).logits
    T.backward(combined_loss(logits, labels, LossConfig()))
    return [hashlib.sha256(a.tobytes()).hexdigest() for a in (logits.data, opt.grad)]


# ROADMAP item 15, the training half: at batch sizes off a multiple of 8,
# on the OpenBLAS build these were measured on, B 17 and 41 differ in the
# gradients and B 100 and 127 in the logits too
@pytest.mark.parametrize(
    "batch",
    [64, 128] + [
        pytest.param(b, marks=pytest.mark.xfail(
            strict=False, reason="ROADMAP item 15: BLAS-thread-dependent d128 products"))
        for b in (17, 41, 100, 127)
    ],
)
def test_d128_training_step_does_not_depend_on_the_blas_thread_count(two_blas_threads, batch):
    put = two_blas_threads[1]
    assert d128_step_digests(batch, 1, put) == d128_step_digests(batch, 2, put)


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
    train(model_config(), splits.train, splits.val, splits.test, train_config(), tmp_path)
    records = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    assert sum(r["split"] == "train" for r in records) == 2
    assert sum(r["split"] == "val" for r in records) == 2
    assert sum(r["split"] == "test" for r in records) == 1
    for r in records:
        assert set(r) == {"epoch", "split", "mean_f1", "per_class_f1", "loss", "strategy"}


def test_train_records_are_on_disk_before_the_next_epoch(tmp_path, monkeypatch):
    # a killed run loses at most the epoch it was in: when an epoch's
    # validation pass starts, its train record and plan are already in the files
    seen = []
    clean_evaluate = training.evaluate

    def spying_evaluate(model, frames, *args):
        if frames is splits.val:
            seen.append([
                [json.loads(line) for line in (tmp_path / name).read_text().splitlines()]
                for name in ("metrics.jsonl", "plans.jsonl")
            ])
        return clean_evaluate(model, frames, *args)

    monkeypatch.setattr(training, "evaluate", spying_evaluate)
    splits = small_splits()
    train(model_config(), splits.train, splits.val, splits.test, train_config(epochs=3), tmp_path,
          dump_plans=True)
    assert len(seen) == 3
    for epoch, (records, plans) in enumerate(seen):
        assert len(records) == 2 * epoch + 1 and len(plans) == epoch + 1
        assert (records[-1]["epoch"], records[-1]["split"]) == (epoch, "train")


def test_train_fixed_seed_reproduces_metrics_bytes(tmp_path):
    splits = small_splits()
    for run in ("a", "b"):
        train(model_config(), splits.train, splits.val, splits.test,
              train_config(), tmp_path / run)
    for name in ("metrics.jsonl", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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
            norms.append(float((self.grad**2).sum()) ** 0.5)
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
        def __init__(self, params, *args, **kw):
            super().__init__(params, *args, **kw)
            self.params = params
            opts.append(self)

    def state(opt):
        return opt.t, opt.data.tobytes(), opt.m.tobytes(), opt.v.tobytes()

    clean_backward = T.backward

    def poisoned_backward(loss):
        clean_backward(loss)
        if opts[-1].t == 2:
            before.append(state(opts[-1]))
            opts[-1].params[name].grad[index] = np.nan

    monkeypatch.setattr(training, "AdamW", RecordedAdamW)
    monkeypatch.setattr(T, "backward", poisoned_backward)
    splits = small_splits()
    # a decayed parameter, and a bias, which the store keeps after them
    for name, index in (("moe.w", (0, 1, 0, 0)), ("cls.b", (0, 1))):
        with pytest.raises(NumericError, match=rf"'{name}' at epoch 0, batch 2, lr 0.001"):
            train(model_config(), splits.train, splits.val, splits.test, train_config(),
                  tmp_path / name)
        assert state(opts[-1]) == before[-1]


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
    m.load_state(checkpoint_load(tmp_path / "checkpoint.bin"))
    loss, acc = evaluate(m, splits.test, cfg.batch_size, cfg.loss, splits.classes)
    test = result.history[-1]
    assert test["split"] == "test"
    assert acc.mean_f1 == test["mean_f1"]
    assert loss == test["loss"]

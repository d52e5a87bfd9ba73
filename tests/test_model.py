import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import reference_ops as R

from frameattn import tensor as T
from frameattn.cli import COMPONENT_CELLS
from frameattn.errors import ConfigError, FrameAttnError
from frameattn.losses import LossConfig, combined_loss
from frameattn.model import (
    DISABLEABLE,
    AttentionModel,
    ModelConfig,
    apply_gate,
    backbone_features,
    combine_attention,
    gate_values,
    inter_attention,
    intra_attention,
    moe_layer,
    multi_head_attention,
    parameter_gradcheck_report,
    positional_encoding,
)
from frameattn.seeding import TAG_INIT, mix64
from frameattn.tensor import Tensor, backward, gradcheck


def tiny_cfg(**kw):
    base = dict(
        window_len=16,
        channels=3,
        classes=4,
        d_model=8,
        heads=2,
        experts=2,
        dropout=0.0,
        conv_blocks=2,
        kernel=3,
    )
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture
def model():
    return AttentionModel(tiny_cfg(), seed=0)


def random_frames(batch=4, steps=16, channels=3, seed=0):
    return np.random.default_rng(seed).normal(size=(batch, steps, channels))


def cell_disabled(cell):
    """The stages an ablation cell switches off."""
    return frozenset(filter(None, COMPONENT_CELLS[cell]["model"]["disable"].split(",")))


# parameter layout


def split_qkv(wqkv):
    """The query, key and value projections stored side by side in (d, 3d)."""
    d = wqkv.shape[0]
    return wqkv[:, :d], wqkv[:, d : 2 * d], wqkv[:, 2 * d :]


def check_init_draws(cfg):
    """Each parameter of ``cfg`` at seed 7 against the init stream drawn one
    projection or expert matrix at a time, in parameter order."""
    p = {k: v.data for k, v in AttentionModel(cfg, seed=7).params.items()}
    rng = np.random.default_rng(mix64(7, TAG_INIT))

    def draw(shape, fan_in):
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    want = {f"backbone.conv{i}.w": draw((3, c_in, 8), 3 * c_in) for i, c_in in enumerate((3, 8))}
    want["intra.w1"] = draw((8, 4), 8)
    want["intra.w2"] = draw((4, 1), 4)
    want["inter.wqkv"] = np.hstack([draw((8, 8), 8) for _ in "qkv"])
    want["cat.w"] = draw((16, 8), 16)
    if cfg.enabled("inter"):
        per_head = [[draw((8, 4), 8) for _ in "qkv"] for _ in range(2)]
        want["mh.wqkv"] = np.hstack([head[j] for j in range(3) for head in per_head])
    else:  # one head's q, k and v, whatever cfg.heads
        want["mh.wv"] = [draw((8, 8), 8) for _ in "qkv"][2]
    want["mh.wo"] = draw((8, 8), 8)
    want["gate.wg"] = draw((8, 8), 8)
    want["moe.gate.w"] = draw((8, 3), 8)
    want["moe.w"] = np.stack([np.stack([draw((8, 8), 8) for _ in (0, 1)]) for _ in range(3)])
    want["cls.w"] = draw((8, 4), 8)
    assert {"mh.wv", "mh.wqkv"} & set(p) == {"mh.wqkv" if cfg.enabled("inter") else "mh.wv"}
    for name, value in p.items():  # every other parameter starts at zero
        np.testing.assert_array_equal(value, want.get(name, 0.0), err_msg=name)


def test_stacked_init_matches_one_draw_per_matrix():
    # the stacked tensors hold the numbers of one draw per matrix.  A stage
    # the cell skips still makes its draws, and a frame-local multi-head
    # stage keeps the value third of one head's projections as mh.wv
    for cell in ("full", "isolated"):
        check_init_draws(tiny_cfg(heads=2, experts=3, disabled=cell_disabled(cell)))


# config validation


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        tiny_cfg(d_model=8, heads=3)


def test_config_rejects_even_kernel():
    with pytest.raises(ConfigError):
        tiny_cfg(kernel=4)


def test_config_rejects_short_window():
    with pytest.raises(ConfigError):
        tiny_cfg(window_len=3, kernel=5)


def test_config_rejects_unknown_disable_flag():
    with pytest.raises(ConfigError):
        tiny_cfg(disabled=frozenset({"everything"}))


def test_config_rejects_no_channels():
    # unreachable from the CLI: a session file's header names at least one channel
    with pytest.raises(ConfigError, match="channels must be >= 1, got 0"):
        tiny_cfg(channels=0)


def test_forward_rejects_wrong_channel_count(model):
    # and the other frame shapes the model cannot read
    for shape, message in [((2, 16, 5), "expected 3 channels, got 5"),
                           ((2, 16), r"frames must be \(B, T, D\), got shape \(2, 16\)"),
                           ((2, 2, 3), "window of 2 samples is shorter than kernel 3")]:
        with pytest.raises(ConfigError, match=message):
            model.forward(np.zeros(shape))


# backbone


def test_backbone_zero_input_zero_biases_gives_zero_embedding(model):
    trace = model.forward(np.zeros((3, 16, 3)))
    np.testing.assert_array_equal(trace.x_bar.data, 0.0)


def test_forward_output_shapes(model):
    for batch in (1, 2, 7):
        trace = model.forward(random_frames(batch))
        assert trace.x_bar.shape == (batch, 8)
        assert trace.logits.shape == (batch, 4)


# positional encoding


def test_positional_encoding_row_zero_alternates():
    pe = positional_encoding(8, np.array([0]))
    np.testing.assert_array_equal(pe[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_positional_encoding_sin_of_one():
    pe = positional_encoding(8, np.array([0, 1]))
    assert abs(pe[1, 0] - math.sin(1.0)) < 1e-12
    assert abs(pe[1, 0] - 0.841471) < 1e-6


def test_positional_encoding_distinguishes_identical_embeddings(model):
    frames = np.stack([random_frames(1, seed=5)[0]] * 2)
    trace = model.forward(frames)
    np.testing.assert_allclose(trace.x_bar.data[0], trace.x_bar.data[1])
    assert not np.allclose(trace.x_pe.data[0], trace.x_pe.data[1])


# intra-frame attention


def test_intra_uniform_weights_when_scores_constant(model):
    params = {k: Tensor(v.data.copy()) for k, v in model.params.items()}
    params["intra.w1"] = Tensor(np.zeros_like(params["intra.w1"].data))
    params["intra.w2"] = Tensor(np.zeros_like(params["intra.w2"].data))
    feats = Tensor(np.random.default_rng(1).normal(size=(2, 5, 8)))
    pooled, weights = intra_attention(feats, params)
    np.testing.assert_allclose(weights, 1.0 / 5.0)
    np.testing.assert_allclose(pooled.data, feats.data.mean(axis=1), atol=1e-12)


def test_intra_single_timestep_passthrough(model):
    feats = Tensor(np.random.default_rng(2).normal(size=(3, 1, 8)))
    pooled, weights = intra_attention(feats, model.params)
    np.testing.assert_allclose(weights, 1.0)
    np.testing.assert_allclose(pooled.data, feats.data[:, 0, :], atol=1e-12)


def test_intra_softmax_of_known_scores():
    # scores [0, ln 3] -> weights [0.25, 0.75]
    w = T._softmax(np.array([[0.0, math.log(3.0)]]), axis=1)
    np.testing.assert_allclose(w, [[0.25, 0.75]], atol=1e-12)


# inter-frame attention


def test_inter_single_frame_is_its_value_row(model):
    x = Tensor(np.random.default_rng(3).normal(size=(1, 8)))
    out, weights = inter_attention(x, model.params)
    np.testing.assert_allclose(weights, [[1.0]])
    np.testing.assert_allclose(out.data, x.data @ split_qkv(model.params["inter.wqkv"].data)[2])


def test_inter_identical_queries_average_values(model):
    row = np.random.default_rng(4).normal(size=8)
    x = Tensor(np.stack([row, row]))
    out, weights = inter_attention(x, model.params)
    np.testing.assert_allclose(weights, 0.5)
    v = x.data @ split_qkv(model.params["inter.wqkv"].data)[2]
    np.testing.assert_allclose(out.data[0], v.mean(axis=0), atol=1e-12)


def test_inter_matches_standalone_oracle(model):
    # oracle: explicit exp / normalize / weighted sum
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 8))
    p = model.params
    wq, wk, wv = split_qkv(p["inter.wqkv"].data)
    q, k, v = x @ wq, x @ wk, x @ wv
    scores = q @ k.T / math.sqrt(8)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    expected = w @ v
    out, weights = inter_attention(Tensor(x), p)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(weights, w, atol=1e-12)


# attention blend


def test_blend_limits_and_midpoint():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(3, 4)))
    b = Tensor(rng.normal(size=(3, 4)))
    near_a = combine_attention(a, b, Tensor([[40.0]]))
    np.testing.assert_allclose(near_a.data, a.data, atol=1e-12)
    near_b = combine_attention(a, b, Tensor([[-40.0]]))
    np.testing.assert_allclose(near_b.data, b.data, atol=1e-12)
    mid = combine_attention(a, b, Tensor([[0.0]]))
    np.testing.assert_array_equal(mid.data, (a.data + b.data) / 2.0)


# multi-head attention


def test_multi_head_single_head_identity_projections_reduce_to_inter(model):
    cfg = tiny_cfg(heads=1)
    m = AttentionModel(cfg, seed=0)
    eye = np.eye(8)
    m.params["mh.wqkv"].data[...] = np.hstack([eye, eye, eye])
    m.params["inter.wqkv"].data[...] = np.hstack([eye, eye, eye])
    m.params["mh.wo"].data[...] = eye
    x = Tensor(np.random.default_rng(7).normal(size=(4, 8)))
    mh_out, _ = multi_head_attention(x, m.params, cfg)
    inter_out, _ = inter_attention(x, m.params)
    np.testing.assert_allclose(mh_out.data, inter_out.data, atol=1e-12)


def test_multi_head_output_shape(model):
    x = Tensor(np.random.default_rng(8).normal(size=(5, 8)))
    out, weights = multi_head_attention(x, model.params, model.cfg)
    assert out.shape == (5, 8)
    assert weights.shape == (2, 5, 5)


def test_multi_head_equals_per_head_oracle():
    # h=2, B=2, d_model=4: concat of two independently computed heads
    cfg = ModelConfig(
        window_len=8, channels=2, classes=2, d_model=4, heads=2, experts=1,
        dropout=0.0, conv_blocks=1, kernel=3,
    )
    m = AttentionModel(cfg, seed=3)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 4))

    def one_head(i):
        head = slice(2 * i, 2 * i + 2)
        wq, wk, wv = split_qkv(m.params["mh.wqkv"].data)
        q = x @ wq[:, head]
        k = x @ wk[:, head]
        v = x @ wv[:, head]
        s = q @ k.T / math.sqrt(2)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        return (e / e.sum(axis=1, keepdims=True)) @ v

    expected = np.concatenate([one_head(0), one_head(1)], axis=1) @ m.params["mh.wo"].data
    out, _ = multi_head_attention(Tensor(x), m.params, cfg)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


# gated fusion


def test_gate_zero_weights_give_half_half(model):
    rng = np.random.default_rng(10)
    x_att = Tensor(rng.normal(size=(3, 8)))
    params = {
        "gate.wg": Tensor(np.zeros((8, 8))),
        "gate.bg": Tensor(np.zeros((1, 8))),
    }
    logits = gate_values(x_att, params)
    np.testing.assert_array_equal(logits.data, 0.0)
    a = Tensor(rng.normal(size=(3, 8)))
    b = Tensor(rng.normal(size=(3, 8)))
    fused, gate = apply_gate(logits, a, b)
    np.testing.assert_array_equal(gate, 0.5)
    np.testing.assert_allclose(fused.data, (a.data + b.data) / 2.0, atol=1e-15)


def test_gate_saturated_bias_passes_enhanced_input():
    rng = np.random.default_rng(11)
    x_att = Tensor(rng.normal(size=(2, 8)))
    params = {
        "gate.wg": Tensor(np.zeros((8, 8))),
        "gate.bg": Tensor(np.full((1, 8), -20.0)),
    }
    a = Tensor(rng.normal(size=(2, 8)))
    b = Tensor(rng.normal(size=(2, 8)))
    fused, gate = apply_gate(gate_values(x_att, params), a, b)
    assert (gate < 1e-8).all()
    np.testing.assert_allclose(fused.data, b.data, atol=1e-8)


def test_gate_exact_zero_and_one_are_exact_selections():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    # logits of -inf and +inf give gates of exactly 0 and 1
    for logit, expected in ((-np.inf, b), (np.inf, a)):
        fused, gate = apply_gate(Tensor(np.full((3, 5), logit)), a, b)
        np.testing.assert_array_equal(gate, float(logit > 0))
        np.testing.assert_array_equal(fused.data, expected.data)


def test_gate_random_case_matches_formula(model):
    rng = np.random.default_rng(13)
    x_att = Tensor(rng.normal(size=(2, 8)))
    logits = gate_values(x_att, model.params)
    z = x_att.data @ model.params["gate.wg"].data + model.params["gate.bg"].data
    np.testing.assert_allclose(logits.data, z, atol=1e-12)
    sig = 1.0 / (1.0 + np.exp(-z))
    a = Tensor(rng.normal(size=(2, 8)))
    b = Tensor(rng.normal(size=(2, 8)))
    fused, gate = apply_gate(logits, a, b)
    np.testing.assert_allclose(gate, sig, atol=1e-12)
    np.testing.assert_allclose(fused.data, sig * a.data + (1 - sig) * b.data, atol=1e-12)


# mixture of experts


def test_moe_single_expert_is_identity_mixture():
    cfg = tiny_cfg(experts=1)
    m = AttentionModel(cfg, seed=1)
    x = Tensor(np.random.default_rng(14).normal(size=(3, 8)))
    out, weights = moe_layer(x, m.params)
    np.testing.assert_allclose(weights, 1.0)
    p = m.params
    (w1, w2), (b1, b2) = p["moe.w"].data[0], p["moe.b"].data[0]
    expert = np.maximum(x.data @ w1 + b1, 0) @ w2 + b2
    np.testing.assert_allclose(out.data, expert, atol=1e-12)


def test_moe_zero_gating_matrix_gives_uniform_mixture(model):
    model.params["moe.gate.w"].data[...] = 0.0
    x = Tensor(np.random.default_rng(15).normal(size=(4, 8)))
    out, weights = moe_layer(x, model.params)
    np.testing.assert_allclose(weights, 0.5)


def test_moe_matches_weighted_sum_oracle():
    cfg = tiny_cfg(experts=3)
    m = AttentionModel(cfg, seed=2)
    rng = np.random.default_rng(16)
    x = rng.normal(size=(4, 8))
    p = m.params
    logits = x @ p["moe.gate.w"].data
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    expected = np.zeros((4, 8))
    for i in range(3):
        (w1, w2), (b1, b2) = p["moe.w"].data[i], p["moe.b"].data[i]
        expert = np.maximum(x @ w1 + b1, 0) @ w2 + b2
        expected += w[:, i : i + 1] * expert
    out, weights = moe_layer(Tensor(x), p)
    np.testing.assert_allclose(out.data, expected, atol=1e-12)
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)


# full forward


def test_eval_forward_is_deterministic(model):
    frames = random_frames(5, seed=20)
    a = model.forward(frames).logits.data
    b = model.forward(frames).logits.data
    np.testing.assert_array_equal(a, b)


def test_training_forward_with_dropout_needs_rng():
    cfg = tiny_cfg(dropout=0.5)
    m = AttentionModel(cfg, seed=0)
    with pytest.raises(ConfigError):
        m.forward(random_frames(2), training=True, rng=None)


def test_permutation_equivariance_without_pe():
    cfg = tiny_cfg(disabled=frozenset({"pe"}))
    m = AttentionModel(cfg, seed=4)
    frames = random_frames(6, seed=21)
    perm = np.random.default_rng(22).permutation(6)
    base = m.forward(frames).logits.data
    permuted = m.forward(frames[perm]).logits.data
    np.testing.assert_allclose(permuted, base[perm], atol=1e-10)


def test_permutation_sensitivity_with_pe(model):
    frames = random_frames(6, seed=23)
    perm = np.array([5, 4, 3, 2, 1, 0])
    base = model.forward(frames).logits.data
    permuted = model.forward(frames[perm]).logits.data
    assert not np.allclose(permuted, base[perm], atol=1e-6)


@pytest.mark.parametrize("cell", ["baseline", "intra", "isolated"])
def test_single_frame_cell_logits_do_not_depend_on_batch_neighbours(cell):
    m = AttentionModel(tiny_cfg(disabled=cell_disabled(cell)), seed=0)
    frames = random_frames(8, seed=40)
    alone = np.concatenate([m.forward(frames[i : i + 1]).logits.data for i in range(8)])
    np.testing.assert_allclose(m.forward(frames).logits.data, alone, atol=1e-10)
    np.testing.assert_allclose(m.forward(frames[::-1]).logits.data[::-1], alone, atol=1e-10)
    np.testing.assert_allclose(m.forward(frames[:3]).logits.data, alone[:3], atol=1e-10)


def test_softmax_weight_invariants_across_random_forwards(model):
    rng = np.random.default_rng(30)
    for _ in range(20):
        trace = model.forward(rng.normal(size=(4, 16, 3)))
        weights = (trace.intra_weights, trace.inter_weights, trace.head_weights,
                   trace.moe_weights, trace.gate)
        assert all(type(w) is np.ndarray for w in weights)
        np.testing.assert_allclose(trace.intra_weights.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.inter_weights.sum(axis=1), 1.0, atol=1e-9)
        for w in trace.head_weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.moe_weights.sum(axis=1), 1.0, atol=1e-9)
        assert trace.gate.shape == (4, 8)
        assert (trace.gate > 0.0).all() and (trace.gate < 1.0).all()


def test_disabled_stages_pass_operands_through():
    frames = random_frames(4, seed=24)
    all_off = tiny_cfg(disabled=frozenset({"intra", "inter", "pe", "moe", "gate"}))
    m = AttentionModel(all_off, seed=5)
    trace = m.forward(frames)
    assert trace.a_intra is None and trace.a_inter is None
    np.testing.assert_array_equal(trace.x_pe.data, trace.x_bar.data)
    np.testing.assert_array_equal(trace.a_com.data, trace.x_bar.data)
    np.testing.assert_array_equal(trace.o_gated.data, trace.a_mul.data)
    np.testing.assert_array_equal(trace.o_moe.data, trace.o_gated.data)


def tiny_gradcheck_config():
    """d_model 8 with the default conv blocks, so its later blocks take the
    Winograd path as the default model's do."""
    return tiny_cfg(conv_blocks=3, kernel=5)


def test_gradcheck_through_whole_tiny_model():
    # every row of the gradient report, at the command's tolerance
    for seed in range(50):
        rows = parameter_gradcheck_report(tiny_gradcheck_config(), LossConfig(), seed=seed)
        for name, err in rows:
            assert err < 1e-6, (seed, name)


def test_gradcheck_through_whole_default_model():
    # the command's own size.  With zero biases this seed's backbone row
    # crossed a ReLU kink and read 9.5e-6; with the report's drawn biases no
    # seed in 0-59 crosses one (worst row 4.6e-10)
    cfg = ModelConfig(window_len=24, channels=3, classes=4)
    for name, err in parameter_gradcheck_report(cfg, LossConfig(), seed=42):
        assert err < 1e-6, name


def test_gradcheck_rows_are_the_parameter_stages():
    # one row per first dotted part of a parameter name, in parameter order,
    # so every parameter is in exactly one row; then the loss head
    cfg = tiny_gradcheck_config()
    rows = [name for name, _ in parameter_gradcheck_report(cfg, LossConfig(lam=0.5), seed=0)]
    stages = [name.split(".")[0] for name in AttentionModel(cfg).params]
    assert rows == [*dict.fromkeys(stages), "loss"]
    assert rows == ["backbone", "intra", "inter", "blend", "cat", "mh", "gate", "moe", "cls",
                    "loss"]
    # the stages a model config can switch off are named alike, but for pe,
    # which has no parameters
    assert DISABLEABLE - {"pe"} <= set(rows)


def test_gradcheck_report_passes_at_d_model_2():
    # two channels leave whole receptive fields at zero after a ReLU; with
    # the zero initial biases such a unit sat on its own kink, which no step
    # resolves, and 12 of these seeds failed
    cfg = ModelConfig(window_len=24, channels=3, classes=4, d_model=2, heads=1)
    for seed in range(20):
        for name, err in parameter_gradcheck_report(cfg, LossConfig(), seed=seed):
            assert err < 1e-6, (seed, name)


def test_gradcheck_rows_of_the_baseline_cell():
    # a stage the model does not run has no parameters, so no row
    cfg = replace(tiny_gradcheck_config(), disabled=cell_disabled("baseline"))
    rows = [name for name, _ in parameter_gradcheck_report(cfg, LossConfig(), seed=0)]
    assert rows == ["backbone", "cat", "mh", "cls", "loss"]


@pytest.mark.parametrize("cell", sorted(COMPONENT_CELLS))
def test_cell_holds_only_the_parameters_it_runs(cell):
    # the full model's parameters minus every stage the cell switches off,
    # and the blend without both summaries, with the same values at a seed
    disabled = cell_disabled(cell)
    skipped = disabled | ({"blend"} if disabled & {"intra", "inter"} else set())
    full = AttentionModel(tiny_cfg(), seed=3)
    m = AttentionModel(tiny_cfg(disabled=disabled), seed=3)
    kept = [name for name in full.params if name.split(".")[0] not in skipped]
    want = {name: p.data for name, p in full.params.items()}
    if "inter" in disabled:  # a frame-local stage keeps one head's value third
        kept[kept.index("mh.wqkv")] = "mh.wv"
        want["mh.wv"] = AttentionModel(tiny_cfg(heads=1), seed=3).params["mh.wqkv"].data[:, 16:]
    assert list(m.params) == kept
    assert m.decay_keys == (full.decay_keys | {"mh.wv"}) & set(kept)
    for name in kept:
        assert m.params[name].data.tobytes() == want[name].tobytes()
    m.forward(random_frames(3))


@pytest.mark.parametrize("cell", ["baseline", "intra", "isolated"])
def test_frame_local_cell_parameters_do_not_depend_on_heads(cell):
    # a frame-local multi-head stage has no heads to split into
    ref, *others = (
        AttentionModel(tiny_cfg(heads=h, disabled=cell_disabled(cell)), seed=5).params
        for h in (1, 2, 4)
    )
    for params in others:
        assert list(params) == list(ref)
        for name, p in params.items():
            assert p.data.tobytes() == ref[name].data.tobytes(), name


def test_default_size_parameter_counts():
    counts = {}
    for cell in ("default", *COMPONENT_CELLS):
        disabled = frozenset() if cell == "default" else cell_disabled(cell)
        params = AttentionModel(ModelConfig(24, 3, 4, disabled=disabled)).params.values()
        counts[cell] = (len(params), sum(p.data.size for p in params))
    assert counts == {
        "default": (21, 604_165), "full": (21, 604_165), "baseline": (11, 232_196),
        "intra": (14, 240_516), "inter": (12, 314_116), "both": (16, 322_437),
        "isolated": (17, 505_732),
    }


def test_gradcheck_through_backbone_input():
    m = AttentionModel(tiny_cfg(), seed=6)
    frames = Tensor(random_frames(2, seed=25))

    def f(t):
        feats = backbone_features(t, m.params, m.cfg)
        return T.tsum(feats * feats)

    assert gradcheck(f, frames) < 1e-6


@pytest.mark.parametrize("d_model", [8, 16])
@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("window", [5, 21, 24])
def test_backbone_matches_chained_composed_conv_blocks(window, batch, d_model):
    # 3 blocks: im2col on the raw channels, then two Winograd blocks.  At
    # window 21 each Winograd block hands the next a strided slice of its
    # whole-tile output, and at window 5 the window is one partial tile
    cfg = tiny_cfg(window_len=window, d_model=d_model, conv_blocks=3, kernel=5)
    rng = np.random.default_rng(window * 100 + batch * 10 + d_model)
    frames = rng.normal(size=(batch, window, cfg.channels))
    cot = Tensor(rng.normal(size=(batch, window, d_model)))

    def chained(feats, params, cfg):
        for i in range(cfg.conv_blocks):
            feats = R.composed_conv_relu(
                feats, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"]
            )
        return feats

    results = []
    for blocks in (chained, backbone_features):
        m = AttentionModel(cfg, seed=4)
        feats = blocks(Tensor(frames), m.params, cfg)
        backward(T.tsum(feats * cot))
        names = [name for name in m.params if name.startswith("backbone.")]
        results.append([feats.data, *(m.params[name].grad for name in names)])
    assert len(names) == 2 * cfg.conv_blocks
    for ref, got in zip(*results):
        assert np.abs(ref).max() > 0.0
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def train_step_graph(m):
    """Loss and every graph node of one training step of ``m``; the
    dropout rng is seeded, so the step repeats exactly."""
    rng = np.random.default_rng(0)
    trace = m.forward(random_frames(6, seed=26), training=True, rng=rng)
    loss = combined_loss(trace.logits, rng.integers(0, 4, size=6), LossConfig())
    reached, stack = {}, [loss]
    while stack:
        t = stack.pop()
        if id(t) not in reached:
            reached[id(t)] = t
            stack.extend(p for p in t._parents if p.requires_grad)
    return loss, list(reached.values())


def test_train_step_graph_node_count():
    # pins the graph size of one training step (2 conv blocks, dropout on):
    # each conv block, each model stage and the whole loss are one node
    # apiece; a frame-local multi-head stage is its two matmuls
    for cell, inner in (("full", 24), ("intra", 15)):
        m = AttentionModel(tiny_cfg(dropout=0.1, disabled=cell_disabled(cell)), seed=0)
        _, nodes = train_step_graph(m)
        leaves = [t for t in nodes if t._rule is None]
        assert sorted(map(id, leaves)) == sorted(map(id, m.params.values()))
        assert len(nodes) - len(leaves) == inner, cell


def test_backward_drops_intermediate_grads_and_keeps_leaf_buffers():
    m = AttentionModel(tiny_cfg(dropout=0.1), seed=0)
    loss, nodes = train_step_graph(m)
    inner = [t for t in nodes if t._rule is not None]
    backward(loss)
    # each intermediate lets go of its gradient, its own rule and its
    # parents, so the graph is released as backward walks it
    assert all(t.grad is None and t._rule is T._released and t._parents == () for t in inner)
    assert all(p._rule is None for p in m.params.values())
    with pytest.raises(FrameAttnError, match="already released"):
        backward(loss)
    buffers = {name: p.grad for name, p in m.params.items()}
    first = {name: g.copy() for name, g in buffers.items()}
    assert all(np.abs(g).sum() > 0 for g in first.values())
    # the same step again adds onto each parameter's own buffer
    backward(train_step_graph(m)[0])
    for name, p in m.params.items():
        assert p.grad is buffers[name]
        np.testing.assert_array_equal(p.grad, 2.0 * first[name])


def test_default_size_eval_forward_allocation_peak():
    # two eval batches may be in flight at once, so a no-grad forward at
    # d_model 128, B 128 keeps its peak low: 16.5 MB with each Winograd tile
    # buffer freed once transformed, 21.0 MB without
    m = AttentionModel(ModelConfig(window_len=24, channels=3, classes=5), seed=0)
    x = random_frames(batch=128, steps=24)
    with T.no_grad():
        m.forward(x)
        tracemalloc.start()
        try:
            m.forward(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 20 * 2**20

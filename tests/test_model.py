import math

import numpy as np
import pytest

from frameattn import tensor as T
from frameattn.cli import COMPONENT_CELLS
from frameattn.errors import ConfigError
from frameattn.losses import LossConfig, combined_loss
from frameattn.model import (
    AttentionModel,
    ModelConfig,
    apply_gate,
    combine_attention,
    gate_values,
    inter_attention,
    intra_attention,
    moe_layer,
    multi_head_attention,
    parameter_gradcheck_report,
    positional_encoding,
    tiny_gradcheck_config,
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


# parameter layout


def split_qkv(wqkv):
    """The query, key and value projections stored side by side in (d, 3d)."""
    d = wqkv.shape[0]
    return wqkv[:, :d], wqkv[:, d : 2 * d], wqkv[:, 2 * d :]


def test_stacked_init_matches_one_draw_per_matrix():
    # reference: the init stream drawn one projection or expert matrix at a
    # time, in parameter order; the stacked tensors hold the same numbers
    cfg = tiny_cfg(heads=2, experts=3)
    p = {k: v.data for k, v in AttentionModel(cfg, seed=7).params.items()}
    rng = np.random.default_rng(mix64(7, TAG_INIT))

    def draw(shape, fan_in):
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    for i, c_in in enumerate((3, 8)):
        np.testing.assert_array_equal(p[f"backbone.conv{i}.w"], draw((3, c_in, 8), 3 * c_in))
    np.testing.assert_array_equal(p["intra.w1"], draw((8, 4), 8))
    np.testing.assert_array_equal(p["intra.w2"], draw((4, 1), 4))
    for w in split_qkv(p["inter.wqkv"]):
        np.testing.assert_array_equal(w, draw((8, 8), 8))
    np.testing.assert_array_equal(p["cat.w"], draw((16, 8), 16))
    for head in (slice(0, 4), slice(4, 8)):
        for w in split_qkv(p["mh.wqkv"]):
            np.testing.assert_array_equal(w[:, head], draw((8, 4), 8))
    np.testing.assert_array_equal(p["mh.wo"], draw((8, 8), 8))
    np.testing.assert_array_equal(p["gate.wg"], draw((8, 8), 8))
    np.testing.assert_array_equal(p["moe.gate.w"], draw((8, 3), 8))
    for i in range(3):
        np.testing.assert_array_equal(p["moe.w1"][i], draw((8, 8), 8))
        np.testing.assert_array_equal(p["moe.w2"][i], draw((8, 8), 8))
    np.testing.assert_array_equal(p["cls.w"], draw((8, 4), 8))


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
    with pytest.raises(ConfigError):
        model.forward(np.zeros((2, 16, 5)))


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
    w = T.softmax(Tensor(np.array([[0.0, math.log(3.0)]])), axis=1)
    np.testing.assert_allclose(w.data, [[0.25, 0.75]], atol=1e-12)


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
    g = gate_values(x_att, params)
    np.testing.assert_array_equal(g.data, 0.5)
    a = Tensor(rng.normal(size=(3, 8)))
    b = Tensor(rng.normal(size=(3, 8)))
    fused = apply_gate(g, a, b)
    np.testing.assert_allclose(fused.data, (a.data + b.data) / 2.0, atol=1e-15)


def test_gate_saturated_bias_passes_enhanced_input():
    rng = np.random.default_rng(11)
    x_att = Tensor(rng.normal(size=(2, 8)))
    params = {
        "gate.wg": Tensor(np.zeros((8, 8))),
        "gate.bg": Tensor(np.full((1, 8), -20.0)),
    }
    g = gate_values(x_att, params)
    a = Tensor(rng.normal(size=(2, 8)))
    b = Tensor(rng.normal(size=(2, 8)))
    fused = apply_gate(g, a, b)
    np.testing.assert_allclose(fused.data, b.data, atol=1e-8)


def test_gate_exact_zero_and_one_are_exact_selections():
    rng = np.random.default_rng(12)
    a = Tensor(rng.normal(size=(3, 5)))
    b = Tensor(rng.normal(size=(3, 5)))
    zero = Tensor(np.zeros((3, 5)))
    one = Tensor(np.ones((3, 5)))
    np.testing.assert_array_equal(apply_gate(zero, a, b).data, b.data)
    np.testing.assert_array_equal(apply_gate(one, a, b).data, a.data)


def test_gate_random_case_matches_formula(model):
    rng = np.random.default_rng(13)
    x_att = Tensor(rng.normal(size=(2, 8)))
    g = gate_values(x_att, model.params)
    sig = 1.0 / (1.0 + np.exp(-(x_att.data @ model.params["gate.wg"].data + model.params["gate.bg"].data)))
    np.testing.assert_allclose(g.data, sig, atol=1e-12)
    a = Tensor(rng.normal(size=(2, 8)))
    b = Tensor(rng.normal(size=(2, 8)))
    np.testing.assert_allclose(
        apply_gate(g, a, b).data, sig * a.data + (1 - sig) * b.data, atol=1e-12
    )


# mixture of experts


def test_moe_single_expert_is_identity_mixture():
    cfg = tiny_cfg(experts=1)
    m = AttentionModel(cfg, seed=1)
    x = Tensor(np.random.default_rng(14).normal(size=(3, 8)))
    out, weights = moe_layer(x, m.params)
    np.testing.assert_allclose(weights, 1.0)
    p = m.params
    hidden = np.maximum(x.data @ p["moe.w1"].data[0] + p["moe.b1"].data[0], 0)
    expert = hidden @ p["moe.w2"].data[0] + p["moe.b2"].data[0]
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
        hidden = np.maximum(x @ p["moe.w1"].data[i] + p["moe.b1"].data[i], 0)
        expert = hidden @ p["moe.w2"].data[i] + p["moe.b2"].data[i]
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


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the isolated cell's multi-head "
                   "stage still attends across the batch")
def test_isolated_cell_logits_do_not_depend_on_batch_neighbours():
    disable = COMPONENT_CELLS["isolated"]["model"]["disable"]
    m = AttentionModel(tiny_cfg(disabled=frozenset(disable.split(","))), seed=0)
    frames = random_frames(8, seed=40)
    batched = m.forward(frames).logits.data
    reordered = m.forward(frames[::-1]).logits.data[::-1]
    np.testing.assert_allclose(reordered, batched, atol=1e-10)
    alone = np.concatenate([m.forward(frames[i : i + 1]).logits.data for i in range(8)])
    np.testing.assert_allclose(alone, batched, atol=1e-10)


def test_softmax_weight_invariants_across_random_forwards(model):
    rng = np.random.default_rng(30)
    for _ in range(20):
        trace = model.forward(rng.normal(size=(4, 16, 3)))
        weights = (trace.intra_weights, trace.inter_weights, trace.head_weights,
                   trace.moe_weights)
        assert all(type(w) is np.ndarray for w in weights)
        np.testing.assert_allclose(trace.intra_weights.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.inter_weights.sum(axis=1), 1.0, atol=1e-9)
        for w in trace.head_weights:
            np.testing.assert_allclose(w.sum(axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(trace.moe_weights.sum(axis=1), 1.0, atol=1e-9)
        assert (trace.gate.data > 0.0).all() and (trace.gate.data < 1.0).all()


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


def test_gradcheck_through_whole_tiny_model():
    # composed-model row of the gradient report, at the documented tolerance
    rows = dict(parameter_gradcheck_report(tiny_gradcheck_config(), LossConfig(lam=0.5), seed=0))
    assert rows["composed-model"] < 1e-4
    for name, err in rows.items():
        assert err < 1e-4, name


def test_gradcheck_through_backbone_input():
    from frameattn.model import backbone_features

    m = AttentionModel(tiny_cfg(), seed=6)
    frames = Tensor(random_frames(2, seed=25).reshape(-1))

    def f(t):
        feats = backbone_features(t.reshape(2, 16, 3), m.params, m.cfg)
        return T.tsum(feats * feats)

    assert gradcheck(f, frames) < 1e-6


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
    # apiece
    m = AttentionModel(tiny_cfg(dropout=0.1), seed=0)
    _, nodes = train_step_graph(m)
    leaves = [t for t in nodes if t._rule is None]
    assert sorted(map(id, leaves)) == sorted(map(id, m.params.values()))
    assert len(nodes) - len(leaves) == 24


def test_backward_drops_intermediate_grads_and_keeps_leaf_buffers():
    m = AttentionModel(tiny_cfg(dropout=0.1), seed=0)
    loss, nodes = train_step_graph(m)
    backward(loss)
    assert all(t.grad is None for t in nodes if t._rule is not None)
    buffers = {name: p.grad for name, p in m.params.items()}
    first = {name: g.copy() for name, g in buffers.items()}
    assert all(np.abs(g).sum() > 0 for g in first.values())
    # the same step again adds onto each parameter's own buffer
    backward(train_step_graph(m)[0])
    for name, p in m.params.items():
        assert p.grad is buffers[name]
        np.testing.assert_array_equal(p.grad, 2.0 * first[name])

import ast
import ctypes
import inspect
import math
import os
import platform
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import reference_ops as R
from hypothesis import given, settings
from hypothesis import strategies as st

from frameattn import tensor as T
from frameattn.cli import COMPONENT_CELLS
from frameattn.errors import ConfigError, FrameAttnError, ShapeError
from frameattn.losses import LossConfig, combined_loss
from frameattn.model import (
    AttentionModel,
    ModelConfig,
    apply_gate,
    combine_attention,
    gate_values,
    multi_head_attention,
)
from frameattn.tensor import Tensor, backward, gradcheck


def test_matmul_identity():
    a = np.random.default_rng(0).normal(size=(3, 3))
    out = Tensor(np.eye(3)) @ Tensor(a)
    np.testing.assert_array_equal(out.data, a)


def test_matmul_hand_evaluated():
    # [[1,2],[3,4]] @ [[1],[1]] -> row sums [[3],[7]]
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) @ Tensor([[1.0], [1.0]])
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match=r"\(2, 3, 4\).*\(3, 4, 5\)"):
        Tensor(np.zeros((2, 3, 4))) @ Tensor(np.zeros((3, 4, 5)))
    with pytest.raises(ShapeError):
        Tensor(np.zeros(3)) @ Tensor(np.zeros((3, 2)))


def test_matmul_backward_rules():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    b = Tensor([[5.0, 6.0], [7.0, 8.0]], requires_grad=True)
    backward(T.tsum(a @ b))
    g = np.ones((2, 2))
    np.testing.assert_allclose(a.grad, g @ b.data.T)
    np.testing.assert_allclose(b.grad, a.data.T @ g)


# the softmax the fused attention, pooling, expert-gate and loss nodes call


def test_softmax_symmetry():
    np.testing.assert_allclose(T._softmax(np.array([0.0, 0.0]), axis=0), [0.5, 0.5])


def test_softmax_direct_evaluation():
    # oracle: direct exp/sum
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    out = T._softmax(x, axis=0)
    np.testing.assert_allclose(out, expected, atol=1e-12)
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-8)


def test_softmax_no_overflow_at_large_inputs():
    out = T._softmax(np.array([1000.0, 1000.0]), axis=0)
    np.testing.assert_allclose(out, [0.5, 0.5])
    assert np.isfinite(out).all()


def test_softmax_slices_sum_to_one():
    rng = np.random.default_rng(3)
    x = rng.normal(scale=50.0, size=(4, 6))
    for axis in (0, 1):
        sums = T._softmax(x, axis=axis).sum(axis=axis)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)


def test_softmax_axis_out_of_range():
    with pytest.raises(ShapeError):
        R.softmax(Tensor([1.0, 2.0]), axis=3)


def test_elementwise_trivia():
    assert R.sigmoid(Tensor(0.0)).item() == 0.5
    assert R.tanh(Tensor(0.0)).item() == 0.0


def test_concat_shape_contract():
    out = T.concat([Tensor(np.zeros((2, 3))), Tensor(np.ones((2, 5)))], axis=1)
    assert out.shape == (2, 8)
    np.testing.assert_array_equal(out.data[:, :3], 0.0)
    np.testing.assert_array_equal(out.data[:, 3:], 1.0)


def test_concat_incompatible_shapes():
    with pytest.raises(ShapeError):
        T.concat([Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))], axis=1)


def test_broadcast_add_backward_sums_over_expanded_dims():
    a = Tensor(np.ones((3, 4)), requires_grad=True)
    b = Tensor(np.ones((1, 4)), requires_grad=True)
    backward(T.tsum(a + b))
    np.testing.assert_array_equal(a.grad, np.ones((3, 4)))
    np.testing.assert_array_equal(b.grad, 3.0 * np.ones((1, 4)))


def test_dropout_eval_is_identity():
    # evaluation passes rate 0, which needs no rng
    x = Tensor(np.arange(6.0).reshape(2, 3))
    out = T.dropout(x, 0.0, rng=None)
    assert out is x


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(6.0))
    assert T.dropout(x, 0.0, rng=np.random.default_rng(0)) is x


def test_dropout_rate_validation():
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), 1.0, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError):
        T.dropout(Tensor([1.0]), -0.1, rng=np.random.default_rng(0))
    with pytest.raises(ConfigError, match="requires an explicit rng"):
        T.dropout(Tensor([1.0]), 0.5, rng=None)


def test_dropout_preserves_mean_in_expectation():
    # law of large numbers: 1e5 ones at rate 0.5, survivors scaled by 2
    x = Tensor(np.ones(100_000))
    out = T.dropout(x, 0.5, rng=np.random.default_rng(7))
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_backward_matches_mask():
    rng = np.random.default_rng(11)
    x = Tensor(np.ones(1000), requires_grad=True)
    out = T.dropout(x, 0.3, rng=rng)
    backward(T.tsum(out))
    survivors = out.data != 0.0
    np.testing.assert_allclose(x.grad[survivors], 1.0 / 0.7)
    np.testing.assert_allclose(x.grad[~survivors], 0.0)


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(3, 5)), requires_grad=True)
    backward(T.tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 5)))


def test_backward_square_gives_two_x():
    x = Tensor([3.0], requires_grad=True)
    backward(T.tsum(x * x))
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_of_a_leaf_gives_it_one():
    # the walk holds no leaf, the loss included, so nothing but the seed runs
    x = Tensor(3.0, requires_grad=True)
    backward(x)
    backward(x)
    np.testing.assert_array_equal(x.grad, 2.0)


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(x + x)


def test_backward_accumulates_over_reused_tensor():
    # y = x + x must match the single-path rewrite y = 2 * x
    x1 = Tensor([1.0, 2.0], requires_grad=True)
    backward(T.tsum(x1 + x1))
    x2 = Tensor([1.0, 2.0], requires_grad=True)
    backward(T.tsum(2.0 * x2))
    np.testing.assert_array_equal(x1.grad, x2.grad)


def test_second_backward_through_a_released_graph_raises():
    x = Tensor([1.0, 2.0], requires_grad=True)
    h = x * x
    loss = T.tsum(h)
    backward(loss)
    with pytest.raises(FrameAttnError, match="already released") as info:
        backward(loss)
    assert info.value.exit_code == 1
    # a new graph over a released node cannot walk through it either
    with pytest.raises(FrameAttnError, match="already released"):
        backward(T.tsum(h * 2.0))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_gradcheck_linear_function_is_exact():
    x = Tensor(np.random.default_rng(1).normal(size=(4,)))
    assert gradcheck(lambda t: T.tsum(t), x) < 1e-10


def test_gradcheck_softmax_composite():
    x = Tensor(np.random.default_rng(2).normal(size=(6,)))
    err = gradcheck(lambda t: T.tsum(R.softmax(t, axis=0) * t), x)
    assert err < 1e-6


def every_op_cases(seed):
    """A (5, 7) input and scalar functions of it that reach every op."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(5, 7)))
    w = rng.normal(size=(7, 4))
    rng_const = Tensor(rng.normal(size=(5, 7)))
    stack = rng.normal(size=(3, 7, 4))
    lhs_stack = rng.normal(size=(3, 4, 5))
    permuted_const = Tensor(rng.normal(size=(7, 1, 5)))
    conv_w = rng.normal(size=(3, 7, 2))
    conv_cot = Tensor(rng.normal(size=(1, 5, 2)))
    conv_x = rng.normal(size=(2, 4, 7))
    wqkv = Tensor(rng.normal(size=(7, 12)))
    attn_cot = Tensor(rng.normal(size=(5, 4)))
    labels = rng.integers(0, 7, size=5)
    conv_b = Tensor(rng.normal(size=(1, 1, 2)))
    conv_b1 = Tensor(rng.normal(size=(1, 1, 1)))
    conv_x2, conv_w2 = Tensor(rng.normal(size=(2, 3, 2))), Tensor(rng.normal(size=(3, 2, 35)))
    # Winograd shapes (k 5, Cin 9 >= 8, 4 * Cin >= Cout 7), T 5 and 7 cut
    # into a partial last tile
    wino_x, wino_w = Tensor(rng.normal(size=(2, 7, 9))), Tensor(rng.normal(size=(5, 9, 7)))
    wino_b, wino_pad = Tensor(rng.normal(size=(1, 1, 7))), Tensor(rng.normal(size=(1, 5, 2)))
    pool_x, pool_w1 = Tensor(rng.normal(size=(2, 4, 7))), Tensor(rng.normal(size=(7, 3)))
    pool_b1, pool_w2 = Tensor(rng.normal(size=(1, 3))), Tensor(rng.normal(size=(3, 1)))
    moe = {
        name: Tensor(rng.normal(size=shape))
        for name, shape in (
            ("x", (3, 7)), ("gate_w", (7, 5)), ("w", (5, 2, 7, 7)), ("b", (5, 2, 1, 7)),
        )
    }
    moe_ones = Tensor(np.ones((5, 1, 7, 1)))
    moe_b0, moe_b1 = Tensor(moe["b"].data[:, :1]), Tensor(moe["b"].data[:, 1:])
    mix_z = Tensor(rng.normal(size=(5, 7)))
    mix_x, mix_y = Tensor(rng.normal(size=(5, 7))), Tensor(rng.normal(size=(5, 7)))

    def sq(u):
        return T.tsum(u * u)

    cases = [
        lambda t: T.tsum(t + rng_const),
        lambda t: T.tsum(t * t),
        lambda t: T.tsum(t @ Tensor(w)),
        lambda t: T.tsum(R.transpose(t) * 2.0),
        lambda t: T.tsum(t @ Tensor(stack)),
        lambda t: sq(Tensor(lhs_stack) @ t),
        lambda t: T.tsum(R.transpose(R.reshape(t, (5, 7, 1)), (1, 2, 0)) * permuted_const),
        lambda t: T.tsum(R.reshape(t, (7, 5))),
        lambda t: T.tsum(R.getitem(t, np.s_[1:4, 2:6])),
        lambda t: T.tsum(T.tsum(t, axis=1) * 3.0),
        lambda t: T.tsum(t.mean(axis=0)),
        lambda t: T.tsum(R.tanh(t)),
        lambda t: T.tsum(R.sigmoid(t)),
        lambda t: T.tsum(R.relu(t + 0.1)),
        lambda t: sq(R.sigmoid(t) + 0.5),
        lambda t: T.tsum(R.softmax(t, axis=1) * t),
        lambda t: T.tsum(T.concat([t, t * 2.0], axis=1)),
        lambda t: T.tsum((t + (-1.0 * rng_const)) * t),
        lambda t: sq(rng_const + (-1.0 * (t * 2.0))),
        lambda t: sq(t + (-1.0 * R.getitem(t, np.s_[0:1]))),
        lambda t: T.tsum(
            T.conv1d_relu(R.reshape(t, (1, 5, 7)), Tensor(conv_w), conv_b) * conv_cot
        ),
        lambda t: sq(T.conv1d_relu(Tensor(conv_x), R.reshape(t, (5, 7, 1)), conv_b1)),
        lambda t: sq(T.conv1d_relu(conv_x2, conv_w2, R.reshape(t, (1, 1, 35)))),
        lambda t: sq(
            T.conv1d_relu(T.concat([R.reshape(t, (1, 5, 7)), wino_pad], axis=2), wino_w, wino_b)
        ),
        lambda t: sq(T.conv1d_relu(wino_x, wino_w * R.reshape(t, (5, 1, 7)), wino_b)),
        lambda t: sq(T.conv1d_relu(wino_x, wino_w, R.reshape(R.getitem(t, 0), (1, 1, 7)))),
        lambda t: T.tsum(T.dropout(t, 0.5, np.random.default_rng(seed)) * t),
    ]
    cases += [lambda t, h=h: T.tsum(T.attention(t @ wqkv, h)[0] * attn_cot) for h in (1, 4)]
    cases += [
        lambda t: sq(T.attention_pool(R.reshape(t, (1, 5, 7)), pool_w1, pool_b1, pool_w2)[0]),
        lambda t: sq(
            T.attention_pool(pool_x, R.getitem(R.transpose(t), np.s_[:, :3]), pool_b1, pool_w2)[0]
        ),
        lambda t: sq(T.attention_pool(pool_x, pool_w1, R.getitem(t, np.s_[0:1, :3]), pool_w2)[0]),
        lambda t: sq(T.attention_pool(pool_x, pool_w1, pool_b1, R.getitem(t, np.s_[1:4, 0:1]))[0]),
    ]

    def moe_with(name, operand):
        return sq(T.mixture_of_experts(**{**moe, name: operand})[0])

    cases += [
        lambda t: moe_with("x", t),
        lambda t: moe_with("gate_w", R.reshape(t, (7, 5))),
        # t scales the rows of one layer of w, or is one layer of b
        lambda t: moe_with("w", moe["w"] * T.concat([R.reshape(t, (5, 1, 7, 1)), moe_ones], 1)),
        lambda t: moe_with("w", moe["w"] * T.concat([moe_ones, R.reshape(t, (5, 1, 7, 1))], 1)),
        lambda t: moe_with("b", T.concat([R.reshape(t, (5, 1, 1, 7)), moe_b1], 1)),
        lambda t: moe_with("b", T.concat([moe_b0, R.reshape(t, (5, 1, 1, 7))], 1)),
        lambda t: sq(T.sigmoid_mix(t, mix_x, mix_y)[0]),
        lambda t: sq(T.sigmoid_mix(R.getitem(t, np.s_[1:2, 2:3]), mix_x, mix_y)[0]),
        lambda t: sq(T.sigmoid_mix(mix_z, t, mix_y)[0]),
        lambda t: sq(T.sigmoid_mix(mix_z, mix_x, t)[0]),
    ]
    cases += [
        lambda t, lam=lam, gamma=gamma: T.focal_cross_entropy(t, labels, lam, 0.7, gamma)
        for lam in (0.0, 0.3, 1.0)
        for gamma in (0.0, 0.5, 2.0)
    ]
    return x, cases


@pytest.mark.parametrize("seed", range(10))
def test_gradcheck_every_op_on_random_inputs(seed):
    x, cases = every_op_cases(seed)
    for f in cases:
        assert gradcheck(f, x) < 1e-6


def node_ops(module) -> set[tuple[str, str]]:
    """(module, function) for every function of ``module`` that calls
    ``_node`` (as ``_node`` or ``T._node``), so builds a graph node."""
    calls_node = lambda c: isinstance(c, ast.Call) and (  # noqa: E731
        getattr(c.func, "id", None) == "_node" or getattr(c.func, "attr", None) == "_node"
    )
    return {
        (module.__name__, fn.name)
        for fn in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(fn, ast.FunctionDef) and any(calls_node(c) for c in ast.walk(fn))
    }


def ops_reached(monkeypatch, run) -> set[tuple[str, str]]:
    """(module, function) of every caller of ``T._node`` while ``run()`` runs."""
    reached = set()
    node = T._node

    def recording_node(*args):
        caller = sys._getframe(1)
        reached.add((caller.f_globals["__name__"], caller.f_code.co_name))
        return node(*args)

    monkeypatch.setattr(T, "_node", recording_node)
    run()
    monkeypatch.undo()
    return reached


def test_every_node_op_has_a_gradcheck_case(monkeypatch):
    # every function of the tensor module and of the reference ops that
    # builds a graph node must be reached by a case of the every-op gradcheck
    ops = node_ops(T) | node_ops(R)
    assert {("frameattn.tensor", name) for name in
            ("add", "matmul", "conv1d_relu", "attention", "sigmoid_mix",
             "focal_cross_entropy")} <= ops
    assert {("reference_ops", name) for name in
            ("transpose", "reshape", "getitem", "tanh", "relu", "sigmoid", "softmax")} <= ops
    x, cases = every_op_cases(0)
    reached = ops_reached(monkeypatch, lambda: [f(x) for f in cases])
    assert ops <= reached, f"no gradcheck case for {sorted(ops - reached)}"


def test_a_training_step_reaches_every_node_op_of_the_tensor_module(monkeypatch):
    # the package keeps only ops it runs: one training step of the full
    # model, every stage on and dropout live, reaches each of them
    cfg = ModelConfig(window_len=8, channels=3, classes=3, d_model=8, heads=2, experts=2,
                      dropout=0.1, conv_blocks=2, kernel=5)
    assert not cfg.disabled
    model = AttentionModel(cfg, seed=0)
    rng = np.random.default_rng(1)
    frames, labels = rng.normal(size=(4, 8, 3)), np.array([0, 1, 2, 0])

    def step():
        trace = model.forward(frames, training=True, rng=rng)
        backward(combined_loss(trace.logits, labels, LossConfig(lam=0.5)))

    reached = ops_reached(monkeypatch, step)
    ops = node_ops(T)
    assert ops <= reached, f"not reached by a training step: {sorted(ops - reached)}"


def test_no_nan_inf_from_finite_inputs():
    extremes = Tensor(np.array([-1e6, -10.0, 0.0, 10.0, 1e6]))
    for out in (
        T._softmax(extremes.data, axis=0),
        T._sigmoid_stable(extremes.data),
        R.tanh(extremes).data,
    ):
        assert np.isfinite(out).all()


def test_sigmoid_stable_is_bit_identical_to_the_masked_form():
    z = np.concatenate([
        [800.0, -800.0, 0.0, -0.0, 5e-324, -5e-324, 709.0, -709.0, 746.0, -746.0, np.inf, -np.inf],
        np.random.default_rng(3).normal(scale=30.0, size=128 * 128),
    ])
    assert T._sigmoid_stable(z).tobytes() == R.sigmoid_masked(z).tobytes()
    scalar = np.array(-0.25)
    assert T._sigmoid_stable(scalar).tobytes() == R.sigmoid_masked(scalar).tobytes()


def test_no_grad_blocks_graph_recording():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad
    backward(T.tsum(x * 1.0))
    np.testing.assert_array_equal(x.grad, [1.0])


def test_backward_fault_hook_corrupts_named_op_only(scale_backward):
    x = Tensor(np.random.default_rng(5).normal(size=(4,)))
    clean = gradcheck(lambda t: T.tsum(T.sigmoid_mix(t, t, t * t)[0]), x)
    scale_backward("sigmoid_mix", 1.05)
    corrupted = gradcheck(lambda t: T.tsum(T.sigmoid_mix(t, t, t * t)[0]), x)
    assert clean < 1e-6
    assert corrupted > 1e-3


def test_gradcheck_intermediate_with_shared_gradient_arrays():
    # h takes add's gradient twice plus sigmoid's; h + h and u are handed one
    # gradient array by the outer add, and u then takes a second contribution
    def f(t):
        h = R.tanh(t)
        u = t * 2.0
        s = (h + h) + u
        return T.tsum(s * s) + T.tsum(R.sigmoid(h) * u)

    def g(t):
        h = R.tanh(t)
        u = t * 2.0
        s = (h + h) + u
        return T.tsum(R.sigmoid(h) * u) + T.tsum(s * s)

    x = Tensor(np.random.default_rng(7).normal(size=(3, 4)))
    assert gradcheck(f, x) < 1e-6
    assert gradcheck(g, x) < 1e-6


@pytest.mark.parametrize("k", [1, 3, 5])
def test_conv1d_relu_matches_per_tap_loop(k):
    rng = np.random.default_rng(k)
    batch, steps, c_in, c_out = 2, 6, 3, 4
    x = rng.normal(size=(batch, steps, c_in))
    w = rng.normal(size=(k, c_in, c_out))
    b = rng.normal(size=(1, 1, c_out))
    expect = np.zeros((batch, steps, c_out)) + b
    for t in range(steps):
        for j in range(k):
            src = t + j - k // 2  # taps past either end read zero padding
            if 0 <= src < steps:
                expect[:, t] += x[:, src] @ w[j]
    expect = np.maximum(expect, 0.0)
    assert 0 < (expect > 0).sum() < expect.size
    out = T.conv1d_relu(Tensor(x), Tensor(w), Tensor(b))
    np.testing.assert_allclose(out.data, expect, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    steps=st.integers(1, 7),
    c_in=st.integers(1, 5),
    c_out=st.integers(1, 5),
    k=st.sampled_from([1, 3, 5, 7, 9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv1d_relu_matches_composed_graph(batch, steps, c_in, c_out, k, seed):
    # the same matmul call, so values are bit-identical; dx and dW are one
    # matmul each rather than per-tap sums, so gradients round differently
    rng = np.random.default_rng(seed)
    x0 = rng.normal(size=(batch, steps, c_in))
    w0 = rng.normal(size=(k, c_in, c_out))
    b0 = rng.normal(size=(1, 1, c_out))
    cot = Tensor(rng.normal(size=(batch, steps, c_out)))
    results = []
    for op in (R.composed_conv_relu, T.conv1d_relu):
        x, w, b = (Tensor(a, requires_grad=True) for a in (x0, w0, b0))
        out = op(x, w, b)
        backward(T.tsum(out * cot))
        results.append((out.data, x.grad, w.grad, b.grad))
    (ref_out, *ref_grads), (got_out, *got_grads) = results
    np.testing.assert_array_equal(got_out, ref_out)
    for ref, got in zip(ref_grads, got_grads):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    # 1 to 4 tiles of 8, every length mod 8 through the halo joins
    steps=st.integers(1, 26),
    c_in=st.integers(8, 12),
    c_out=st.integers(4, 32),
    seed=st.integers(0, 2**32 - 1),
)
def test_conv1d_relu_winograd_matches_composed_graph(batch, steps, c_in, c_out, seed):
    # k 5, Cin >= 8 and 4 * Cin >= Cout take the Winograd path, whose
    # transforms round differently from the composed graph's matmul
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in ((batch, steps, c_in), (5, c_in, c_out), (1, 1, c_out))]
    cot = Tensor(rng.normal(size=(batch, steps, c_out)))
    results = []
    for op in (R.composed_conv_relu, T.conv1d_relu):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        backward(T.tsum(out * cot))
        results.append([out.data, *(leaf.grad for leaf in leaves)])
    for ref, got in zip(*results):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_winograd_transforms_give_the_5_tap_correlation():
    # A^T [(G g) * (B^T d)] over a 12-sample tile d is its 8 outputs
    # y_i = sum_j d[i + j] g[j]; the worst case over these 2,000 draws is
    # 4.0e-14 (5.2e-14 with seed 0)
    rng = np.random.default_rng(17)
    assert (T._WINO_AT.shape, T._WINO_G.shape, T._WINO_BT.shape) == ((8, 12), (12, 5), (12, 12))
    for _ in range(2000):
        d, g = rng.normal(size=12), rng.normal(size=5)
        direct = np.array([d[i : i + 5] @ g for i in range(8)])
        got = T._WINO_AT @ ((T._WINO_G @ g) * (T._WINO_BT @ d))
        assert np.abs(got - direct).max() <= 1e-13 * np.abs(d).max() * np.abs(g).max()


@pytest.mark.parametrize(
    "cfg",
    [
        ModelConfig(window_len=24, channels=3, classes=4),
        ModelConfig(window_len=16, channels=3, classes=4, d_model=8, heads=2, experts=2),
    ],
    ids=["default", "d8"],
)
def test_conv_blocks_after_the_first_take_the_winograd_path(monkeypatch, cfg):
    # block 0 reads the raw channels (Cin 3), the later blocks d_model
    # channels: the default model (d 128) and the smallest model the
    # gradient-check tests run (d 8)
    paths = []
    for name in ("_conv_im2col", "_conv_winograd"):

        def recording(x, w, bias, conv=getattr(T, name), name=name):
            paths.append(name)
            return conv(x, w, bias)

        monkeypatch.setattr(T, name, recording)
    frames = np.random.default_rng(0).normal(size=(2, cfg.window_len, cfg.channels))
    AttentionModel(cfg, seed=0).forward(frames, training=False)
    assert paths == ["_conv_im2col"] + ["_conv_winograd"] * (cfg.conv_blocks - 1)


_FAULT_PROBE = """
import resource
import numpy as np
from frameattn import tensor as T
from frameattn.model import AttentionModel, ModelConfig

model = AttentionModel(ModelConfig(window_len=24, channels=3, classes=4, d_model=32), seed=0)
frames = np.random.default_rng(0).normal(size=(128, 24, 3))
with T.no_grad():
    for i in range(13):
        if i == 3:
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        model.forward(frames, training=False)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="minor-fault counts under glibc's allocator")
def test_warm_no_grad_forwards_fault_no_pages_in():
    # 10 forwards at d_model 32, B 128 after 3 warm-up ones, in a fresh
    # process: with glibc's default thresholds and a conv workspace they took
    # 7,361 minor faults, as freed arrays went back to the OS
    src = str(Path(T.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", _FAULT_PROBE], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    assert int(done.stdout) < 1000


# M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in glibc's malloc.h
@pytest.mark.parametrize("libc, calls", [
    (("glibc", "2.36"), [(-3, 32 << 20), (-1, 1 << 30)]),
    (("musl", "1.2.4"), []),
    (("", ""), []),
], ids=["glibc", "musl", "unknown"])
def test_allocator_policy_calls_mallopt_only_on_glibc(monkeypatch, libc, calls):
    made = []

    def mallopt(param, value):
        made.append((param, value))
        return 1

    monkeypatch.setattr(platform, "libc_ver", lambda *args: libc)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    T._keep_freed_memory()
    assert made == calls


def test_allocator_policy_warns_when_mallopt_fails(monkeypatch):
    monkeypatch.setattr(platform, "libc_ver", lambda *args: ("glibc", "2.36"))
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=lambda p, v: 0))
    with pytest.warns(RuntimeWarning, match="mallopt"):
        T._keep_freed_memory()


def test_conv1d_relu_rejects_bad_shapes():
    x = Tensor(np.zeros((2, 6, 3)))
    b = Tensor(np.zeros((1, 1, 5)))
    with pytest.raises(ShapeError, match=r"odd k.*\(4, 3, 5\)"):
        T.conv1d_relu(x, Tensor(np.zeros((4, 3, 5))), b)
    with pytest.raises(ShapeError, match=r"\(2, 6, 3\).*\(3, 2, 5\)"):
        T.conv1d_relu(x, Tensor(np.zeros((3, 2, 5))), b)
    for bias in ((1, 5), (1, 1, 4), (2, 1, 5)):
        with pytest.raises(ShapeError, match=r"\(3, 3, 5\).*" + re.escape(str(bias))):
            T.conv1d_relu(x, Tensor(np.zeros((3, 3, 5))), Tensor(np.zeros(bias)))


def composed_attention(qkv, heads, bias=None):
    """The attention graph of elementary ops that ``T.attention`` replaces."""
    batch, d = qkv.shape[0], qkv.shape[1] // 3
    d_head = d // heads
    packed = R.transpose(R.reshape(qkv, (batch, 3, heads, d_head)), (1, 2, 0, 3))
    q, k, v = (R.getitem(packed, i) for i in range(3))
    scores = (q @ R.transpose(k, (0, 2, 1))) * (1.0 / math.sqrt(d_head))
    if bias is not None:
        scores = scores + Tensor(bias)
    weights = R.softmax(scores, axis=2)
    return R.reshape(R.transpose(weights @ v, (1, 0, 2)), (batch, d)), weights


@pytest.mark.parametrize("heads", [1, 2, 4])
def test_attention_matches_composed_graph(heads):
    # outputs, weights and the gradients of both operands of x @ wqkv
    rng = np.random.default_rng(40 + heads)
    x0, w0 = rng.normal(size=(9, 8)), rng.normal(size=(8, 24))
    cot = Tensor(rng.normal(size=(9, 8)))
    results = []
    for op in (composed_attention, T.attention):
        x, wqkv = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
        out, weights = op(x @ wqkv, heads)
        backward(T.tsum(out * cot))
        weights = weights.data if isinstance(weights, Tensor) else weights
        results.append((out.data, weights, x.grad, wqkv.grad))
    for ref, got in zip(*results):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(results[1][1].sum(axis=2), 1.0, atol=1e-12)


@pytest.mark.parametrize("cell", ["baseline", "intra", "isolated"])
def test_frame_local_multi_head_stage_is_self_masked_attention(cell):
    # with inter off the stage is x @ mh.wv @ mh.wo: the composed attention
    # graph, each frame masked to itself, on any q/k beside mh.wv; outputs
    # and the gradients of x, the value projection and mh.wo
    cfg = ModelConfig(window_len=8, channels=3, classes=3, d_model=16, heads=4, experts=2,
                      disabled=COMPONENT_CELLS[cell]["model"]["disable"].split(","))
    model = AttentionModel(cfg, seed=3)
    rng = np.random.default_rng(5)
    x0, cot = rng.normal(size=(7, 16)), Tensor(rng.normal(size=(7, 16)))
    wv, wo = model.params["mh.wv"], model.params["mh.wo"]
    wqkv = Tensor(np.hstack([rng.normal(size=(16, 32)), wv.data]), requires_grad=True)
    self_only = np.where(np.eye(7, dtype=bool), 0.0, -np.inf)

    x, ref_x = Tensor(x0, requires_grad=True), Tensor(x0, requires_grad=True)
    out, weights = multi_head_attention(x, model.params, cfg)
    assert weights is None
    backward(T.tsum(out * cot))
    got_wo = wo.grad.copy()
    wo.grad[...] = 0.0
    ref_out = composed_attention(ref_x @ wqkv, cfg.heads, self_only)[0] @ wo
    backward(T.tsum(ref_out * cot))
    for got, ref in ((out.data, ref_out.data), (x.grad, ref_x.grad),
                     (wv.grad, wqkv.grad[:, 32:]), (got_wo, wo.grad)):
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(wqkv.grad[:, :32], 0.0)  # q and k are dead weights


def test_attention_rejects_bad_packing():
    with pytest.raises(ShapeError, match=r"\(3, 12\).*3 heads"):
        T.attention(Tensor(np.zeros((3, 12))), 3)
    with pytest.raises(ShapeError, match=r"\(3, 4, 12\)"):
        T.attention(Tensor(np.zeros((3, 4, 12))), 1)


def assert_fused_matches_composed(fused, composed, arrays, cot):
    """Outputs, returned weights and every operand's gradient of ``fused``
    are bit-identical to those of the composed graph it replaces."""
    results = []
    for op in (composed, fused):
        leaves = [Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves)
        out, weights = out if isinstance(out, tuple) else (out, None)
        backward(T.tsum(out * Tensor(cot)))
        weights = weights.data if isinstance(weights, Tensor) else weights
        results.append([out.data, weights, *(leaf.grad for leaf in leaves)])
    for ref, got in zip(*results):
        np.testing.assert_array_equal(got, ref)


def composed_attention_pool(feats, w1, b1, w2):
    """The graph of elementary ops that ``T.attention_pool`` replaces."""
    batch, steps, d = feats.shape
    hidden = R.tanh(R.reshape(feats, (batch * steps, d)) @ w1 + b1)
    weights = R.softmax(R.reshape(hidden @ w2, (batch, steps)), axis=1)
    return T.tsum(R.reshape(weights, (batch, steps, 1)) * feats, axis=1), weights


def composed_mixture_of_experts(x, gate_w, w, b):
    """The graph of elementary ops that ``T.mixture_of_experts`` replaces."""
    (w1, w2), (b1, b2) = ([R.getitem(t, np.s_[:, i]) for i in (0, 1)] for t in (w, b))
    weights = R.softmax(x @ gate_w, axis=1)
    experts = R.relu(x @ w1 + b1) @ w2 + b2
    per_expert = R.reshape(R.transpose(weights), (*experts.shape[:2], 1))
    return T.tsum(per_expert * experts, axis=0), weights


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    steps=st.integers(1, 10),
    d=st.integers(1, 6),
    h=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_attention_pool_matches_composed_graph(batch, steps, d, h, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in ((batch, steps, d), (d, h), (1, h), (h, 1))]
    assert_fused_matches_composed(
        T.attention_pool, composed_attention_pool, arrays, rng.normal(size=(batch, d))
    )


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    d=st.integers(1, 5),
    experts=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixture_of_experts_matches_composed_graph(batch, d, experts, seed):
    rng = np.random.default_rng(seed)
    shapes = ((batch, d), (d, experts), (experts, 2, d, d), (experts, 2, 1, d))
    arrays = [rng.normal(size=s) for s in shapes]
    assert_fused_matches_composed(
        T.mixture_of_experts, composed_mixture_of_experts, arrays, rng.normal(size=(batch, d))
    )


def composed_sigmoid_mix(z, x, y):
    """The graph of elementary ops that ``T.sigmoid_mix`` replaces."""
    s = R.sigmoid(z)
    return s * x + (1.0 + (-1.0 * s)) * y, s


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    z_rows_one=st.booleans(),
    z_cols_one=st.booleans(),
    scale=st.sampled_from([1.0, 30.0]),
    saturated=st.lists(st.sampled_from([40.0, -40.0, 800.0, -800.0]), max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_sigmoid_mix_matches_composed_graph(
    rows, cols, z_rows_one, z_cols_one, scale, saturated, seed
):
    # the gate's full-shape logits and the blend's (1, 1) logit, and the
    # broadcast shapes in between; scale 30 and the saturated entries drive
    # the sigmoid into both tails (at -800 and 800 it is exactly 0 and 1)
    rng = np.random.default_rng(seed)
    z = scale * rng.normal(size=(1 if z_rows_one else rows, 1 if z_cols_one else cols))
    z.flat[: len(saturated)] = saturated[: z.size]
    arrays = [z, *rng.normal(size=(2, rows, cols))]
    assert_fused_matches_composed(
        T.sigmoid_mix, composed_sigmoid_mix, arrays, rng.normal(size=(rows, cols))
    )



@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 4),
    d=st.integers(1, 5),
    n=st.integers(1, 5),
    scale=st.sampled_from([1.0, 30.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_linear_sigmoid_matches_composed_graph(batch, d, n, scale, seed):
    # the gate stage as the model builds it, affine logits from gate_values
    # blended by apply_gate, against sigmoid(x @ w + b) as its own node;
    # the gradients reach x, w and b through the sigmoid.  Scale 30 drives
    # the sigmoid into both saturated tails
    rng = np.random.default_rng(seed)
    arrays = [scale * rng.normal(size=s) for s in ((batch, d), (d, n), (1, n))]
    arrays += list(rng.normal(size=(2, batch, n)))

    def gate_stage(x, w, b, a_mul, x_enhanced):
        logits = gate_values(x, {"gate.wg": w, "gate.bg": b})
        return apply_gate(logits, a_mul, x_enhanced)

    assert_fused_matches_composed(
        gate_stage, lambda x, w, b, u, v: composed_sigmoid_mix(x @ w + b, u, v),
        arrays, rng.normal(size=(batch, n)),
    )


@settings(max_examples=60, deadline=None)
@given(
    batch=st.integers(1, 5),
    d=st.integers(1, 5),
    alpha=st.one_of(
        st.floats(-30.0, 30.0), st.sampled_from([40.0, -40.0, 800.0, -800.0])
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_mix_matches_composed_graph(batch, d, alpha, seed):
    # the blend stage as the model builds it: combine_attention weights
    # a_inter by sigmoid of the (1, 1) logit alpha and a_intra by the rest
    rng = np.random.default_rng(seed)
    arrays = [*rng.normal(size=(2, batch, d)), np.array([[alpha]])]
    assert_fused_matches_composed(
        combine_attention,
        lambda a_inter, a_intra, a: composed_sigmoid_mix(a, a_inter, a_intra)[0],
        arrays, rng.normal(size=(batch, d)),
    )

def test_fused_stage_ops_reject_bad_shapes():
    z = lambda *s: Tensor(np.zeros(s))  # noqa: E731
    with pytest.raises(ShapeError, match=r"attention_pool.*\(2, 3, 4\).*\(5, 2\)"):
        T.attention_pool(z(2, 3, 4), z(5, 2), z(1, 2), z(2, 1))
    with pytest.raises(ShapeError, match=r"attention_pool.*\(2, 3\)"):
        T.attention_pool(z(2, 3, 4), z(4, 2), z(1, 2), z(2, 3))
    with pytest.raises(ShapeError, match=r"mixture_of_experts.*\(3, 2, 4, 4\)"):
        T.mixture_of_experts(z(2, 4), z(4, 2), z(3, 2, 4, 4), z(2, 2, 1, 4))
    with pytest.raises(ShapeError, match=r"mixture_of_experts.*\(2, 2, 1, 3\)"):
        T.mixture_of_experts(z(2, 4), z(4, 2), z(2, 2, 4, 4), z(2, 2, 1, 3))
    with pytest.raises(ShapeError, match=r"sigmoid_mix.*\(3, 1\), \(2, 4\) and \(2, 4\)"):
        T.sigmoid_mix(z(3, 1), z(2, 4), z(2, 4))

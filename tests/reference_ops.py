"""Autodiff ops that only the tests use.

The fused nodes of ``frameattn.tensor`` are checked against the composed
graphs of elementary ops they replace.  The ops those graphs need besides
the ones the package runs live here, built on the same ``T._node`` and
``T._acc``, so a composed graph records and backpropagates exactly as it
would inside the package.  Each has a case in the every-op gradcheck.
``sigmoid_masked`` is a plain array function: the form of the package's
stable sigmoid that its bit-identity test compares against.
``composed_conv_relu`` is such a composed graph, kept here because both the
conv op's tests and the backbone's chained-block test compare against it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from frameattn import tensor as T
from frameattn.errors import ShapeError
from frameattn.tensor import Tensor


def transpose(a: Tensor, axes: Sequence[int] | None = None) -> Tensor:
    """Permute axes, as numpy.transpose: output axis i is input axis
    ``axes[i]``; None reverses the axes."""
    a = T._as_tensor(a)
    try:
        data = np.transpose(a.data, axes)
    except ValueError as e:
        raise ShapeError(f"transpose: axes {axes} do not fit shape {a.shape}") from e
    inverse = None if axes is None else np.argsort(axes)

    def rule(g):
        T._acc(a, np.transpose(g, inverse))

    return T._node(data.copy(), (a,), rule)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    a = T._as_tensor(a)
    try:
        data = a.data.reshape(tuple(shape))
    except ValueError as e:
        raise ShapeError(f"reshape: cannot view {a.shape} as {tuple(shape)}") from e

    def rule(g):
        T._acc(a, g.reshape(a.data.shape))

    return T._node(data, (a,), rule)


def getitem(a: Tensor, key) -> Tensor:
    """Basic indexing only (ints and slices); backward scatters into zeros."""
    a = T._as_tensor(a)

    def rule(g):
        full = np.zeros_like(a.data)
        full[key] += g
        T._acc(a, full)

    return T._node(a.data[key], (a,), rule)


def tanh(a: Tensor) -> Tensor:
    a = T._as_tensor(a)
    y = np.tanh(a.data)

    def rule(g):
        T._acc(a, (1.0 - y * y) * g)

    return T._node(y, (a,), rule)


def sigmoid(a: Tensor) -> Tensor:
    a = T._as_tensor(a)
    y = T._sigmoid_stable(a.data)

    def rule(g):
        T._acc(a, y * (1.0 - y) * g)

    return T._node(y, (a,), rule)


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """The stable sigmoid by boolean masks, the form ``T._sigmoid_stable``
    replaced: 1 / (1 + e^-z) where z >= 0 and e^z / (1 + e^z) elsewhere."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def relu(a: Tensor) -> Tensor:
    a = T._as_tensor(a)

    def rule(g):
        T._acc(a, (a.data > 0.0) * g)

    return T._node(np.maximum(a.data, 0.0), (a,), rule)


def softmax(a: Tensor, axis: int) -> Tensor:
    a = T._as_tensor(a)
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} out of range for shape {a.shape}")
    y = T._softmax(a.data, axis)

    def rule(g):
        T._acc(a, y * (g - (g * y).sum(axis=axis, keepdims=True)))

    return T._node(y, (a,), rule)


def composed_conv_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """The per-tap slice, matmul, bias and ReLU graph ``T.conv1d_relu`` replaces."""
    batch, steps, c_in = x.shape
    k, _, c_out = w.shape
    zeros = Tensor(np.zeros((batch, k // 2, c_in)))
    xp = T.concat([zeros, x, zeros], axis=1)
    cols = T.concat([getitem(xp, np.s_[:, j : j + steps, :]) for j in range(k)], axis=2)
    out = reshape(cols, (batch * steps, k * c_in)) @ reshape(w, (k * c_in, c_out))
    return relu(reshape(out, (batch, steps, c_out)) + b)

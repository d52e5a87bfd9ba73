"""Dense float64 tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient.  While
recording is on, an operation on inputs that need a gradient keeps them and
a local backward rule on its output, so the graph is rebuilt on every forward
pass (define-by-run); under ``no_grad`` nothing is recorded.  A rule takes the
output gradient as its argument and never refers to its own output, so graphs
are acyclic and freed by reference counting.  ``backward`` visits the recorded
nodes once in reverse topological order.  Gradients add up, which makes
tensors reused on several paths come out right: a leaf made with
``requires_grad=True`` owns a zeroed buffer, and an intermediate gets its
gradient on first accumulation.  An intermediate's gradient is dropped as
soon as its own rule has consumed it, since every contribution to it has
arrived by then; leaves keep theirs.  ``backward`` releases the graph it
walks: a node drops its rule and parents once the rule has run, freeing the
arrays the rule kept, so a second ``backward`` through it raises.

The module holds only the ops a training step runs.  The plain ones are
``add``, ``mul``, ``matmul``, ``tsum`` (and ``tmean``, a sum times 1/n),
``concat`` and ``dropout``; the rest are fused nodes with hand-written
backward rules, one per stage of the classifier: ``conv1d_relu`` (a conv
block: convolution along time, bias and ReLU), ``attention_pool`` (additive
attention pooling over time), ``attention`` (all heads of scaled dot-product
attention), ``sigmoid_mix`` (the convex blend s * x + (1 - s) * y with
s = sigmoid(z), for the summary blend and the output gate),
``mixture_of_experts`` (softmax-gated two-layer experts, both layers packed
in one (E, 2, d, d) weight and one (E, 2, 1, d) bias) and
``focal_cross_entropy`` (the training loss).  Each computes its forward with
the numpy ops of the composed graph it replaces, in the same order, so
values and gradients are bit-identical to that graph's.  The exception is
``conv1d_relu``: its dW and dx are one matmul each, and its Winograd path
(see there) computes values too from transformed tiles, so both agree with
the per-tap graph to within 1e-12 of their largest magnitude (measured:
4.4e-14 at most, for values and all three gradients).  The ops those
composed graphs need besides the ones here (``transpose``, ``reshape``,
``getitem``, ``tanh``, ``relu``, ``sigmoid`` and ``softmax``) live with the
tests, in ``tests/reference_ops.py``.

Broadcasting follows numpy; the backward side sums gradients over broadcast
dimensions.  Everything is float64: at the sizes this package targets the
precision is worth far more than the speed, and it is what makes tight
finite-difference tolerances achievable.  Ops allocate their arrays per
call; importing the module sets the allocator policy ``_keep_freed_memory``.
``blas_threads`` gives the BLAS thread count's controls to callers that run
ops on several threads at once.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import platform
import warnings
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, FrameAttnError, ShapeError

Array = np.ndarray

# Lower clamp for log arguments; keeps the focal term finite as p_t -> 0.
LOG_FLOOR = 1e-12

_grad_enabled = True


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse.  By default it unmaps
    freed blocks of 128 KiB and up and trims the heap top, so each batch
    faulted its arrays in afresh; blocks up to 32 MiB (its 64-bit ceiling)
    now come from the heap, trimmed only past 1 GiB free.  Off glibc: a no-op.
    It pays where eval workers free and reuse large arrays at once: eval_long
    read 12,050-13,940 eval frames/s with it and 10,690-11,600 without (4/4
    alternated pairs, 2-core x86, 2 BLAS threads)."""
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1 in malloc.h
    for param, value in ((-3, 32 << 20), (-1, 1 << 30)):
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({param}, {value}) failed", RuntimeWarning, stacklevel=2)


_keep_freed_memory()


@functools.cache
def blas_threads() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The loaded OpenBLAS's get- and set-num-threads functions, looked up by
    their exported names (``scipy_openblas_get_num_threads64_`` in numpy's
    wheels) in the OpenBLAS shared objects listed in /proc/self/maps; None
    where there is no such list or no such library (another BLAS, or off
    Linux).  The count is process-wide: it holds for every thread's calls."""
    try:
        with open("/proc/self/maps") as fh:  # the path is a line's last field
            paths = {line.split(None, 5)[-1].strip() for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # such as a library deleted since it was mapped
            continue
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                return get, put
    return None


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation, numeric probes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Row-major float64 array with an optional gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_rule")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: Array | None = np.zeros_like(self.data) if self.requires_grad else None
        self._parents: tuple[Tensor, ...] = ()
        self._rule: Callable[[Array], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # arithmetic

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def mean(self, axis: int | None = None):
        return tmean(self, axis=axis)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: Array, parents: tuple[Tensor, ...], rule: Callable[[Array], None]) -> Tensor:
    """An op's result; ``rule`` and ``parents`` are kept only if a gradient can flow."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._rule = rule
    return out


def _unbroadcast(grad: Array, shape: tuple[int, ...]) -> Array:
    """Sum gradient over dimensions that were expanded by broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, extent in enumerate(shape):
        if extent == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


def _acc(t: Tensor, g: Array) -> None:
    """A leaf adds into its own buffer; a node keeps its first gradient as
    given, possibly shared, and adds later ones out of place."""
    if g.shape != t.data.shape:
        g = _unbroadcast(g, t.data.shape)
    if t.grad is None:
        t.grad = g
    elif t._rule is None:
        t.grad += g
    else:
        t.grad = t.grad + g


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data + b.data
    except ValueError as e:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}") from e

    def rule(g):
        if a.requires_grad:
            _acc(a, g)
        if b.requires_grad:
            _acc(b, g)

    return _node(data, (a, b), rule)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        data = a.data * b.data
    except ValueError as e:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}") from e

    def rule(g):
        if a.requires_grad:
            _acc(a, b.data * g)
        if b.requires_grad:
            _acc(b, a.data * g)

    return _node(data, (a, b), rule)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes of rank >= 2 operands, as
    numpy.matmul: leading axes broadcast, so (B, d) @ (E, d, n) is (E, B, n)."""
    a, b = _as_tensor(a), _as_tensor(b)
    data = None
    if a.ndim >= 2 and b.ndim >= 2:
        with contextlib.suppress(ValueError):
            data = a.data @ b.data
    if data is None:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} and {b.shape}")

    def rule(g):
        if a.requires_grad:
            _acc(a, g @ np.swapaxes(b.data, -1, -2))
        if b.requires_grad:
            _acc(b, np.swapaxes(a.data, -1, -2) @ g)

    return _node(data, (a, b), rule)


def tsum(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)

    def rule(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        _acc(a, np.broadcast_to(g, a.data.shape))

    return _node(a.data.sum(axis=axis), (a,), rule)


def tmean(a: Tensor, axis: int | None = None) -> Tensor:
    a = _as_tensor(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(tsum(a, axis=axis), 1.0 / float(n))


def _sigmoid_stable(z: Array) -> Array:
    """1 / (1 + e^-z), from e^-|z| <= 1 on both sides so no exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_mix(z, x, y) -> tuple[Tensor, Array]:
    """s * x + (1 - s) * y with s = sigmoid(z), broadcasting as numpy: a
    convex blend of x and y weighted by the logit z.  One node, returning
    the blend and, as a plain array, s."""
    z, x, y = _as_tensor(z), _as_tensor(x), _as_tensor(y)
    s = _sigmoid_stable(z.data)
    try:
        data = s * x.data + (1.0 - s) * y.data
    except ValueError as e:
        raise ShapeError(
            f"sigmoid_mix: incompatible shapes {z.shape}, {x.shape} and {y.shape}"
        ) from e

    def rule(g):
        if z.requires_grad:
            # each term reduced on its own, as the two-product graph does
            g_s = _unbroadcast(x.data * g, s.shape) - _unbroadcast(y.data * g, s.shape)
            _acc(z, s * (1.0 - s) * g_s)
        if x.requires_grad:
            _acc(x, s * g)
        if y.requires_grad:
            _acc(y, (1.0 - s) * g)

    return _node(data, (z, x, y), rule), s


def _softmax(z: Array, axis: int) -> Array:
    """Exponentials normalized along ``axis``, max-subtracted for stability."""
    e = np.exp(z - z.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def attention(qkv: Tensor, heads: int) -> tuple[Tensor, Array]:
    """Scaled dot-product attention among the B rows of a packed projection
    qkv (B, 3d) of query, key and value blocks; head i reads columns
    i*d_head:(i+1)*d_head of each.  One node, returning the (B, d) head
    outputs and, as a plain array, the (heads, B, B) weights P.  Backward as
    in Dao et al., 2022 (arXiv:2205.14135): dV = P^T dO, dP = dO V^T,
    dS = P * (dP - rowsum(dP * P)) * scale, dQ = dS K and dK = (Q^T dS)^T."""
    qkv = _as_tensor(qkv)
    if qkv.ndim != 2 or heads < 1 or qkv.shape[1] % (3 * heads) != 0:
        raise ShapeError(f"attention: {qkv.shape} is not (B, 3d) with d divisible by {heads} heads")
    batch, d = qkv.shape[0], qkv.shape[1] // 3
    d_head = d // heads
    scale = 1.0 / math.sqrt(d_head)
    q, k, v = qkv.data.reshape(batch, 3, heads, d_head).transpose(1, 2, 0, 3).copy()
    kt = k.transpose(0, 2, 1).copy()
    p = _softmax((q @ kt) * scale, axis=2)
    out = (p @ v).transpose(1, 0, 2).reshape(batch, d)

    def rule(g):
        g_out = g.reshape(batch, heads, d_head).transpose(1, 0, 2)
        g_p = g_out @ np.swapaxes(v, -1, -2)
        g_s = p * (g_p - (g_p * p).sum(axis=2, keepdims=True)) * scale
        g_qkv = np.empty((3, heads, batch, d_head))
        # dQ and dK as matmul's own rule on q @ kt computes them, operand
        # layouts included, so they round exactly like separate matmul ops
        g_qkv[0] = g_s @ np.swapaxes(kt, -1, -2)
        g_qkv[1] = np.swapaxes(np.swapaxes(q, -1, -2) @ g_s, -1, -2)
        g_qkv[2] = np.swapaxes(p, -1, -2) @ g_out
        _acc(qkv, g_qkv.transpose(2, 0, 1, 3).reshape(batch, 3 * d))

    return _node(out, (qkv,), rule), p


def attention_pool(feats: Tensor, w1: Tensor, b1: Tensor, w2: Tensor) -> tuple[Tensor, Array]:
    """Additive attention pooling (Bahdanau et al., 2015, arXiv:1409.0473)
    of the T rows of each of B frames feats (B, T, d): scores
    s = tanh(x_t @ w1 + b1) @ w2 with w1 (d, h), b1 (1, h) and w2 (h, 1),
    weights p = softmax of s over T, output sum_t p_t x_t.  One node,
    returning the (B, d) output and, as a plain array, the (B, T) weights.
    Backward keeps the tanh output and the weights; feats gets the sum of
    its two paths, through the weighted sum and through the scores."""
    feats, w1, b1, w2 = (_as_tensor(t) for t in (feats, w1, b1, w2))
    if (
        feats.ndim != 3
        or w1.ndim != 2
        or feats.shape[2] != w1.shape[0]
        or b1.shape != (1, w1.shape[1])
        or w2.shape != (w1.shape[1], 1)
    ):
        raise ShapeError(
            f"attention_pool: need feats (B, T, d), w1 (d, h), b1 (1, h) and w2 (h, 1), "
            f"got {feats.shape}, {w1.shape}, {b1.shape} and {w2.shape}"
        )
    batch, steps, d = feats.shape
    flat = feats.data.reshape(batch * steps, d)
    hidden = flat @ w1.data
    hidden += b1.data
    np.tanh(hidden, out=hidden)
    p = _softmax((hidden @ w2.data).reshape(batch, steps), axis=1)
    p3 = p.reshape(batch, steps, 1)
    out = (p3 * feats.data).sum(axis=1)

    def rule(g):
        g3 = g[:, None, :]
        g_p = (feats.data * g3).sum(axis=2)
        g_s = (p * (g_p - (g_p * p).sum(axis=1, keepdims=True))).reshape(batch * steps, 1)
        if w2.requires_grad:
            _acc(w2, np.swapaxes(hidden, -1, -2) @ g_s)
        g_h = (1.0 - hidden * hidden) * (g_s @ np.swapaxes(w2.data, -1, -2))
        if b1.requires_grad:
            _acc(b1, g_h)
        if w1.requires_grad:
            _acc(w1, np.swapaxes(flat, -1, -2) @ g_h)
        if feats.requires_grad:
            g_flat = g_h @ np.swapaxes(w1.data, -1, -2)
            _acc(feats, p3 * g3 + g_flat.reshape(batch, steps, d))

    return _node(out, (feats, w1, b1, w2), rule), p


def mixture_of_experts(x: Tensor, gate_w: Tensor, w: Tensor, b: Tensor) -> tuple[Tensor, Array]:
    """Softmax-gated mixture of E two-layer ReLU experts (Shazeer et al.,
    2017, arXiv:1701.06538, without the sparsity): sum_e p_e * (relu(x @
    w[e, 0] + b[e, 0]) @ w[e, 1] + b[e, 1]) with p = softmax(x @ gate_w) over
    the experts.  x (B, d), gate_w (d, E), and each expert's two layers
    packed as w (E, 2, d, d) and b (E, 2, 1, d); each layer is one matmul
    broadcast over the expert axis.  One node, returning the (B, d) mixture
    and, as a plain array, the (B, E) weights.  Backward keeps the ReLU
    output, which is also its mask, the expert outputs and the weights, and
    writes both layers' gradients into slices of one array per operand."""
    x, gate_w, w, b = (_as_tensor(t) for t in (x, gate_w, w, b))
    experts_n = gate_w.shape[1] if gate_w.ndim == 2 else -1
    if (
        x.ndim != 2
        or gate_w.shape != (x.shape[1], experts_n)
        or w.shape != (experts_n, 2, x.shape[1], x.shape[1])
        or b.shape != (experts_n, 2, 1, x.shape[1])
    ):
        raise ShapeError(
            f"mixture_of_experts: need x (B, d), gate_w (d, E), w (E, 2, d, d) and "
            f"b (E, 2, 1, d), got {x.shape}, {gate_w.shape}, {w.shape} and {b.shape}"
        )
    p = _softmax(x.data @ gate_w.data, axis=1)
    hidden = x.data @ w.data[:, 0]
    hidden += b.data[:, 0]
    np.maximum(hidden, 0.0, out=hidden)
    experts = hidden @ w.data[:, 1]
    experts += b.data[:, 1]
    p3 = p.T.copy().reshape(experts_n, x.shape[0], 1)
    out = (p3 * experts).sum(axis=0)

    def rule(g):
        g3 = g[None]
        g_p = (experts * g3).sum(axis=2).T
        g_z = p * (g_p - (g_p * p).sum(axis=1, keepdims=True))
        g_e = p3 * g3
        g_h = (hidden > 0.0) * (g_e @ np.swapaxes(w.data[:, 1], -1, -2))
        if b.requires_grad:
            g_b = np.empty(b.shape)
            np.sum(g_h, axis=1, keepdims=True, out=g_b[:, 0])
            np.sum(g_e, axis=1, keepdims=True, out=g_b[:, 1])
            _acc(b, g_b)
        if w.requires_grad:
            g_w = np.empty(w.shape)
            np.matmul(np.swapaxes(x.data, -1, -2), g_h, out=g_w[:, 0])
            np.matmul(np.swapaxes(hidden, -1, -2), g_e, out=g_w[:, 1])
            _acc(w, g_w)
        if gate_w.requires_grad:
            _acc(gate_w, np.swapaxes(x.data, -1, -2) @ g_z)
        if x.requires_grad:
            g_x = (g_h @ np.swapaxes(w.data[:, 0], -1, -2)).sum(axis=0)
            _acc(x, g_z @ np.swapaxes(gate_w.data, -1, -2) + g_x)

    return _node(out, (x, gate_w, w, b), rule), p


def focal_cross_entropy(
    logits: Tensor, labels: Array, lam: float, beta: float, gamma: float
) -> Tensor:
    """Mean over rows of (1 - lam) * CE + lam * FL with CE = -log p_t and
    FL = -beta * (1 - p_t)^gamma * log p_t, p_t the softmax probability of the
    row's label (in range: not checked here).  The log clamps p_t at
    LOG_FLOOR, with derivative 0 below it, and a non-finite
    (1 - p_t)^(gamma - 1) counts as 0, so backward stays finite."""
    logits = _as_tensor(logits)
    n = logits.shape[0]
    rows = np.arange(n)
    probs = _softmax(logits.data, axis=1)
    p_t = probs[rows, labels]
    clamped = np.maximum(p_t, LOG_FLOOR)
    log_p = np.log(clamped)
    weight = (1.0 - p_t) ** gamma
    ce = (-log_p).sum() * (1.0 / n)  # means as sum times 1/n, as in tmean
    fl = ((weight * -beta) * log_p).sum() * (1.0 / n)

    def rule(g):
        inv_p = np.where(p_t > LOG_FLOOR, 1.0 / clamped, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d_weight = gamma * (1.0 - p_t) ** (gamma - 1.0)
        d_weight = np.where(np.isfinite(d_weight), d_weight, 0.0)
        d_p = lam * beta * d_weight * log_p - ((1.0 - lam) + lam * beta * weight) * inv_p
        d_logits = -probs * p_t[:, None]
        d_logits[rows, labels] += p_t
        _acc(logits, d_logits * (d_p * (g / n))[:, None])

    return _node(ce * (1.0 - lam) + fl * lam, (logits,), rule)


def concat(tensors: Sequence[Tensor], axis: int) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat: need at least one tensor")
    try:
        data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as e:
        raise ShapeError(
            "concat: incompatible shapes " + ", ".join(str(p.shape) for p in parts)
        ) from e
    sizes = [p.data.shape[axis] for p in parts]

    def rule(g):
        offset = 0
        for p, n in zip(parts, sizes):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(offset, offset + n)
                _acc(p, g[tuple(idx)])
            offset += n

    return _node(data, tuple(parts), rule)


def _im2col(a: Array, k: int) -> Array:
    """(B, T, C) -> (B*T, k*C): row (b, t) holds a[b, t + j - (k - 1) // 2]
    for taps j = 0..k-1, zero where that index falls outside 0..T-1."""
    batch, steps, c = a.shape
    pad = (k - 1) // 2
    padded = np.zeros((batch, steps + 2 * pad, c))
    padded[:, pad : pad + steps] = a
    windows = sliding_window_view(padded, k, axis=1)  # (B, T, C, k)
    # at B = 1 the reshape is a view with overlapping rows, which matmul
    # runs outside BLAS and may round differently: copy it
    return np.ascontiguousarray(windows.transpose(0, 1, 3, 2).reshape(batch * steps, k * c))


def _conv_im2col(x: Tensor, w: Tensor, bias: Array) -> tuple[Array, Callable[[Array], None]]:
    """relu(conv + bias) of ``conv1d_relu`` by one (B*T, k*Cin) @ (k*Cin,
    Cout) matmul, and the rule taking the masked output gradient to dW and
    dx: one matmul each, against the kept columns and against the masked
    gradient's columns with the flipped, transposed kernel."""
    batch, steps, c_in = x.shape
    k, _, c_out = w.shape
    cols = _im2col(x.data, k)
    out = cols @ w.data.reshape(k * c_in, c_out)
    out += bias
    np.maximum(out, 0.0, out=out)

    def rule(g):
        # operand orders measured fastest for dW and dx on a 128 -> 128 block
        # (B 128, T 24), before Winograd took every block but the first
        if w.requires_grad:
            g2 = g.reshape(batch * steps, c_out)
            _acc(w, (g2.T @ cols).T.reshape(w.data.shape))
        if x.requires_grad:
            w_flip = w.data[::-1].transpose(0, 2, 1).reshape(k * c_out, c_in)
            gx = (w_flip.T @ _im2col(g, k).T).T
            _acc(x, gx.reshape(batch, steps, c_in))

    return out.reshape(batch, steps, c_out), rule


def _winograd_transforms(points: Sequence[float], m: int, r: int) -> tuple[Array, Array, Array]:
    """A^T (m, n), G (n, r) and B^T (n, n), n = m + r - 1, of Winograd's
    minimal filtering F(m, r) (Lavin & Gray, 2016, arXiv:1509.09308): for a
    tile d of n samples and taps g, the m outputs y_i = sum_j d[i + j] g[j]
    are A^T [(G g) * (B^T d)].  Toom-Cook at the n - 1 ``points`` and at
    infinity: A^T's column for a point holds its powers, G's row holds them
    over f = prod(point - other points), B^T's row holds the coefficients of
    prod(x - other point), and infinity's rows take leading coefficients."""
    points = np.asarray(points, dtype=np.float64)
    n = m + r - 1
    a_t, g, b_t = np.zeros((m, n)), np.zeros((n, r)), np.zeros((n, n))
    for i, p in enumerate(points):
        others = np.delete(points, i)
        a_t[:, i] = p ** np.arange(m)
        g[i] = p ** np.arange(r) / np.prod(p - others)
        b_t[i, :-1] = np.poly(others)[::-1]
    a_t[-1, -1] = g[-1, -1] = 1.0
    b_t[-1] = np.poly(points)[::-1]
    return a_t, g, b_t


_WINO_POINTS = (0.0, 1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 1.5, -1.5, 0.75, -0.75)
_WINO_AT, _WINO_G, _WINO_BT = _winograd_transforms(_WINO_POINTS, 8, 5)


def _phases(a: Array, tiles_n: int) -> Array:
    """The (8, B, tiles_n, C) view of a (B, T, C): [j, :, i] is a[:, 8i + j].
    A T short of 8 * tiles_n reads a copy zero-padded to that length."""
    batch, steps, c = a.shape
    if steps < 8 * tiles_n:
        padded = np.zeros((batch, 8 * tiles_n, c))
        padded[:, :steps] = a
        a = padded
    return a.reshape(batch, tiles_n, 8, c).transpose(2, 0, 1, 3)


def _conv_winograd(x: Tensor, w: Tensor, bias: Array) -> tuple[Array, Callable[[Array], None]]:
    """relu(conv + bias) of ``conv1d_relu`` for 5 taps by Winograd F(8, 5):
    time is cut into tiles of 8 outputs, tile i reading the 12 samples
    8i - 2 .. 8i + 9.  With V the B^T-transformed tiles (12, B*tiles, Cin)
    and U = G w (12, Cin, Cout), the products M = V @ U are 12 batched
    matmuls and the outputs are A^T M.  The rule takes the masked output
    gradient back through the same transforms: dM = A dY, dW = G^T (V^T dM)
    and dx overlap-adds the tile gradients B (dM U^T).  Tiles are laid out
    (12, B, tiles, Cin), so rows 2..9 are one strided copy of x.  The bias
    joins M's row for the point 1, an all-ones column of A^T.  ReLU writes
    A^T M into ``_phases``' (8, B, tiles, Cout) view of the output, and dY
    and dx pass through the same view; a partial last tile reads x and dY
    from one zero-padded copy each.  The last four points won a sweep on
    the worst tile error over 3,000 draws, relative to |d|max * |g|max:
    +-3/2, +-3/4 5.2e-14; +-3/2, +-2/3 5.8e-14; +-3, +-1/3 8.3e-14;
    +-2/3, +-1/3 3.3e-13."""
    batch, steps, c_in = x.shape
    c_out = w.shape[2]
    tiles_n = -(-steps // 8)
    tiles = np.empty((12, batch, tiles_n, c_in))
    # tile rows 2..9 read each sample once; rows 0, 1 repeat rows 8, 9 of
    # the tile before and rows 10, 11 rows 2, 3 of the tile after
    tiles[2:10] = _phases(x.data, tiles_n)
    tiles[0:2, :, 0] = 0.0
    tiles[0:2, :, 1:] = tiles[8:10, :, :-1]
    tiles[10:12, :, -1] = 0.0
    tiles[10:12, :, :-1] = tiles[2:4, :, 1:]
    v = (_WINO_BT @ tiles.reshape(12, -1)).reshape(12, -1, c_in)
    del tiles  # neither the rest of the forward nor the rule reads it
    u = (_WINO_G @ w.data.reshape(5, -1)).reshape(12, c_in, c_out)
    prods = v @ u
    prods[_WINO_POINTS.index(1.0)] += bias
    y_tiles = (_WINO_AT @ prods.reshape(12, -1)).reshape(8, batch, tiles_n, c_out)
    del prods
    out = np.empty((batch, 8 * tiles_n, c_out))
    np.maximum(y_tiles, 0.0, out=_phases(out, tiles_n))

    def rule(g):
        g_m = (_WINO_AT.T @ _phases(g, tiles_n).reshape(8, -1)).reshape(12, -1, c_out)
        if w.requires_grad:
            g_u = np.swapaxes(v, 1, 2) @ g_m
            _acc(w, (_WINO_G.T @ g_u.reshape(12, -1)).reshape(w.data.shape))
        if x.requires_grad:
            g_v = g_m @ np.swapaxes(u, 1, 2)
            g_tiles = (_WINO_BT.T @ g_v.reshape(12, -1)).reshape(12, batch, tiles_n, c_in)
            g_tiles[8:10, :, :-1] += g_tiles[0:2, :, 1:]
            g_tiles[2:4, :, 1:] += g_tiles[10:12, :, :-1]
            g_x = np.empty((batch, 8 * tiles_n, c_in))
            _phases(g_x, tiles_n)[...] = g_tiles[2:10]
            _acc(x, g_x[:, :steps])

    return out[:, :steps], rule


def conv1d_relu(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """relu(conv + b): zero-padded convolution along time of x (B, T, Cin)
    with w (k, Cin, Cout), odd k, plus bias b (1, 1, Cout), to (B, T, Cout):
    out[:, t] = relu(b + sum_j x[:, t + j - (k - 1) // 2] @ w[j]).

    One node with two paths, chosen from the shapes.  Winograd F(8, 5)
    (``_conv_winograd``) takes k = 5 with Cin >= 8 and 4 * Cin >= Cout; it
    spends 12 multiplies per 8 outputs where im2col spends 40, so at d_model
    128, B 128 and T 24 a block's matmuls are 151 MFLOP per pass instead of
    503, plus about 25 MFLOP of transforms.  im2col (Chellapilla et al.,
    2006; ``_conv_im2col``) takes every other shape: one (B*T, k*Cin) @
    (k*Cin, Cout) matmul, with the bias and activation fused in as in cuDNN
    (Chetlur et al., 2014).  The rule masks the output gradient by out > 0,
    sums it for the bias and hands it to the path's own dW and dx.

    The choice follows one block's no-grad forward at T 24 (ms, im2col vs
    Winograd, 2 BLAS threads; backward in brackets): B 128, 3 -> 128: 0.71
    vs 1.44 (2.35 vs 1.27); B 128, 16 -> 128: 1.31 vs 1.58 (3.03 vs 1.59);
    B 128, 32 -> 128: 1.95 vs 1.68 (4.14 vs 2.10); B 32, 32 -> 32: 0.24 vs
    0.14 (0.39 vs 0.20); B 128, 128 -> 128: 7.2 vs 3.5 (11.3 vs 5.4).  With
    few input channels the tile transforms outweigh the saved multiplies;
    at B 128, 8 -> 32 and 16 -> 64 the forwards are within 5 %.  The bound
    at 8 keeps small checked models (d_model 8) on the default model's
    path: the first block, on the raw sensor channels, runs on im2col and
    every later block on Winograd.

    For backward, im2col keeps its columns (B*T, k*Cin) and Winograd its
    transformed input tiles (12, B*ceil(T/8), Cin): 15.7 and 4.7 MB per
    block at d_model 128, B 128.  All other arrays are per call, and their
    freed pages are reused under ``_keep_freed_memory``'s allocator policy."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if (
        x.ndim != 3
        or w.ndim != 3
        or w.shape[0] % 2 == 0
        or x.shape[2] != w.shape[1]
        or b.shape != (1, 1, w.shape[2])
    ):
        raise ShapeError(
            f"conv1d_relu: need x (B, T, Cin), w (k, Cin, Cout) with odd k and "
            f"b (1, 1, Cout), got {x.shape}, {w.shape} and {b.shape}"
        )
    k, c_in, c_out = w.shape
    winograd = k == 5 and c_in >= 8 and 4 * c_in >= c_out
    out, conv_rule = (_conv_winograd if winograd else _conv_im2col)(x, w, b.data[0, 0])

    def rule(g):
        g = g * (out > 0.0)
        if b.requires_grad:
            _acc(b, g.reshape(-1, c_out).sum(axis=0).reshape(b.data.shape))
        conv_rule(g)

    return _node(out, (x, w, b), rule)


def dropout(a: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Zero entries with probability ``rate`` and rescale survivors by
    1/(1-rate); rate 0, as outside training, is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {rate}")
    a = _as_tensor(a)
    if rate == 0.0:
        return a
    if rng is None:
        raise ConfigError("dropout at a rate above 0 requires an explicit rng")
    keep = (rng.random(a.data.shape) >= rate) / (1.0 - rate)

    def rule(g):
        _acc(a, keep * g)

    return _node(a.data * keep, (a,), rule)


def _released(g: Array) -> None:
    raise FrameAttnError("backward: the graph was already released by an earlier backward")


def backward(loss: Tensor) -> None:
    """Add the gradient of ``loss`` into every leaf reachable from it.

    ``loss`` must be a scalar.  Gradients add onto what the leaf buffers
    hold, so callers zero parameter grads between steps.  The walk holds only
    recorded nodes; a leaf gets its gradient from its consumers' rules.  Once
    its rule has run, a node drops its ``grad``, rule and parents, freeing
    what the rule kept, so a second walk raises FrameAttnError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: expected scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, int]] = [(loss, 0)] if loss._rule is not None else []
    while stack:
        node, i = stack[-1]
        if i < len(node._parents):
            stack[-1] = (node, i + 1)
            parent = node._parents[i]
            if parent._rule is not None and id(parent) not in seen:
                seen.add(id(parent))
                stack.append((parent, 0))
        else:
            stack.pop()
            order.append(node)

    _acc(loss, np.ones_like(loss.data))
    while order:
        node = order.pop()
        node._rule(node.grad)
        node.grad, node._rule, node._parents = None, _released, ()


# Step of the central differences in ``gradient_error``.
FD_EPS = 1e-5


def gradcheck(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Compare reverse-mode gradients of scalar-valued ``f`` at ``x`` against
    central differences; returns their ``gradient_error``.

    ``f`` must be deterministic (no live dropout).
    """
    probe = Tensor(x.data.copy(), requires_grad=True)
    out = f(probe)
    if out.data.size != 1:
        raise ShapeError(f"gradcheck: f must be scalar-valued, got shape {out.shape}")
    backward(out)
    return gradient_error(lambda: f(probe).item(), probe.data, probe.grad)


def gradient_error(f: Callable[[], float], data: Array, analytic: Array) -> float:
    """Max over entries of |analytic - numeric| / max(1, |analytic|, |numeric|),
    ``numeric`` being the central difference of ``f()`` in each entry of
    ``data``: the entry is moved by +-FD_EPS in place, with graph recording
    off, then restored."""
    numeric = np.zeros_like(analytic)
    with no_grad():
        for i in np.ndindex(data.shape):
            orig = data[i]
            data[i] = orig + FD_EPS
            plus = f()
            data[i] = orig - FD_EPS
            minus = f()
            data[i] = orig
            numeric[i] = (plus - minus) / (2.0 * FD_EPS)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float((np.abs(analytic - numeric) / denom).max())

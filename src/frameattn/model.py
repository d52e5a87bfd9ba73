"""Attention classifier over batches of windowed sensor frames.

Pipeline per batch of B frames, each frame a (T, D_in) window:

    conv backbone (per-timestep features)    -> frame embedding (mean pool)
    -> frame-level positional encoding          (batch rank 0..B-1)
    -> within-frame attention pooling           over the T timesteps
    -> across-frame scaled dot-product attention over the B frames
    -> learned sigmoid blend of the two summaries
    -> concat with the plain embedding, re-projected, multi-head attention
    -> sigmoid gate mixing attention output with the encoded embedding
    -> mixture-of-experts feed-forward
    -> linear classifier head

Heads and experts are slices of stacked parameters, not separate ones: each
attention stage keeps its query/key/value projections in one (d, 3d)
matrix (``inter.wqkv``, ``mh.wqkv``), and the E experts live in
(E, d, d) weights and (E, 1, d) biases (``moe.w1``/``b1``/``w2``/``b2``).
Each stage is one node of ``tensor`` with a hand-written backward rule,
plus the plain matmuls and adds around it:

    conv block             ``T.conv1d_relu`` (convolution, bias, ReLU); at
                           the default 5 taps block 0, on the raw channels,
                           runs on im2col and later blocks on Winograd F(4, 5)
    within-frame pooling   ``T.attention_pool`` (tanh scores, softmax over T,
                           weighted sum)
    across-frame attention ``T.attention`` on ``x @ inter.wqkv``, one head
    blend                  ``T.sigmoid`` of ``blend.alpha``, then ``T.mix``
    multi-head attention   ``T.attention`` on ``x @ mh.wqkv``, then ``@ mh.wo``
    gate                   ``T.linear_sigmoid``, then ``T.mix`` to apply it
    mixture of experts     ``T.mixture_of_experts``
    loss                   ``T.focal_cross_entropy`` (in ``losses``)

Stages can be switched off via ``ModelConfig.disabled``; a disabled stage
passes the appropriate operand through unchanged, which is how the ablation
baselines are configured:

    pe    -> the encoded embedding is the plain embedding
    intra -> the blend collapses to the across-frame summary
    inter -> the blend collapses to the within-frame summary
            (both off: the blend output is the encoded embedding)
    gate  -> the gate output is the multi-head output
    moe   -> the expert mixture is an identity
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import CheckpointError, ConfigError
from .losses import LossConfig, combined_loss
from .seeding import TAG_GRADCHECK, TAG_INIT, mix64
from .tensor import Tensor

DISABLEABLE = frozenset({"intra", "inter", "pe", "moe", "gate"})


@dataclass(frozen=True)
class ModelConfig:
    window_len: int
    channels: int
    classes: int
    d_model: int = 128
    heads: int = 8
    experts: int = 8
    dropout: float = 0.5
    conv_blocks: int = 3
    kernel: int = 5
    disabled: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.classes < 2:
            raise ConfigError(f"classes must be >= 2, got {self.classes}")
        if self.experts < 1:
            raise ConfigError(f"experts must be >= 1, got {self.experts}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and >= 1, got {self.kernel}")
        if self.d_model < 2 or self.d_model % 2 != 0:
            raise ConfigError(f"d_model must be even and >= 2, got {self.d_model}")
        if self.heads < 1 or self.d_model % self.heads != 0:
            raise ConfigError(
                f"d_model ({self.d_model}) must be divisible by heads ({self.heads})"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.conv_blocks < 1:
            raise ConfigError(f"conv_blocks must be >= 1, got {self.conv_blocks}")
        if self.window_len < self.kernel:
            raise ConfigError(
                f"window_len ({self.window_len}) must be >= kernel ({self.kernel})"
            )
        if self.channels < 1:
            raise ConfigError(f"channels must be >= 1, got {self.channels}")
        unknown = set(self.disabled) - DISABLEABLE
        if unknown:
            raise ConfigError(f"unknown disable flags: {sorted(unknown)}")
        object.__setattr__(self, "disabled", frozenset(self.disabled))

    def enabled(self, stage: str) -> bool:
        return stage not in self.disabled


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, for inspection and tests.

    Attention weight fields hold the softmax outputs as plain arrays (rows
    sum to 1): ``intra_weights`` is (B, T), ``inter_weights`` (B, B),
    ``head_weights`` (heads, B, B) and ``moe_weights`` (B, E).  Disabled
    stages leave their fields as None.
    """

    x_bar: Tensor
    x_pe: Tensor
    a_intra: Tensor | None
    intra_weights: np.ndarray | None
    a_inter: Tensor | None
    inter_weights: np.ndarray | None
    a_com: Tensor
    x_att: Tensor
    a_mul: Tensor
    head_weights: np.ndarray
    gate: Tensor | None
    o_gated: Tensor
    o_moe: Tensor
    moe_weights: np.ndarray | None
    logits: Tensor


def positional_encoding(d_model: int, positions: np.ndarray) -> np.ndarray:
    """Sinusoidal code per frame rank: row p has sin(p/10000^(2i/d)) in even
    columns and cos of the same argument in odd columns."""
    positions = np.asarray(positions, dtype=np.float64)
    i = np.arange(0, d_model, 2, dtype=np.float64)
    angles = positions[:, None] / np.power(10000.0, i[None, :] / d_model)
    pe = np.zeros((len(positions), d_model))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def backbone_features(frames: Tensor, params: dict, cfg: ModelConfig) -> Tensor:
    """Per-timestep features (B, T, d_model) from the conv stack, one
    ``T.conv1d_relu`` node (same-padded conv along time, bias, ReLU) per
    block."""
    feats = frames
    for i in range(cfg.conv_blocks):
        feats = T.conv1d_relu(
            feats, params[f"backbone.conv{i}.w"], params[f"backbone.conv{i}.b"]
        )
    return feats


def intra_attention(feats: Tensor, params: dict) -> tuple[Tensor, np.ndarray]:
    """Attention-pool the timesteps of each frame into one vector.

    Scores per timestep are w2 . tanh(w1 . x_t + b1); the softmax runs over
    the timesteps of a frame.  A bias on the scores would shift every
    timestep's score alike and so could not change the weights.
    """
    return T.attention_pool(feats, params["intra.w1"], params["intra.b1"], params["intra.w2"])


def inter_attention(x: Tensor, params: dict) -> tuple[Tensor, np.ndarray]:
    """Single-head scaled dot-product attention across the frames of the
    batch; returns the (B, d) summaries and the (B, B) weights."""
    out, weights = T.attention(x @ params["inter.wqkv"], 1)
    return out, weights[0]


def combine_attention(a_inter: Tensor, a_intra: Tensor, alpha: Tensor) -> Tensor:
    """Convex blend a*inter + (1-a)*intra with a = sigmoid(alpha)."""
    return T.mix(T.sigmoid(alpha), a_inter, a_intra)


def fuse_features(x_bar: Tensor, a_com: Tensor, params: dict) -> Tensor:
    """Concat the plain embedding with the blended summary and re-project."""
    return T.concat([x_bar, a_com], axis=1) @ params["cat.w"]


def multi_head_attention(
    x: Tensor, params: dict, cfg: ModelConfig
) -> tuple[Tensor, np.ndarray]:
    """h parallel scaled dot-product attentions over the batch, concatenated
    and output-projected; returns the (B, d) output and the (h, B, B)
    weights."""
    out, weights = T.attention(x @ params["mh.wqkv"], cfg.heads)
    return out @ params["mh.wo"], weights


def gate_values(x_att: Tensor, params: dict) -> Tensor:
    return T.linear_sigmoid(x_att, params["gate.wg"], params["gate.bg"])


def apply_gate(gate: Tensor, a_mul: Tensor, x_enhanced: Tensor) -> Tensor:
    return T.mix(gate, a_mul, x_enhanced)


def moe_layer(x: Tensor, params: dict) -> tuple[Tensor, np.ndarray]:
    """Softmax-weighted mixture of the E stacked two-layer feed-forward
    experts; returns the (B, d) mixture and the (B, E) weights."""
    return T.mixture_of_experts(
        x, *(params[f"moe.{k}"] for k in ("gate.w", "w1", "b1", "w2", "b2"))
    )


class AttentionModel:
    """Parameter container plus the forward composition of all stages."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self.params: dict[str, Tensor] = {}
        self.decay_keys: set[str] = set()
        self._init_params(np.random.default_rng(mix64(seed, TAG_INIT)))

    def _add(self, name: str, data: np.ndarray, decay: bool) -> None:
        self.params[name] = Tensor(data, requires_grad=True)
        if decay:
            self.decay_keys.add(name)

    def _matrix(self, rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
        # He-uniform: without the sqrt(6) gain the stacked ReLU backbone
        # collapses to ~0.02 sigma activations and the O(1) positional code
        # drowns out frame content in every attention input.
        bound = math.sqrt(6.0 / fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _qkv(self, rng: np.random.Generator, heads: int) -> np.ndarray:
        """(d, 3d) query/key/value projection in the layout ``T.attention``
        reads.  Drawn head by head, each head's q, k and v (d, d_head) in
        turn, as (heads, 3, d, d_head)."""
        d = self.cfg.d_model
        w = self._matrix(rng, (heads, 3, d, d // heads), d)
        return w.transpose(2, 1, 0, 3).reshape(d, 3 * d)

    def _init_params(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        d = cfg.d_model
        h_a = d // 2
        c_in = cfg.channels
        for i in range(cfg.conv_blocks):
            self._add(
                f"backbone.conv{i}.w",
                self._matrix(rng, (cfg.kernel, c_in, d), cfg.kernel * c_in),
                decay=True,
            )
            self._add(f"backbone.conv{i}.b", np.zeros((1, 1, d)), decay=False)
            c_in = d
        self._add("intra.w1", self._matrix(rng, (d, h_a), d), decay=True)
        self._add("intra.b1", np.zeros((1, h_a)), decay=False)
        self._add("intra.w2", self._matrix(rng, (h_a, 1), h_a), decay=True)
        self._add("inter.wqkv", self._qkv(rng, 1), decay=True)
        self._add("blend.alpha", np.zeros((1, 1)), decay=False)
        self._add("cat.w", self._matrix(rng, (2 * d, d), 2 * d), decay=True)
        self._add("mh.wqkv", self._qkv(rng, cfg.heads), decay=True)
        self._add("mh.wo", self._matrix(rng, (d, d), d), decay=True)
        self._add("gate.wg", self._matrix(rng, (d, d), d), decay=True)
        self._add("gate.bg", np.zeros((1, d)), decay=False)
        self._add("moe.gate.w", self._matrix(rng, (d, cfg.experts), d), decay=True)
        # Drawn expert by expert, w1 then w2, as (E, 2, d, d).
        w = self._matrix(rng, (cfg.experts, 2, d, d), d)
        self._add("moe.w1", w[:, 0].copy(), decay=True)
        self._add("moe.b1", np.zeros((cfg.experts, 1, d)), decay=False)
        self._add("moe.w2", w[:, 1].copy(), decay=True)
        self._add("moe.b2", np.zeros((cfg.experts, 1, d)), decay=False)
        self._add("cls.w", self._matrix(rng, (d, cfg.classes), d), decay=True)
        self._add("cls.b", np.zeros((1, cfg.classes)), decay=False)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.params.items()}

    def load_state(self, arrays: dict[str, np.ndarray]) -> None:
        missing = sorted(set(self.params) - set(arrays))
        extra = sorted(set(arrays) - set(self.params))
        if missing or extra:
            raise CheckpointError(
                f"parameter names do not match model: missing {missing}, unexpected {extra}"
            )
        for name, p in self.params.items():
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise CheckpointError(
                    f"shape mismatch for '{name}': checkpoint {arr.shape} vs model {p.data.shape}"
                )
            if not np.isfinite(arr).all():
                raise CheckpointError(f"non-finite value in parameter '{name}'")
        for name, p in self.params.items():
            p.data[...] = arrays[name]

    def forward(
        self,
        frames: np.ndarray,
        *,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> ForwardTrace:
        cfg = self.cfg
        p = self.params
        frames = np.asarray(frames, dtype=np.float64)
        if frames.ndim != 3:
            raise ConfigError(f"frames must be (B, T, D), got shape {frames.shape}")
        batch, steps, channels = frames.shape
        if channels != cfg.channels:
            raise ConfigError(f"expected {cfg.channels} channels, got {channels}")
        if steps < cfg.kernel:
            raise ConfigError(f"window of {steps} samples is shorter than kernel {cfg.kernel}")

        drop = cfg.dropout if training else 0.0

        feats = backbone_features(Tensor(frames), p, cfg)
        x_bar = feats.mean(axis=1)
        x_bar = T.dropout(x_bar, drop, training, rng)

        if cfg.enabled("pe"):
            x_pe = x_bar + Tensor(positional_encoding(cfg.d_model, np.arange(batch)))
        else:
            x_pe = x_bar

        a_intra = intra_weights = None
        if cfg.enabled("intra"):
            a_intra, intra_weights = intra_attention(feats, p)
        a_inter = inter_weights = None
        if cfg.enabled("inter"):
            a_inter, inter_weights = inter_attention(x_pe, p)

        if a_inter is not None and a_intra is not None:
            a_com = combine_attention(a_inter, a_intra, p["blend.alpha"])
        elif a_inter is not None:
            a_com = a_inter
        elif a_intra is not None:
            a_com = a_intra
        else:
            a_com = x_pe

        x_att = fuse_features(x_bar, a_com, p)
        a_mul, head_weights = multi_head_attention(x_att, p, cfg)
        a_mul = T.dropout(a_mul, drop, training, rng)

        if cfg.enabled("gate"):
            gate = gate_values(x_att, p)
            o_gated = apply_gate(gate, a_mul, x_pe)
        else:
            gate = None
            o_gated = a_mul

        if cfg.enabled("moe"):
            o_moe, moe_weights = moe_layer(o_gated, p)
        else:
            o_moe, moe_weights = o_gated, None
        o_moe = T.dropout(o_moe, drop, training, rng)

        logits = o_moe @ p["cls.w"] + p["cls.b"]
        return ForwardTrace(
            x_bar=x_bar,
            x_pe=x_pe,
            a_intra=a_intra,
            intra_weights=intra_weights,
            a_inter=a_inter,
            inter_weights=inter_weights,
            a_com=a_com,
            x_att=x_att,
            a_mul=a_mul,
            head_weights=head_weights,
            gate=gate,
            o_gated=o_gated,
            o_moe=o_moe,
            moe_weights=moe_weights,
            logits=logits,
        )


# Gradient verification: block names are keyed on parameter prefixes so a
# failing backward rule is reported against the stage that uses it.
GRADCHECK_BLOCKS = (
    ("backbone", "backbone."),
    ("intra-attention", "intra."),
    ("inter-attention", "inter."),
    ("attention-blend", "blend."),
    ("feature-fusion", "cat."),
    ("multi-head", "mh."),
    ("gate", "gate."),
    ("moe", "moe."),
    ("classifier", "cls."),
)


def tiny_gradcheck_config(
    classes: int = 4, window_len: int = 16, channels: int = 3
) -> ModelConfig:
    """Small model used by the gradient-check command and its tests."""
    return ModelConfig(
        window_len=window_len,
        channels=channels,
        classes=classes,
        d_model=8,
        heads=2,
        experts=2,
        dropout=0.0,
        conv_blocks=3,
        kernel=5,
    )


def parameter_gradcheck_report(
    cfg: ModelConfig,
    loss_cfg: LossConfig,
    seed: int = 0,
    batch: int = 4,
    eps: float = 1e-5,
) -> list[tuple[str, float]]:
    """Max relative error between analytic and central-difference gradients,
    one row per stage plus the composed model and the loss head.

    The analytic side is a single backward pass through forward+loss; the
    numeric side perturbs every parameter entry by +-eps.
    """
    rng = np.random.default_rng(mix64(seed, TAG_GRADCHECK))
    frames = rng.normal(size=(batch, cfg.window_len, cfg.channels))
    labels = rng.integers(0, cfg.classes, size=batch)
    model = AttentionModel(cfg, seed=seed)

    def loss_value() -> Tensor:
        trace = model.forward(frames, training=False)
        return combined_loss(trace.logits, labels, loss_cfg)

    T.backward(loss_value())

    worst: dict[str, float] = {name: 0.0 for name, _ in GRADCHECK_BLOCKS}
    composed = 0.0
    for name, p in model.params.items():
        err = T.gradient_error(lambda: loss_value().item(), p.data, p.grad, eps)
        composed = max(composed, err)
        for block, prefix in GRADCHECK_BLOCKS:
            if name.startswith(prefix):
                worst[block] = max(worst[block], err)
                break

    rows = [(block, worst[block]) for block, _ in GRADCHECK_BLOCKS]

    # The loss head checked in isolation, against its own input logits.
    logits0 = Tensor(rng.normal(size=(batch, cfg.classes)))
    loss_err = T.gradcheck(lambda t: combined_loss(t, labels, loss_cfg), logits0, eps=eps)
    rows.append(("loss", loss_err))
    rows.append(("composed-model", composed))
    return rows

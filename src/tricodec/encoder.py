"""Waveform encoder: strided convolutions down to 75 frames/second, then a
pre-norm transformer whose feed-forward sublayers are a domain
mixture-of-experts (one always-on shared expert plus routed experts under a
sigmoid top-k gate that ``moe_mix`` computes as one ``autodiff.topk_gate``
node).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .autodiff import (
    ShapeError,
    Tensor,
    add,
    conv1d,
    gelu,
    index_add_rows,
    layer_norm,
    linear,
    masked_fill_rows,
    mul,
    rope_attention,
    topk_gate,
)

__all__ = [
    "MoEConfig",
    "EncoderConfig",
    "encoder_param_shapes",
    "encoder_param_count",
    "init_encoder_params",
    "conv_encode",
    "moe_mix",
    "transformer_encode",
    "encode_frames",
]


@dataclass(frozen=True)
class MoEConfig:
    n_shared: int = 1
    n_routed: int = 3
    k_routed: int = 1
    expert_dim: int = 1024

    def __post_init__(self):
        if not (1 <= self.k_routed <= self.n_routed):
            raise ValueError(f"need 1 <= k_routed <= n_routed, got k={self.k_routed}, n={self.n_routed}")
        if self.n_shared < 0 or self.expert_dim < 1:
            raise ValueError("n_shared must be >= 0 and expert_dim >= 1")


@dataclass(frozen=True)
class EncoderConfig:
    strides: tuple = (2, 4, 5, 4, 2)
    conv_channels: tuple = (32, 64, 128, 256, 512)
    layers: int = 8
    heads: int = 8
    moe: MoEConfig = field(default_factory=MoEConfig)

    def __post_init__(self):
        if not self.strides:
            raise ValueError("the encoder needs at least one stride")
        if len(self.strides) != len(self.conv_channels):
            raise ValueError(
                f"strides and conv_channels lengths differ: {len(self.strides)} vs {len(self.conv_channels)}"
            )
        if min(*self.strides, *self.conv_channels, self.heads) < 1 or self.layers < 0:
            raise ValueError(f"strides, conv_channels and heads must be >= 1 and layers >= 0, got {self}")
        if self.hidden % self.heads != 0:
            raise ValueError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def hidden(self) -> int:
        """The latent width: the last conv stage's channel count."""
        return self.conv_channels[-1]

    @property
    def downsample(self) -> int:
        return math.prod(self.strides)  # exact: numpy's int64 product wraps


def encoder_param_shapes(cfg: EncoderConfig) -> dict:
    """Name -> shape of every 'enc.*' parameter, in init order."""
    s = {}
    c_in = 1
    for i, (stride, c_out) in enumerate(zip(cfg.strides, cfg.conv_channels)):
        s[f"enc.conv{i}.w"] = (c_out, c_in, 2 * stride)
        s[f"enc.conv{i}.b"] = (c_out,)
        c_in = c_out
    h, e, moe = cfg.hidden, cfg.moe.expert_dim, cfg.moe
    experts = [f"shared{j}" for j in range(moe.n_shared)] + [f"routed{j}" for j in range(moe.n_routed)]
    for i in range(cfg.layers):
        pre = f"enc.blk{i}"
        s.update({f"{pre}.ln1.g": (h,), f"{pre}.ln1.b": (h,)})
        s.update({f"{pre}.attn.{nm}": (h, h) for nm in ("wq", "wk", "wv", "wo")})
        s.update({f"{pre}.ln2.g": (h,), f"{pre}.ln2.b": (h,)})
        for ex in (f"{pre}.{x}" for x in experts):
            s.update({f"{ex}.w1": (e, h), f"{ex}.b1": (e,), f"{ex}.w2": (h, e), f"{ex}.b2": (h,)})
        s[f"{pre}.centroids"] = (moe.n_routed, h)
    s.update({"enc.final_ln.g": (h,), "enc.final_ln.b": (h,), "enc.mask_embed": (h,)})
    return s


def encoder_param_count(cfg: EncoderConfig) -> int:
    """``len(encoder_param_shapes(cfg))``, by arithmetic: a weight and a bias
    per conv stage; per block two norms' gains and biases, four attention
    matrices, four tensors per expert and the router centroids; then the
    final norm's gain and bias and the mask embedding."""
    return 2 * len(cfg.strides) + cfg.layers * (9 + 4 * (cfg.moe.n_shared + cfg.moe.n_routed)) + 3


def init_encoder_params(cfg: EncoderConfig, rng: np.random.Generator) -> dict:
    """Deterministic float64 parameter init, keyed 'enc.*'. Conv weights use
    fan-in scaling with gain 2, since GELU's slope at 0 is 1/2; biases start
    at 0 and norm gains at 1; attention/expert weights, router centroids and
    the mask embedding have std 0.02.

    The gain brings the conv features of peak-normalized audio near unit
    RMS, the scale the transformer's pre-norm blocks add their updates to.
    Plain fan-in scaling would halve a small signal at each GELU and leave
    the features 15x below the waveform's RMS. Within the first few Adam
    steps the blocks' clip-constant outputs would then swamp them, and the
    final norm would map every frame of a clip onto nearly the same
    direction, and the clip onto one or two codewords."""
    p = {}
    for name, shape in encoder_param_shapes(cfg).items():
        if name.startswith("enc.conv") and name.endswith(".w"):
            p[name] = rng.normal(0.0, 2.0 / np.sqrt(shape[1] * shape[2]), shape)
        elif name.endswith((".b", ".b1", ".b2")):
            p[name] = np.zeros(shape)
        elif name.endswith(".g"):
            p[name] = np.ones(shape)
        else:
            p[name] = rng.normal(0.0, 0.02, shape)
    return p


def conv_encode(samples: np.ndarray, params: dict, cfg: EncoderConfig) -> Tensor:
    """Waveform array (T,) to pre-transformer features (floor(T/320), hidden).

    These features double as the contrastive targets of the semantic
    training stage.
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ShapeError(f"conv_encode expects a 1-D waveform, got shape {samples.shape}")
    if len(samples) < cfg.downsample:
        raise ValueError(
            f"clip of {len(samples)} samples is shorter than one frame ({cfg.downsample} samples)"
        )
    x = Tensor(samples.reshape(-1, 1))  # (T, 1): one input channel
    last = len(cfg.strides) - 1
    for i, stride in enumerate(cfg.strides):
        x = conv1d(
            x,
            params[f"enc.conv{i}.w"],
            params[f"enc.conv{i}.b"],
            stride=stride,
            padding=(stride // 2, stride - stride // 2),
        )
        if i != last:
            x = gelu(x)
    return x


def _expert_ffn(u: Tensor, params: dict, prefix: str) -> Tensor:
    h = linear(u, params[f"{prefix}.w1"], params[f"{prefix}.b1"])
    return linear(gelu(h), params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def moe_mix(u: Tensor, params: dict, prefix: str, cfg: MoEConfig) -> Tensor:
    """Sum of shared experts plus gate-weighted routed experts (no residual)
    for frames ``u`` of shape (T, hidden), gated by ``topk_gate``.

    Every row runs the shared experts; routed expert j runs only on the
    rows whose gate selects it, and its gate-scaled outputs are added back
    into those rows. A row's zero gates would add exactly zero, so this
    equals the dense gate-weighted sum. An expert no row selects builds no
    graph node, and its parameters get no gradient.
    """
    gates = topk_gate(u, params[f"{prefix}.centroids"], cfg.k_routed)
    mix = None
    for j in range(cfg.n_shared):
        out = _expert_ffn(u, params, f"{prefix}.shared{j}")
        mix = out if mix is None else add(mix, out)
    if mix is None:
        mix = Tensor(np.zeros(u.shape, dtype=u.dtype))
    for j in range(cfg.n_routed):
        rows = np.flatnonzero(gates.data[:, j])
        if rows.size:
            out = _expert_ffn(u[rows], params, f"{prefix}.routed{j}")
            mix = index_add_rows(mix, rows, mul(out, gates[rows, j : j + 1]))
    return mix


def transformer_encode(feats: Tensor, params: dict, cfg: EncoderConfig) -> Tensor:
    """Pre-norm blocks of (RoPE self-attention -> MoE feed-forward), each
    residual, then a final layer norm. Output shape = input shape.

    With zeroed attention output and expert second-layer weights the block
    stack is the identity, so the output is the final norm of the input.
    """
    x = feats
    for i in range(cfg.layers):
        pre = f"enc.blk{i}"
        attn_in = layer_norm(x, params[f"{pre}.ln1.g"], params[f"{pre}.ln1.b"])
        x = add(
            x,
            rope_attention(
                attn_in,
                params[f"{pre}.attn.wq"],
                params[f"{pre}.attn.wk"],
                params[f"{pre}.attn.wv"],
                params[f"{pre}.attn.wo"],
                heads=cfg.heads,
            ),
        )
        ffn_in = layer_norm(x, params[f"{pre}.ln2.g"], params[f"{pre}.ln2.b"])
        x = add(x, moe_mix(ffn_in, params, pre, cfg.moe))
    return layer_norm(x, params["enc.final_ln.g"], params["enc.final_ln.b"])


def encode_frames(
    samples: np.ndarray,
    params: dict,
    cfg: EncoderConfig,
    mask: Optional[np.ndarray] = None,
) -> tuple:
    """Full encoder pass: conv features, optional span-mask replacement by
    the learned mask embedding, transformer, final norm.

    Returns (latent frames, conv features). When ``mask`` (a boolean array,
    one entry per frame) is given, masked rows of the conv features are
    replaced by the shared mask embedding before the transformer; the
    returned conv features stay unmasked, as the contrastive targets must be.
    """
    conv_feats = conv_encode(samples, params, cfg)
    x = conv_feats
    if mask is not None:
        x = masked_fill_rows(x, mask, params["enc.mask_embed"])
    frames = transformer_encode(x, params, cfg)
    return frames, conv_feats

"""Waveform decoder: transposed-convolution mirror of the encoder, 320x
upsampling from latent frames to 24 kHz samples, tanh output. Its input
width and strides are the encoder's, which ``Codec`` passes in; it sets
only its stage widths (``DecoderConfig``) and has ``OUT_KERNEL`` output taps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeError, Tensor, conv1d, conv1d_transpose, gelu, tanh

__all__ = ["OUT_KERNEL", "DecoderConfig", "decoder_param_shapes", "init_decoder_params", "decode"]

# taps of the output convolution; odd, so its same-length padding is symmetric
OUT_KERNEL = 7


@dataclass(frozen=True)
class DecoderConfig:
    channels: tuple = (256, 128, 64, 32, 16)  # one per encoder stride


def decoder_param_shapes(cfg: DecoderConfig, hidden: int, strides: tuple) -> dict:
    """Name -> shape of every 'dec.*' parameter, in init order."""
    s = {}
    c_in = hidden
    for i, (stride, c_out) in enumerate(zip(strides, cfg.channels)):
        s[f"dec.tconv{i}.w"] = (c_in, c_out, 2 * stride)
        s[f"dec.tconv{i}.b"] = (c_out,)
        c_in = c_out
    s["dec.out.w"] = (1, c_in, OUT_KERNEL)
    s["dec.out.b"] = (1,)
    return s


def init_decoder_params(cfg: DecoderConfig, hidden: int, strides: tuple, rng: np.random.Generator) -> dict:
    """Float64 fan-in scaled weights (C_in * K), zero biases."""
    p = {}
    for name, shape in decoder_param_shapes(cfg, hidden, strides).items():
        if name.endswith(".b"):
            p[name] = np.zeros(shape)
        else:
            c_in = shape[1] if name == "dec.out.w" else shape[0]
            p[name] = rng.normal(0.0, 1.0 / np.sqrt(c_in * shape[2]), shape)
    return p


def decode(quantized: Tensor, params: dict, strides: tuple) -> Tensor:
    """Quantized frames (T, hidden) to waveform (T * 320,), values in (-1, 1).

    Each transposed stage (kernel 2*stride) is one ``conv1d_transpose`` node
    that crops the encoder's padding (stride // 2, stride - stride // 2) off
    its one-stride overshoot, so the length law |decode(q)| =
    prod(strides) * T holds exactly for every T >= 1.
    """
    if quantized.ndim != 2:
        raise ShapeError(f"decode expects (frames, hidden), got shape {quantized.shape}")
    if quantized.shape[0] < 1:
        raise ValueError("decode requires at least one frame")
    hidden = params["dec.tconv0.w"].shape[0]
    if quantized.shape[1] != hidden:
        raise ShapeError(f"decode hidden dim {quantized.shape[1]} != decoder input width {hidden}")

    x = quantized
    for i, stride in enumerate(strides):
        pad = (stride // 2, stride - stride // 2)
        x = gelu(conv1d_transpose(x, params[f"dec.tconv{i}.w"], params[f"dec.tconv{i}.b"], stride=stride, padding=pad))
    half = OUT_KERNEL // 2
    x = conv1d(x, params["dec.out.w"], params["dec.out.b"], stride=1, padding=(half, half))
    return tanh(x)[:, 0]

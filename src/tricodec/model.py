"""Codec assembly: configuration presets, parameter ownership, and the
one forward pass (encode, quantize, optionally decode) that training,
evaluation and inference share.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

from . import checkpoint as ckpt
from . import quantizer
from .autodiff import NonFiniteError, Tensor, no_grad
from .decoder import DecoderConfig, decode, decoder_param_shapes, init_decoder_params
from .encoder import (
    EncoderConfig,
    MoEConfig,
    encode_frames,
    encoder_param_count,
    encoder_param_shapes,
    init_encoder_params,
)
from .quantizer import (
    QuantizerConfig,
    TokenStream,
    init_quantizer_params,
    quantize,
    quantizer_param_shapes,
    simvq_embed,
)
from .signal import SAMPLE_RATE, AudioClip, Domain

__all__ = ["CodecConfig", "ForwardPass", "Codec"]

@dataclass(frozen=True)
class CodecConfig:
    """The model's shape, each value set once. The encoder owns the latent
    width, ``encoder.hidden`` (its last conv stage's width), which is also the
    codebook's and the decoder's input width, and ``encoder.strides`` (the
    320x framing), which the decoder also runs, one transposed stage each."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    quantizer: QuantizerConfig = field(default_factory=QuantizerConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)

    def __post_init__(self):
        if len(self.decoder.channels) != len(self.encoder.strides):
            raise ValueError(f"decoder channels {self.decoder.channels} need one per stride {self.encoder.strides}")
        if SAMPLE_RATE % self.encoder.downsample != 0:
            raise ValueError(
                f"sample rate {SAMPLE_RATE} not divisible by downsample {self.encoder.downsample}"
            )

    @property
    def sample_rate(self) -> int:
        """The codec rate, ``signal.SAMPLE_RATE``; no config sets it."""
        return SAMPLE_RATE

    @property
    def downsample(self) -> int:
        return self.encoder.downsample

    @property
    def tokens_per_second(self) -> int:
        return SAMPLE_RATE // self.downsample

    @classmethod
    def full(cls) -> "CodecConfig":
        return cls()

    @classmethod
    def toy(cls) -> "CodecConfig":
        """Desk-scale preset: hidden 64, 2 transformer layers, 512-entry
        codebook split 128/128/256. Same 320x framing as the full model."""
        return cls(
            encoder=EncoderConfig(
                strides=(2, 4, 5, 4, 2),
                conv_channels=(8, 16, 32, 32, 64),
                layers=2,
                heads=4,
                moe=MoEConfig(n_shared=1, n_routed=3, k_routed=1, expert_dim=128),
            ),
            quantizer=QuantizerConfig(codebook_size=512, speech_end=128, music_end=256),
            decoder=DecoderConfig(channels=(32, 32, 16, 8, 8)),
        )

    def param_shapes(self) -> dict:
        """Name -> shape of every parameter, in init order."""
        return {
            **encoder_param_shapes(self.encoder),
            **quantizer_param_shapes(self.quantizer, self.encoder.hidden),
            **decoder_param_shapes(self.decoder, self.encoder.hidden, self.encoder.strides),
        }

    def param_count(self) -> int:
        """``len(self.param_shapes())``, with the encoder's share counted
        rather than enumerated, since its block and expert counts multiply."""
        hidden, strides = self.encoder.hidden, self.encoder.strides
        return (
            encoder_param_count(self.encoder)
            + len(quantizer_param_shapes(self.quantizer, hidden))
            + len(decoder_param_shapes(self.decoder, hidden, strides))
        )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CodecConfig":
        """Inverse of ``to_dict``. A key that names no field raises
        ``TypeError``: so do an older config's keys of removed options
        (``mlp_dim``, ``base_mean``, ``base_std``, ``sample_rate``) and its
        copies of the latent width, the strides and the output kernel. So
        does a value that is not an integer or a list of integers: a JSON
        float such as 2.0 passes every range check but indexes nothing."""
        d = dict(d)
        sections = {name: {k: tuple(v) if isinstance(v, list) else v for k, v in d.pop(name).items()}
                    for name in ("encoder", "quantizer", "decoder")}
        encoder = EncoderConfig(**{**sections["encoder"], "moe": MoEConfig(**sections["encoder"]["moe"])})
        config = cls(encoder, QuantizerConfig(**sections["quantizer"]), DecoderConfig(**sections["decoder"]), **d)
        for part in (config.encoder, config.encoder.moe, config.quantizer, config.decoder):
            for f in fields(part):
                value = getattr(part, f.name)
                ints = value if isinstance(value, tuple) else (value,)
                if not is_dataclass(value) and any(type(v) is not int for v in ints):
                    raise TypeError(f"'{f.name}' must be an integer or a list of integers, got {value!r}")
        return config


_FROZEN = ("vq.base",)


@dataclass
class ForwardPass:
    """One clip's ``Codec.forward`` pass. ``samples`` is the input as encoded
    (codec dtype, whole frames); ``codewords`` is ``simvq_embed(stream.ids)``,
    which ``quantized`` forwards with a straight-through gradient to ``frames``."""

    samples: np.ndarray
    conv_feats: Tensor
    frames: Tensor
    stream: TokenStream
    codewords: Tensor
    quantized: Tensor
    wave: Optional[Tensor] = None  # set only when the call decodes


class Codec:
    """Owns the parameter set and exposes the encode/quantize/decode paths.

    Parameters live in an insertion-ordered name -> Tensor dict; the frozen
    codebook base has requires_grad False and is skipped by optimizers.
    Weights are immutable during inference, so concurrent encode/decode
    calls are safe; training steps require exclusive access.

    ``quantize`` searches an effective book that the codec builds on its
    first call and keeps until a ``vq.*`` parameter changes: the key is the
    identity of the ``vq.base`` array, which nothing writes in place, and a
    copy of every trainable ``vq.*`` parameter, compared by value, so both
    an in-place write and a replaced array rebuild it. Concurrent encodes
    stay safe: racing first calls build the same book, and the cache is
    replaced by one assignment. The cache is never checkpointed.

    ``forward`` is the one pass from waveform to tokens and, when asked,
    back to a waveform: ``encode_frames``, ``quantize`` and ``decode_frames``
    once each, every intermediate returned in one ``ForwardPass`` that
    training, ``encode``, ``reconstruct`` and ``eval`` read. It builds the
    graph training differentiates; inference runs it under ``no_grad``.
    """

    dtype = np.dtype(np.float32)  # every parameter's, in training and inference alike

    def __init__(self, config: CodecConfig, seed: int = 0, params: Optional[dict] = None):
        """A fresh codec drawn from ``seed`` (float64 draws, cast once), or,
        given ``params``, the codec holding them; in float32 either way."""
        self.config = config
        if params is None:
            enc, rng = config.encoder, np.random.default_rng(seed)
            params = {  # drawn in this order
                **init_encoder_params(enc, rng),
                **init_quantizer_params(config.quantizer, enc.hidden, rng),
                **init_decoder_params(config.decoder, enc.hidden, enc.strides, rng),
            }
        else:
            params = dict(params)  # emptied below; the caller's dict is left as it is
        # each array is popped as it is cast, so the float64 draws and all
        # their float32 copies never coexist
        self.params = {}
        for k in list(params):
            self.params[k] = Tensor(np.asarray(params.pop(k), self.dtype), requires_grad=k not in _FROZEN)
        self._book_cache = None  # (vq.base array, {name: copy of trainable vq.*}, effective_book)

    def trainable(self) -> dict:
        return {k: v for k, v in self.params.items() if v.requires_grad}

    # ----- forward paths -------------------------------------------------

    def encode_frames(self, samples, mask: Optional[np.ndarray] = None) -> tuple:
        """Waveform -> (latent frames, conv features); see encoder module."""
        return encode_frames(samples, self.params, self.config.encoder, mask=mask)

    def _effective_book(self) -> tuple:
        """``quantizer.effective_book`` of the current parameters, rebuilt
        only when the cache key no longer matches them."""
        base = self.params["vq.base"].data
        live = {k: t.data for k, t in self.params.items() if k.startswith("vq.") and t.requires_grad}
        cache = self._book_cache
        if (
            cache is not None
            and cache[0] is base
            and cache[1].keys() == live.keys()
            and all(np.array_equal(cache[1][k], v) for k, v in live.items())
        ):
            return cache[2]
        key = {k: v.copy() for k, v in live.items()}  # copied before building
        self._book_cache = None  # frees a stale book before the next is built
        book = quantizer.effective_book(self.params)
        self._book_cache = (base, key, book)
        return book

    def quantize(self, frames: Tensor, domain: Optional[Domain] = None) -> tuple:
        return quantize(
            frames,
            self.params,
            self.config.quantizer,
            domain=domain,
            frame_rate=self.config.tokens_per_second,
            book=self._effective_book(),
        )

    def decode_frames(self, quantized: Tensor) -> Tensor:
        return decode(quantized, self.params, self.config.encoder.strides)

    def forward(self, samples, domain: Optional[Domain] = None, mask=None, decode=False) -> ForwardPass:
        """Waveform at the codec rate -> ``ForwardPass``. Samples past the
        last whole frame are dropped; ``domain`` restricts the search to its
        region; ``mask`` marks frames replaced by the mask embedding."""
        x = np.asarray(samples, dtype=self.dtype)
        if len(x) >= self.config.downsample:  # encode_frames rejects shorter clips by length
            x = x[: len(x) - len(x) % self.config.downsample]
        frames, conv_feats = self.encode_frames(x, mask=mask)
        stream, quantized = self.quantize(frames, domain=domain)
        # quantized is passthrough(frames, codewords); without a graph it
        # holds the codeword values itself
        codewords = quantized._parents[1] if quantized._parents else quantized
        wave = self.decode_frames(quantized) if decode else None
        return ForwardPass(x, conv_feats, frames, stream, codewords, quantized, wave)

    def _at_codec_rate(self, clip: AudioClip) -> np.ndarray:
        if clip.sample_rate != SAMPLE_RATE:
            raise ValueError(
                f"clip rate {clip.sample_rate} != codec rate {SAMPLE_RATE}; resample first"
            )
        return clip.samples

    @no_grad()
    def encode(self, clip: AudioClip, domain: Optional[Domain] = None) -> TokenStream:
        """Clip (already at the codec rate) -> token stream."""
        return self.forward(self._at_codec_rate(clip), domain=domain).stream

    @no_grad()
    def decode_tokens(self, stream: TokenStream) -> AudioClip:
        wave = self.decode_frames(simvq_embed(stream.ids, self.params))
        return AudioClip(wave.data, SAMPLE_RATE)

    @no_grad()
    def reconstruct(self, clip: AudioClip, domain: Optional[Domain] = None) -> AudioClip:
        """Encode and decode in one forward pass; the ids are not projected again."""
        out = self.forward(self._at_codec_rate(clip), domain=domain, decode=True)
        return AudioClip(out.wave.data, SAMPLE_RATE)

    # ----- persistence ----------------------------------------------------

    def state_arrays(self) -> dict:
        """Parameters plus the config (as JSON bytes) for checkpointing."""
        out = {f"param/{k}": v.data for k, v in self.params.items()}
        cfg_json = json.dumps(self.config.to_dict(), sort_keys=True).encode("utf-8")
        out["meta/config_json"] = np.frombuffer(cfg_json, dtype=np.uint8).copy()
        return out

    def save(self, path) -> None:
        ckpt.save_tensors(path, self.state_arrays())

    @classmethod
    def load(cls, path) -> "Codec":
        """The codec saved at ``path``, for inference.

        Only the parameters and the config are read: a training
        checkpoint's optimizer state is skipped unread. Each floating-point
        tensor is cast to float32 as it is read (``checkpoint.load_tensors``),
        so a float64 checkpoint loads without a float64 copy of the whole
        of it, and encode and decode run in float32, the codebook search's
        screen included (``quantizer.effective_book``); its exact re-rank
        of the near candidates is float64.
        """
        arrays = ckpt.load_tensors(path, dtype=cls.dtype, prefixes=("param/", "meta/config_json"))
        return cls._from_arrays(arrays, path)

    @classmethod
    def _from_arrays(cls, arrays: dict, path) -> "Codec":
        """The codec that ``state_arrays`` (as read back from ``path``)
        describes."""
        if "meta/config_json" not in arrays:
            raise ckpt.CheckpointError(f"{path}: checkpoint lacks an embedded model config")
        try:
            config = CodecConfig.from_dict(json.loads(arrays["meta/config_json"].tobytes().decode("utf-8")))
        except KeyError as e:
            raise ckpt.CheckpointError(f"{path}: embedded model config lacks key {e}") from None
        except (ValueError, TypeError, AttributeError, RecursionError) as e:  # bad UTF-8, bad or too deep JSON
            raise ckpt.CheckpointError(f"{path}: embedded model config is invalid: {e}") from None
        params = {k[len("param/") :]: v for k, v in arrays.items() if k.startswith("param/")}
        # counted before the names are enumerated: a config naming far more
        # tensors than the file holds would take minutes or all memory to list
        if config.param_count() > len(params):
            raise ckpt.CheckpointError(
                f"{path}: embedded model config is invalid: it names {config.param_count()} parameter tensors, "
                f"the checkpoint holds {len(params)}"
            )
        shapes = config.param_shapes()
        unnamed = next((name for name in params if name not in shapes), None)
        if unnamed is not None:
            raise ckpt.CheckpointError(f"{path}: tensor 'param/{unnamed}' is not a parameter of the embedded config")
        for name, shape in shapes.items():
            if name not in params:
                raise ckpt.CheckpointError(f"{path}: checkpoint lacks tensor 'param/{name}'")
            if params[name].shape != shape:
                raise ckpt.CheckpointError(
                    f"{path}: tensor 'param/{name}' has shape {params[name].shape}, config expects {shape}"
                )
        try:
            return cls(config, params=params)
        except NonFiniteError:
            raise ckpt.CheckpointError(f"{path}: a parameter tensor holds NaN or Inf") from None

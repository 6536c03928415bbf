"""Training objectives and evaluation distances: span masking, the masked
contrastive loss (one ``autodiff.info_nce`` op), time+mel reconstruction
loss (differentiable ``autodiff.l1_distance`` terms; the mel frames are the
fused ``autodiff.stft_mag`` op followed by the filterbank, one
``autodiff.linear``), and metric-grade mel/STFT distances (plain numpy).

Random choices (mask starts, distractors) come from an explicit numpy
Generator owned by the caller, keeping every sampling decision replayable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, info_nce, l1_distance, linear, stft_mag
from .signal import HOP, N_FFT, AudioClip, mel_filterbank, mel_spectrogram, stft_magnitude

__all__ = [
    "MaskSpec",
    "MaskSet",
    "ContrastiveConfig",
    "sample_mask",
    "contrastive_loss",
    "reconstruction_terms",
    "mel_distance",
    "stft_distance",
]


@dataclass(frozen=True)
class MaskSpec:
    p: float = 0.1
    span: int = 5

    def __post_init__(self):
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"mask proportion p must be in (0, 1), got {self.p}")
        if self.span < 1:
            raise ValueError(f"mask span must be >= 1, got {self.span}")


@dataclass
class MaskSet:
    mask: np.ndarray   # bool per frame
    starts: np.ndarray

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def sample_mask(T: int, spec: MaskSpec, rng: np.random.Generator) -> MaskSet:
    """Draw round(p*T) start indices (floored at 1) uniformly without
    replacement; each start masks frames [s, min(s+span, T)). Spans may
    overlap."""
    if T < 1:
        raise ValueError(f"frame count must be >= 1, got {T}")
    n_starts = min(T, max(1, int(round(spec.p * T))))
    starts = rng.choice(T, size=n_starts, replace=False)
    mask = np.zeros(T, dtype=bool)
    for s in starts:
        mask[s : s + spec.span] = True
    return MaskSet(mask=mask, starts=starts)


# softmax temperature of the contrastive logits
TEMPERATURE = 0.1


@dataclass(frozen=True)
class ContrastiveConfig:
    n_distractors: int = 100

    def __post_init__(self):
        if self.n_distractors < 1:
            raise ValueError(f"n_distractors must be >= 1, got {self.n_distractors}")


def contrastive_loss(
    q: Tensor, c: Tensor, mask: MaskSet, cfg: ContrastiveConfig, rng: np.random.Generator
) -> Tensor:
    """Identify the true conv latent among distractors, per masked step.

    For each masked step t the candidate set is c_t plus K latents drawn
    uniformly (without replacement) from the *other* masked steps; the loss
    is -log softmax over cosine similarities divided by TEMPERATURE,
    averaged over masked steps. Equal similarities give exactly log(K+1).
    """
    idx = np.nonzero(mask.mask)[0]
    m = len(idx)
    k = cfg.n_distractors
    if m < k + 1:
        raise ValueError(
            f"contrastive loss needs more masked steps ({m}) than distractors ({k}); "
            f"use longer inputs or fewer distractors"
        )
    cand = np.empty((m, k + 1), dtype=np.int64)
    cand[:, 0] = idx
    for row, t in enumerate(idx):
        others = idx[idx != t]
        cand[row, 1:] = rng.choice(others, size=k, replace=False)
    return info_nce(q, c, cand, TEMPERATURE)


# ---------------------------------------------------------------------------
# differentiable reconstruction loss


def _mel_tensor(x: Tensor) -> Tensor:
    """Mel magnitude frames of a waveform Tensor at the codec rate,
    differentiable; shape (frames, n_mels)."""
    return linear(stft_mag(x, N_FFT, HOP), Tensor(mel_filterbank().astype(x.dtype.name)))


def _as_wave_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def reconstruction_terms(x, xhat) -> tuple:
    """(time-domain L1, mel-domain L1) between two waveforms at the codec
    rate, truncated to the shorter length. The mel term is zero for clips
    shorter than one analysis frame."""
    xt, yt = _as_wave_tensor(x), _as_wave_tensor(xhat)
    n = min(xt.shape[0], yt.shape[0])
    xt = xt[:n] if xt.shape[0] != n else xt
    yt = yt[:n] if yt.shape[0] != n else yt
    time_l1 = l1_distance(xt, yt)
    if n < N_FFT:
        return time_l1, Tensor(np.zeros((), dtype=xt.dtype))
    mel_l1 = l1_distance(_mel_tensor(xt), _mel_tensor(yt))
    return time_l1, mel_l1


# ---------------------------------------------------------------------------
# metric-grade distances (numpy, not differentiable)


def _matched_clips(x: AudioClip, xhat: AudioClip) -> tuple:
    if x.sample_rate != xhat.sample_rate:
        raise ValueError(f"sample rates differ: {x.sample_rate} vs {xhat.sample_rate}")
    n = min(len(x.samples), len(xhat.samples))
    return x.samples[:n], xhat.samples[:n], x.sample_rate


def mel_distance(x: AudioClip, xhat: AudioClip) -> float:
    """Mean absolute difference of mel magnitude spectrograms."""
    a, b, sr = _matched_clips(x, xhat)
    ma = mel_spectrogram(AudioClip(a, sr))
    mb = mel_spectrogram(AudioClip(b, sr))
    return float(np.mean(np.abs(ma - mb)))


def stft_distance(x: AudioClip, xhat: AudioClip) -> float:
    """Mean over FFT sizes 512, 1024 and 2048 of the mean absolute magnitude
    difference; each size uses hop = fft/4."""
    a, b, sr = _matched_clips(x, xhat)
    vals = []
    for fft in (512, 1024, 2048):
        sa = stft_magnitude(AudioClip(a, sr), fft, fft // 4)
        sb = stft_magnitude(AudioClip(b, sr), fft, fft // 4)
        vals.append(np.mean(np.abs(sa - sb)))
    return float(np.mean(vals))

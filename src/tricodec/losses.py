"""Training objectives and evaluation distances: span masking at the fixed
``MASK_P`` and ``MASK_SPAN``, the masked contrastive loss (one
``autodiff.info_nce`` op at ``TEMPERATURE``), time+mel reconstruction
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
    "MASK_P",
    "MASK_SPAN",
    "TEMPERATURE",
    "MaskSet",
    "sample_mask",
    "contrastive_loss",
    "reconstruction_terms",
    "mel_distance",
    "stft_distance",
]


# share of frames that start a masked span, and each span's length in frames
MASK_P = 0.1
MASK_SPAN = 5

# softmax temperature of the contrastive logits
TEMPERATURE = 0.1


@dataclass
class MaskSet:
    mask: np.ndarray   # bool per frame
    starts: np.ndarray

    @property
    def count(self) -> int:
        return int(self.mask.sum())


def sample_mask(T: int, rng: np.random.Generator) -> MaskSet:
    """Draw round(MASK_P*T) start indices (floored at 1) uniformly without
    replacement; each start masks frames [s, min(s+MASK_SPAN, T)). Spans may
    overlap."""
    if T < 1:
        raise ValueError(f"frame count must be >= 1, got {T}")
    n_starts = min(T, max(1, int(round(MASK_P * T))))
    starts = rng.choice(T, size=n_starts, replace=False)
    mask = np.zeros(T, dtype=bool)
    for s in starts:
        mask[s : s + MASK_SPAN] = True
    return MaskSet(mask=mask, starts=starts)


def contrastive_loss(
    q: Tensor, c: Tensor, mask: MaskSet, n_distractors: int, rng: np.random.Generator
) -> Tensor:
    """Identify the true conv latent among distractors, per masked step.

    For each of the m masked steps t the candidate set is c_t plus
    K = min(n_distractors, m - 1) latents drawn uniformly (without
    replacement) from the *other* masked steps; the loss is -log softmax
    over cosine similarities divided by TEMPERATURE, averaged over masked
    steps. Equal similarities give exactly log(K+1).
    """
    idx = np.nonzero(mask.mask)[0]
    m = len(idx)
    if m < 2:
        raise ValueError(f"contrastive loss needs at least 2 masked steps, got {m}")
    k = min(n_distractors, m - 1)
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


def reconstruction_terms(x: Tensor, xhat: Tensor) -> tuple:
    """(time-domain L1, mel-domain L1) between two waveforms of equal length
    at the codec rate; ``l1_distance`` raises ``ShapeError`` on unequal
    lengths. The mel term is zero for clips shorter than one analysis
    frame."""
    time_l1 = l1_distance(x, xhat)
    if x.shape[0] < N_FFT:
        return time_l1, Tensor(np.zeros((), dtype=x.dtype))
    return time_l1, l1_distance(_mel_tensor(x), _mel_tensor(xhat))


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

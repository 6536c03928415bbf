"""Audio I/O, resampling, spectral transforms, and the synthetic three-domain
toy dataset.

Everything here is a pure function of its inputs (the dataset generator takes
an explicit seed), so concurrent use is safe. WAV support covers RIFF PCM16
and IEEE float32, mono or multichannel, on read (averaged to mono), and mono
PCM16 on write.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "Domain",
    "AudioClip",
    "SAMPLE_RATE",
    "N_FFT",
    "HOP",
    "N_MELS",
    "MEL_FMAX",
    "WavError",
    "WavParseError",
    "WavUnsupportedError",
    "load_wav",
    "save_wav",
    "resample",
    "stft_magnitude",
    "mel_filterbank",
    "mel_spectrogram",
    "spectral_flatness",
    "gen_toy_dataset",
    "write_manifest",
    "read_manifest",
]


class Domain(enum.Enum):
    SPEECH = "speech"
    MUSIC = "music"
    SOUND = "sound"

    @classmethod
    def from_string(cls, s: str) -> "Domain":
        try:
            return cls(s.strip().lower())
        except ValueError:
            names = ", ".join(d.value for d in cls)
            raise ValueError(f"unknown domain '{s}' (expected one of: {names})") from None

    def __str__(self):
        return self.value


@dataclass
class AudioClip:
    """Mono waveform with sample rate and an optional domain label.

    Samples are float64 in [-1, 1]; sample_rate is a positive integer Hz.
    """

    samples: np.ndarray
    sample_rate: int
    domain: Optional[Domain] = None

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"AudioClip requires a 1-D sample array, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("AudioClip samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        self.samples = arr

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self):
        return len(self.samples)


# the codec's one sample rate, Hz: training resamples every clip to it and
# the codec encodes and decodes at it
SAMPLE_RATE = 24000

# spectrogram analysis: Hann-windowed frames of N_FFT samples, HOP apart,
# lying fully inside the signal, so frame count = floor((len - N_FFT) / HOP) + 1
N_FFT = 1024
HOP = 256

# mel filterbank: N_MELS triangular filters spanning 0 Hz to MEL_FMAX
N_MELS = 80
MEL_FMAX = 12000.0

# windowed-sinc filter taps per output sample of ``resample``
RESAMPLE_TAPS = 64


# ---------------------------------------------------------------------------
# WAV files (RIFF PCM16 / IEEE float32)


class WavError(Exception):
    pass


class WavParseError(WavError):
    """Malformed RIFF structure; the message names the offending chunk."""


class WavUnsupportedError(WavError):
    """Well-formed WAV using an encoding this codec does not read."""


def load_wav(path) -> AudioClip:
    """Read a RIFF/WAVE file into a mono AudioClip.

    PCM16 samples are scaled by 1/32768; float32 is clipped to [-1, 1]
    and must be finite; multichannel input is averaged to mono.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise WavParseError(f"{path}: file too short for a RIFF header")
    if raw[0:4] != b"RIFF":
        raise WavParseError(f"{path}: missing RIFF chunk id")
    if raw[8:12] != b"WAVE":
        raise WavParseError(f"{path}: RIFF form type is not WAVE")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavParseError(f"{path}: chunk '{cid.decode('ascii', 'replace')}' truncated")
        if cid == b"fmt ":
            if size < 16:
                raise WavParseError(f"{path}: fmt chunk shorter than 16 bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise WavParseError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavParseError(f"{path}: missing data chunk")

    audio_format, channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if channels < 1:
        raise WavParseError(f"{path}: fmt chunk declares {channels} channels")
    if sample_rate == 0:
        raise WavParseError(f"{path}: fmt chunk declares a sample rate of 0")
    if (audio_format, bits) not in ((1, 16), (3, 32)):
        raise WavUnsupportedError(
            f"{path}: unsupported encoding (format tag {audio_format}, {bits}-bit); "
            f"only 16-bit PCM and 32-bit IEEE float are readable"
        )
    if len(data) % (bits // 8):
        raise WavParseError(f"{path}: data chunk of {len(data)} bytes is not whole {bits}-bit samples")
    if audio_format == 1:
        frames = np.frombuffer(data, dtype="<i2")
        samples = frames.astype(np.float64) / 32768.0
    else:
        frames = np.frombuffer(data, dtype="<f4")
        if not np.all(np.isfinite(frames)):
            raise WavParseError(f"{path}: data chunk holds NaN or Inf samples")
        samples = np.clip(frames.astype(np.float64), -1.0, 1.0)

    if channels > 1:
        usable = (len(samples) // channels) * channels
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    return AudioClip(samples=samples, sample_rate=int(sample_rate))


def save_wav(path, clip: AudioClip) -> None:
    """Write a mono PCM16 WAV.

    Samples*32768 are rounded to the nearest integer (clipped), so a
    load/save round trip is exact to within one quantization step.
    """
    x = np.clip(clip.samples, -1.0, 1.0)
    payload = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2").tobytes()
    header = b"".join(
        [
            b"RIFF",
            struct.pack("<I", 36 + len(payload)),
            b"WAVE",
            b"fmt ",
            # chunk size, format tag 1 (PCM), 1 channel, rate, byte rate, block align, bits
            struct.pack("<IHHIIHH", 16, 1, 1, clip.sample_rate, 2 * clip.sample_rate, 2, 16),
            b"data",
            struct.pack("<I", len(payload)),
        ]
    )
    Path(path).write_bytes(header + payload)


# ---------------------------------------------------------------------------
# resampling


@lru_cache(maxsize=32)
def _polyphase_filters(up: int, down: int) -> np.ndarray:
    """One windowed-sinc filter per output phase, shape (up, RESAMPLE_TAPS).

    Phase p covers fractional position p/up between input samples; the
    low-pass cutoff is the narrower of the two Nyquist bands.
    """
    half = RESAMPLE_TAPS // 2
    fc = min(1.0, up / down)
    j = np.arange(RESAMPLE_TAPS, dtype=np.float64)
    filters = np.empty((up, RESAMPLE_TAPS))
    for p in range(up):
        d = j - (half - 1) - p / up
        w = np.where(np.abs(d) < half, 0.5 * (1.0 + np.cos(np.pi * d / half)), 0.0)
        filters[p] = fc * np.sinc(fc * d) * w
    filters.flags.writeable = False
    return filters


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Rational-rate resampling with a windowed-sinc polyphase filter of
    RESAMPLE_TAPS taps.

    Duration is preserved within one output sample; equal rates return the
    samples unchanged. Output n reads the RESAMPLE_TAPS padded inputs from
    floor(n·down/up) through filter phase n·down mod up. The outputs
    n ≡ r (mod up) share one phase and read windows ``down`` inputs apart,
    so each residue r is one matrix-vector product over a strided view of
    the padded input; no window array is built.
    """
    if target_rate <= 0:
        raise ValueError(f"target_rate must be positive, got {target_rate}")
    if target_rate == clip.sample_rate:
        return replace(clip, samples=clip.samples.copy())

    g = math.gcd(clip.sample_rate, target_rate)
    up = target_rate // g
    down = clip.sample_rate // g
    n_in = len(clip.samples)
    n_out = (2 * n_in * up + down) // (2 * down)  # round(n_in * up / down)

    half = RESAMPLE_TAPS // 2
    filters = _polyphase_filters(up, down)
    padded = np.pad(np.asarray(clip.samples, dtype=np.float64), (half - 1, RESAMPLE_TAPS))
    windows = np.lib.stride_tricks.sliding_window_view(padded, RESAMPLE_TAPS)
    out = np.empty(n_out)
    for r in range(min(up, n_out)):
        dst = out[r::up]
        np.matmul(windows[r * down // up :: down][: len(dst)], filters[r * down % up], out=dst)
    np.clip(out, -1.0, 1.0, out=out)
    return AudioClip(samples=out, sample_rate=target_rate, domain=clip.domain)


# ---------------------------------------------------------------------------
# spectral transforms


def _frame(x: np.ndarray, fft_size: int, hop: int) -> np.ndarray:
    if len(x) < fft_size:
        raise ValueError(
            f"clip of {len(x)} samples is shorter than fft_size {fft_size}; "
            f"need at least one full analysis frame"
        )
    return np.lib.stride_tricks.sliding_window_view(x, fft_size)[::hop]


def stft_magnitude(clip: AudioClip, fft_size: int = N_FFT, hop: int = HOP) -> np.ndarray:
    """Magnitude spectrogram, shape (fft_size//2 + 1, n_frames).

    Frames lie fully inside the signal: n_frames = floor((len - fft)/hop) + 1.
    """
    frames = _frame(clip.samples, fft_size, hop) * np.hanning(fft_size)
    return np.abs(np.fft.rfft(frames, axis=1)).T


def _hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def _mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """Triangular mel filterbank (HTK scale) from 0 Hz to MEL_FMAX for
    N_FFT-point frames at SAMPLE_RATE, shape (N_MELS, N_FFT//2 + 1)."""
    pts = _mel_to_hz(np.linspace(0.0, _hz_to_mel(MEL_FMAX), N_MELS + 2))
    bins = np.arange(N_FFT // 2 + 1) * (SAMPLE_RATE / N_FFT)
    lo, ctr, hi = pts[:-2, None], pts[1:-1, None], pts[2:, None]
    rising = (bins - lo) / np.maximum(ctr - lo, 1e-12)
    falling = (hi - bins) / np.maximum(hi - ctr, 1e-12)
    fb = np.clip(np.minimum(rising, falling), 0.0, None)
    fb.flags.writeable = False
    return fb


def mel_spectrogram(clip: AudioClip) -> np.ndarray:
    """Mel magnitude spectrogram: filterbank @ stft_magnitude, (N_MELS, frames).
    The clip must be at SAMPLE_RATE, the rate the filterbank is built for."""
    if clip.sample_rate != SAMPLE_RATE:
        raise ValueError(f"clip rate {clip.sample_rate} != codec rate {SAMPLE_RATE}; resample first")
    return mel_filterbank() @ stft_magnitude(clip)


def spectral_flatness(clip: AudioClip) -> float:
    """Mean per-frame geometric/arithmetic power ratio; 1 for white noise,
    near 0 for pure tones."""
    mag = stft_magnitude(clip)
    power = mag * mag + 1e-12
    geo = np.exp(np.mean(np.log(power), axis=0))
    arith = np.mean(power, axis=0)
    return float(np.mean(geo / arith))


# ---------------------------------------------------------------------------
# synthetic three-domain dataset


def _synth_speech(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Harmonic source with slow pitch wander, formant emphasis, and
    syllable-rate amplitude modulation."""
    t = np.arange(n) / sr
    f0 = rng.uniform(100.0, 220.0)
    wander_rate = rng.uniform(0.4, 1.5)
    wander_depth = rng.uniform(0.02, 0.08)
    wander_phase = rng.uniform(0, 2 * np.pi)
    pitch = f0 * (1.0 + wander_depth * np.sin(2 * np.pi * wander_rate * t + wander_phase))
    phase = 2 * np.pi * np.cumsum(pitch) / sr

    formant = rng.uniform(400.0, 1400.0)
    bw = rng.uniform(150.0, 400.0)
    x = np.zeros(n)
    for h in range(1, 13):
        fh = h * f0
        gain = (1.0 / h) * (1.0 + 2.0 * math.exp(-(((fh - formant) / bw) ** 2)))
        x += gain * np.sin(h * phase + rng.uniform(0, 2 * np.pi))

    syll_rate = rng.uniform(2.0, 5.0)
    syll_phase = rng.uniform(0, 2 * np.pi)
    env = 0.15 + 0.85 * (0.5 * (1.0 + np.sin(2 * np.pi * syll_rate * t + syll_phase))) ** 2
    x = x * env + 0.003 * rng.standard_normal(n)
    return x


def _synth_music(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Sustained chord: detuned partial stacks with slow attacks and tremolo."""
    t = np.arange(n) / sr
    root = rng.uniform(130.0, 290.0)
    chord = [1.0, 1.25, 1.5, 2.0] if rng.random() < 0.5 else [1.0, 1.2, 1.5, 1.8]
    x = np.zeros(n)
    for ratio in chord:
        note = root * ratio * (1.0 + rng.normal(0.0, 0.0015))
        attack = rng.uniform(0.05, 0.4)
        env = np.minimum(t / attack, 1.0) * np.exp(-0.15 * t)
        trem = 1.0 + 0.1 * np.sin(2 * np.pi * rng.uniform(4.0, 7.0) * t + rng.uniform(0, 2 * np.pi))
        for h in range(1, 6):
            x += (env * trem * (1.0 / h**2)) * np.sin(
                2 * np.pi * note * h * t + rng.uniform(0, 2 * np.pi)
            )
    return x


def _synth_sound(rng: np.random.Generator, n: int, sr: int) -> np.ndarray:
    """Band-filtered noise bursts over a low broadband bed."""
    x = 0.05 * rng.standard_normal(n)
    n_bursts = max(2, int(round(3 * n / sr)))
    freqs = np.fft.rfftfreq(n, 1.0 / sr)
    for _ in range(n_bursts):
        onset = rng.uniform(0.0, max(n / sr - 0.05, 0.01))
        tau = rng.uniform(0.05, 0.4)
        center = math.exp(rng.uniform(math.log(400.0), math.log(8000.0)))
        width = center * rng.uniform(0.2, 0.8)
        noise = rng.standard_normal(n)
        shaped = np.fft.irfft(np.fft.rfft(noise) * np.exp(-0.5 * ((freqs - center) / width) ** 2), n)
        peak = np.max(np.abs(shaped))
        if peak > 0:
            shaped = shaped / peak
        t = np.arange(n) / sr
        env = np.where(t >= onset, np.exp(-(t - onset) / tau), 0.0)
        x += rng.uniform(0.5, 1.0) * env * shaped
    return x


_SYNTH = {Domain.SPEECH: _synth_speech, Domain.MUSIC: _synth_music, Domain.SOUND: _synth_sound}


def gen_toy_dataset(seed: int, per_domain: int, duration: float) -> list:
    """Deterministic synthetic corpus: per_domain clips for each of speech,
    music, and sound, peak-normalized at SAMPLE_RATE."""
    if per_domain < 1:
        raise ValueError(f"per_domain must be >= 1, got {per_domain}")
    if not (np.isfinite(duration) and round(duration * SAMPLE_RATE) >= 1):
        raise ValueError(f"duration must be finite and at least one sample (1/{SAMPLE_RATE} s), got {duration}")
    n = int(round(duration * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    clips = []
    for domain in (Domain.SPEECH, Domain.MUSIC, Domain.SOUND):
        synth = _SYNTH[domain]
        for _ in range(per_domain):
            x = synth(rng, n, SAMPLE_RATE)
            clip = AudioClip(
                samples=np.clip(x / max(np.max(np.abs(x)), 1e-12) * 0.95, -1.0, 1.0),
                sample_rate=SAMPLE_RATE,
                domain=domain,
            )
            clips.append(clip)
    return clips


# ---------------------------------------------------------------------------
# dataset manifests (one "path<TAB>domain" line per clip)


def write_manifest(path, entries: Sequence[tuple]) -> None:
    """``entries`` is a sequence of (wav_path, Domain); wav paths are stored
    relative to the manifest's directory when possible."""
    base = Path(path).resolve().parent
    lines = []
    for wav_path, domain in entries:
        p = Path(wav_path).resolve()
        try:
            rel = p.relative_to(base)
        except ValueError:
            rel = p
        lines.append(f"{rel}\t{domain.value}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list:
    """Returns a list of (absolute wav path, Domain)."""
    base = Path(path).resolve().parent
    entries = []
    for ln, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"{path}:{ln}: expected 'path<TAB>domain', got {line!r}")
        rel, dom = parts
        p = Path(rel)
        entries.append((p if p.is_absolute() else base / p, Domain.from_string(dom)))
    return entries

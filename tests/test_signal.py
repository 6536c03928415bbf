"""WAV IO, resampling, spectrograms, and the synthetic dataset."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from tricodec.losses import mel_distance
from tricodec.signal import (
    _polyphase_filters,
    HOP,
    MEL_FMAX,
    N_FFT,
    N_MELS,
    RESAMPLE_TAPS,
    AudioClip,
    Domain,
    WavError,
    WavParseError,
    WavUnsupportedError,
    gen_toy_dataset,
    load_wav,
    mel_filterbank,
    mel_spectrogram,
    read_manifest,
    resample,
    save_wav,
    spectral_flatness,
    stft_magnitude,
    write_manifest,
)


def sine(freq, sr, seconds, amp=0.5):
    t = np.arange(int(sr * seconds)) / sr
    return AudioClip(amp * np.sin(2 * np.pi * freq * t), sr)


# ---------------------------------------------------------------------------
# WAV files


def test_load_silence(tmp_path):
    p = tmp_path / "z.wav"
    save_wav(p, AudioClip(np.zeros(480), 24000))
    clip = load_wav(p)
    assert clip.sample_rate == 24000
    assert np.array_equal(clip.samples, np.zeros(480))


def test_pcm16_scaling_convention(tmp_path):
    # sample value 16384 must decode to exactly 16384/32768 = 0.5
    p = tmp_path / "half.wav"
    data = np.array([16384, -16384, 0, 32767], dtype="<i2").tobytes()
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
        + b"data" + struct.pack("<I", len(data))
    )
    p.write_bytes(header + data)
    clip = load_wav(p)
    assert clip.samples[0] == 0.5
    assert clip.samples[1] == -0.5
    assert clip.samples[2] == 0.0
    assert clip.samples[3] == 32767 / 32768


def test_stereo_averaged_to_mono(tmp_path):
    p = tmp_path / "st.wav"
    frames = np.array([[6554, 19661], [0, 0]], dtype="<i2")  # ~(0.2, 0.6)
    data = frames.tobytes()
    header = (
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 2, 24000, 96000, 4, 16)
        + b"data" + struct.pack("<I", len(data))
    )
    p.write_bytes(header + data)
    clip = load_wav(p)
    assert len(clip.samples) == 2
    assert abs(clip.samples[0] - (6554 + 19661) / 2 / 32768) < 1e-12


def test_pcm16_round_trip_within_one_lsb(tmp_path):
    rng = np.random.default_rng(0)
    x = np.clip(rng.standard_normal(2000) * 0.3, -1, 1)
    p = tmp_path / "rt.wav"
    save_wav(p, AudioClip(x, 24000))
    back = load_wav(p)
    assert np.max(np.abs(back.samples - x)) <= 1.0 / 32768 + 1e-12


def test_float32_round_trip(tmp_path):
    # float32 samples read back exactly; those outside [-1, 1] are clipped on read
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.standard_normal(500) * 0.4, [1.5, -2.0]]).astype("<f4")
    p = tmp_path / "f32.wav"
    p.write_bytes(_mono_wav(3, 16000, 32, x.tobytes()))
    back = load_wav(p)
    assert back.sample_rate == 16000
    assert np.array_equal(back.samples, np.clip(x.astype(np.float64), -1.0, 1.0))
    assert np.array_equal(back.samples[-2:], [1.0, -1.0])


def test_malformed_header_names_chunk(tmp_path):
    p = tmp_path / "bad.wav"
    p.write_bytes(b"RIFX" + b"\x00" * 40)
    with pytest.raises(WavParseError):
        load_wav(p)
    p.write_bytes(b"RIFF" + struct.pack("<I", 4) + b"WAVE")
    with pytest.raises(WavParseError) as e:
        load_wav(p)
    assert "fmt" in str(e.value)


def test_unsupported_encoding_rejected(tmp_path):
    p = tmp_path / "alaw.wav"
    header = (
        b"RIFF" + struct.pack("<I", 36) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 6, 1, 8000, 8000, 1, 8)
        + b"data" + struct.pack("<I", 0)
    )
    p.write_bytes(header)
    with pytest.raises(WavUnsupportedError):
        load_wav(p)


def _mono_wav(fmt_tag, rate, bits, data):
    block = bits // 8
    return (
        b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHH", 16, fmt_tag, 1, rate, rate * block, block, bits)
        + b"data" + struct.pack("<I", len(data)) + data
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_float32_nonfinite_samples_rejected(tmp_path, bad):
    p = tmp_path / "nan.wav"
    p.write_bytes(_mono_wav(3, 16000, 32, np.array([0.1, bad, 0.2], dtype="<f4").tobytes()))
    with pytest.raises(WavParseError) as e:
        load_wav(p)
    assert "NaN or Inf" in str(e.value)


@pytest.mark.parametrize("fmt_tag, bits", [(1, 16), (3, 32)])
def test_partial_sample_in_data_chunk_rejected(tmp_path, fmt_tag, bits):
    p = tmp_path / "partial.wav"
    p.write_bytes(_mono_wav(fmt_tag, 16000, bits, b"\x00" * (bits // 8 + 1)))
    with pytest.raises(WavParseError) as e:
        load_wav(p)
    assert "not whole" in str(e.value)


def test_zero_sample_rate_rejected(tmp_path):
    p = tmp_path / "rate0.wav"
    p.write_bytes(_mono_wav(1, 0, 16, np.array([0, 100], dtype="<i2").tobytes()))
    with pytest.raises(WavParseError) as e:
        load_wav(p)
    assert "sample rate of 0" in str(e.value)


def test_wav_errors_share_base_class():
    assert issubclass(WavParseError, WavError)
    assert issubclass(WavUnsupportedError, WavError)


def test_odd_sized_chunk_is_word_aligned(tmp_path):
    # a 3-byte auxiliary chunk is padded to 4; parser must still find data
    p = tmp_path / "pad.wav"
    data = np.array([0, 16384], dtype="<i2").tobytes()
    header = (
        b"RIFF" + struct.pack("<I", 36 + 8 + 4 + len(data)) + b"WAVE"
        + b"junk" + struct.pack("<I", 3) + b"abc\x00"
        + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 24000, 48000, 2, 16)
        + b"data" + struct.pack("<I", len(data))
    )
    p.write_bytes(header + data)
    assert load_wav(p).samples[1] == 0.5


# ---------------------------------------------------------------------------
# resampling


def test_resample_identity():
    clip = sine(440, 24000, 0.1)
    out = resample(clip, 24000)
    assert out.sample_rate == 24000
    assert np.array_equal(out.samples, clip.samples)


def test_resample_duration_preserved():
    for src, dst, n in [(16000, 24000, 16000), (48000, 24000, 48000), (22050, 24000, 11025)]:
        clip = AudioClip(np.zeros(n), src)
        out = resample(clip, dst)
        expect = n * dst / src
        assert abs(len(out.samples) - expect) <= 1


def test_resample_16k_to_24k_length():
    out = resample(AudioClip(np.zeros(16000), 16000), 24000)
    assert abs(len(out.samples) - 24000) <= 1


def test_resample_preserves_tone_frequency():
    # 1 kHz sine at 48 kHz downsampled to 24 kHz keeps its FFT peak at 1 kHz
    clip = sine(1000, 48000, 1.0)
    out = resample(clip, 24000)
    assert len(out.samples) == 24000
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
    peak_hz = np.argmax(spec) * 24000 / len(out.samples)
    assert abs(peak_hz - 1000) < 2.0


def test_resample_upsample_tone():
    clip = sine(1000, 16000, 0.5)
    out = resample(clip, 24000)
    spec = np.abs(np.fft.rfft(out.samples * np.hanning(len(out.samples))))
    peak_hz = np.argmax(spec) * 24000 / len(out.samples)
    assert abs(peak_hz - 1000) < 4.0


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(sine(440, 24000, 0.01), 0)


def gathered_resample(x, src, dst):
    """The resampler's formula evaluated directly: every output's window of
    padded inputs gathered into one (n_out, RESAMPLE_TAPS) array, dotted
    with its phase's filter."""
    taps = RESAMPLE_TAPS
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    n_out = (2 * len(x) * up + down) // (2 * down)
    padded = np.pad(x, (taps // 2 - 1, taps))
    steps = np.arange(n_out, dtype=np.int64) * down
    windows = padded[(steps // up)[:, None] + np.arange(taps)[None, :]]
    out = np.einsum("nt,nt->n", windows, _polyphase_filters(up, down)[steps % up])
    return np.clip(out, -1.0, 1.0)


RATE_PAIRS = [(16000, 24000), (24000, 16000), (44100, 24000), (22050, 24000), (8000, 24000)]


@pytest.mark.parametrize("src,dst", RATE_PAIRS)
@pytest.mark.parametrize("n", [1, 5, 3000, 96000])
def test_resample_matches_gathered_windows(src, dst, n):
    # the strided views sum the same products as the gathered windows, in
    # another order: equal to float64 rounding
    x = np.random.default_rng(n).uniform(-1.0, 1.0, n)
    out = resample(AudioClip(x, src), dst)
    want = gathered_resample(x, src, dst)
    assert out.sample_rate == dst
    assert out.samples.shape == want.shape
    np.testing.assert_allclose(out.samples, want, rtol=0, atol=1e-12)


def test_resample_builds_no_window_array():
    # 6 s at 16 kHz -> 24 kHz; gathering the windows peaks near 200x the output
    clip = AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 96000), 16000)
    tracemalloc.start()
    try:
        out = resample(clip, 24000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.samples.nbytes


# ---------------------------------------------------------------------------
# spectrograms


def test_stft_zero_clip_zero_magnitudes():
    out = stft_magnitude(AudioClip(np.zeros(4096), 24000))
    assert out.shape[0] == 513
    assert np.all(out == 0)


def test_stft_framing_law():
    for n in (1024, 1025, 4096, 5000):
        out = stft_magnitude(AudioClip(np.zeros(n), 24000), 1024, 256)
        assert out.shape == (513, (n - 1024) // 256 + 1)
    out = stft_magnitude(AudioClip(np.zeros(5000), 24000), 512, 128)
    assert out.shape == (257, (5000 - 512) // 128 + 1)



def test_stft_too_short_error():
    with pytest.raises(ValueError):
        stft_magnitude(AudioClip(np.zeros(1023), 24000))


def test_stft_sine_peaks_at_bin():
    # bin-center frequency: bin 32 of fft 1024 at 24 kHz = 750 Hz
    clip = sine(750, 24000, 0.5)
    mag = stft_magnitude(clip, 1024, 256)
    assert np.all(np.argmax(mag, axis=0) == 32)


def test_stft_parseval_hann_window():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(1024)
    mag = stft_magnitude(AudioClip(x, 24000), 1024, 256)
    # the energy is that of the Hann-windowed frame; interior bins of the
    # one-sided spectrum count twice
    sq = mag[:, 0] ** 2
    total = sq[0] + sq[-1] + 2 * sq[1:-1].sum()
    assert abs(total - 1024 * np.sum((x * np.hanning(1024)) ** 2)) / total < 1e-9


def test_mel_equals_filterbank_matmul():
    clip = sine(1234, 24000, 0.3)
    mel = mel_spectrogram(clip)
    want = mel_filterbank() @ stft_magnitude(clip, N_FFT, HOP)
    assert mel.shape == (N_MELS, want.shape[1]) == (80, want.shape[1])
    assert np.array_equal(mel, want)


def test_mel_linear_in_amplitude():
    clip = sine(500, 24000, 0.2, amp=0.3)
    doubled = AudioClip(clip.samples * 2, 24000)
    assert np.allclose(mel_spectrogram(doubled), 2 * mel_spectrogram(clip), atol=1e-12)


def test_mel_filterbank_rows_positive():
    fb = mel_filterbank()
    assert fb.shape == (80, 513)
    assert np.all(fb.sum(axis=1) > 0)
    assert np.all(fb >= 0)


def test_mel_filterbank_spans_zero_to_fmax():
    # the first filter rises from 0 Hz; the last falls to zero at MEL_FMAX,
    # which at 24 kHz is the top FFT bin
    fb = mel_filterbank()
    assert MEL_FMAX == 24000 / 2
    assert fb[0, 0] == 0 and fb[0, 1] > 0
    assert np.max(fb[:, -1]) < 1e-12 and fb[-1, -2] > 0


def test_mel_spectrogram_rejects_other_rates():
    # the filterbank is built for the codec rate; clip rates come from input files
    clip = sine(1234, 16000, 0.3)
    with pytest.raises(ValueError, match="codec rate"):
        mel_spectrogram(clip)
    with pytest.raises(ValueError, match="codec rate"):
        mel_distance(clip, clip)


def test_spectral_flatness_orders_noise_above_tone():
    rng = np.random.default_rng(3)
    noise = AudioClip(rng.standard_normal(8192) * 0.3, 24000)
    tone = sine(440, 24000, 8192 / 24000)
    assert spectral_flatness(noise) > 10 * spectral_flatness(tone)


# ---------------------------------------------------------------------------
# AudioClip and Domain


def test_audioclip_rejects_nonfinite():
    with pytest.raises(ValueError):
        AudioClip(np.array([0.0, np.nan]), 24000)


def test_audioclip_rejects_2d():
    with pytest.raises(ValueError):
        AudioClip(np.zeros((2, 100)), 24000)


def test_domain_from_string():
    assert Domain.from_string("speech") is Domain.SPEECH
    assert Domain.from_string("MUSIC") is Domain.MUSIC
    with pytest.raises(ValueError):
        Domain.from_string("voice")


# ---------------------------------------------------------------------------
# toy dataset


def test_toy_dataset_deterministic():
    a = gen_toy_dataset(7, 2, 0.25)
    b = gen_toy_dataset(7, 2, 0.25)
    assert len(a) == len(b) == 6
    for ca, cb in zip(a, b):
        assert ca.domain == cb.domain
        assert np.array_equal(ca.samples, cb.samples)


def test_toy_dataset_counts_and_rates():
    clips = gen_toy_dataset(0, 4, 0.25)
    assert len(clips) == 12
    for d in Domain:
        assert sum(1 for c in clips if c.domain == d) == 4
    assert all(c.sample_rate == 24000 for c in clips)
    assert all(len(c.samples) == 6000 for c in clips)


def test_toy_dataset_seed_changes_content():
    a = gen_toy_dataset(1, 1, 0.25)
    b = gen_toy_dataset(2, 1, 0.25)
    assert not np.array_equal(a[0].samples, b[0].samples)


def test_toy_dataset_flatness_ordering():
    clips = gen_toy_dataset(5, 3, 0.5)
    flat = {d: np.mean([spectral_flatness(c) for c in clips if c.domain == d]) for d in Domain}
    assert flat[Domain.SOUND] > flat[Domain.SPEECH]


def test_toy_dataset_peak_normalized():
    for clip in gen_toy_dataset(9, 1, 0.25):
        assert np.max(np.abs(clip.samples)) <= 0.95 + 1e-9


# ---------------------------------------------------------------------------
# manifests


def test_manifest_round_trip(tmp_path):
    clips = gen_toy_dataset(4, 1, 0.1)
    entries = []
    for i, clip in enumerate(clips):
        p = tmp_path / f"c{i}.wav"
        save_wav(p, clip)
        entries.append((p, clip.domain))
    man = tmp_path / "manifest.tsv"
    write_manifest(man, entries)
    back = read_manifest(man)
    assert len(back) == 3
    for (wp, dom), (orig_p, orig_d) in zip(back, entries):
        assert dom == orig_d
        assert load_wav(wp).sample_rate == 24000


def test_manifest_paths_relative(tmp_path):
    p = tmp_path / "a.wav"
    save_wav(p, AudioClip(np.zeros(100), 24000))
    man = tmp_path / "m.tsv"
    write_manifest(man, [(p, Domain.SPEECH)])
    assert "a.wav" in man.read_text()
    assert str(tmp_path) not in man.read_text()


def test_manifest_bad_domain_errors(tmp_path):
    man = tmp_path / "m.tsv"
    man.write_text("x.wav\tvoice\n")
    with pytest.raises(ValueError):
        read_manifest(man)

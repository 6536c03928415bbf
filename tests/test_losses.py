"""Span masking, masked-contrastive loss, reconstruction terms, and metrics."""

import numpy as np
import pytest

from tricodec.autodiff import ShapeError, Tensor, add, grad_check, mul
from tricodec.losses import (
    MASK_P,
    MASK_SPAN,
    contrastive_loss,
    mel_distance,
    reconstruction_terms,
    sample_mask,
    stft_distance,
)
from tricodec.model import Codec, CodecConfig
from tricodec.signal import AudioClip, Domain, mel_spectrogram, stft_magnitude
from tricodec.training import StageConfig, dataset_recon_loss


# ---------------------------------------------------------------------------
# mask sampling


def test_mask_start_count_law():
    rng = np.random.default_rng(0)
    assert (MASK_P, MASK_SPAN) == (0.1, 5)
    for t, want in [(100, 10), (1000, 100), (75, 8), (4, 1), (14, 1), (16, 2)]:
        ms = sample_mask(t, rng)
        assert len(ms.starts) == want, t
        assert len(np.unique(ms.starts)) == want  # without replacement


def test_mask_spans_cover_starts():
    rng = np.random.default_rng(1)
    ms = sample_mask(100, rng)
    for s in ms.starts:
        assert np.all(ms.mask[s : min(s + 5, 100)])
    # every masked frame lies within span of some start
    covered = np.zeros(100, dtype=bool)
    for s in ms.starts:
        covered[s : s + 5] = True
    assert np.array_equal(ms.mask, covered)
    assert ms.count == covered.sum()


def test_mask_clips_at_sequence_end():
    rng = np.random.default_rng(2)
    # a start in the last span's reach masks only the frames left
    for _ in range(20):
        ms = sample_mask(6, rng)
        assert ms.mask.shape == (6,)
        assert ms.count == min(6 - ms.starts[0], MASK_SPAN)


def test_mask_deterministic_given_rng():
    a = sample_mask(50, np.random.default_rng(7))
    b = sample_mask(50, np.random.default_rng(7))
    assert np.array_equal(a.mask, b.mask)
    assert np.array_equal(a.starts, b.starts)


def test_mask_rejects_empty():
    with pytest.raises(ValueError):
        sample_mask(0, np.random.default_rng(0))


def test_mask_fraction_statistics():
    # masked fraction over many draws approximates the Monte-Carlo value
    # of the identical procedure (union of spans from distinct starts)
    rng = np.random.default_rng(3)
    t = 200
    fracs = [sample_mask(t, rng).count / t for _ in range(500)]
    oracle_rng = np.random.default_rng(999)
    oracle = []
    for _ in range(500):
        starts = oracle_rng.choice(t, size=20, replace=False)
        m = np.zeros(t, dtype=bool)
        for s in starts:
            m[s : s + 5] = True
        oracle.append(m.mean())
    assert abs(np.mean(fracs) - np.mean(oracle)) < 0.01


# ---------------------------------------------------------------------------
# contrastive loss


def make_mask(t, masked_idx):
    m = np.zeros(t, dtype=bool)
    m[masked_idx] = True
    from tricodec.losses import MaskSet

    return MaskSet(mask=m, starts=np.asarray(masked_idx[:1]))


def test_contrastive_uniform_similarity_is_log_k_plus_1():
    # identical c row for every candidate: all similarities equal
    t, h, k = 12, 6, 4
    c = Tensor(np.tile(np.linspace(1, 2, h), (t, 1)))
    q = Tensor(np.random.default_rng(4).standard_normal((t, h)))
    ms = make_mask(t, np.arange(8))
    val = float(contrastive_loss(q, c, ms, k, np.random.default_rng(0)).data)
    assert abs(val - np.log(k + 1)) < 1e-12


def test_contrastive_perfect_prediction_near_zero():
    rng = np.random.default_rng(5)
    t, h = 20, 16
    c = rng.standard_normal((t, h))
    ms = make_mask(t, np.arange(t))
    val = float(contrastive_loss(Tensor(c * 3), Tensor(c), ms, 8, rng).data)
    assert val < 0.2  # own feature wins nearly every row


def test_contrastive_matches_softmax_oracle():
    # tiny instance recomputed with plain numpy softmax cross-entropy
    rng = np.random.default_rng(6)
    t, h, k = 5, 8, 4
    q = rng.standard_normal((t, h))
    c = rng.standard_normal((t, h))
    ms = make_mask(t, np.arange(t))

    draw = np.random.default_rng(42)
    got = float(contrastive_loss(Tensor(q), Tensor(c), ms, k, draw).data)

    draw = np.random.default_rng(42)
    idx = np.arange(t)
    losses = []
    for row, i in enumerate(idx):
        others = idx[idx != i]
        cand = np.concatenate([[i], draw.choice(others, size=k, replace=False)])
        qn = q[i] / np.linalg.norm(q[i])
        cn = c[cand] / np.linalg.norm(c[cand], axis=1, keepdims=True)
        logits = (cn @ qn) / 0.1
        losses.append(np.log(np.exp(logits).sum()) - logits[0])
    assert abs(got - np.mean(losses)) < 1e-10


def test_contrastive_requires_enough_masked_steps():
    q = Tensor(np.random.default_rng(9).standard_normal((10, 4)))
    for masked in ([], [4]):
        with pytest.raises(ValueError) as e:
            contrastive_loss(q, q, make_mask(10, masked), 5, np.random.default_rng(0))
        assert "at least 2 masked steps" in str(e.value)
    # with fewer masked steps than distractors, every other masked step is one:
    # the same draws as a request for exactly m - 1
    ms = make_mask(10, [1, 2, 3])
    capped = contrastive_loss(q, q, ms, 5, np.random.default_rng(0))
    exact = contrastive_loss(q, q, ms, 2, np.random.default_rng(0))
    assert capped.data == exact.data


def test_contrastive_grad_wrt_q():
    rng = np.random.default_rng(8)
    t, h = 10, 6
    c = Tensor(rng.standard_normal((t, h)))
    ms = make_mask(t, np.arange(t))

    def f(q):
        return contrastive_loss(q, c, ms, 4, np.random.default_rng(11))

    rep = grad_check(f, Tensor(rng.standard_normal((t, h))))
    assert rep.passed, str(rep)


def test_contrastive_config_validation():
    # the distractor count is a stage setting; the temperature
    # (losses.TEMPERATURE) and the mask shape are fixed, and no option sets them
    with pytest.raises(ValueError):
        StageConfig.semantic(n_distractors=0)
    for key in ("temperature", "mask", "contrastive"):
        with pytest.raises(TypeError):
            StageConfig.semantic(**{key: None})


# ---------------------------------------------------------------------------
# reconstruction loss


def test_reconstruction_identical_is_zero():
    rng = np.random.default_rng(9)
    x = rng.standard_normal(4096) * 0.2
    time_l1, mel_l1 = reconstruction_terms(Tensor(x), Tensor(x.copy()))
    assert float(time_l1.data) == 0.0 and float(mel_l1.data) == 0.0


def test_reconstruction_constant_offset_time_term():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(2048) * 0.1
    eps = 0.01
    time_l1, _ = reconstruction_terms(Tensor(x), Tensor(x + eps))
    assert abs(float(time_l1.data) - eps) < 1e-9


def test_reconstruction_lam_mel_scales_mel_term():
    # training's reconstruction loss is time L1 + the stage's mel weight * mel
    # L1: 45 for acoustic (and semantic), 450 for fine-tune, which the
    # dataset readout must keep rather than score as acoustic; the sum is
    # the graph's, in the codec dtype
    codec = Codec(CodecConfig.toy(), seed=3)
    rng = np.random.default_rng(11)
    clip = AudioClip(np.clip(rng.standard_normal(2560) * 0.3, -1, 1), 24000, Domain.SPEECH)
    x = clip.samples.astype(codec.dtype)
    frames, _ = codec.encode_frames(x)
    _, quantized = codec.quantize(frames, domain=Domain.SPEECH)
    t1, m1 = reconstruction_terms(Tensor(x), codec.decode_frames(quantized))
    assert float(m1.data) > 0.0
    stages = (StageConfig.acoustic(), StageConfig.finetune(), StageConfig.semantic())
    assert [cfg.lam_mel for cfg in stages] == [45.0, 450.0, 45.0]
    for cfg in stages:
        want = add(t1, mul(Tensor(np.asarray(cfg.lam_mel, dtype=codec.dtype)), m1))
        assert dataset_recon_loss(codec, [clip], cfg) == float(want.data), cfg.stage


def test_reconstruction_mel_matches_signal_mel():
    # the differentiable mel path must agree with the numpy spectrogram
    rng = np.random.default_rng(12)
    x = rng.standard_normal(4096) * 0.2
    zero = np.zeros(4096)
    _, mel_l1 = reconstruction_terms(Tensor(x), Tensor(zero))
    want = np.mean(np.abs(mel_spectrogram(AudioClip(x, 24000)) - 0.0))
    # the differentiable path smooths |.| near zero, so agreement is approximate
    assert abs(float(mel_l1.data) - want) / want < 1e-4


def test_reconstruction_short_clip_skips_mel():
    x = np.ones(512) * 0.1
    time_l1, mel_l1 = reconstruction_terms(Tensor(x), Tensor(np.zeros(512)))
    assert float(mel_l1.data) == 0.0
    assert abs(float(time_l1.data) - 0.1) < 1e-12


def test_reconstruction_rejects_unequal_lengths():
    x = np.ones(3000) * 0.2
    y = np.ones(2500) * 0.2
    with pytest.raises(ShapeError):
        reconstruction_terms(Tensor(x), Tensor(y))


def test_reconstruction_grad_through_mel():
    rng = np.random.default_rng(13)
    x = Tensor(rng.standard_normal(1200) * 0.3)

    def f(xhat):
        time_l1, mel_l1 = reconstruction_terms(x, xhat)
        return add(time_l1, mul(Tensor(np.array(2.0)), mel_l1))

    # keep xhat away from xhat == x (L1 kink)
    rep = grad_check(f, Tensor(rng.standard_normal(1200) * 0.3 + 2.0))
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# metric distances


def clips(seed=14, n=4096):
    rng = np.random.default_rng(seed)
    a = AudioClip(rng.standard_normal(n) * 0.2, 24000)
    b = AudioClip(rng.standard_normal(n) * 0.2, 24000)
    return a, b


def test_distances_zero_on_identical():
    a, _ = clips()
    assert mel_distance(a, a) == 0.0
    assert stft_distance(a, a) == 0.0


def test_distances_symmetric_nonnegative():
    a, b = clips()
    assert mel_distance(a, b) == mel_distance(b, a) > 0
    assert stft_distance(a, b) == stft_distance(b, a) > 0


def test_mel_distance_against_zero_is_mean_magnitude():
    a, _ = clips()
    zero = AudioClip(np.zeros(len(a.samples)), 24000)
    want = float(np.mean(np.abs(mel_spectrogram(a))))
    assert abs(mel_distance(a, zero) - want) < 1e-12


def test_distance_rate_mismatch_rejected():
    a, _ = clips()
    b = AudioClip(np.zeros(1000), 16000)
    with pytest.raises(ValueError):
        mel_distance(a, b)
    with pytest.raises(ValueError):
        stft_distance(a, b)


def test_distance_truncates_lengths():
    a, _ = clips()
    longer = AudioClip(np.concatenate([a.samples, np.zeros(500)]), 24000)
    assert mel_distance(a, longer) == 0.0


def test_stft_distance_uses_three_scales():
    a, b = clips(seed=15, n=8192)
    per_scale = []
    for fft in (512, 1024, 2048):
        per_scale.append(
            np.mean(np.abs(stft_magnitude(a, fft, fft // 4) - stft_magnitude(b, fft, fft // 4)))
        )
    assert abs(stft_distance(a, b) - np.mean(per_scale)) < 1e-12

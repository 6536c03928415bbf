"""Partitioned-codebook nearest-neighbor quantization and token streams."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricodec.autodiff import Tensor, backward, mul, tsum
from tricodec.quantizer import (
    _NORM_ROWS,
    BASE_MEAN,
    BASE_STD,
    QuantizerConfig,
    TokenStream,
    TokenStreamError,
    alignment_loss,
    commitment_loss,
    effective_book,
    effective_codewords,
    init_quantizer_params,
    load_tokens,
    quantize,
    save_tokens,
    simvq_embed,
    _nearest,
    utilization,
)
from tricodec.signal import Domain

CFG = QuantizerConfig(codebook_size=64, speech_end=16, music_end=32)
HIDDEN = 8


def make_params(seed=0, cfg=CFG):
    raw = init_quantizer_params(cfg, HIDDEN, np.random.default_rng(seed))
    return {
        "vq.base": Tensor(raw["vq.base"]),
        "vq.proj": Tensor(raw["vq.proj"], requires_grad=True),
    }


def nn_oracle(frames, book, lo=0):
    """Exhaustive scan, direct squared distances, first minimum wins."""
    ids = []
    for f in frames:
        d = np.sum((book - f) ** 2, axis=1)
        ids.append(lo + int(np.argmin(d)))
    return np.array(ids)


# ---------------------------------------------------------------------------
# nearest-neighbor correctness


def test_quantize_matches_oracle_whole_book():
    rng = np.random.default_rng(1)
    params = make_params()
    book = effective_codewords(params).data
    for _ in range(20):
        frames = Tensor(rng.standard_normal((10, 8)))
        stream, _ = quantize(frames, params, CFG)
        assert np.array_equal(stream.ids, nn_oracle(frames.data, book))


def test_quantize_with_prebuilt_book_matches_uncached():
    # a caller's book and norms give the ids the call would build itself,
    # bit for bit, whole book and per region
    rng = np.random.default_rng(2)
    params = make_params(seed=3)
    params["vq.proj"].data[...] = rng.normal(0.0, 0.5, (8, 8))
    book = effective_book(params)
    assert np.array_equal(book[0], effective_codewords(params).data)
    assert np.array_equal(book[1], np.sum(book[0] * book[0], axis=1))
    frames = Tensor(rng.standard_normal((40, 8)))
    for domain in (None, Domain.SPEECH, Domain.MUSIC, Domain.SOUND):
        want, _ = quantize(frames, params, CFG, domain=domain)
        got, _ = quantize(frames, params, CFG, domain=domain, book=book)
        assert np.array_equal(got.ids, want.ids)


def test_quantize_domain_restricted_matches_regional_oracle():
    rng = np.random.default_rng(2)
    params = make_params()
    book = effective_codewords(params).data
    for domain in Domain:
        lo, hi = CFG.region(domain)
        frames = Tensor(rng.standard_normal((12, 8)))
        stream, _ = quantize(frames, params, CFG, domain=domain)
        assert np.array_equal(stream.ids, nn_oracle(frames.data, book[lo:hi], lo))
        assert np.all(stream.ids >= lo) and np.all(stream.ids < hi)


def test_quantize_duplicate_rows_tie_breaks_to_lowest_id():
    params = make_params()
    base = params["vq.base"].data.copy()
    base[40] = base[7]  # exact duplicate across regions
    base[23] = base[7]
    params["vq.base"] = Tensor(base)
    f = Tensor(base[7][None, :] + 1e-9)
    stream, _ = quantize(f, params, CFG)
    assert stream.ids[0] == 7  # ids 7, 23, 40 all tie; lowest wins


def test_quantize_duplicate_rows_in_distant_gemm_blocks_tie_break_to_lowest_id():
    # A 453-entry, 50-dim book with rows 265 and 451 bit-identical and a
    # 13-frame batch: OpenBLAS puts the two rows in different GEMM blocks and
    # rounds their expanded distances differently, so ranking by the expanded
    # form alone can pick 451.
    cfg = QuantizerConfig(codebook_size=453, speech_end=100, music_end=200)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal((453, 50))
        base[451] = base[265]
        frames = rng.standard_normal((13, 50))
        frames[0] = base[451]
        params = {"vq.base": Tensor(base), "vq.proj": Tensor(np.eye(50))}
        stream, _ = quantize(Tensor(frames), params, cfg)
        assert stream.ids[0] == 265, f"seed {seed}"
        rstream, _ = quantize(Tensor(frames), params, cfg, domain=Domain.SOUND)
        assert rstream.ids[0] == 265, f"seed {seed}"


def exact_oracle(frames, book):
    """Brute force in float64: exact squared distance to every row, ties to
    the lowest id."""
    book = book.astype(np.float64)
    return np.array([int(np.argmin(np.sum((book - f) ** 2, axis=1))) for f in frames.astype(np.float64)])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    book_dtype=st.sampled_from([np.float32, np.float64]),
    frame_dtype=st.sampled_from([np.float32, np.float64]),
    size=st.integers(1, 600),
    width=st.integers(1, 48),
    offset=st.sampled_from([0.0, 4.0, 100.0]),
)
# always run: 12 frames here keep three near candidates each, which pins
# the re-rank's row and column order over the flat scan of the screen's mask
@example(seed=1, book_dtype=np.float32, frame_dtype=np.float32, size=300, width=16, offset=4.0)
def test_nearest_matches_exact_oracle(seed, book_dtype, frame_dtype, size, width, offset):
    # Rows far apart in the book (so in different GEMM blocks) are made
    # bit-identical or one ulp apart; frames sit on or just off them. The
    # screen's rounding, larger in float32 and with a large shared offset,
    # cannot tell such rows apart, and only the exact re-rank can.
    rng = np.random.default_rng(seed)
    book = (offset + rng.standard_normal((size, width))).astype(book_dtype)
    anchors = rng.integers(0, max(1, size // 8), 4)
    for a in anchors:
        far = size - 1 - int(rng.integers(max(1, size // 8)))
        book[far] = book[a]
        k = int(rng.integers(width))
        if rng.random() < 0.5:  # one ulp apart in one coordinate
            book[far, k] = np.nextafter(book[a, k], np.inf if rng.random() < 0.5 else -np.inf)
    on = book[rng.choice(np.concatenate([anchors, rng.integers(0, size, 2)]), 8)].astype(np.float64)
    near = on + rng.normal(0.0, 10.0 ** rng.uniform(-7, -1), on.shape)
    frames = np.concatenate([on, near, offset + rng.standard_normal((4, width))]).astype(frame_dtype)
    sq = np.sum(book.astype(np.float64) ** 2, axis=1)
    assert np.array_equal(_nearest(frames, book, sq), exact_oracle(frames, book))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_effective_book_keeps_parameter_dtype_and_float64_norms(dtype):
    # a book of several norm blocks: the codewords stay in the parameters'
    # dtype, the norms are their float64 sums of squares, bit for bit
    cfg = QuantizerConfig(codebook_size=2 * _NORM_ROWS + 37, speech_end=100, music_end=200)
    raw = init_quantizer_params(cfg, HIDDEN, np.random.default_rng(4))
    raw["vq.proj"] += np.random.default_rng(5).normal(0.0, 0.3, raw["vq.proj"].shape)
    params = {k: Tensor(v.astype(dtype)) for k, v in raw.items()}
    book, sq = effective_book(params)
    assert book.dtype == dtype and sq.dtype == np.float64
    assert np.array_equal(book, effective_codewords(params).data)
    book64 = book.astype(np.float64)
    assert np.array_equal(sq, np.sum(book64 * book64, axis=1))


def test_quantize_identity_projection_keeps_base_geometry():
    params = make_params()
    assert np.array_equal(effective_codewords(params).data, params["vq.base"].data)
    # quantizing an exact codeword returns its own id
    for idx in (0, 17, 63):
        f = Tensor(params["vq.base"].data[idx][None, :])
        stream, quantized = quantize(f, params, CFG)
        assert stream.ids[0] == idx
        assert np.allclose(quantized.data[0], params["vq.base"].data[idx])


def test_quantized_value_is_selected_codeword():
    rng = np.random.default_rng(3)
    params = make_params()
    frames = Tensor(rng.standard_normal((5, 8)))
    stream, quantized = quantize(frames, params, CFG)
    # the lookup decoding uses, bit for bit; the whole-book product agrees
    # up to the rounding of a differently shaped GEMM
    assert np.array_equal(quantized.data, simvq_embed(stream.ids, params).data)
    eff = effective_codewords(params).data
    assert np.allclose(quantized.data, eff[stream.ids], rtol=0.0, atol=1e-12)


def test_quantize_straight_through_gradient():
    rng = np.random.default_rng(4)
    params = make_params()
    frames = Tensor(rng.standard_normal((6, 8)), requires_grad=True)
    _, quantized = quantize(frames, params, CFG)
    g = rng.standard_normal((6, 8))
    backward(tsum(mul(quantized, Tensor(g))))
    # identity passthrough: frames receive the downstream gradient unchanged
    assert np.allclose(frames.grad, g, atol=1e-12)
    # and the projection learns through the selected codewords
    assert params["vq.proj"].grad is not None
    assert np.any(params["vq.proj"].grad != 0)


def test_frozen_base_receives_no_gradient():
    rng = np.random.default_rng(5)
    params = make_params()
    frames = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    _, quantized = quantize(frames, params, CFG)
    backward(tsum(mul(quantized, quantized)))
    assert params["vq.base"].grad is None


# ---------------------------------------------------------------------------
# regions and embeddings


def test_region_bounds():
    assert QuantizerConfig().region(Domain.SPEECH) == (0, 4096)
    assert QuantizerConfig().region(Domain.MUSIC) == (4096, 8192)
    assert QuantizerConfig().region(Domain.SOUND) == (8192, 16384)


def test_config_region_validation():
    with pytest.raises(ValueError):
        QuantizerConfig(codebook_size=64, speech_end=32, music_end=32)
    with pytest.raises(ValueError):
        QuantizerConfig(codebook_size=64, speech_end=0, music_end=32)
    with pytest.raises(ValueError):
        QuantizerConfig(codebook_size=64, speech_end=16, music_end=64)


def test_init_base_statistics_follow_config():
    cfg = QuantizerConfig(codebook_size=4096, speech_end=1024, music_end=2048)
    params = init_quantizer_params(cfg, 32, np.random.default_rng(11))
    base = params["vq.base"]
    assert base.shape == (4096, 32)
    mean_vec = base.mean(axis=0)
    assert abs(np.linalg.norm(mean_vec) - BASE_MEAN) < 0.1
    assert abs((base - mean_vec).std() - BASE_STD) < 0.02
    assert np.allclose(params["vq.proj"].data, np.eye(32))


def test_simvq_embed_is_projected_base():
    rng = np.random.default_rng(6)
    params = make_params()
    proj = rng.standard_normal((8, 8))
    params["vq.proj"] = Tensor(proj, requires_grad=True)
    ids = np.array([3, 40, 3])
    out = simvq_embed(ids, params).data
    want = params["vq.base"].data[ids] @ proj.T
    assert np.allclose(out, want, atol=1e-12)


def test_simvq_embed_range_check():
    params = make_params()
    with pytest.raises(IndexError):
        simvq_embed(np.array([64]), params)
    with pytest.raises(IndexError):
        simvq_embed(np.array([-1]), params)


# ---------------------------------------------------------------------------
# commitment and utilization


def test_commitment_loss_zero_on_codewords():
    params = make_params()
    f = Tensor(params["vq.base"].data[[2, 9]])
    _, quantized = quantize(f, params, CFG)
    assert float(commitment_loss(f, quantized).data) == 0.0


def test_commitment_loss_value_and_beta():
    frames = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]), requires_grad=True)
    quantized = Tensor(np.zeros((2, 2)))
    # beta 0.25 times the mean over frames of squared distance: (1 + 4) / 2 = 2.5
    assert abs(float(commitment_loss(frames, quantized).data) - 0.625) < 1e-12


def test_commitment_loss_grad_targets_frames_only():
    rng = np.random.default_rng(7)
    frames = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    quantized = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    backward(commitment_loss(frames, quantized))
    assert frames.grad is not None
    assert quantized.grad is None  # stop-gradient side


def test_alignment_loss_value_mirrors_commitment():
    frames = Tensor(np.array([[1.0, 0.0], [0.0, 2.0]]))
    codewords = Tensor(np.zeros((2, 2)))
    assert abs(float(alignment_loss(frames, codewords).data) - 2.5) < 1e-12


def test_alignment_loss_grad_targets_codebook_only():
    params = make_params()
    rng = np.random.default_rng(11)
    frames = Tensor(rng.standard_normal((5, 8)), requires_grad=True)
    stream, _ = quantize(frames, params, CFG)
    backward(alignment_loss(frames, simvq_embed(stream.ids, params)))
    assert params["vq.proj"].grad is not None
    assert frames.grad is None  # stop-gradient side
    assert params["vq.base"].grad is None  # base embeddings stay frozen


def test_utilization_counts_distinct_per_region():
    s1 = TokenStream(np.array([0, 1, 1, 20]), codebook_size=64)
    s2 = TokenStream(np.array([20, 40, 63]), codebook_size=64)
    assert utilization([s1, s2], CFG) == 5 / 64
    assert utilization([s1, s2], CFG, domain=Domain.SPEECH) == 2 / 16
    assert utilization([s1, s2], CFG, domain=Domain.MUSIC) == 1 / 16
    assert utilization([s1, s2], CFG, domain=Domain.SOUND) == 2 / 32
    with pytest.raises(ValueError):
        utilization([], CFG)


# ---------------------------------------------------------------------------
# token stream format


def test_token_stream_validation():
    with pytest.raises(ValueError):
        TokenStream(np.array([[1, 2]]))
    with pytest.raises(ValueError):
        TokenStream(np.array([5, 16384]))
    with pytest.raises(ValueError):
        TokenStream(np.array([-1]))


def test_token_round_trip(tmp_path):
    stream = TokenStream(np.array([0, 5, 16383]), frame_rate=75,
                         source_sample_rate=24000, codebook_size=16384)
    p = tmp_path / "t.uctk"
    save_tokens(p, stream)
    back = load_tokens(p)
    assert np.array_equal(back.ids, stream.ids)
    assert back.frame_rate == 75
    assert back.source_sample_rate == 24000
    assert back.codebook_size == 16384
    assert back.ids.dtype == np.int64


def test_token_file_layout(tmp_path):
    p = tmp_path / "t.uctk"
    save_tokens(p, TokenStream(np.array([1, 2, 3]), codebook_size=512))
    raw = p.read_bytes()
    assert raw[:4] == b"UCTK"
    assert len(raw) == 28 + 6


def test_token_bad_magic_and_version(tmp_path):
    p = tmp_path / "t.uctk"
    save_tokens(p, TokenStream(np.array([1]), codebook_size=512))
    raw = bytearray(p.read_bytes())
    raw[:4] = b"XXXX"
    p.write_bytes(bytes(raw))
    with pytest.raises(TokenStreamError):
        load_tokens(p)
    raw = bytearray(p.read_bytes())
    # restore magic, break version
    raw[:4] = b"UCTK"
    raw[4] = 9
    p.write_bytes(bytes(raw))
    with pytest.raises(TokenStreamError):
        load_tokens(p)


def test_token_truncation_and_trailing(tmp_path):
    p = tmp_path / "t.uctk"
    save_tokens(p, TokenStream(np.array([1, 2, 3, 4]), codebook_size=512))
    raw = p.read_bytes()
    p.write_bytes(raw[:-2])
    with pytest.raises(TokenStreamError):
        load_tokens(p)
    p.write_bytes(raw + b"xx")
    with pytest.raises(TokenStreamError):
        load_tokens(p)


def test_token_id_outside_book_is_token_stream_error(tmp_path):
    p = tmp_path / "t.uctk"
    header = b"UCTK" + struct.pack("<IIIIQ", 1, 24000, 75, 100, 2)
    p.write_bytes(header + np.array([3, 200], dtype="<u2").tobytes())
    with pytest.raises(TokenStreamError, match="out of range"):
        load_tokens(p)


def test_token_save_rejects_oversized_codebook(tmp_path):
    stream = TokenStream(np.array([1]), codebook_size=100000)
    with pytest.raises(TokenStreamError):
        save_tokens(tmp_path / "big.uctk", stream)

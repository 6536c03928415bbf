"""Codec assembly: config plumbing, persistence, and token-level round trips."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricodec import checkpoint as ckpt
from tricodec import decoder, encoder, quantizer, training
from tricodec.checkpoint import CheckpointError
from tricodec.decoder import DecoderConfig, decode, decoder_param_shapes
from tricodec.encoder import EncoderConfig, MoEConfig, conv_encode, encoder_param_shapes
from tricodec.model import Codec, CodecConfig
from tricodec.autodiff import CHUNK_FRAMES, HALO_FRAMES, Tensor, no_grad
from tricodec.quantizer import QuantizerConfig, quantize, simvq_embed
from tricodec.signal import AudioClip, Domain


def micro_config():
    return CodecConfig(
        encoder=EncoderConfig(
            strides=(2, 2),
            conv_channels=(4, 8),
            layers=1,
            heads=2,
            moe=MoEConfig(n_shared=1, n_routed=2, k_routed=1, expert_dim=8),
        ),
        quantizer=QuantizerConfig(codebook_size=16, speech_end=4, music_end=8),
        decoder=DecoderConfig(channels=(4, 4)),
    )


def tone(n=24000, hz=440.0):
    t = np.arange(n) / 24000.0
    return AudioClip(0.5 * np.sin(2 * np.pi * hz * t), 24000, Domain.SPEECH)


# ---------------------------------------------------------------------------
# config


def test_config_rejects_stride_mismatch():
    # the decoder runs the encoder's strides, one stage width per stride
    cfg = micro_config()
    with pytest.raises(ValueError, match="one per stride"):
        replace(cfg, decoder=DecoderConfig(channels=(4, 4, 4)))


def test_config_rejects_indivisible_rate():
    # a stride product of 14 does not divide the 24 kHz codec rate
    cfg = micro_config()
    with pytest.raises(ValueError, match="not divisible"):
        replace(cfg, encoder=replace(cfg.encoder, strides=(7, 2)))


def test_toy_preset_rates():
    cfg = CodecConfig.toy()
    assert cfg.downsample == 320
    assert cfg.tokens_per_second == 75
    assert cfg.quantizer.codebook_size == 512
    assert cfg.quantizer.region(Domain.SPEECH) == (0, 128)
    assert cfg.quantizer.region(Domain.MUSIC) == (128, 256)
    assert cfg.quantizer.region(Domain.SOUND) == (256, 512)


def test_full_preset_rates():
    cfg = CodecConfig.full()
    assert cfg.downsample == 320
    assert cfg.tokens_per_second == 75
    assert cfg.quantizer.codebook_size == 16384
    assert cfg.quantizer.region(Domain.SOUND) == (8192, 16384)


def preset_names(layers, experts):
    """The parameter names of a preset with five conv stages, ``layers``
    transformer blocks and ``experts`` FFN experts per block, in init order."""
    names = [f"enc.conv{i}.{p}" for i in range(5) for p in "wb"]
    for i in range(layers):
        blk = f"enc.blk{i}"
        names += [f"{blk}.ln1.g", f"{blk}.ln1.b"]
        names += [f"{blk}.attn.{w}" for w in ("wq", "wk", "wv", "wo")]
        names += [f"{blk}.ln2.g", f"{blk}.ln2.b"]
        names += [f"{blk}.{ex}.{p}" for ex in experts for p in ("w1", "b1", "w2", "b2")]
        names.append(f"{blk}.centroids")
    names += ["enc.final_ln.g", "enc.final_ln.b", "enc.mask_embed", "vq.base", "vq.proj"]
    names += [f"dec.tconv{i}.{p}" for i in range(5) for p in "wb"]
    return names + ["dec.out.w", "dec.out.b"]


@pytest.mark.parametrize(
    "preset, layers, tensors, total, trainable",
    [("toy", 2, 77, 248_977, 216_209), ("full", 8, 227, 52_446_401, 44_057_793)],
)
def test_preset_architecture_is_pinned(preset, layers, tensors, total, trainable):
    # what a checkpoint of either preset holds; vq.base is the one frozen tensor
    shapes = getattr(CodecConfig, preset)().param_shapes()
    experts = ("shared0", "routed0", "routed1", "routed2")
    assert list(shapes) == preset_names(layers, experts)
    assert len(shapes) == tensors == getattr(CodecConfig, preset)().param_count()
    sizes = {name: int(np.prod(shape)) for name, shape in shapes.items()}
    assert sum(sizes.values()) == total
    assert total - sizes["vq.base"] == trainable


def test_config_dict_round_trip():
    cfg = CodecConfig.toy()
    again = CodecConfig.from_dict(cfg.to_dict())
    assert again == cfg
    import json

    again2 = CodecConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again2 == cfg


# ---------------------------------------------------------------------------
# codec


def test_init_deterministic_and_frozen_base():
    a = Codec(micro_config(), seed=5)
    b = Codec(micro_config(), seed=5)
    assert set(a.params) == set(b.params)
    assert {k: v.shape for k, v in a.params.items()} == micro_config().param_shapes()
    for k in a.params:
        assert np.array_equal(a.params[k].data, b.params[k].data), k
    assert not a.params["vq.base"].requires_grad
    assert "vq.base" not in a.trainable()
    assert "vq.proj" in a.trainable()


def test_seeded_codec_holds_its_float64_draws_in_float32(float64_draws):
    codec = Codec(micro_config(), seed=3)
    draws = float64_draws(micro_config(), 3)
    assert codec.dtype == np.float32
    assert list(codec.params) == list(draws)
    for k, v in draws.items():
        got = codec.params[k].data
        assert v.dtype == np.float64 and got.dtype == np.float32, k
        assert np.array_equal(got, v.astype(np.float32)), k


def test_seeded_codec_peak_is_its_float64_draws_and_one_tensor():
    # Codec(config, seed) holds all its float64 draws at once, then pops each
    # as it is cast: the float64 left plus the float32 made never exceeds the
    # draws, and one tensor's worth covers what exists beside them at any
    # moment (a draw's temporary, or the tensor being cast with its finite
    # check). Holding every draw until all were cast peaked at 1.5 times the
    # draws.
    Codec(CodecConfig.toy(), seed=0)  # lazy imports and caches, outside the trace
    tracemalloc.start()
    try:
        codec = Codec(CodecConfig.toy(), seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    draws = sum(8 * t.data.size for t in codec.params.values())
    largest = max(8 * t.data.size for t in codec.params.values())
    assert peak < draws + largest, f"peak {peak} for {draws} bytes of float64 draws"


def test_encode_rejects_wrong_rate():
    codec = Codec(micro_config())
    clip = AudioClip(np.zeros(16000), 16000, Domain.SPEECH)
    with pytest.raises(ValueError) as e:
        codec.encode(clip)
    assert "resample" in str(e.value)


def test_token_counts_match_frame_law():
    codec = Codec(micro_config())
    for n in (400, 1000, 24000):
        stream = codec.encode(AudioClip(np.zeros(n) + 0.01, 24000))
        assert len(stream) == n // 4


def test_decode_tokens_length_law():
    codec = Codec(micro_config())
    stream = codec.encode(tone(2000))
    wave = codec.decode_tokens(stream)
    assert len(wave.samples) == 4 * len(stream)
    assert wave.sample_rate == 24000


def test_reconstruct_preserves_duration():
    codec = Codec(micro_config())
    clip = tone(2400)
    out = codec.reconstruct(clip, domain=Domain.SPEECH)
    assert len(out.samples) == 2400


def test_domain_argument_restricts_stream_ids():
    codec = Codec(micro_config(), seed=1)
    clip = tone(2000, hz=700)
    ids = codec.encode(clip, domain=Domain.MUSIC).ids
    assert ids.min() >= 4 and ids.max() < 8


def save_float64(codec, path):
    """Save ``codec`` with its parameters upcast to float64, as a checkpoint
    written before every codec held float32 stores them."""
    arrays = codec.state_arrays()
    ckpt.save_tensors(path, {k: v.astype(np.float64) if k.startswith("param/") else v for k, v in arrays.items()})


def test_save_load_round_trip(tmp_path):
    codec = Codec(micro_config(), seed=9)
    p = tmp_path / "c.tckp"
    codec.save(p)
    loaded = Codec.load(p)
    assert loaded.config == codec.config
    assert loaded.dtype == codec.dtype
    assert set(loaded.params) == set(codec.params)
    for k in codec.params:
        assert np.array_equal(loaded.params[k].data, codec.params[k].data), k
    assert not loaded.params["vq.base"].requires_grad

    clip = tone(2000)
    a = codec.reconstruct(clip)
    b = loaded.reconstruct(clip)
    assert np.array_equal(a.samples, b.samples)


def test_load_defaults_to_float32(tmp_path):
    codec = Codec(micro_config(), seed=9)
    p = tmp_path / "c.tckp"
    save_float64(codec, p)
    assert ckpt.load_tensors(p)["param/enc.conv0.w"].dtype == np.float64
    loaded = Codec.load(p)
    assert loaded.dtype == np.float32
    assert list(loaded.params) == list(codec.params)
    for k, v in codec.params.items():
        got = loaded.params[k]
        assert got.dtype == np.float32, k
        assert np.array_equal(got.data, v.data.astype(np.float32)), k
        assert got.requires_grad == v.requires_grad, k


def test_mixed_dtype_checkpoint_loads_in_float32(tmp_path):
    # the first parameter is stored in float64 and the rest in float32, so
    # no one tensor's stored dtype decides the codec's
    arrays = Codec(micro_config(), seed=9).state_arrays()
    names = [k for k in arrays if k.startswith("param/")]
    arrays[names[0]] = arrays[names[0]].astype(np.float64)
    p = tmp_path / "mixed.tckp"
    ckpt.save_tensors(p, arrays)
    loaded = Codec.load(p)
    assert loaded.dtype == np.float32
    for k in names:
        got = loaded.params[k[len("param/") :]].data
        assert got.dtype == np.float32 and np.array_equal(got, arrays[k].astype(np.float32)), k
    assert loaded.encode(tone(2000)).ids.shape == (500,)


def test_float32_load_never_holds_the_float64_checkpoint(tmp_path):
    # tensors are cast as they are read: the peak stays below the float64
    # payload plus the float32 copy of its largest tensor, so the two full
    # copies never coexist
    codec = Codec(CodecConfig.toy(), seed=5)
    p = tmp_path / "c.tckp"
    save_float64(codec, p)
    payload = sum(8 * t.data.size for t in codec.params.values())
    largest = max(8 * t.data.size for t in codec.params.values())
    tracemalloc.start()
    try:
        loaded = Codec.load(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.dtype == np.float32
    assert peak < payload + largest // 2 + (256 << 10), f"peak {peak} for a {payload}-byte payload"


def test_float32_encode_memory_grows_linearly_in_clip_length(tmp_path):
    # without a graph, attention runs in query blocks, so the live score
    # array is (heads, 256, T): doubling a 20 s clip at most about doubles
    # the encode's peak. Unblocked, the 40 s clip's T = 3000 frames would
    # hold three (4, 3000, 3000) float32 score arrays, 432 MB.
    p = tmp_path / "c.tckp"
    Codec(CodecConfig.toy(), seed=5).save(p)
    codec = Codec.load(p)
    rng = np.random.default_rng(6)
    peaks = {}
    for seconds in (20, 40):
        clip = AudioClip(0.1 * rng.standard_normal(24000 * seconds), 24000)
        tracemalloc.start()
        try:
            stream = codec.encode(clip)
            _, peaks[seconds] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stream.ids.shape == (75 * seconds,)
    assert peaks[40] < 2.2 * peaks[20], peaks
    assert peaks[40] < 100 << 20, peaks


def encoder_reach(cfg: EncoderConfig) -> tuple:
    """(frames before, frames after) of samples that one frame's conv
    features read beyond its own, from each conv's stride, kernel and
    padding: output t of a conv reads inputs stride * t - pad_l onwards,
    kernel of them."""
    t = 100
    lo = hi = t
    for i in reversed(range(len(cfg.strides))):
        s, k = cfg.strides[i], encoder_param_shapes(cfg)[f"enc.conv{i}.w"][2]
        lo, hi = s * lo - s // 2, s * hi - s // 2 + k - 1
    return t - lo // cfg.downsample, hi // cfg.downsample - t


def decoder_reach(config: CodecConfig) -> tuple:
    """(frames before, frames after) that one frame's decoded samples read
    beyond its own: the output conv reads half its kernel either side, and
    a transposed conv's output p = stride * t + j - pad_l, j < kernel, reads
    the frames t that can reach it."""
    strides = config.encoder.strides
    shapes = decoder_param_shapes(config.decoder, config.encoder.hidden, strides)
    f, d, half = 100, config.downsample, shapes["dec.out.w"][2] // 2
    lo, hi = d * f - half, d * (f + 1) - 1 + half
    for i in reversed(range(len(strides))):
        s, k = strides[i], shapes[f"dec.tconv{i}.w"][2]
        lo, hi = -(-(lo + s // 2 - k + 1) // s), (hi + s // 2) // s
    return f - lo, hi - f


@pytest.mark.parametrize("preset", ["toy", "full"])
def test_chunk_halo_covers_the_conv_receptive_fields(preset):
    # a chunk's frames are exact only if what they read lies within the halo
    config = getattr(CodecConfig, preset)()
    for reach in (encoder_reach(config.encoder), decoder_reach(config)):
        assert 0 < max(reach) <= HALO_FRAMES, reach


@pytest.fixture(scope="module")
def toy_codec():
    return Codec(CodecConfig.toy(), seed=2)


@pytest.mark.parametrize("frames", [1, 127, 128, 129, 261])
def test_chunked_conv_stacks_match_one_recorded_pass_to_the_bit(toy_codec, frames, monkeypatch):
    # the graph's one pass against no_grad's chunks, on both sides of one
    # chunk; the waveform ends in a partial frame, which the last chunk reads
    params, cfg = toy_codec.params, toy_codec.config.encoder
    rng = np.random.default_rng(frames)
    samples = (0.3 * rng.standard_normal(frames * cfg.downsample + 100)).astype(np.float32)
    q = Tensor(rng.standard_normal((frames, cfg.hidden)).astype(np.float32))
    graph_feats, graph_wave = conv_encode(samples, params, cfg), decode(q, params, cfg.strides)
    assert graph_feats.requires_grad and graph_wave.requires_grad
    calls = {}
    for module in (encoder, decoder):
        def counted(*args, _conv=module.conv1d, _name=module.__name__, **kw):
            calls[_name] = calls.get(_name, 0) + 1
            return _conv(*args, **kw)

        monkeypatch.setattr(module, "conv1d", counted)
    with no_grad():
        feats, wave = conv_encode(samples, params, cfg), decode(q, params, cfg.strides)
    chunks = -(-frames // CHUNK_FRAMES)
    assert calls == {encoder.__name__: chunks * len(cfg.strides), decoder.__name__: chunks}
    assert feats.data.dtype == wave.data.dtype == np.float32
    assert np.array_equal(feats.data, graph_feats.data)
    assert np.array_equal(wave.data, graph_wave.data)


def test_reconstruct_matches_decoding_the_encoded_tokens_past_one_chunk(toy_codec):
    clip = AudioClip(0.1 * np.random.default_rng(8).standard_normal(3 * 24000), 24000)
    assert 3 * toy_codec.config.tokens_per_second > CHUNK_FRAMES
    a = toy_codec.reconstruct(clip)
    b = toy_codec.decode_tokens(toy_codec.encode(clip))
    assert np.array_equal(a.samples, b.samples)


def test_float32_decode_memory_is_bounded_in_clip_length(toy_codec):
    # without a graph the decoder runs in chunks of frames: past the output
    # itself, doubling a 20 s clip adds at most a fifth to the peak. In one
    # pass every stage's activations and GEMM stacks grow with the clip.
    rng = np.random.default_rng(7)
    above = {}
    for seconds in (20, 40):
        q = Tensor(rng.standard_normal((75 * seconds, toy_codec.config.encoder.hidden)).astype(np.float32))
        tracemalloc.start()
        try:
            with no_grad():
                wave = decode(q, toy_codec.params, toy_codec.config.encoder.strides)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        above[seconds] = peak - wave.data.nbytes
    assert above[40] <= 1.2 * above[20], above


def test_load_skips_the_optimizer_state(tmp_path):
    # a training checkpoint also holds AdamW's two moments per trainable
    # parameter; Codec.load seeks past them and its arena holds only the
    # parameters and the config, so its peak stays within the float32
    # parameters plus 128 KiB (the config, the arena's alignment, the finite
    # check's mask and the Python objects), well under one moment set
    codec = Codec(CodecConfig.toy(), seed=5)
    p = tmp_path / "train.tckp"
    training._save_state(p, codec, training.AdamW(codec.trainable()), np.random.default_rng(0), 0, 1, 0)
    params = sum(t.data.size for t in codec.params.values()) * 4
    moments = sum(2 * t.data.size for t in codec.trainable().values()) * 4
    slack = 128 << 10
    Codec.load(p)  # lazy imports, outside the trace
    tracemalloc.start()
    try:
        loaded = Codec.load(p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < params + slack, f"peak {peak} for {params} bytes of parameters and {moments} of moments"
    for k, v in codec.params.items():
        assert np.array_equal(loaded.params[k].data, v.data.astype(np.float32)), k


def test_load_requires_embedded_config(tmp_path):
    p = tmp_path / "bare.tckp"
    ckpt.save_tensors(p, {"param/w": np.zeros(3)})
    with pytest.raises(CheckpointError) as e:
        Codec.load(p)
    assert "config" in str(e.value)


def test_state_arrays_layout():
    codec = Codec(micro_config())
    arrays = codec.state_arrays()
    assert "meta/config_json" in arrays
    assert all(k.startswith(("param/", "meta/")) for k in arrays)
    assert arrays["param/vq.base"].shape == (16, 8)


def test_inference_paths_match_grad_mode_path():
    # encode/decode_tokens build no graph; their ids and samples must equal
    # the same forward pass run with the graph built
    codec = Codec(CodecConfig.toy(), seed=4)
    clip = tone(4800, hz=330.0)
    for domain in (None, Domain.MUSIC):
        frames, _ = codec.encode_frames(clip.samples)
        stream, quantized = codec.quantize(frames, domain=domain)
        assert quantized.requires_grad
        wave = codec.decode_frames(simvq_embed(stream.ids, codec.params))
        assert wave.requires_grad

        got = codec.encode(clip, domain=domain)
        assert np.array_equal(got.ids, stream.ids)
        assert np.array_equal(codec.decode_tokens(got).samples, wave.data)


def _count_calls(monkeypatch, owner, names):
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _fn=getattr(owner, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("mask", [False, True])
def test_forward_record_matches_explicit_chain(mask):
    # every field of the record equals the encode_frames -> quantize ->
    # decode_frames chain run by hand, bit for bit, with the graph built
    codec = Codec(micro_config(), seed=6)
    x = tone(2003, hz=510.0).samples
    m = np.zeros(500, dtype=bool)
    m[100:140] = mask
    out = codec.forward(x, domain=Domain.MUSIC, mask=m if mask else None, decode=True)

    whole = x[:2000].astype(codec.dtype)
    frames, conv = codec.encode_frames(whole, mask=m if mask else None)
    stream, quantized = codec.quantize(frames, domain=Domain.MUSIC)
    wave = codec.decode_frames(quantized)
    assert np.array_equal(out.samples, whole)
    for got, want in ((out.conv_feats, conv), (out.frames, frames), (out.quantized, quantized),
                      (out.wave, wave), (out.codewords, simvq_embed(stream.ids, codec.params))):
        assert got.requires_grad
        assert np.array_equal(got.data, want.data)
    assert np.array_equal(out.stream.ids, stream.ids)
    assert out.codewords is out.quantized._parents[1]  # the codewords quantize projected
    assert codec.forward(x, domain=Domain.MUSIC).wave is None


def test_encode_and_reconstruct_run_one_pass_each(monkeypatch):
    codec = Codec(micro_config(), seed=6)
    clip = tone(2000, hz=510.0)
    want_ids = codec.encode(clip).ids
    want_wave = codec.decode_tokens(codec.encode(clip)).samples
    counts = _count_calls(monkeypatch, Codec, ("encode_frames", "quantize", "decode_frames"))
    assert np.array_equal(codec.encode(clip).ids, want_ids)
    assert counts == {"encode_frames": 1, "quantize": 1, "decode_frames": 0}
    # reconstruct decodes the selected codewords: same samples as decode_tokens
    assert np.array_equal(codec.reconstruct(clip).samples, want_wave)
    assert counts == {"encode_frames": 2, "quantize": 2, "decode_frames": 1}


def test_encode_drops_the_partial_last_frame():
    # samples past the last whole frame are not encoded, as in training and
    # eval; this loud tail would change the last id if it reached the encoder
    codec = Codec(micro_config(), seed=6)
    whole = tone(2000, hz=510.0)
    clip = AudioClip(np.concatenate([whole.samples, [-1.0, 1.0, -1.0]]), 24000)
    assert np.array_equal(codec.encode(clip).ids, codec.encode(whole).ids)
    assert np.array_equal(codec.reconstruct(clip).samples, codec.reconstruct(whole).samples)


def test_decode_depends_only_on_ids():
    # same ids through a different frames tensor give bit-identical audio
    codec = Codec(micro_config(), seed=2)
    clip = tone(2000)
    stream = codec.encode(clip)
    w1 = codec.decode_tokens(stream)
    from tricodec.quantizer import TokenStream

    clone = TokenStream(ids=stream.ids.copy(), frame_rate=stream.frame_rate,
                        source_sample_rate=stream.source_sample_rate,
                        codebook_size=stream.codebook_size)
    w2 = codec.decode_tokens(clone)
    assert np.array_equal(w1.samples, w2.samples)


def test_checkpoint_with_old_config_keys_is_rejected(tmp_path):
    # configs embedded before mlp_dim, base_mean, base_std and sample_rate
    # were removed, or before the latent width, the strides and the output
    # kernel had one owner each, name fields the config no longer has
    codec = Codec(micro_config(), seed=5)
    path = tmp_path / "old.tckp"
    codec.save(path)
    arrays = ckpt.load_tensors(path)
    cfg = codec.config.to_dict()
    hidden, strides = cfg["encoder"]["conv_channels"][-1], list(cfg["encoder"]["strides"])
    old_keys = [(None, "sample_rate", 24000), ("encoder", "mlp_dim", 256), ("quantizer", "base_mean", 4.0),
                ("quantizer", "base_std", 1.0), ("encoder", "hidden", hidden), ("quantizer", "hidden", hidden),
                ("decoder", "hidden", hidden), ("decoder", "strides", strides), ("decoder", "out_kernel", 7)]
    for section, key, value in old_keys:
        old = json.loads(json.dumps(cfg))
        (old if section is None else old[section])[key] = value
        arrays["meta/config_json"] = np.frombuffer(json.dumps(old).encode(), dtype=np.uint8)
        ckpt.save_tensors(path, arrays)
        with pytest.raises(CheckpointError, match=f"embedded model config is invalid: .*'{key}'"):
            Codec.load(path)


def save_with_config_key(codec, path, section, key, value):
    """Save ``codec`` with ``key`` set to ``value`` in its embedded config
    (at the top level when ``section`` is None)."""
    codec.save(path)
    arrays = ckpt.load_tensors(path)
    cfg = json.loads(json.dumps(codec.config.to_dict()))
    (cfg if section is None else cfg[section])[key] = value
    arrays["meta/config_json"] = np.frombuffer(json.dumps(cfg).encode(), dtype=np.uint8)
    ckpt.save_tensors(path, arrays)


def test_checkpoint_with_disagreeing_duplicate_key_is_rejected(tmp_path):
    # the decoder's strides are the encoder's reversed; a copy that disagrees
    # is rejected as an unknown key, before anything could read it
    path = tmp_path / "old.tckp"
    save_with_config_key(Codec(CodecConfig.toy(), seed=5), path, "decoder", "strides", [4, 2, 5, 4, 2])
    with pytest.raises(CheckpointError, match="embedded model config is invalid: .*'strides'"):
        Codec.load(path)


def test_checkpoint_at_another_rate_is_rejected(tmp_path):
    # the codec runs at 24 kHz only; a checkpoint naming another rate is
    # rejected rather than loaded as if it ran at 24 kHz
    path = tmp_path / "old16k.tckp"
    save_with_config_key(Codec(micro_config(), seed=5), path, None, "sample_rate", 16000)
    with pytest.raises(CheckpointError, match="embedded model config is invalid: .*'sample_rate'"):
        Codec.load(path)


TOY_MOE = {"n_shared": 1, "n_routed": 3, "k_routed": 1, "expert_dim": 128}


@pytest.mark.parametrize("key,value", [
    ("strides", [0, 4, 5, 4, 2]), ("conv_channels", [8, 0, 32, 32, 64]), ("heads", 0), ("layers", -1),
    # the strides' product is 2^80, which an int64 product wraps to 0
    ("strides", [2**40, 2**40, 5, 4, 2]),
    # a parameter count this large once took minutes or all memory to enumerate
    ("layers", 2**40), ("moe", {**TOY_MOE, "n_shared": 2**40}), ("moe", {**TOY_MOE, "n_shared": 3_000_000}),
    # JSON floats pass every range check but index nothing
    ("heads", 2.0), ("layers", 2.0), ("moe", {**TOY_MOE, "k_routed": 1.0}),
])
def test_checkpoint_with_degenerate_encoder_shape_is_rejected(tmp_path, key, value):
    # a zero stride or head count once escaped as ZeroDivisionError
    path = tmp_path / "bad.tckp"
    save_with_config_key(Codec(CodecConfig.toy(), seed=5), path, "encoder", key, value)
    with pytest.raises(CheckpointError, match="embedded model config is invalid"):
        Codec.load(path)


def test_checkpoint_with_an_odd_head_width_is_rejected(tmp_path):
    # 64 heads of width 1 once loaded and then failed the first encode
    # with a ShapeError from rotary attention
    path = tmp_path / "bad.tckp"
    save_with_config_key(Codec(CodecConfig.toy(), seed=5), path, "encoder", "heads", 64)
    with pytest.raises(CheckpointError, match="embedded model config is invalid"):
        Codec.load(path)


def config_int_paths(node, at=()):
    """The path of each integer in a config dict from ``to_dict``."""
    for key, value in node.items():
        if isinstance(value, dict):
            yield from config_int_paths(value, at + (key,))
        elif isinstance(value, tuple):
            yield from (at + (key, i) for i in range(len(value)))
        else:
            yield at + (key,)


def test_embedded_config_integers_load_or_raise_checkpoint_error(tmp_path):
    # any one integer of the embedded config set to a small or huge integer,
    # an integral float or a bool: the checkpoint loads a codec that
    # encodes, or Codec.load raises CheckpointError
    codec = Codec(micro_config(), seed=5)
    path = tmp_path / "c.tckp"
    arrays = codec.state_arrays()
    values = st.one_of(st.integers(-2, 20), st.integers(2**20, 2**80), st.integers(0, 20).map(float), st.booleans())

    @settings(max_examples=150, deadline=None)
    @given(where=st.sampled_from(list(config_int_paths(codec.config.to_dict()))), value=values)
    def check(where, value):
        cfg = json.loads(json.dumps(codec.config.to_dict()))
        node = cfg
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        arrays["meta/config_json"] = np.frombuffer(json.dumps(cfg).encode(), dtype=np.uint8)
        ckpt.save_tensors(path, arrays)
        try:
            loaded = Codec.load(path)
        except CheckpointError:
            return
        assert loaded.encode(tone(400)).ids.shape == (100,)

    check()


def test_checkpoint_with_non_finite_parameter_is_rejected(tmp_path):
    # a damaged payload can decode to NaN or Inf, which once escaped as the
    # autodiff's NonFiniteError
    arrays = Codec(micro_config(), seed=5).state_arrays()
    path = tmp_path / "bad.tckp"
    for bad in (np.nan, np.inf):
        arrays["param/dec.out.b"] = np.array([bad], dtype=np.float32)
        ckpt.save_tensors(path, arrays)
        with pytest.raises(CheckpointError, match="NaN or Inf"):
            Codec.load(path)


def test_checkpoint_with_unnamed_parameter_is_rejected(tmp_path):
    # a config that names fewer blocks than the file holds must not load
    # the file as a shallower codec
    path = tmp_path / "bad.tckp"
    save_with_config_key(Codec(CodecConfig.toy(), seed=5), path, "encoder", "layers", 1)
    with pytest.raises(CheckpointError, match="'param/enc.blk1.ln1.g' is not a parameter"):
        Codec.load(path)
    codec = Codec(micro_config(), seed=5)
    ckpt.save_tensors(path, {**codec.state_arrays(), "param/enc.extra": np.zeros(3)})
    with pytest.raises(CheckpointError, match="'param/enc.extra' is not a parameter"):
        Codec.load(path)


# ---------------------------------------------------------------------------
# effective-book cache

ALL_DOMAINS = (None, Domain.SPEECH, Domain.MUSIC, Domain.SOUND)


def uncached_ids(codec, frames, domain):
    return quantize(frames, codec.params, codec.config.quantizer, domain=domain)[0].ids


def test_cached_book_gives_uncached_ids():
    codec = Codec(micro_config(), seed=2)
    frames = Tensor(np.random.default_rng(0).standard_normal((30, 8)))
    for _ in range(2):  # the first pass builds the book, the second reuses it
        for domain in ALL_DOMAINS:
            got = codec.quantize(frames, domain=domain)[0].ids
            assert np.array_equal(got, uncached_ids(codec, frames, domain))


@pytest.mark.parametrize("write", ["in_place", "replaced"])
def test_book_cache_follows_projection_updates(write):
    # the warm start writes vq.proj in place; AdamW replaces its array
    codec = Codec(micro_config(), seed=2)
    rng = np.random.default_rng(1)
    frames = Tensor(rng.standard_normal((30, 8)))
    stale = [codec.quantize(frames, domain=d)[0].ids for d in ALL_DOMAINS]
    new = rng.normal(0.0, 1.0, (8, 8))
    if write == "in_place":
        codec.params["vq.proj"].data[...] = new
    else:
        codec.params["vq.proj"].data = new
    fresh = [codec.quantize(frames, domain=d)[0].ids for d in ALL_DOMAINS]
    for domain, got in zip(ALL_DOMAINS, fresh):
        assert np.array_equal(got, uncached_ids(codec, frames, domain))
    assert not np.array_equal(fresh[0], stale[0])  # the update moved the ids


def test_book_built_lazily_and_once(tmp_path, monkeypatch):
    Codec(CodecConfig.toy(), seed=3).save(tmp_path / "c.tckp")
    calls = []
    build = quantizer.effective_codewords
    monkeypatch.setattr(quantizer, "effective_codewords", lambda params: calls.append(1) or build(params))
    codec = Codec.load(tmp_path / "c.tckp")
    assert calls == []
    clip = tone(4800, hz=330.0)
    for _ in range(3):
        codec.encode(clip)
    assert calls == [1]


def test_state_arrays_exclude_the_book_cache():
    codec = Codec(micro_config(), seed=2)
    before = codec.state_arrays().keys()
    codec.encode(tone(2000))
    assert codec.state_arrays().keys() == before
    assert before == {f"param/{k}" for k in micro_config().param_shapes()} | {"meta/config_json"}

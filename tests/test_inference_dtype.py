"""float32 inference: ``Codec.load`` casts a float64 checkpoint to float32,
which must pick the same tokens and reconstruct as well as the float64
weights it holds, run on the functional layer, with no op silently
running in float64."""

import json

import numpy as np
import pytest

from tricodec import autodiff
from tricodec import checkpoint as ckpt
from tricodec.autodiff import Tensor, no_grad
from tricodec.decoder import decode
from tricodec.encoder import encode_frames
from tricodec.losses import mel_distance
from tricodec.model import Codec, CodecConfig
from tricodec.quantizer import effective_book, quantize
from tricodec.signal import AudioClip, gen_toy_dataset

SEED = 5


def clips_for(preset):
    if preset == "toy":
        return gen_toy_dataset(SEED, 2, 1.0)
    return gen_toy_dataset(SEED, 1, 1.0) + gen_toy_dataset(SEED, 1, 6.0)[:1]


def round_trips(forward, clips):
    """Per clip: ids, float64 frames, and the mel distance of the
    reconstruction from the clip, where ``forward(samples)`` returns the
    frames, the token stream and the decoded wave."""
    out = []
    with no_grad():
        for clip in clips:
            frames, stream, wave = forward(clip.samples)
            mel = mel_distance(clip, AudioClip(wave.data, clip.sample_rate))
            out.append((stream.ids, np.asarray(frames.data, dtype=np.float64), mel))
    return out


@pytest.mark.parametrize("preset", ["toy", "full"])
def test_float32_load_agrees_with_float64(tmp_path, preset, float64_draws):
    config = CodecConfig.toy() if preset == "toy" else CodecConfig.full()
    clips = clips_for(preset)
    path = tmp_path / "c.tckp"
    draws = float64_draws(config, SEED)
    cfg_json = np.frombuffer(json.dumps(config.to_dict()).encode(), dtype=np.uint8)
    ckpt.save_tensors(path, {**{f"param/{k}": v for k, v in draws.items()}, "meta/config_json": cfg_json})
    params = {k: Tensor(v) for k, v in draws.items()}
    del draws
    book, sq = effective_book(params)

    def forward64(x):
        # Codec.forward(x, decode=True) in float64; the clips are whole frames
        frames, _ = encode_frames(x, params, config.encoder)
        stream, quantized = quantize(frames, params, config.quantizer, frame_rate=config.tokens_per_second,
                                     book=(book, sq))
        return frames, stream, decode(quantized, params, config.encoder.strides)

    ref = round_trips(forward64, clips)
    del params  # the float64 weights are no longer needed
    codec32 = Codec.load(path)
    assert codec32.dtype == np.float32

    def forward32(x):
        fp = codec32.forward(x, decode=True)
        return fp.frames, fp.stream, fp.wave

    got = round_trips(forward32, clips)

    frames = agree = 0
    lines = []
    for i, ((ids64, f64, mel64), (ids32, _, mel32)) in enumerate(zip(ref, got)):
        frames += len(ids64)
        agree += int(np.sum(ids64 == ids32))
        lines.append(f"clip {i} ({len(ids64)} frames): mel {mel64:.6f} (float64) vs {mel32:.6f} (float32)")
        for t in np.flatnonzero(ids64 != ids32):
            # the float64 search's screen, -2 f.c + |c|^2, for both candidates
            a, b = ids64[t], ids32[t]
            screen = -2.0 * (book[[a, b]] @ f64[t]) + sq[[a, b]]
            dist = np.sum((f64[t] - book[a]) ** 2)
            lines.append(
                f"  frame {t}: float64 id {a}, float32 id {b}, screened gap {screen[1] - screen[0]:.3e} "
                f"at squared distance {dist:.3e}"
            )
    share = agree / frames
    print(f"{preset} seed {SEED}: ids agree on {agree}/{frames} frames ({100 * share:.2f}%)")
    print("\n".join(lines))
    assert share >= 0.99
    for (_, _, mel64), (_, _, mel32) in zip(ref, got):
        assert abs(mel32 - mel64) <= 0.01 * mel64


def test_float32_round_trip_runs_every_op_in_float32(tmp_path, monkeypatch):
    # a stray float64 constant would upcast the activations from that op on
    path = tmp_path / "c.tckp"
    Codec(CodecConfig.toy(), seed=SEED).save(path)
    codec = Codec.load(path)
    seen = []
    make = autodiff._make

    def recording_make(data, parents, backward_fn, op):
        seen.append((op, data.dtype))
        return make(data, parents, backward_fn, op)

    monkeypatch.setattr(autodiff, "_make", recording_make)
    clip = gen_toy_dataset(SEED, 1, 1.0)[0]
    codec.decode_tokens(codec.encode(clip))
    ops = {"conv1d", "rope_attention", "gelu", "getitem", "linear", "topk_gate", "conv1d_transpose", "tanh"}
    assert ops <= {op for op, _ in seen}
    assert [s for s in seen if s[1] != np.float32] == []

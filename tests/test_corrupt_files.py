"""Truncated or byte-damaged checkpoints, token streams and WAVs raise only
their container's error, never an uncategorized one."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tricodec.checkpoint import CheckpointError, load_tensors
from tricodec.decoder import DecoderConfig
from tricodec.encoder import EncoderConfig, MoEConfig
from tricodec.model import Codec, CodecConfig
from tricodec.quantizer import QuantizerConfig, TokenStream, TokenStreamError, load_tokens, save_tokens
from tricodec.signal import AudioClip, WavError, load_wav, save_wav


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


def _overwrite(valid: bytes, edits) -> bytes:
    out = bytearray(valid)
    for pos, byte in edits:
        out[pos] = byte
    return bytes(out)


def damaged(valid: bytes):
    """``valid`` cut short, or with 1 to 4 of its bytes overwritten, half of
    them drawn from the first 64 bytes, where the headers are."""
    positions = st.one_of(st.integers(0, min(64, len(valid)) - 1), st.integers(0, len(valid) - 1))
    truncated = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
    edits = st.lists(st.tuples(positions, st.integers(0, 255)), min_size=1, max_size=4)
    return st.one_of(truncated, edits.map(lambda e: _overwrite(valid, e)))


def assert_only(error, load, path, valid: bytes) -> None:
    """Every damaged copy of ``valid`` written to ``path`` either loads or
    raises ``error``."""

    @settings(max_examples=300, deadline=None)
    @given(data=damaged(valid))
    def check(data):
        path.write_bytes(data)
        try:
            load(path)
        except error:
            pass

    check()


def test_damaged_checkpoint_raises_only_checkpoint_error(tmp_path):
    path = tmp_path / "c.tckp"
    Codec(micro_config(), seed=1).save(path)

    def load(p):
        load_tensors(p)
        Codec.load(p)

    assert_only(CheckpointError, load, path, path.read_bytes())


def test_damaged_token_stream_raises_only_token_stream_error(tmp_path):
    path = tmp_path / "t.uctk"
    save_tokens(path, TokenStream(ids=np.arange(40) % 16, codebook_size=16))
    assert_only(TokenStreamError, load_tokens, path, path.read_bytes())


def test_damaged_wav_raises_only_wav_error(tmp_path):
    path = tmp_path / "a.wav"
    save_wav(path, AudioClip(np.random.default_rng(2).uniform(-0.5, 0.5, 200), 16000))
    assert_only(WavError, load_wav, path, path.read_bytes())

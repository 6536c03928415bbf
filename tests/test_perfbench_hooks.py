"""The benchmark in ``perfbench/`` times the codec by replacing package
attributes with wrappers. Installing its hooks must find every name it
wraps, and restoring them must leave the package exactly as it was."""

import sys
from pathlib import Path

import numpy as np
import pytest

from tricodec import checkpoint, encoder, model, quantizer, signal, training
from tricodec.model import Codec, CodecConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# import the benchmark's modules without writing bytecode under perfbench/
sys.path.insert(0, str(PERFBENCH))
_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True
try:
    import workloads
    from tracer import Tracer
finally:
    sys.dont_write_bytecode = _dont_write

OWNERS = (checkpoint, encoder, model, quantizer, signal, training, Codec, training.AdamW)


def attributes():
    return [dict(vars(owner)) for owner in OWNERS]


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_install_wraps_and_restore_puts_back(name, traced):
    before = attributes()
    tracer = Tracer()
    try:
        workloads.install(tracer, workloads.WORKLOADS[name], workloads.Record(), traced, calibrator=None)
        wrapped = [
            (owner, attr)
            for owner, old, new in zip(OWNERS, before, attributes())
            for attr in new
            if new[attr] is not old.get(attr)
        ]
        assert wrapped
    finally:
        tracer.restore()
    for owner, old, new in zip(OWNERS, before, attributes()):
        assert new.keys() == old.keys(), owner
        assert all(new[attr] is old[attr] for attr in old), owner


def test_traced_round_trip_reaches_every_inference_layer(tmp_path):
    # one setup and round trip as the inference workloads run them, on a
    # codec loaded from a saved checkpoint, must open a span
    # for each wrapped name on the inference path; a renamed or bypassed
    # function would leave its traced metric at zero
    path = tmp_path / "in.wav"
    signal.save_wav(path, signal.AudioClip(np.random.default_rng(0).uniform(-0.5, 0.5, 1600), 16000))
    Codec(CodecConfig.toy(), seed=0).save(tmp_path / "codec.tckp")
    tracer = Tracer()
    rec = workloads.Record()
    try:
        workloads.install(tracer, workloads.WORKLOADS["infer-short"], rec, traced=True, calibrator=None)
        codec = Codec.load(tmp_path / "codec.tckp")
        tracer.begin_op()
        clip = signal.resample(signal.load_wav(path), codec.config.sample_rate)
        stream = codec.encode(clip)
        codec.decode_tokens(stream)
        tracer.end_op()
    finally:
        tracer.restore()
    names = {s.name for s in tracer.finished_spans()}
    assert codec.dtype == np.float32
    for name in ("checkpoint.load", "model.encode_frames", "model.quantize", "quantizer.quantize",
                 "quantizer.effective_codewords", "quantizer.simvq_embed", "encoder.conv_encode",
                 "encoder.transformer_encode", "encoder.moe_mix", "decoder.decode", "signal.load_wav",
                 "signal.resample"):
        assert name in names, name
    book_rows = codec.config.quantizer.codebook_size
    assert tracer.counts_per_op()["quantizer.rows_projected"] == book_rows + len(stream)
    assert rec.distinct_ids == [len(np.unique(stream.ids))]

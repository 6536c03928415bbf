"""The benchmark's workloads: seeded inputs, the closed-loop client that
drives the codec, the correctness checks on every operation, and the
layer wrappers a traced run installs.

One client issues one operation at a time and starts the next when the
previous one returns. An operation is one optimizer step of
``train_stage`` for the ``train-*`` workloads and one WAV-to-WAV round
trip (load, resample, encode, token file, decode) for the ``infer-*``
workloads. Why each workload exists is recorded in ``BENCHMARK.json``;
the layer-to-metric map is in ``README.md``.
"""

from __future__ import annotations

import math
import shutil
import statistics
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tricodec import checkpoint, encoder, model, quantizer, signal, training
from tricodec.model import Codec, CodecConfig

from tracer import Tracer, graph_size

WAV_RATE = 16000  # inputs arrive at a rate the codec must resample from
SETUP_REPEATS = 3  # checkpoint loads per inference run; setup_s takes their median
CAL_FIRST_S = 1.0  # calibration before the first operation, seconds
CAL_SHARE = 0.1  # later calibration, as a share of the time since the last


class Calibrator:
    """A fixed mix of work like the codec's: multithreaded BLAS matmuls,
    elementwise numpy passes over arrays larger than the caches, and many
    small-array ops, in about 25 MB. The client times it between
    operations. The shared machine's speed drifts by tens of percent within
    a minute, and the codec's times drift with it. The median of these
    samples measures that drift within one run."""

    def __init__(self, clock):
        self.clock = clock
        self.samples: list = []
        self.spent = 0.0  # seconds spent calibrating so far
        self._last_end = clock()
        rng = np.random.default_rng(0)  # fixed: the same work for every seed
        self.a = rng.normal(size=(256, 512))
        self.b = rng.normal(size=(512, 512))
        self.x = rng.normal(size=1_000_000)
        self.s = rng.normal(size=(64, 64))

    def sample(self) -> float:
        t0 = self.clock()
        for _ in range(8):
            self.a @ self.b
        for _ in range(4):
            np.tanh(self.x) + self.x * 2.0
        for _ in range(1500):
            (self.s * 1.5).sum()
        return self.clock() - t0

    def run(self, seconds: float) -> None:
        """Sample for at least ``seconds``, and at least once."""
        start = self.clock()
        self.samples.append(self.sample())
        while self.clock() < start + seconds:
            self.samples.append(self.sample())
        self._last_end = self.clock()
        self.spent += self._last_end - start

    def due(self) -> None:
        """Sample for CAL_SHARE of the time since the last calibration,
        once that share covers a typical sample."""
        owed = CAL_SHARE * (self.clock() - self._last_end)
        if owed >= statistics.median(self.samples):
            self.run(owed)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "train" or "infer"
    preset: str  # CodecConfig preset: "toy" or "full"
    clip_s: float
    per_domain: int  # gen_toy_dataset clips per domain
    batch: int = 1
    steps: int = 0  # optimizer steps per train_stage call


WORKLOADS = {
    w.name: w
    for w in (
        Workload("train-toy", "train", "toy", 1.0, per_domain=2, batch=2, steps=20),
        Workload("infer-short", "infer", "full", 1.0, per_domain=1),
        Workload("infer-long", "infer", "full", 6.0, per_domain=1),
    )
}


def preset_config(preset: str) -> CodecConfig:
    return CodecConfig.toy() if preset == "toy" else CodecConfig.full()


def make_inputs(w: Workload, seed: int, out: Path) -> None:
    """Write the seeded inputs: ``gen_toy_dataset`` clips as 16 kHz PCM16
    WAVs with a manifest and, for inference, a checkpoint of a ``Codec``
    initialized from ``seed``."""
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, clip in enumerate(signal.gen_toy_dataset(seed, w.per_domain, w.clip_s)):
        path = out / f"{i:02d}_{clip.domain.value}.wav"
        signal.save_wav(path, signal.resample(clip, WAV_RATE))
        entries.append((path, clip.domain))
    signal.write_manifest(out / "manifest.tsv", entries)
    if w.kind == "infer":
        Codec(preset_config(w.preset), seed=seed).save(out / "codec.tckp")


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Record:
    """What the client observed, besides the spans."""

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # program setup samples, seconds
    op_audio_s: list = field(default_factory=list)  # audio seconds per operation
    stage_s: list = field(default_factory=list)
    step_losses: list = field(default_factory=list)
    final_loss: list = field(default_factory=list)
    final_recon: list = field(default_factory=list)
    distinct_ids: list = field(default_factory=list)  # per clip quantized in an operation
    params: dict = field(default_factory=dict)
    encode_peak_alloc_mb: float = 0.0

    def fail(self, n_ops: int, message: str) -> None:
        self.failed += n_ops
        if len(self.errors) < 10:
            self.errors.append(message)


def count_params(codec: Codec) -> int:
    return int(sum(p.data.size for p in codec.params.values()))


# ---------------------------------------------------------------------------
# wrappers

def layer_targets() -> list:
    """(owner, attribute, span name) for the layers a traced run times
    besides the training step's own (backward, AdamW), which ``install``
    wraps together with the step boundary."""
    return [
        (encoder, "conv_encode", "encoder.conv_encode"),
        (encoder, "transformer_encode", "encoder.transformer_encode"),
        (encoder, "moe_mix", "encoder.moe_mix"),
        (model, "quantize", "quantizer.quantize"),
        (quantizer, "effective_codewords", "quantizer.effective_codewords"),
        (model, "simvq_embed", "quantizer.simvq_embed"),
        (training, "simvq_embed", "quantizer.simvq_embed"),
        (model, "decode", "decoder.decode"),
        (training, "reconstruction_terms", "losses.reconstruction_terms"),
        (signal, "load_wav", "signal.load_wav"),
        (signal, "resample", "signal.resample"),
        (checkpoint, "load_tensors", "checkpoint.load"),
    ]


def install(tracer: Tracer, w: Workload, rec: Record, traced: bool, calibrator) -> None:
    """Wrap the operation boundaries and the encode/decode phases (both
    modes), and in a traced run every layer in ``layer_targets``. Between
    training steps the calibrator takes its due samples."""

    def after_quantize(result, *args, **kwargs):
        if tracer.in_op:
            stream, quantized = result
            rec.distinct_ids.append(len(np.unique(stream.ids)))
            if traced and w.kind == "infer":
                tracer.count("autodiff.graph_nodes", graph_size(quantized))

    def after_decode(result, *args, **kwargs):
        if tracer.in_op:
            tracer.count("autodiff.graph_nodes", graph_size(result))

    tracer.wrap(Codec, "encode_frames", "model.encode_frames")
    tracer.wrap(Codec, "quantize", "model.quantize", after=after_quantize)
    tracer.wrap(Codec, "decode_frames", "model.decode_frames",
                after=after_decode if traced and w.kind == "infer" else None)

    if w.kind == "train":

        def before_backward(loss):
            rec.step_losses.append(float(loss.data))
            if traced:
                tracer.count("autodiff.graph_nodes", graph_size(loss))

        # a step runs from its learning-rate lookup to the optimizer's return
        tracer.wrap(training, "cosine_lr", None, before=lambda *a, **k: tracer.begin_op())
        def after_step(*args, **kwargs):
            tracer.end_op()
            calibrator.due()

        tracer.wrap(training.AdamW, "step", "training.adamw" if traced else None, after=after_step)
        tracer.wrap(training, "backward", "autodiff.backward" if traced else None,
                    before=before_backward)

    if traced:
        def after_rows(result, *args, **kwargs):
            if tracer.in_op:
                tracer.count("quantizer.rows_projected", result.shape[0])

        for owner, attr, name in layer_targets():
            rows = name in ("quantizer.effective_codewords", "quantizer.simvq_embed")
            tracer.wrap(owner, attr, name, after=after_rows if rows else None)


# ---------------------------------------------------------------------------
# closed-loop clients


def load_clips(manifest: Path) -> list:
    """Training clips as the CLI reads them: WAV, then resampled to 24 kHz."""
    clips = []
    for path, domain in signal.read_manifest(manifest):
        clip = signal.resample(signal.load_wav(path), 24000)
        clip.domain = domain
        clips.append(clip)
    return clips


def check_stage(result, first_loss: int, rec: Record, config: CodecConfig) -> Codec:
    """The stage's step losses are finite and its final checkpoint reloads
    into the same architecture with finite weights."""
    losses = rec.step_losses[first_loss:]
    if not losses or not all(math.isfinite(x) for x in losses):
        raise CheckFailed(f"non-finite training loss among {len(losses)} steps")
    if not math.isfinite(result.final_recon):
        raise CheckFailed(f"non-finite final reconstruction loss {result.final_recon}")
    codec = Codec.load(result.final_checkpoint)
    if codec.config != config:
        raise CheckFailed("reloaded checkpoint has another model config")
    if not all(np.all(np.isfinite(p.data)) for p in codec.params.values()):
        raise CheckFailed("reloaded checkpoint holds non-finite weights")
    rec.final_loss.append(losses[-1])
    rec.final_recon.append(result.final_recon)
    return codec


def run_train(w: Workload, seed: int, seconds: float, inputs: Path, work: Path,
              tracer: Tracer, rec: Record, traced: bool, calibrator: Calibrator) -> None:
    config = preset_config(w.preset)
    clock = tracer.clock
    calibrator.run(CAL_FIRST_S)
    deadline = clock() + seconds
    stage = 0
    codec = clips = None
    while True:
        codec = None
        t0 = clock()
        first_op, first_loss = tracer.n_ops, len(rec.step_losses)
        rec.attempted += w.steps
        run_dir = work / f"stage{stage}"
        try:
            clips = load_clips(inputs / "manifest.tsv")
            cfg = training.StageConfig.acoustic(steps=w.steps, batch_size=w.batch, seed=seed)
            t_call, cal_before = clock(), calibrator.spent
            result = training.train_stage(clips, cfg, run_dir, model_config=config)
            rec.stage_s.append(clock() - t_call - (calibrator.spent - cal_before))
            codec = check_stage(result, first_loss, rec, config)
        except Exception as e:  # a failed stage fails all its steps; keep measuring
            tracer.end_op()
            rec.fail(w.steps, f"stage {stage}: {type(e).__name__}: {e}")
        else:
            rec.setups.append(tracer.op_start(first_op) - t0)
            step_audio = w.batch * len(clips[0].samples) / clips[0].sample_rate
            rec.op_audio_s.extend([step_audio] * (tracer.n_ops - first_op))
            rec.params[w.preset] = count_params(codec)
        shutil.rmtree(run_dir, ignore_errors=True)
        calibrator.due()
        stage += 1
        if clock() >= deadline:
            break
    tracer.restore()
    if traced and codec is not None:
        rec.encode_peak_alloc_mb = encode_peak_alloc_mb(codec, clips[0])


def check_round_trip(codec: Codec, clip, stream, back, out) -> None:
    """Token count, id range, token-file round trip, decoded length and
    finiteness."""
    cfg = codec.config
    if len(stream) != len(clip.samples) // cfg.downsample:
        raise CheckFailed(f"{len(stream)} tokens for {len(clip.samples)} samples")
    if len(stream) and (stream.ids.min() < 0 or stream.ids.max() >= cfg.quantizer.codebook_size):
        raise CheckFailed("token id outside the codebook")
    same = (
        np.array_equal(back.ids, stream.ids)
        and (back.frame_rate, back.source_sample_rate, back.codebook_size)
        == (stream.frame_rate, stream.source_sample_rate, stream.codebook_size)
    )
    if not same:
        raise CheckFailed("token container round trip changed the stream")
    if len(out.samples) != cfg.downsample * len(stream):
        raise CheckFailed(f"decoded {len(out.samples)} samples for {len(stream)} tokens")
    if not np.all(np.isfinite(out.samples)):
        raise CheckFailed("decoded audio is not finite")


def run_infer(w: Workload, seed: int, seconds: float, inputs: Path, work: Path,
              tracer: Tracer, rec: Record, traced: bool, calibrator: Calibrator) -> None:
    clock = tracer.clock
    calibrator.run(CAL_FIRST_S)
    codec = None
    for _ in range(SETUP_REPEATS):
        codec = None  # free the previous copy before loading the next
        t0 = clock()
        codec = Codec.load(inputs / "codec.tckp")
        rec.setups.append(clock() - t0)
    rec.params[w.preset] = count_params(codec)
    paths = [p for p, _ in signal.read_manifest(inputs / "manifest.tsv")]
    tokens_path = work / "clip.uctk"
    deadline = clock() + seconds
    i = 0
    while True:
        rec.attempted += 1
        audio_s = 0.0
        try:
            tracer.begin_op()
            clip = signal.resample(signal.load_wav(paths[i % len(paths)]), codec.config.sample_rate)
            stream = codec.encode(clip)
            quantizer.save_tokens(tokens_path, stream)
            back = quantizer.load_tokens(tokens_path)
            out = codec.decode_tokens(back)
            tracer.end_op()
            audio_s = len(clip.samples) / clip.sample_rate
            check_round_trip(codec, clip, stream, back, out)
        except Exception as e:  # count the failure and keep the loop closed
            tracer.end_op()
            rec.fail(1, f"op {i}: {type(e).__name__}: {e}")
        rec.op_audio_s.append(audio_s)
        calibrator.due()
        i += 1
        if clock() >= deadline:
            break
    tracer.restore()
    if traced:
        first = signal.resample(signal.load_wav(paths[0]), codec.config.sample_rate)
        rec.encode_peak_alloc_mb = encode_peak_alloc_mb(codec, first)


def encode_peak_alloc_mb(codec: Codec, clip) -> float:
    """Peak memory allocated (tracemalloc) during one ``Codec.encode`` of
    ``clip``, measured after the timed loop so it slows no timed call."""
    tracemalloc.start()
    try:
        codec.encode(clip)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


RUNNERS = {"train": run_train, "infer": run_infer}

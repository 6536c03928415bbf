"""Optimizer, LR schedule, stage configs, training loop, and resume logic."""

import json
import tracemalloc

import numpy as np
import pytest

from tricodec import autodiff, training
from tricodec import checkpoint as ckpt
from tricodec.autodiff import Tensor, add, mul
from tricodec.decoder import DecoderConfig
from tricodec.encoder import EncoderConfig, MoEConfig
from tricodec.model import Codec, CodecConfig
from tricodec.quantizer import QuantizerConfig, alignment_loss, simvq_embed
from tricodec.signal import AudioClip, Domain, gen_toy_dataset, resample, spectral_flatness
from tricodec.training import (
    AdamW,
    DivergenceError,
    Stage,
    StageConfig,
    StageOrderError,
    TrainingError,
    _rng_from_u64,
    _rng_to_u64,
    _sample_losses,
    _warm_start_projection,
    cosine_lr,
    curate_finetune,
    dataset_recon_loss,
    train_stage,
)


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


def micro_clips():
    rng = np.random.default_rng(21)
    clips = []
    for i, dom in enumerate([Domain.SPEECH, Domain.MUSIC, Domain.SOUND]):
        t = np.arange(1280) / 24000.0
        x = 0.4 * np.sin(2 * np.pi * (200 + 90 * i) * t) + 0.05 * rng.standard_normal(1280)
        clips.append(AudioClip(np.clip(x, -1, 1), 24000, dom))
    return clips


@pytest.fixture(scope="module")
def acoustic_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("acoustic")
    cfg = StageConfig.acoustic(steps=6, batch_size=1, seed=3, lr=1e-3, lr_min=1e-4,
                               checkpoint_every=2)
    res = train_stage(micro_clips(), cfg, run, model_config=micro_config())
    return cfg, res


# ---------------------------------------------------------------------------
# lr schedule


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 1e-3, 1e-5) == pytest.approx(1e-3, abs=0)
    assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5, abs=1e-20)


def test_cosine_lr_midpoint_and_monotone():
    assert cosine_lr(50, 100, 1e-3, 1e-5) == pytest.approx((1e-3 + 1e-5) / 2, rel=1e-12)
    vals = [cosine_lr(s, 100, 1e-3, 1e-5) for s in range(101)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cosine_lr_rejects_out_of_range():
    with pytest.raises(ValueError):
        cosine_lr(-1, 100, 1e-3, 1e-5)
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 1e-3, 1e-5)


# ---------------------------------------------------------------------------
# optimizer


def test_adamw_single_step_matches_hand_oracle():
    w0 = np.array([1.0, 2.0])
    g = np.array([0.5, -1.0])
    p = Tensor(w0.copy(), requires_grad=True)
    p.grad = g.copy()
    opt = AdamW({"w": p})
    opt.step(0.1)

    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / 0.1
    vhat = v / 0.001
    want = w0 - 0.1 * (mhat / (np.sqrt(vhat) + 1e-8) + 0.01 * w0)
    np.testing.assert_allclose(p.data, want, rtol=0, atol=1e-15)


def test_adamw_two_steps_matches_hand_oracle():
    w = np.array([0.5])
    p = Tensor(w.copy(), requires_grad=True)
    opt = AdamW({"w": p})
    m = np.zeros(1)
    v = np.zeros(1)
    for t, g in [(1, np.array([0.3])), (2, np.array([-0.2]))]:
        p.grad = g.copy()
        opt.step(0.05)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        w = w - 0.05 * ((m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8) + 0.01 * w)
    np.testing.assert_allclose(p.data, w, rtol=0, atol=1e-15)


def test_adamw_stays_in_float32_under_a_float64_lr():
    # cosine_lr returns an np.float64, which NumPy 2 lets promote float32 arrays
    rng = np.random.default_rng(0)
    w0, g = rng.standard_normal((2, 64)).astype(np.float32)
    p = Tensor(w0.copy(), requires_grad=True)
    p.grad = g.copy()
    opt = AdamW({"w": p})
    opt.step(np.float64(0.1))
    assert p.data.dtype == opt.m["w"].dtype == opt.v["w"].dtype == np.float32

    # the same update in float32 arithmetic throughout; rounding a float64
    # update to float32 once at the end differs from it in a few elements
    m = (1.0 - 0.9) * g
    v = (1.0 - 0.999) * (g * g)
    want = w0 - 0.1 * ((m / (1.0 - 0.9)) / (np.sqrt(v / (1.0 - 0.999)) + 1e-8) + 0.01 * w0)
    assert want.dtype == np.float32
    np.testing.assert_array_equal(p.data, want)


def test_adamw_missing_grad_decays_weight():
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = None
    opt = AdamW({"w": p})
    opt.step(0.1)
    # zero gradient: only decoupled weight decay moves the parameter
    np.testing.assert_allclose(p.data, np.array([2.0 - 0.1 * 0.01 * 2.0]), atol=1e-15)
    assert opt.t == 1


def test_adamw_nonfinite_grad_names_parameter():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    opt = AdamW({"enc.blk0.wq": p})
    with pytest.raises(DivergenceError) as e:
        opt.step(0.1)
    assert "enc.blk0.wq" in str(e.value)


def test_adamw_tracks_only_trainable():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=False)
    opt = AdamW({"a": a, "b": b})
    assert set(opt.params) == {"a"}


def test_adamw_zero_grad_clears():
    p = Tensor(np.ones(2), requires_grad=True)
    p.grad = np.ones(2)
    opt = AdamW({"w": p})
    opt.zero_grad()
    assert p.grad is None


# ---------------------------------------------------------------------------
# rng snapshots


def test_rng_state_round_trip_mid_stream():
    rng = np.random.default_rng(123)
    rng.standard_normal(100)
    rng.integers(0, 50, size=7)
    saved = _rng_to_u64(rng)
    a = rng.standard_normal(64)
    restored = _rng_from_u64(saved)
    b = restored.standard_normal(64)
    assert np.array_equal(a, b)
    assert saved.dtype == np.uint64


# ---------------------------------------------------------------------------
# stage configs


def test_stage_config_acoustic_rejects_masking():
    # masking follows the stage; no option turns it on
    with pytest.raises(TypeError):
        StageConfig(stage=Stage.ACOUSTIC, enable_mask=True)
    codec = Codec(micro_config(), seed=4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for cfg in (StageConfig.acoustic(), StageConfig.finetune()):
        terms = _sample_losses(codec, micro_clips()[0], cfg, rng)
        assert "contrastive" not in terms
        assert rng.bit_generator.state == state  # no mask or distractors drawn


def test_stage_config_semantic_requires_both():
    # the semantic stage always masks and adds the contrastive term
    with pytest.raises(TypeError):
        StageConfig.semantic(enable_contrastive=False)
    codec = Codec(micro_config(), seed=4)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    terms = _sample_losses(codec, micro_clips()[0], StageConfig.semantic(), rng)
    assert "contrastive" in terms
    assert rng.bit_generator.state != state


def test_semantic_stage_rejects_a_one_frame_clip():
    # one 320-sample frame masks one step, which leaves no distractor
    codec = Codec(CodecConfig.toy(), seed=0)
    x = 0.1 * np.random.default_rng(2).standard_normal(codec.config.downsample)
    clip = AudioClip(x, 24000, Domain.SPEECH)
    with pytest.raises(TrainingError, match="only 1 masked frames"):
        _sample_losses(codec, clip, StageConfig.semantic(), np.random.default_rng(0))


def test_stage_config_finetune_pins():
    # the mel weight follows the stage and cannot be set; lr is pinned by value
    with pytest.raises(TypeError):
        StageConfig.finetune(lam_mel=45.0)
    with pytest.raises(ValueError):
        StageConfig.finetune(lr=1e-3)
    cfg = StageConfig.finetune()
    assert cfg.lam_mel == 450.0 and cfg.lr == 5e-5
    assert StageConfig.acoustic().lam_mel == StageConfig.semantic().lam_mel == 45.0


def test_stage_config_rejects_nonpositive_steps():
    with pytest.raises(ValueError):
        StageConfig.acoustic(steps=0)
    with pytest.raises(ValueError):
        StageConfig.acoustic(batch_size=0)


def test_stage_config_accepts_schedule_edges():
    # no checkpoints, a constant rate and a decay to zero are all valid
    StageConfig.acoustic(checkpoint_every=0, log_every=1, lr=1e-3, lr_min=1e-3)
    StageConfig.acoustic(lr_min=0.0)


def test_stage_from_string():
    assert Stage.from_string("acoustic") == Stage.ACOUSTIC
    assert Stage.from_string("FINETUNE") == Stage.FINETUNE
    with pytest.raises(ValueError):
        Stage.from_string("warmup")


# ---------------------------------------------------------------------------
# training loop


def test_acoustic_run_artifacts(acoustic_run):
    cfg, res = acoustic_run
    assert res.final_checkpoint.exists()
    names = [p.name for p in res.checkpoints]
    assert names == ["ckpt_step0.tckp", "ckpt_step2.tckp", "ckpt_step4.tckp", "ckpt_final.tckp"]
    records = [json.loads(l) for l in res.log_path.read_text().splitlines()]
    assert records[0]["step"] == 0 and records[-1]["step"] == cfg.steps - 1
    for r in records:
        assert np.isfinite(r["loss"])
        assert "commit" in r and "recon" in r
    assert np.isfinite(res.step0_recon) and np.isfinite(res.final_recon)


def test_acoustic_rerun_is_byte_identical(acoustic_run, tmp_path):
    cfg, res = acoustic_run
    res2 = train_stage(micro_clips(), cfg, tmp_path / "again", model_config=micro_config())
    assert res2.final_checkpoint.read_bytes() == res.final_checkpoint.read_bytes()


def test_mid_stage_resume_is_bit_exact(acoustic_run, tmp_path, monkeypatch):
    cfg, res = acoustic_run
    mid = next(p for p in res.checkpoints if p.name == "ckpt_step4.tckp")
    reads = []
    load = ckpt.load_tensors
    monkeypatch.setattr(ckpt, "load_tensors", lambda path, **kw: reads.append(path) or load(path, **kw))
    res2 = train_stage(micro_clips(), cfg, tmp_path / "resumed", init_from=mid)
    monkeypatch.undo()
    assert reads == [mid]  # the init checkpoint is read once
    a = ckpt.load_tensors(res.final_checkpoint)
    b = ckpt.load_tensors(res2.final_checkpoint)
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k]), k


def test_mid_stage_resume_holds_one_set_of_moments(tmp_path, monkeypatch):
    # After the first resumed step, what the trainer and the checkpoint
    # reader allocated and still hold is the load arena (every parameter,
    # both moments) and the stepped trainable parameters. Copying the
    # moments out of the arena, as a resume once did, held a second set.
    codec = Codec(CodecConfig.toy(), seed=4)
    opt = AdamW(codec.trainable())
    for name in opt.params:
        opt.m[name] += 1e-3
        opt.v[name] += 1e-6
    opt.t = 1
    mid = tmp_path / "mid.tckp"
    training._save_state(mid, codec, opt, np.random.default_rng(5), 1, 0, Stage.ACOUSTIC.value)
    params = sum(t.data.nbytes for t in codec.params.values())
    stepped = sum(t.data.nbytes for t in codec.trainable().values())
    held = []
    step = AdamW.step

    def traced_step(self, lr):
        step(self, lr)
        if not held:
            mine = [tracemalloc.Filter(True, training.__file__), tracemalloc.Filter(True, ckpt.__file__)]
            held.append(sum(s.size for s in tracemalloc.take_snapshot().filter_traces(mine).statistics("filename")))

    monkeypatch.setattr(AdamW, "step", traced_step)
    cfg = StageConfig.acoustic(steps=2, batch_size=1, seed=3)
    tracemalloc.start()
    try:
        train_stage(gen_toy_dataset(0, 1, 0.5), cfg, tmp_path / "run", init_from=mid)
    finally:
        tracemalloc.stop()
    one_set = params + 2 * stepped + stepped
    assert held and held[0] < one_set + stepped // 2, f"{held[0]} bytes held for {one_set} of state"


def test_float64_checkpoint_resumes_in_float32(tmp_path, float64_draws):
    # a mid-stage checkpoint as training wrote it in float64, before every
    # codec held float32: seeded draws and moments that float32 cannot hold
    # exactly
    cfg = StageConfig.acoustic(steps=4, batch_size=1, seed=3, lr=1e-3, lr_min=1e-4, log_every=1)
    codec = Codec(micro_config(), seed=3)
    arrays = codec.state_arrays()
    arrays.update({f"param/{k}": v for k, v in float64_draws(micro_config(), 3).items()})
    for name in codec.trainable():
        w = arrays[f"param/{name}"]
        arrays[f"adam_m/{name}"] = 1e-3 * w + 1e-9
        arrays[f"adam_v/{name}"] = 1e-6 * w * w + 1e-12
    for name, value in [("meta/adam_t", 2), ("meta/step", 2), ("meta/stage_done", 0),
                        ("meta/stage_in_progress", Stage.ACOUSTIC.value)]:
        arrays[name] = np.asarray(value, dtype=np.int64)
    arrays["meta/rng_state"] = _rng_to_u64(np.random.default_rng(11))
    old = tmp_path / "float64.tckp"
    ckpt.save_tensors(old, arrays)
    assert arrays["param/enc.conv0.w"].dtype == arrays["adam_v/enc.conv0.w"].dtype == np.float64
    cast = tmp_path / "float32.tckp"
    ckpt.save_tensors(cast, {k: v.astype(np.float32) if v.dtype == np.float64 else v for k, v in arrays.items()})

    res = train_stage(micro_clips(), cfg, tmp_path / "from64", init_from=old)
    records = [json.loads(l) for l in res.log_path.read_text().splitlines()]
    assert [r["step"] for r in records] == [2, 3]  # resumed mid-stage
    final = ckpt.load_tensors(res.final_checkpoint)
    assert int(final["meta/stage_done"]) == Stage.ACOUSTIC.value
    assert int(final["meta/adam_t"]) == cfg.steps
    floats = {k: v.dtype for k, v in final.items() if k.startswith(("param/", "adam_"))}
    assert floats and set(floats.values()) == {np.dtype(np.float32)}
    # the float64 checkpoint trains on exactly as its float32 rounding does
    res32 = train_stage(micro_clips(), cfg, tmp_path / "from32", init_from=cast)
    assert res.final_checkpoint.read_bytes() == res32.final_checkpoint.read_bytes()


def test_float32_training_runs_every_op_in_float32(tmp_path, monkeypatch):
    # a stray float64 constant or gradient would upcast everything downstream of it
    seen = []
    make = autodiff._make

    def recording_make(data, parents, backward_fn, op):
        seen.append((op, "forward", data.dtype))

        def recording_backward(g):
            grads = tuple(backward_fn(g))
            seen.extend((op, "backward", np.asarray(pg).dtype) for pg in grads if pg is not None)
            return grads

        return make(data, parents, recording_backward, op)

    monkeypatch.setattr(autodiff, "_make", recording_make)
    acfg = StageConfig.acoustic(steps=2, batch_size=2, seed=5)
    acoustic = train_stage(micro_clips(), acfg, tmp_path / "acoustic", model_config=micro_config())
    scfg = StageConfig.semantic(steps=2, batch_size=2, seed=5, n_distractors=4)
    semantic = train_stage(micro_clips(), scfg, tmp_path / "semantic", init_from=acoustic.final_checkpoint)
    monkeypatch.undo()

    ops = {"conv1d", "rope_attention", "gelu", "linear", "topk_gate", "conv1d_transpose", "tanh",
           "stft_mag", "l1_distance", "sq_distance", "info_nce", "masked_fill_rows"}
    assert ops <= {op for op, kind, _ in seen if kind == "backward"}
    assert [s for s in seen if s[2] != np.float32] == []
    for res in (acoustic, semantic):
        arrays = ckpt.load_tensors(res.final_checkpoint)
        floats = {k: v.dtype for k, v in arrays.items() if k.startswith(("param/", "adam_"))}
        assert floats and set(floats.values()) == {np.dtype(np.float32)}, res.final_checkpoint


def test_semantic_requires_checkpoint():
    cfg = StageConfig.semantic(steps=1, n_distractors=4)
    with pytest.raises(StageOrderError) as e:
        train_stage(micro_clips(), cfg, "/tmp/unused-semantic", model_config=micro_config())
    assert "acoustic" in str(e.value)


def test_semantic_rejects_unfinished_acoustic(acoustic_run, tmp_path):
    cfg, res = acoustic_run
    step0 = next(p for p in res.checkpoints if p.name == "ckpt_step0.tckp")
    scfg = StageConfig.semantic(steps=1, n_distractors=4)
    with pytest.raises(StageOrderError):
        train_stage(micro_clips(), scfg, tmp_path / "sem", init_from=step0)


def test_semantic_runs_from_completed_acoustic(acoustic_run, tmp_path):
    cfg, res = acoustic_run
    scfg = StageConfig.semantic(
        steps=2,
        batch_size=1,
        lr=1e-4,
        lr_min=1e-5,
        n_distractors=4,
        log_every=1,
    )
    res2 = train_stage(micro_clips(), scfg, tmp_path / "sem", init_from=res.final_checkpoint)
    records = [json.loads(l) for l in res2.log_path.read_text().splitlines()]
    assert all("contrastive" in r for r in records)
    arrays = ckpt.load_tensors(res2.final_checkpoint)
    assert int(arrays["meta/stage_done"]) == Stage.SEMANTIC.value


def test_finetune_runs_from_semantic_or_acoustic(acoustic_run, tmp_path):
    cfg, res = acoustic_run
    fcfg = StageConfig.finetune(steps=2, batch_size=1)
    clips = curate_finetune(micro_clips())
    res2 = train_stage(clips, fcfg, tmp_path / "ft", init_from=res.final_checkpoint)
    assert res2.final_checkpoint.exists()


def test_empty_training_set_rejected():
    with pytest.raises(TrainingError):
        train_stage([], StageConfig.acoustic(steps=1), "/tmp/unused-empty",
                    model_config=micro_config())


def test_unlabeled_clip_rejected(tmp_path):
    clip = AudioClip(np.zeros(400), 24000, domain=None)
    with pytest.raises(TrainingError) as e:
        train_stage([clip], StageConfig.acoustic(steps=1, batch_size=1), tmp_path / "r",
                    model_config=micro_config())
    assert "domain" in str(e.value)


def test_resumed_stage_rejects_unlabeled_clip_before_any_write(acoustic_run, tmp_path):
    # labels are checked at entry, before the step-0 loss, checkpoint or log
    cfg, res = acoustic_run
    clips = micro_clips() + [AudioClip(micro_clips()[0].samples, 24000, domain=None)]
    run = tmp_path / "ft"
    run.mkdir()
    fcfg = StageConfig.finetune(steps=1, batch_size=1, checkpoint_every=1)
    with pytest.raises(TrainingError) as e:
        train_stage(clips, fcfg, run, init_from=res.final_checkpoint)
    assert "domain" in str(e.value)
    assert list(run.iterdir()) == []


def test_clip_off_the_codec_rate_rejected_before_any_write(tmp_path):
    # Codec.encode rejects a clip at another rate, so training must too
    clips = micro_clips()
    clips[1] = resample(clips[1], 16000)
    run = tmp_path / "r"
    cfg = StageConfig.acoustic(steps=2, batch_size=1, checkpoint_every=1)
    with pytest.raises(TrainingError, match="1 of 3 training clips are at 16000 Hz, not the codec rate 24000 Hz"):
        train_stage(clips, cfg, run, model_config=micro_config())
    assert not run.exists()


@pytest.mark.parametrize("stage", [Stage.ACOUSTIC, Stage.SEMANTIC])
def test_training_clip_runs_each_phase_once(stage, monkeypatch):
    # the benchmark times encode_frames + quantize as the encode phase and
    # decode_frames as the decode phase; one clip runs each once and
    # projects its selected codewords once
    from tricodec import quantizer, training

    counts = dict.fromkeys(("encode_frames", "quantize", "decode_frames", "simvq_embed"), 0)

    def counted(fn, name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("encode_frames", "quantize", "decode_frames"):
        monkeypatch.setattr(Codec, name, counted(getattr(Codec, name), name))
    embed = counted(quantizer.simvq_embed, "simvq_embed")
    for owner in (quantizer, training):
        monkeypatch.setattr(owner, "simvq_embed", embed)
    codec = Codec(micro_config(), seed=4)
    cfg = StageConfig(stage=stage, n_distractors=4)
    terms = _sample_losses(codec, micro_clips()[0], cfg, np.random.default_rng(0))
    assert ("contrastive" in terms) == (stage is Stage.SEMANTIC)
    assert counts == {"encode_frames": 1, "quantize": 1, "decode_frames": 1, "simvq_embed": 1}


def test_divergence_raises_with_step(tmp_path):
    cfg = StageConfig.acoustic(steps=5, batch_size=1, lr=1e20, lr_min=1e19)
    # the blow-up legitimately overflows float32, and reaches inf - inf in the
    # convs' shifted sums, on the way to the error
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as e:
        train_stage(micro_clips(), cfg, tmp_path / "boom", model_config=micro_config())
    assert "diverged at step" in str(e.value)


def test_final_step_overflow_raises_divergence_without_final_checkpoint(tmp_path, monkeypatch):
    cfg = StageConfig.acoustic(steps=3, batch_size=1, checkpoint_every=2)
    step = AdamW.step

    def overflowing_step(self, lr):
        step(self, lr)
        if self.t == cfg.steps:
            self.params["enc.conv0.w"].data[0, 0, 0] = np.inf

    monkeypatch.setattr(AdamW, "step", overflowing_step)
    run = tmp_path / "run"
    # the inf weight makes inf - inf in the first conv on the way to the error
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as e:
        train_stage(micro_clips(), cfg, run, model_config=micro_config())
    assert f"diverged at step {cfg.steps}" in str(e.value)
    assert "ckpt_step2.tckp" in str(e.value)
    assert not (run / "ckpt_final.tckp").exists()


def test_warm_start_projection_fits_initial_frames():
    cfg = micro_config()
    clips = micro_clips()
    scfg = StageConfig.acoustic(steps=1, batch_size=1, seed=9)

    def qerr(codec):
        errs = []
        for clip in clips:
            f, _ = codec.encode_frames(clip.samples.astype(codec.dtype))
            _, q = codec.quantize(f, domain=clip.domain)
            errs.append(float(np.mean(np.linalg.norm(q.data - f.data, axis=1))))
        return float(np.mean(errs))

    a = Codec(cfg, seed=9)
    before = qerr(a)
    _warm_start_projection(a, clips, scfg)
    assert qerr(a) < before
    # deterministic: same seed gives the same fitted projection
    b = Codec(cfg, seed=9)
    _warm_start_projection(b, clips, scfg)
    np.testing.assert_array_equal(a.params["vq.proj"].data, b.params["vq.proj"].data)
    np.testing.assert_array_equal(a.params["vq.base"].data, b.params["vq.base"].data)


def test_alignment_term_has_unit_weight():
    codec = Codec(micro_config(), seed=4)
    clip = micro_clips()[0]
    terms = _sample_losses(codec, clip, StageConfig.acoustic(), np.random.default_rng(0))
    frames, _ = codec.encode_frames(clip.samples.astype(codec.dtype))
    stream, _ = codec.quantize(frames, domain=clip.domain)
    want = alignment_loss(frames, simvq_embed(stream.ids, codec.params))
    assert float(terms["align"].data) == float(want.data) > 0.0
    # float32 sums, built with the graph's own op
    loss = add(terms["recon"], add(terms["commit"], terms["align"]))
    assert float(terms["loss"].data) == float(loss.data)


def test_dataset_recon_loss_is_recon_only(acoustic_run):
    cfg, res = acoustic_run
    codec = Codec.load(res.final_checkpoint)
    clips = micro_clips()
    got = dataset_recon_loss(codec, clips, cfg)

    from tricodec.losses import reconstruction_terms

    # float32 sums, built with the graph's own ops
    lam = Tensor(np.asarray(cfg.lam_mel, dtype=codec.dtype))
    vals = []
    for clip in clips:
        x = clip.samples[: (len(clip.samples) // 4) * 4].astype(codec.dtype)
        frames, _ = codec.encode_frames(x)
        _, quantized = codec.quantize(frames, domain=clip.domain)
        wave = codec.decode_frames(quantized)
        tl, ml = reconstruction_terms(Tensor(x), wave)
        vals.append(float(add(tl, mul(lam, ml)).data))
    assert got == pytest.approx(np.mean(vals), rel=0, abs=0)


# ---------------------------------------------------------------------------
# finetune curation


def test_curate_finetune_prefers_harmonic_speech():
    rng = np.random.default_rng(31)
    t = np.arange(2048) / 24000.0
    tone = AudioClip(0.5 * np.sin(2 * np.pi * 300 * t), 24000, Domain.SPEECH)
    noisy = AudioClip(np.clip(0.5 * rng.standard_normal(2048), -1, 1), 24000, Domain.SPEECH)
    music = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 24000, Domain.MUSIC)
    assert spectral_flatness(tone) < spectral_flatness(noisy)
    kept = curate_finetune([noisy, music, tone])
    assert kept == [tone]


def test_curate_finetune_requires_speech():
    t = np.arange(2048) / 24000.0
    music = AudioClip(0.5 * np.sin(2 * np.pi * 440 * t), 24000, Domain.MUSIC)
    with pytest.raises(TrainingError):
        curate_finetune([music])


def test_curate_finetune_on_toy_dataset():
    clips = gen_toy_dataset(5, 4, 0.5)
    kept = curate_finetune(clips)
    assert len(kept) == 2
    assert all(c.domain == Domain.SPEECH for c in kept)

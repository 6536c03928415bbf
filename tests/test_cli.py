"""End-to-end command-line tests: data generation, training, encode/decode,
eval reports, and the categorized error surface."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from tricodec.checkpoint import load_tensors, save_tensors
from tricodec.cli import (
    _STAGE_KEYS,
    ConfigError,
    _stage_config_from,
    load_train_config,
    main,
)
from tricodec.quantizer import TokenStream, load_tokens, save_tokens
from tricodec.signal import load_wav


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    assert main(["gen-data", "--out", str(d / "data"), "--per-domain", "1",
                 "--duration", "1.0"]) == 0
    cfg = {
        "stage": "acoustic",
        "manifest": str(d / "data" / "manifest.tsv"),
        "out_dir": str(d / "run_a"),
        "steps": 2,
        "batch_size": 1,
        "seed": 0,
        "model": "toy",
    }
    (d / "acoustic.json").write_text(json.dumps(cfg))
    assert main(["train", "--config", str(d / "acoustic.json")]) == 0
    return d


# ---------------------------------------------------------------------------
# gen-data


def test_gen_data_writes_clips_and_manifest(tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path), "--per-domain", "2",
                 "--duration", "0.5"]) == 0
    wavs = sorted(p.name for p in tmp_path.glob("*.wav"))
    assert wavs == [
        "music_000.wav", "music_001.wav",
        "sound_000.wav", "sound_001.wav",
        "speech_000.wav", "speech_001.wav",
    ]
    assert (tmp_path / "manifest.tsv").exists()
    assert "wrote 6 clips" in capsys.readouterr().out


def test_gen_data_deterministic(tmp_path):
    main(["gen-data", "--out", str(tmp_path / "a"), "--per-domain", "1"])
    main(["gen-data", "--out", str(tmp_path / "b"), "--per-domain", "1"])
    fa = (tmp_path / "a" / "speech_000.wav").read_bytes()
    fb = (tmp_path / "b" / "speech_000.wav").read_bytes()
    assert fa == fb


@pytest.mark.parametrize("duration", ["0", "-1", "0.00002", "inf", "nan"])
def test_gen_data_rejects_duration_under_one_sample(tmp_path, capsys, duration):
    assert main(["gen-data", "--out", str(tmp_path), "--duration", duration]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=usage: duration must be finite and at least one sample")


# ---------------------------------------------------------------------------
# config validation


def base_cfg(**kw):
    cfg = {"stage": "acoustic", "manifest": "m.tsv", "out_dir": "out"}
    cfg.update(kw)
    return cfg


def write_cfg(tmp_path, cfg):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


def test_config_minimal_accepted(tmp_path):
    raw = load_train_config(write_cfg(tmp_path, base_cfg()))
    assert raw["stage"] == "acoustic"


def test_config_unknown_key_named(tmp_path):
    with pytest.raises(ConfigError) as e:
        load_train_config(write_cfg(tmp_path, base_cfg(leaning_rate=1e-3)))
    assert "'leaning_rate'" in str(e.value)


def test_config_wrong_type_named(tmp_path):
    with pytest.raises(ConfigError) as e:
        load_train_config(write_cfg(tmp_path, base_cfg(lr="fast")))
    msg = str(e.value)
    assert "'lr'" in msg and "float" in msg


def test_config_bool_is_not_a_number(tmp_path):
    with pytest.raises(ConfigError) as e:
        load_train_config(write_cfg(tmp_path, base_cfg(steps=True)))
    assert "'steps'" in str(e.value)


def test_config_int_accepted_for_float(tmp_path):
    raw = load_train_config(write_cfg(tmp_path, base_cfg(lr=1)))
    assert raw["lr"] == 1


def test_config_missing_required(tmp_path):
    with pytest.raises(ConfigError) as e:
        load_train_config(write_cfg(tmp_path, {"stage": "acoustic", "out_dir": "x"}))
    assert "'manifest'" in str(e.value)


def test_config_bad_stage(tmp_path):
    with pytest.raises(ConfigError):
        load_train_config(write_cfg(tmp_path, base_cfg(stage="warmup")))


def test_config_bad_model(tmp_path):
    with pytest.raises(ConfigError):
        load_train_config(write_cfg(tmp_path, base_cfg(model="tiny")))


def test_config_documented_stage_keys_reach_stage_config(tmp_path):
    cfg = base_cfg(lam_c=0.5, log_every=3, n_distractors=7)
    raw = load_train_config(write_cfg(tmp_path, cfg))
    stage = _stage_config_from(raw)
    assert stage.lam_c == 0.5
    assert stage.log_every == 3
    assert stage.n_distractors == 7


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_lists_exactly_the_stage_keys():
    section = README.split("## Config keys", 1)[1]
    paragraph = section.split("Stage configs accept:", 1)[1].split("\n\n", 1)[0]
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(_STAGE_KEYS)


def test_readme_configs_load(tmp_path):
    # each stage's config in the CLI walkthrough is one that `train` accepts
    configs = re.findall(r"```json\n(.*?)```", README, re.S)
    assert [json.loads(c)["stage"] for c in configs] == ["acoustic", "semantic", "finetune"]
    for text in configs:
        p = tmp_path / "readme.json"
        p.write_text(text)
        _stage_config_from(load_train_config(p))


@pytest.mark.parametrize(
    "key, value",
    [
        ("lam_align", 0.5), ("warm_start", False), ("freeze_encoder_steps", 3), ("enable_mask", True),
        ("weight_decay", 0.01), ("lam_mel", 45.0), ("beta_commit", 0.25), ("max_clip_seconds", 10.0),
        ("finetune_fraction", 0.5), pytest.param("mask", {"p": 0.1, "span": 5}, id="mask"),
        pytest.param("contrastive", {"n_distractors": 16}, id="contrastive"),
    ],
)
def test_train_removed_recipe_key_fails(tmp_path, capsys, key, value):
    p = write_cfg(tmp_path, base_cfg(**{key: value}))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config:")
    assert f"'{key}'" in err


@pytest.mark.parametrize(
    "overrides, named",
    [
        ({"log_every": 0}, "log_every"),
        ({"checkpoint_every": -5}, "checkpoint_every"),
        ({"lr": -1.0}, "lr"),
        ({"lr": 0}, "lr"),
        ({"lr": float("nan")}, "lr"),
        ({"lr": float("inf")}, "lr"),
        ({"seed": -1}, "seed"),
        ({"lr_min": -1e-6}, "lr_min"),
        ({"lr": 1e-3, "lr_min": 2e-3}, "lr_min"),
        ({"lam_c": -1.0}, "lam_c"),
        ({"stage": "semantic", "lam_c": float("nan")}, "lam_c"),
        ({"lam_c": float("inf")}, "lam_c"),
        ({"n_distractors": 0}, "n_distractors"),
    ],
    ids=["log_every=0", "checkpoint_every=-5", "lr=-1", "lr=0", "lr=NaN", "lr=inf", "seed=-1",
         "lr_min=-1e-6", "lr_min>lr", "lam_c=-1", "semantic-lam_c=NaN", "lam_c=inf", "n_distractors=0"],
)
def test_train_bad_stage_value_is_config_error(tmp_path, capsys, overrides, named):
    # rejected while the config is read, before any clip is loaded
    p = write_cfg(tmp_path, base_cfg(**overrides))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config:")
    assert named in err


def test_train_negative_seed_flag_is_config_error(tmp_path, capsys):
    p = write_cfg(tmp_path, base_cfg())
    assert main(["train", "--config", str(p), "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config:")
    assert "seed" in err


@pytest.mark.parametrize("fraction", [-3.0, 0.0, 0, 7.0, 1.0001, float("nan")])
def test_train_finetune_fraction_out_of_range_is_config_error(tmp_path, capsys, fraction):
    # the share is fixed (training.FINETUNE_FRACTION), so any value is an
    # unknown key, rejected while the config is read, before any clip is curated
    p = write_cfg(tmp_path, base_cfg(stage="finetune", finetune_fraction=fraction))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config: unknown config key 'finetune_fraction'")


def test_config_invalid_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_train_config(p)
    p.write_text('["list"]')
    with pytest.raises(ConfigError):
        load_train_config(p)


# ---------------------------------------------------------------------------
# train


def test_train_acoustic_outputs(workdir, capsys):
    # the module fixture already trained; run again into a fresh dir to
    # capture stdout and confirm rerun determinism through the CLI
    cfg = json.loads((workdir / "acoustic.json").read_text())
    cfg["out_dir"] = str(workdir / "run_b")
    p = workdir / "acoustic_b.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    out = capsys.readouterr().out
    assert "final checkpoint:" in out and "recon loss:" in out
    a = (workdir / "run_a" / "ckpt_final.tckp").read_bytes()
    b = (workdir / "run_b" / "ckpt_final.tckp").read_bytes()
    assert a == b


def test_train_seed_override_changes_result(workdir):
    cfg = json.loads((workdir / "acoustic.json").read_text())
    cfg["out_dir"] = str(workdir / "run_seeded")
    p = workdir / "acoustic_seeded.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p), "--seed", "1"]) == 0
    a = (workdir / "run_a" / "ckpt_final.tckp").read_bytes()
    b = (workdir / "run_seeded" / "ckpt_final.tckp").read_bytes()
    assert a != b


def test_train_semantic_needs_init_checkpoint(workdir, capsys):
    cfg = {
        "stage": "semantic",
        "manifest": str(workdir / "data" / "manifest.tsv"),
        "out_dir": str(workdir / "run_sem"),
        "steps": 1,
        "n_distractors": 4,
    }
    p = workdir / "semantic.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=stage-order:")
    assert "init_checkpoint" in err


def test_train_semantic_from_checkpoint(workdir):
    cfg = {
        "stage": "semantic",
        "manifest": str(workdir / "data" / "manifest.tsv"),
        "out_dir": str(workdir / "run_sem2"),
        "init_checkpoint": str(workdir / "run_a" / "ckpt_final.tckp"),
        "steps": 1,
        "batch_size": 1,
        "n_distractors": 4,
    }
    p = workdir / "semantic2.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 0
    assert (workdir / "run_sem2" / "ckpt_final.tckp").exists()


def test_train_model_other_than_the_checkpoints_fails(workdir, capsys):
    # a toy checkpoint cannot start a run that the config says is full
    cfg = {
        "stage": "semantic",
        "manifest": str(workdir / "data" / "manifest.tsv"),
        "out_dir": str(workdir / "run_sem_full"),
        "init_checkpoint": str(workdir / "run_a" / "ckpt_final.tckp"),
        "model": "full",
        "steps": 1,
        "batch_size": 1,
        "n_distractors": 4,
    }
    p = workdir / "semantic_full.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: category=config:")
    assert "model" in err
    assert not (workdir / "run_sem_full" / "ckpt_final.tckp").exists()


def test_train_unknown_key_exit_code(workdir, capsys):
    p = workdir / "bad.json"
    p.write_text(json.dumps(base_cfg(warmup_steps=10)))
    assert main(["train", "--config", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: category=config:")


def test_train_missing_manifest_categorized(workdir, capsys):
    cfg = base_cfg(manifest=str(workdir / "nope.tsv"), out_dir=str(workdir / "x"))
    p = workdir / "missing.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 3
    assert capsys.readouterr().err.startswith("error: category=missing-file:")


# ---------------------------------------------------------------------------
# encode / decode


def test_encode_decode_round_trip(workdir, capsys):
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    wav = str(workdir / "data" / "speech_000.wav")
    tokens = str(workdir / "speech.uctk")
    out_wav = str(workdir / "speech_rt.wav")

    assert main(["encode", "--ckpt", ckpt, "--out", tokens, wav]) == 0
    assert "wrote 75 tokens" in capsys.readouterr().out

    stream = load_tokens(tokens)
    assert len(stream) == 75
    assert stream.frame_rate == 75

    assert main(["decode", "--ckpt", ckpt, "--out", out_wav, tokens]) == 0
    assert "wrote 24000 samples" in capsys.readouterr().out
    clip = load_wav(out_wav)
    assert len(clip.samples) == 24000
    assert clip.sample_rate == 24000


def test_encode_domain_restricts_ids(workdir):
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    wav = str(workdir / "data" / "music_000.wav")
    tokens = str(workdir / "music.uctk")
    assert main(["encode", "--ckpt", ckpt, "--domain", "music", "--out", tokens, wav]) == 0
    ids = load_tokens(tokens).ids
    assert ids.min() >= 128 and ids.max() < 256


def test_encode_deterministic(workdir):
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    wav = str(workdir / "data" / "sound_000.wav")
    main(["encode", "--ckpt", ckpt, "--out", str(workdir / "t1.uctk"), wav])
    main(["encode", "--ckpt", ckpt, "--out", str(workdir / "t2.uctk"), wav])
    assert (workdir / "t1.uctk").read_bytes() == (workdir / "t2.uctk").read_bytes()


def test_encode_missing_wav_categorized(workdir, capsys):
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    assert main(["encode", "--ckpt", ckpt, "--out", "/tmp/x.uctk",
                 str(workdir / "ghost.wav")]) == 3
    assert capsys.readouterr().err.startswith("error: category=missing-file:")


def test_decode_garbage_tokens_categorized(workdir, capsys):
    bad = workdir / "bad.uctk"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    assert main(["decode", "--ckpt", ckpt, "--out", "/tmp/x.wav", str(bad)]) == 3
    assert capsys.readouterr().err.startswith("error: category=token-format:")


@pytest.mark.parametrize(
    "book, rate, source_rate",
    [(16384, 75, 24000), (512, 50, 24000), (512, 75, 16000)],
    ids=["16384-75", "512-50", "512-75-16000Hz"],
)
def test_decode_tokens_from_another_codec_categorized(workdir, capsys, book, rate, source_rate):
    # the toy checkpoint decodes a 512-entry book at 75 tokens/s of 24 kHz audio
    tokens = workdir / f"foreign_{book}_{rate}_{source_rate}.uctk"
    stream = TokenStream(np.array([3, 600 % book]), frame_rate=rate, source_sample_rate=source_rate, codebook_size=book)
    save_tokens(tokens, stream)
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    out_wav = workdir / f"foreign_{book}_{rate}_{source_rate}.wav"
    assert main(["decode", "--ckpt", ckpt, "--out", str(out_wav), str(tokens)]) == 3
    assert capsys.readouterr().err.startswith("error: category=token-format:")
    assert not out_wav.exists()


def test_decode_empty_token_stream_categorized(workdir, capsys):
    # encode never writes a stream without ids, so one is a bad input file
    tokens = workdir / "empty.uctk"
    save_tokens(tokens, TokenStream(np.array([], dtype=np.int64), codebook_size=512))
    ckpt = str(workdir / "run_a" / "ckpt_final.tckp")
    out_wav = workdir / "empty.wav"
    assert main(["decode", "--ckpt", ckpt, "--out", str(out_wav), str(tokens)]) == 3
    assert capsys.readouterr().err.startswith("error: category=token-format:")
    assert not out_wav.exists()


def test_bad_checkpoint_categorized(workdir, capsys):
    bad = workdir / "bad.tckp"
    bad.write_bytes(b"JUNKJUNKJUNK")
    wav = str(workdir / "data" / "speech_000.wav")
    assert main(["encode", "--ckpt", str(bad), "--out", "/tmp/x.uctk", wav]) == 3
    assert capsys.readouterr().err.startswith("error: category=checkpoint-format:")


@pytest.mark.parametrize(
    "variant", ["not-utf8", "not-json", "too-deep-json", "no-encoder", "no-quantizer", "no-decoder",
                "unknown-key", "empty-strides", "no-conv0", "no-dec.out.b", "short-vq.proj"],
)
def test_decode_doctored_checkpoint_categorized(workdir, capsys, variant):
    arrays = load_tensors(workdir / "run_a" / "ckpt_final.tckp")
    cfg = json.loads(arrays["meta/config_json"].tobytes())
    if variant == "not-utf8":
        raw = b"\xff\xfe" + arrays["meta/config_json"].tobytes()
    elif variant == "not-json":
        raw = b"{not json"
    elif variant == "too-deep-json":  # json.loads raises RecursionError
        raw = b"[" * 100_000 + b"]" * 100_000
    elif variant == "unknown-key":
        raw = json.dumps({**cfg, "mystery": 1}).encode()
    elif variant == "empty-strides":
        cfg["encoder"]["strides"] = cfg["encoder"]["conv_channels"] = []
        raw = json.dumps(cfg).encode()
    elif variant in ("no-encoder", "no-quantizer", "no-decoder"):
        del cfg[variant[3:]]
        raw = json.dumps(cfg).encode()
    else:
        raw = arrays["meta/config_json"].tobytes()
        if variant == "short-vq.proj":
            arrays["param/vq.proj"] = arrays["param/vq.proj"][:3]
        else:
            del arrays["param/" + {"no-conv0": "enc.conv0.w"}.get(variant, variant[3:])]
    arrays["meta/config_json"] = np.frombuffer(raw, dtype=np.uint8)
    bad = workdir / f"doctored_{variant}.tckp"
    save_tensors(bad, arrays)
    tokens = workdir / "doctored.uctk"
    save_tokens(tokens, TokenStream(np.array([1, 2, 3]), codebook_size=512))
    out_wav = workdir / f"doctored_{variant}.wav"
    assert main(["decode", "--ckpt", str(bad), "--out", str(out_wav), str(tokens)]) == 3
    assert capsys.readouterr().err.startswith("error: category=checkpoint-format:")
    assert not out_wav.exists()


@pytest.mark.parametrize("variant", ["no-adam_m", "wide-adam_v", "no-adam_t", "short-rng_state",
                                     "wide-stage_done", "wide-stage_in_progress", "wide-step"])
def test_train_resume_from_doctored_checkpoint_categorized(workdir, capsys, variant):
    # the final checkpoint marked as one saved after step 1 of 2, so the run
    # resumes mid-stage from its optimizer moments, step count and RNG state
    arrays = load_tensors(workdir / "run_a" / "ckpt_final.tckp")
    arrays["meta/stage_in_progress"] = np.asarray(1, dtype=np.int64)
    arrays["meta/step"] = np.asarray(1, dtype=np.int64)
    moment = next(k for k in arrays if k.startswith("adam_m/"))
    tensor = {"no-adam_m": moment, "wide-adam_v": "adam_v/" + moment[len("adam_m/"):],
              "no-adam_t": "meta/adam_t", "short-rng_state": "meta/rng_state"}.get(variant, "meta/" + variant[5:])
    if variant.startswith("no-"):
        del arrays[tensor]
    else:
        arrays[tensor] = arrays[tensor][:3] if variant == "short-rng_state" else np.hstack([arrays[tensor]] * 2)
    bad = workdir / f"resume_{variant}.tckp"
    save_tensors(bad, arrays)
    cfg = {**json.loads((workdir / "acoustic.json").read_text()),
           "out_dir": str(workdir / f"run_resume_{variant}"), "init_checkpoint": str(bad)}
    p = workdir / f"resume_{variant}.json"
    p.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(p)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: category=checkpoint-format:") and f"'{tensor}'" in err
    assert not (workdir / f"run_resume_{variant}" / "ckpt_final.tckp").exists()


def test_error_line_is_single_and_machine_parseable(workdir, capsys):
    main(["encode", "--ckpt", str(workdir / "run_a" / "ckpt_final.tckp"),
          "--out", "/tmp/x.uctk", str(workdir / "ghost.wav")])
    err = capsys.readouterr().err
    lines = [l for l in err.splitlines() if l]
    assert len(lines) == 1
    category = lines[0].split("category=")[1].split(":")[0]
    assert category == "missing-file"


# ---------------------------------------------------------------------------
# eval


def test_eval_report_fields(workdir, capsys):
    assert main(["eval", "--ckpt", str(workdir / "run_a" / "ckpt_final.tckp"),
                 "--manifest", str(workdir / "data" / "manifest.tsv")]) == 0
    out = capsys.readouterr().out
    assert "clips=3" in out
    assert "dr=320" in out
    assert "tpf=1" in out
    assert "tps=75" in out
    assert "utilization.whole=" in out
    for d in ("speech", "music", "sound"):
        assert f"mel_distance.{d}=" in out
        assert f"stft_distance.{d}=" in out
    assert "domain" in out and "mel_dist" in out  # aligned summary table


def test_eval_domain_ids_flag(workdir, capsys):
    assert main(["eval", "--ckpt", str(workdir / "run_a" / "ckpt_final.tckp"),
                 "--manifest", str(workdir / "data" / "manifest.tsv"),
                 "--domain-ids"]) == 0
    out = capsys.readouterr().out
    assert "utilization.speech=" in out

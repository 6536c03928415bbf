"""Command-line surface: dataset generation, staged training, encode/decode,
and evaluation reports.

Every command exits 0 on success; failures print one line to stderr of the
form ``error: category=<category>: <message>`` and exit nonzero, so wrapper
scripts can branch on the category without parsing prose.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .autodiff import no_grad
from .checkpoint import CheckpointError
from .losses import mel_distance, stft_distance
from .model import Codec, CodecConfig
from .quantizer import TokenStreamError, load_tokens, save_tokens, utilization
from .signal import (
    SAMPLE_RATE,
    AudioClip,
    Domain,
    WavError,
    gen_toy_dataset,
    load_wav,
    read_manifest,
    resample,
    save_wav,
    write_manifest,
)
from .training import (
    ConfigError,
    DivergenceError,
    Stage,
    StageConfig,
    StageOrderError,
    TrainingError,
    curate_finetune,
    train_stage,
)

__all__ = ["main", "EvalReport", "load_train_config"]


# ---------------------------------------------------------------------------
# training config files (JSON, documented key set)

def _scalar_fields(cls) -> dict:
    """``{field name: type}`` for the int, float and bool fields of a config
    dataclass, so the file schema follows the dataclass."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls) if hints[f.name] in (int, float, bool)}


_STAGE_KEYS = _scalar_fields(StageConfig)
_TOP_KEYS = {
    "stage": str,
    "manifest": str,
    "out_dir": str,
    "init_checkpoint": str,
    "model": str,
    **_STAGE_KEYS,
}
_REQUIRED = ("stage", "manifest", "out_dir")


def _check_keys(section: dict, allowed: dict) -> None:
    for key, value in section.items():
        if key not in allowed:
            raise ConfigError(f"unknown config key '{key}'")
        want = allowed[key]
        if want is float and isinstance(value, int) and not isinstance(value, bool):
            continue  # JSON integers are fine where floats are expected
        if not isinstance(value, want) or (want in (int, float) and isinstance(value, bool)):
            raise ConfigError(f"config key '{key}' must be {want.__name__}, got {type(value).__name__}")


def load_train_config(path) -> dict:
    """Parse and validate a training config file; errors name the offending key."""
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    _check_keys(raw, _TOP_KEYS)
    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(f"missing required config key '{key}'")
    if raw.get("model", "toy") not in ("toy", "full"):
        raise ConfigError("config key 'model' must be 'toy' or 'full'")
    try:
        Stage.from_string(raw["stage"])
    except ValueError as e:
        raise ConfigError(f"config key 'stage': {e}") from None
    return raw


def _stage_config_from(raw: dict) -> StageConfig:
    stage = Stage.from_string(raw["stage"])
    kw = {key: raw[key] for key in _STAGE_KEYS if key in raw}
    maker = {Stage.ACOUSTIC: StageConfig.acoustic, Stage.SEMANTIC: StageConfig.semantic, Stage.FINETUNE: StageConfig.finetune}
    try:
        return maker[stage](**kw)
    except ValueError as e:
        raise ConfigError(str(e)) from None


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    clips = gen_toy_dataset(args.seed, args.per_domain, args.duration)
    counters: dict = {}
    entries = []
    for clip in clips:
        i = counters.get(clip.domain, 0)
        counters[clip.domain] = i + 1
        path = out_dir / f"{clip.domain.value}_{i:03d}.wav"
        save_wav(path, clip)
        entries.append((path, clip.domain))
    manifest = out_dir / "manifest.tsv"
    write_manifest(manifest, entries)
    print(f"wrote {len(entries)} clips and {manifest}")
    return 0


def _load_training_clips(manifest_path) -> list:
    clips = []
    for wav_path, domain in read_manifest(manifest_path):
        clip = load_wav(wav_path)
        clip = resample(clip, SAMPLE_RATE)
        clip.domain = domain
        clips.append(clip)
    if not clips:
        raise ConfigError(f"manifest {manifest_path} lists no clips")
    return clips


def cmd_train(args) -> int:
    raw = load_train_config(args.config)
    if args.seed is not None:
        raw["seed"] = args.seed
    cfg = _stage_config_from(raw)
    clips = _load_training_clips(raw["manifest"])
    if cfg.stage == Stage.FINETUNE:
        clips = curate_finetune(clips)
    init_from = raw.get("init_checkpoint")
    if init_from is None and cfg.stage != Stage.ACOUSTIC:
        raise StageOrderError(
            f"{cfg.stage.name.lower()} stage config must set 'init_checkpoint' to a completed "
            f"acoustic-stage checkpoint"
        )
    model = raw.get("model", None if init_from else "toy")  # a checkpoint brings its own
    model_config = getattr(CodecConfig, model)() if model else None
    result = train_stage(clips, cfg, raw["out_dir"], model_config=model_config, init_from=init_from)
    print(f"final checkpoint: {result.final_checkpoint}")
    print(f"log: {result.log_path}")
    print(f"recon loss: {result.step0_recon:.4f} -> {result.final_recon:.4f}")
    return 0


def cmd_encode(args) -> int:
    codec = Codec.load(args.ckpt)
    clip = resample(load_wav(args.wav), SAMPLE_RATE)
    domain = Domain.from_string(args.domain) if args.domain else None
    stream = codec.encode(clip, domain=domain)
    save_tokens(args.out, stream)
    print(f"wrote {len(stream)} tokens to {args.out}")
    return 0


def cmd_decode(args) -> int:
    codec = Codec.load(args.ckpt)
    stream = load_tokens(args.tokens)
    want = (codec.config.quantizer.codebook_size, codec.config.tokens_per_second, SAMPLE_RATE)
    if (stream.codebook_size, stream.frame_rate, stream.source_sample_rate) != want:
        raise TokenStreamError(
            f"{args.tokens}: book {stream.codebook_size}, {stream.frame_rate} tokens/s, {stream.source_sample_rate} Hz; "
            f"the checkpoint decodes book {want[0]}, {want[1]} tokens/s, {want[2]} Hz"
        )
    if not len(stream.ids):
        raise TokenStreamError(f"{args.tokens}: holds no token ids")
    clip = codec.decode_tokens(stream)
    save_wav(args.out, clip)
    print(f"wrote {len(clip)} samples to {args.out}")
    return 0


@dataclass
class EvalReport:
    """Per-domain distances plus rate/utilization accounting."""

    tokens_per_frame: int
    tokens_per_second: int
    downsample_rate: int
    mel: dict = field(default_factory=dict)
    stft: dict = field(default_factory=dict)
    util_whole: float = 0.0
    util_region: dict = field(default_factory=dict)
    clip_count: int = 0

    def lines(self) -> list:
        out = [
            f"clips={self.clip_count}",
            f"dr={self.downsample_rate}",
            f"tpf={self.tokens_per_frame}",
            f"tps={self.tokens_per_second}",
            f"utilization.whole={self.util_whole:.6f}",
        ]
        for d in sorted(self.util_region):
            out.append(f"utilization.{d}={self.util_region[d]:.6f}")
        for d in sorted(self.mel):
            out.append(f"mel_distance.{d}={self.mel[d]:.6f}")
        for d in sorted(self.stft):
            out.append(f"stft_distance.{d}={self.stft[d]:.6f}")
        return out

    def table(self) -> str:
        rows = [("domain", "mel_dist", "stft_dist")]
        for d in sorted(self.mel):
            rows.append((d, f"{self.mel[d]:.4f}", f"{self.stft[d]:.4f}"))
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows)

    def __str__(self):
        return "\n".join(self.lines()) + "\n\n" + self.table()


@no_grad()
def run_eval(codec: Codec, entries, domain_ids: bool = False) -> EvalReport:
    """Round-trip every manifest clip and aggregate per-domain means.

    Domain ids are withheld from the quantizer unless ``domain_ids`` is set
    (whole-book nearest-neighbor search, the fair-comparison protocol).
    """
    qcfg = codec.config.quantizer
    report = EvalReport(
        tokens_per_frame=1,
        tokens_per_second=codec.config.tokens_per_second,
        downsample_rate=codec.config.downsample,
    )
    mel_acc: dict = {}
    stft_acc: dict = {}
    streams = []
    for wav_path, domain in entries:
        clip = resample(load_wav(wav_path), SAMPLE_RATE)
        out = codec.forward(clip.samples, domain=domain if domain_ids else None, decode=True)
        ref = AudioClip(out.samples, SAMPLE_RATE)
        recon = AudioClip(out.wave.data, SAMPLE_RATE)
        streams.append(out.stream)
        mel_acc.setdefault(domain.value, []).append(mel_distance(ref, recon))
        stft_acc.setdefault(domain.value, []).append(stft_distance(ref, recon))
        report.clip_count += 1
    report.mel = {d: float(np.mean(v)) for d, v in mel_acc.items()}
    report.stft = {d: float(np.mean(v)) for d, v in stft_acc.items()}
    report.util_whole = utilization(streams, qcfg)
    report.util_region = {d.value: utilization(streams, qcfg, domain=d) for d in Domain}
    return report


def cmd_eval(args) -> int:
    codec = Codec.load(args.ckpt)
    entries = read_manifest(args.manifest)
    if not entries:
        raise ConfigError(f"manifest {args.manifest} lists no clips")
    report = run_eval(codec, entries, domain_ids=args.domain_ids)
    print(report)
    return 0


# ---------------------------------------------------------------------------
# entry point

_ERROR_CATEGORIES = (
    (ConfigError, "config", 2),
    (StageOrderError, "stage-order", 2),
    (DivergenceError, "divergence", 4),
    (TrainingError, "training", 4),
    (WavError, "wav-format", 3),
    (TokenStreamError, "token-format", 3),
    (CheckpointError, "checkpoint-format", 3),
    (FileNotFoundError, "missing-file", 3),
    (ValueError, "usage", 2),
)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tricodec", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="synthesize the three-domain toy dataset")
    g.add_argument("--seed", type=int, default=7)
    g.add_argument("--per-domain", type=int, default=4)
    g.add_argument("--duration", type=float, default=1.0)
    g.add_argument("--out", required=True, help="output directory")
    g.set_defaults(fn=cmd_gen_data)

    t = sub.add_parser("train", help="run one training stage from a JSON config")
    t.add_argument("--config", required=True)
    t.add_argument("--seed", type=int, default=None, help="override the config's seed")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("encode", help="WAV to token stream")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--domain", choices=[d.value for d in Domain], default=None)
    e.add_argument("--out", required=True)
    e.add_argument("wav")
    e.set_defaults(fn=cmd_encode)

    d = sub.add_parser("decode", help="token stream to WAV")
    d.add_argument("--ckpt", required=True)
    d.add_argument("--out", required=True)
    d.add_argument("tokens")
    d.set_defaults(fn=cmd_decode)

    v = sub.add_parser("eval", help="round-trip a manifest and report distances")
    v.add_argument("--ckpt", required=True)
    v.add_argument("--manifest", required=True)
    v.add_argument(
        "--domain-ids",
        action="store_true",
        help="pass each clip's domain to the quantizer (region-restricted ablation)",
    )
    v.set_defaults(fn=cmd_eval)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as e:  # noqa: BLE001 - single funnel to categorized stderr
        for etype, category, code in _ERROR_CATEGORIES:
            if isinstance(e, etype):
                print(f"error: category={category}: {e}", file=sys.stderr)
                return code
        print(f"error: category=internal: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

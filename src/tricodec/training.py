"""Three-stage training: acoustic (reconstruction + commitment), semantic
(adds masked contrastive), fine-tune (reconstruction-heavy on curated
speech). AdamW with decoupled weight decay, cosine learning-rate decay,
domain-routed codebook regions, JSONL metric logs, and byte-deterministic
checkpointing (atomic writes, serialized RNG state).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import checkpoint as ckpt
from .autodiff import NonFiniteError, Tensor, add, backward, mul, no_grad
from .losses import contrastive_loss, reconstruction_terms, sample_mask
from .model import Codec, CodecConfig
from .quantizer import alignment_loss, commitment_loss, simvq_embed  # noqa: F401 - perfbench wraps it
from .signal import SAMPLE_RATE, AudioClip, Domain, spectral_flatness

__all__ = [
    "Stage",
    "StageConfig",
    "ConfigError",
    "TrainingError",
    "StageOrderError",
    "DivergenceError",
    "AdamW",
    "cosine_lr",
    "TrainResult",
    "train_stage",
    "curate_finetune",
    "dataset_recon_loss",
    "dataset_contrastive_loss",
]

# training reads at most the first MAX_CLIP_SECONDS of each clip
MAX_CLIP_SECONDS = 10.0

# share of the speech clips that the fine-tune stage keeps, most harmonic first
FINETUNE_FRACTION = 0.5

# AdamW's moment decay rates, decoupled weight decay and denominator epsilon
ADAM_BETAS = (0.9, 0.999)
WEIGHT_DECAY = 0.01
ADAM_EPS = 1e-8


class ConfigError(Exception):
    """Raised on a training or model configuration that cannot run."""


class TrainingError(Exception):
    pass


class StageOrderError(TrainingError):
    """Raised when a stage starts without the checkpoint lineage it needs."""


class DivergenceError(TrainingError):
    """Raised on non-finite loss or gradients; names the last good checkpoint."""


class Stage(enum.Enum):
    ACOUSTIC = 1
    SEMANTIC = 2
    FINETUNE = 3

    @classmethod
    def from_string(cls, s: str) -> "Stage":
        try:
            return cls[s.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown stage '{s}' (expected acoustic, semantic, or finetune)") from None


@dataclass(frozen=True)
class StageConfig:
    stage: Stage
    steps: int = 500
    batch_size: int = 2
    seed: int = 0
    lr: float = 2e-4
    lr_min: float = 1e-6
    lam_c: float = 1.0
    n_distractors: int = 100
    checkpoint_every: int = 0
    log_every: int = 10

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ValueError("steps and batch_size must be >= 1")
        if self.log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {self.log_every}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0 (0 saves none), got {self.checkpoint_every}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < float("inf"):
            raise ValueError(f"lr must be finite and positive, got {self.lr}")
        if not 0 <= self.lr_min <= self.lr:
            raise ValueError(f"lr_min must be in [0, lr={self.lr}], got {self.lr_min}")
        if not 0 <= self.lam_c < float("inf"):
            raise ValueError(f"lam_c must be finite and >= 0, got {self.lam_c}")
        if self.n_distractors < 1:
            raise ValueError(f"n_distractors must be >= 1, got {self.n_distractors}")
        if self.stage == Stage.FINETUNE and self.lr != 5e-5:
            raise ValueError("finetune stage is pinned to lr=5e-5")

    @property
    def lam_mel(self) -> float:
        """Mel-loss weight: 450 for the reconstruction-heavy fine-tune, 45 otherwise."""
        return 450.0 if self.stage is Stage.FINETUNE else 45.0

    @classmethod
    def acoustic(cls, **kw) -> "StageConfig":
        return cls(stage=Stage.ACOUSTIC, **kw)

    @classmethod
    def semantic(cls, **kw) -> "StageConfig":
        return cls(stage=Stage.SEMANTIC, **kw)

    @classmethod
    def finetune(cls, **kw) -> "StageConfig":
        kw.setdefault("lr", 5e-5)
        return cls(stage=Stage.FINETUNE, **kw)


def cosine_lr(step: int, total_steps: int, lr0: float, lr_min: float) -> float:
    """lr_min + 0.5*(lr0 - lr_min)*(1 + cos(pi*step/total_steps))."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + np.cos(np.pi * step / total_steps))


class AdamW:
    """AdamW with bias-corrected moments and decoupled weight decay, at
    ``ADAM_BETAS``, ``WEIGHT_DECAY`` and ``ADAM_EPS``.

    Parameters whose gradient is absent in a step are treated as having a
    zero gradient: their moments decay and weight decay still applies.
    """

    def __init__(self, params: dict):
        self.params = {k: v for k, v in params.items() if v.requires_grad}
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in self.params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in self.params.items()}

    def step(self, lr: float) -> None:
        """One update at learning rate ``lr``. The moments and the update
        stay in each parameter's dtype: ``lr`` is taken as a Python float,
        since under NumPy 2's promotion a NumPy float64 scalar, such as
        ``cosine_lr`` returns, would promote a float32 update to float64."""
        lr = float(lr)
        self.t += 1
        b1, b2 = ADAM_BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            elif not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient for '{name}' at optimizer step {self.t}")
            g = g.astype(p.data.dtype, copy=False)
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            # lr * (mhat / (sqrt(vhat) + eps) + decay * p), built in one buffer
            update = np.sqrt(v / bc2)
            update += ADAM_EPS
            np.divide(m / bc1, update, out=update)
            update += WEIGHT_DECAY * p.data
            update *= lr
            p.data = p.data - update

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


# ---------------------------------------------------------------------------
# RNG state serialization (PCG64)


def _rng_to_u64(rng: np.random.Generator) -> np.ndarray:
    st = rng.bit_generator.state
    s, inc = st["state"]["state"], st["state"]["inc"]
    mask = (1 << 64) - 1
    return np.array(
        [s & mask, s >> 64, inc & mask, inc >> 64, st["has_uint32"], st["uinteger"]],
        dtype=np.uint64,
    )


def _rng_from_u64(vals: np.ndarray) -> np.random.Generator:
    v = [int(x) for x in vals]
    rng = np.random.default_rng(0)
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": v[0] | (v[1] << 64), "inc": v[2] | (v[3] << 64)},
        "has_uint32": v[4],
        "uinteger": v[5],
    }
    return rng


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainResult:
    final_checkpoint: Path
    log_path: Path
    checkpoints: list
    step0_recon: float
    final_recon: float


def _save_state(
    path: Path,
    codec: Codec,
    opt: AdamW,
    rng: np.random.Generator,
    step: int,
    stage_done: int,
    stage_in_progress: int,
) -> None:
    arrays = codec.state_arrays()
    for name in opt.params:
        arrays[f"adam_m/{name}"] = opt.m[name]
        arrays[f"adam_v/{name}"] = opt.v[name]
    arrays["meta/adam_t"] = np.asarray(opt.t, dtype=np.int64)
    arrays["meta/step"] = np.asarray(step, dtype=np.int64)
    arrays["meta/stage_done"] = np.asarray(stage_done, dtype=np.int64)
    arrays["meta/stage_in_progress"] = np.asarray(stage_in_progress, dtype=np.int64)
    arrays["meta/rng_state"] = _rng_to_u64(rng)
    ckpt.save_tensors(path, arrays)


def _resume_tensor(arrays: dict, name: str, shape: tuple, path) -> np.ndarray:
    """The tensor ``name`` that a mid-stage resume reads from the checkpoint
    at ``path``, which must hold it in ``shape``."""
    if name not in arrays:
        raise ckpt.CheckpointError(f"{path}: mid-stage checkpoint lacks tensor '{name}'")
    if arrays[name].shape != shape:
        raise ckpt.CheckpointError(f"{path}: tensor '{name}' has shape {arrays[name].shape}, expected {shape}")
    return arrays[name]


def _marker(arrays: dict, name: str, path) -> int:
    """The scalar resume marker ``name`` of the checkpoint at ``path``; 0 when absent."""
    return int(_resume_tensor(arrays, name, (), path)) if name in arrays else 0


def _capped(clip: AudioClip) -> np.ndarray:
    """The clip's first ``MAX_CLIP_SECONDS``; ``Codec.forward`` cuts them to whole frames."""
    return clip.samples[: int(MAX_CLIP_SECONDS * clip.sample_rate)]


def _sample_losses(codec: Codec, clip: AudioClip, cfg: StageConfig, rng: np.random.Generator) -> dict:
    """Loss terms for one clip, all read from one ``Codec.forward`` pass.
    Quantization is restricted to the clip's domain region (``train_stage``
    checks every clip's label). Only the semantic stage masks frames and
    adds the contrastive term."""
    x = _capped(clip)
    semantic = cfg.stage is Stage.SEMANTIC
    maskset = sample_mask(len(x) // codec.config.downsample, rng) if semantic else None
    out = codec.forward(x, domain=clip.domain, mask=maskset.mask if semantic else None, decode=True)

    time_l1, mel_l1 = reconstruction_terms(Tensor(out.samples), out.wave)
    recon = add(time_l1, mul(Tensor(np.asarray(cfg.lam_mel, dtype=codec.dtype)), mel_l1))
    commit = commitment_loss(out.frames, out.quantized)
    align = alignment_loss(out.frames, out.codewords)
    total = add(recon, add(commit, align))

    terms = {"recon_time": time_l1, "recon_mel": mel_l1, "recon": recon, "commit": commit, "align": align}
    if semantic:
        if maskset.count < 2:
            raise TrainingError(f"only {maskset.count} masked frames; clip too short for the contrastive loss")
        lm = contrastive_loss(out.quantized, out.conv_feats, maskset, cfg.n_distractors, rng)
        terms["contrastive"] = lm
        total = add(total, mul(Tensor(np.asarray(cfg.lam_c, dtype=codec.dtype)), lm))
    terms["loss"] = total
    return terms


@no_grad()
def dataset_recon_loss(codec: Codec, clips: Sequence[AudioClip], cfg: StageConfig) -> float:
    """Mean reconstruction loss (time + lam_mel*mel) over all clips,
    domain-quantized, no masking: the training term, read without a graph.
    Deterministic; used for trend checks. A semantic config is scored as
    acoustic (no mask, same mel weight); a fine-tune config keeps its 450."""
    unmasked = replace(cfg, stage=Stage.ACOUSTIC) if cfg.stage is Stage.SEMANTIC else cfg
    return float(np.mean([float(_sample_losses(codec, c, unmasked, None)["recon"].data) for c in clips]))


@no_grad()
def dataset_contrastive_loss(codec: Codec, clips: Sequence[AudioClip], n_distractors: int, seed: int = 0) -> float:
    """Mean masked-contrastive loss over all clips with a fixed mask seed.

    Deterministic given (model, clips, seed); used to measure how well masked
    positions identify their own unmasked conv feature among distractors.
    This is the semantic stage's training term, read without a graph."""
    cfg = StageConfig.semantic(n_distractors=n_distractors)
    rng = np.random.default_rng(seed)
    return float(np.mean([float(_sample_losses(codec, c, cfg, rng)["contrastive"].data) for c in clips]))


@no_grad()
def _warm_start_projection(codec: Codec, clips: Sequence[AudioClip], cfg: StageConfig) -> None:
    """Fit the codebook projection to the untrained encoder's frame cloud.

    Random base rows from each domain's region are paired with frames
    encoded from that domain's clips, and the projection is replaced by the
    least-squares map sending paired rows onto their frames. Codewords then
    start inside the cloud their region serves, so nearest-neighbor
    assignments spread over many entries from the first step. Without this,
    isotropic random codewords barely project onto the low-rank subspace
    the frames occupy, a handful of entries win every frame, and gradient
    descent never recruits the rest (selection is not differentiable).
    Deterministic given the stage seed."""
    qcfg, hidden = codec.config.quantizer, codec.config.encoder.hidden
    rng = np.random.default_rng((cfg.seed, 0x779A))
    by_domain: dict = {}
    for clip in clips:
        out = codec.forward(_capped(clip), domain=clip.domain)
        by_domain.setdefault(clip.domain, []).append(out.frames.data)
    base = codec.params["vq.base"].data
    rows, targets = [], []
    for domain, flist in by_domain.items():
        frames = np.concatenate(flist, axis=0)
        lo, hi = qcfg.region(domain)
        k = min(hi - lo, max(hidden, 4 * hidden * (hi - lo) // qcfg.codebook_size))
        sel = rng.choice(np.arange(lo, hi), size=k, replace=False)
        fsel = rng.choice(len(frames), size=k, replace=len(frames) < k)
        rows.append(base[sel])
        targets.append(frames[fsel])
    b = np.concatenate(rows, axis=0)
    t = np.concatenate(targets, axis=0)
    # codeword_i = proj @ base_i, so solve (b @ proj.T ~ t) in least squares
    fit, *_ = np.linalg.lstsq(b, t, rcond=None)
    codec.params["vq.proj"].data[...] = fit.T.astype(codec.dtype)


def _diverged(step: int, err: Exception, last_good) -> DivergenceError:
    return DivergenceError(
        f"training diverged at step {step}: {err}; last good checkpoint: {last_good or 'none saved'}"
    )


def train_stage(
    clips: Sequence[AudioClip],
    cfg: StageConfig,
    run_dir,
    model_config: Optional[CodecConfig] = None,
    init_from=None,
) -> TrainResult:
    """Run one training stage to completion and return checkpoint paths.

    Fresh runs require ``model_config`` (acoustic stage only), and one given
    with ``init_from`` must be the checkpoint's; semantic and finetune stages
    must resume from a checkpoint whose lineage includes a completed
    acoustic stage. If ``init_from`` is a checkpoint of this same stage
    interrupted mid-run, training resumes bit-exactly.

    The stage trains in float32, the ``Codec`` dtype, parameters and AdamW
    moments alike: a resume casts each floating-point tensor of
    ``init_from`` as it is read, so a float64 checkpoint resumes too.
    """
    if not clips:
        raise TrainingError("empty training set")
    unlabeled = sum(clip.domain is None for clip in clips)
    if unlabeled:
        raise TrainingError(f"{unlabeled} of {len(clips)} training clips carry no domain label")
    off_rate = [clip.sample_rate for clip in clips if clip.sample_rate != SAMPLE_RATE]
    if off_rate:
        rates = ", ".join(f"{r} Hz" for r in sorted(set(off_rate)))
        raise TrainingError(
            f"{len(off_rate)} of {len(clips)} training clips are at {rates}, not the codec rate "
            f"{SAMPLE_RATE} Hz; resample them first"
        )
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    log_path = run_dir / "train_log.jsonl"

    stage_done = 0
    start_step = 0
    opt = None
    rng = None
    if init_from is not None:
        arrays = ckpt.load_tensors(init_from, dtype=Codec.dtype)
        codec = Codec._from_arrays(arrays, init_from)
        if model_config is not None and model_config != codec.config:
            raise ConfigError(f"the model config differs from the one {init_from} was trained with")
        stage_done = _marker(arrays, "meta/stage_done", init_from)
        if cfg.stage is not Stage.ACOUSTIC and stage_done < Stage.ACOUSTIC.value:
            raise StageOrderError(
                f"{cfg.stage.name.lower()} stage requires a checkpoint with a completed acoustic "
                f"stage; got one at stage_done={stage_done}"
            )
        in_progress = _marker(arrays, "meta/stage_in_progress", init_from)
        saved_step = _marker(arrays, "meta/step", init_from)
        if in_progress == cfg.stage.value and saved_step < cfg.steps:
            # mid-stage resume: restore optimizer moments and RNG exactly
            opt = AdamW(codec.trainable())
            for name, param in opt.params.items():
                opt.m[name] = _resume_tensor(arrays, f"adam_m/{name}", param.shape, init_from).copy()
                opt.v[name] = _resume_tensor(arrays, f"adam_v/{name}", param.shape, init_from).copy()
            opt.t = int(_resume_tensor(arrays, "meta/adam_t", (), init_from))
            rng = _rng_from_u64(_resume_tensor(arrays, "meta/rng_state", (6,), init_from))
            start_step = saved_step
    else:
        if cfg.stage != Stage.ACOUSTIC:
            raise StageOrderError(
                f"{cfg.stage.name.lower()} stage requires an initial checkpoint from a completed "
                f"acoustic stage; train acoustic first"
            )
        if model_config is None:
            raise TrainingError("fresh training requires a model config")
        codec = Codec(model_config, seed=cfg.seed)
        _warm_start_projection(codec, clips, cfg)

    if opt is None:
        opt = AdamW(codec.trainable())
        rng = np.random.default_rng(cfg.seed)

    step0_recon = dataset_recon_loss(codec, clips, cfg)
    checkpoints = []
    last_good = None
    if cfg.checkpoint_every > 0 and start_step == 0:
        p = run_dir / "ckpt_step0.tckp"
        _save_state(p, codec, opt, rng, 0, stage_done, cfg.stage.value)
        checkpoints.append(p)
        last_good = p

    log_f = open(log_path, "a")
    try:
        for step in range(start_step, cfg.steps):
            lr_t = cosine_lr(step, cfg.steps, cfg.lr, cfg.lr_min)
            batch_idx = rng.integers(0, len(clips), size=cfg.batch_size)
            opt.zero_grad()
            try:
                batch_terms = [_sample_losses(codec, clips[i], cfg, rng) for i in batch_idx]
                inv = Tensor(np.asarray(1.0 / cfg.batch_size, dtype=codec.dtype))
                batch_loss = None
                for terms in batch_terms:
                    contrib = mul(terms["loss"], inv)
                    batch_loss = contrib if batch_loss is None else add(batch_loss, contrib)
                if not np.isfinite(batch_loss.data):
                    raise NonFiniteError("batch loss is not finite")
                backward(batch_loss)
                opt.step(lr_t)
            except NonFiniteError as e:
                raise _diverged(step, e, last_good) from e

            if step % cfg.log_every == 0 or step == cfg.steps - 1:
                record = {
                    "step": step,
                    "stage": cfg.stage.name.lower(),
                    "lr": float(lr_t),
                    "loss": float(batch_loss.data),
                }
                for key in ("recon", "recon_time", "recon_mel", "commit", "align", "contrastive"):
                    vals = [float(t[key].data) for t in batch_terms if key in t]
                    if vals:
                        record[key] = float(np.mean(vals))
                log_f.write(json.dumps(record) + "\n")
                log_f.flush()

            if cfg.checkpoint_every > 0 and (step + 1) % cfg.checkpoint_every == 0 and (step + 1) < cfg.steps:
                p = run_dir / f"ckpt_step{step + 1}.tckp"
                _save_state(p, codec, opt, rng, step + 1, stage_done, cfg.stage.value)
                checkpoints.append(p)
                last_good = p
    finally:
        log_f.close()

    # evaluate before writing: a last step that overflowed the weights must
    # not leave a final checkpoint behind
    try:
        final_recon = dataset_recon_loss(codec, clips, cfg)
    except NonFiniteError as e:
        raise _diverged(cfg.steps, e, last_good) from e
    final = run_dir / "ckpt_final.tckp"
    _save_state(
        final, codec, opt, rng, cfg.steps, max(stage_done, cfg.stage.value), 0
    )
    checkpoints.append(final)
    return TrainResult(
        final_checkpoint=final,
        log_path=log_path,
        checkpoints=checkpoints,
        step0_recon=step0_recon,
        final_recon=final_recon,
    )


def curate_finetune(clips: Sequence[AudioClip]) -> list:
    """Fine-tune subset: the ``FINETUNE_FRACTION`` most harmonic (lowest
    spectral-flatness) speech clips, the toy-scale stand-in for a curated
    high-quality speech corpus."""
    speech = [c for c in clips if c.domain == Domain.SPEECH]
    if not speech:
        raise TrainingError("no speech clips available for fine-tune curation")
    ranked = sorted(speech, key=spectral_flatness)
    keep = max(1, int(round(FINETUNE_FRACTION * len(ranked))))
    return ranked[:keep]

"""End-to-end acceptance checks, one printed PASS/FAIL line per criterion.

Run with -rP (the repo default) to see the per-criterion lines in the
summary. The toy training runs here take a few minutes total.
"""

import time
from dataclasses import replace as dc_replace

import numpy as np
import pytest
from scipy.special import erf

from tricodec.autodiff import Tensor, add, backward, grad_check, mul, no_grad, topk_gate, tsum
from tricodec.cli import run_eval
from tricodec.decoder import DecoderConfig, decode, init_decoder_params
from tricodec.encoder import EncoderConfig, MoEConfig, moe_mix, transformer_encode
from tricodec.losses import (
    MASK_P,
    MASK_SPAN,
    MaskSet,
    contrastive_loss,
    mel_distance,
    reconstruction_terms,
    sample_mask,
)
from tricodec.model import Codec, CodecConfig
from tricodec.quantizer import (
    QuantizerConfig,
    effective_codewords,
    init_quantizer_params,
    quantize,
    utilization,
)
from tricodec.signal import AudioClip, Domain, gen_toy_dataset, save_wav
from tricodec.training import StageConfig, dataset_contrastive_loss, train_stage


def _tensorize(arrays, frozen=()):
    return {
        k: Tensor(np.asarray(v, dtype=np.float64), requires_grad=k not in frozen)
        for k, v in arrays.items()
    }


# ---------------------------------------------------------------------------
# A1: sparse MoE routing and mixing match a dense all-expert oracle


def _oracle_ffn(u, params, prefix):
    h = u @ params[f"{prefix}.w1"].data.T + params[f"{prefix}.b1"].data
    h = h * 0.5 * (1.0 + erf(h / np.sqrt(2.0)))
    return h @ params[f"{prefix}.w2"].data.T + params[f"{prefix}.b2"].data


def test_a1_moe_matches_dense_oracle():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst_gate_sum = 0.0
    bad = 0
    for _ in range(1000):
        n_routed = int(rng.integers(1, 7))
        k_routed = int(rng.integers(1, min(n_routed, 3) + 1))
        n_shared = int(rng.integers(0, 3))
        hidden = int(rng.integers(3, 13))
        edim = int(rng.integers(2, 13))
        cfg = MoEConfig(n_shared=n_shared, n_routed=n_routed, k_routed=k_routed, expert_dim=edim)
        u = rng.standard_normal(hidden)
        params = {"t.centroids": Tensor(rng.standard_normal((n_routed, hidden)))}
        for kind, count in (("shared", n_shared), ("routed", n_routed)):
            for j in range(count):
                params[f"t.{kind}{j}.w1"] = Tensor(rng.standard_normal((edim, hidden)))
                params[f"t.{kind}{j}.b1"] = Tensor(rng.standard_normal(edim))
                params[f"t.{kind}{j}.w2"] = Tensor(rng.standard_normal((hidden, edim)))
                params[f"t.{kind}{j}.b2"] = Tensor(rng.standard_normal(hidden))

        gates = topk_gate(Tensor(u[None]), params["t.centroids"], k_routed).data[0]
        s = 1.0 / (1.0 + np.exp(-(u @ params["t.centroids"].data.T)))
        order = np.argsort(-s, kind="stable")
        keep = np.zeros(n_routed)
        keep[order[:k_routed]] = 1.0
        want_gates = s * keep / (s * keep).sum()

        out = add(Tensor(u[None]), moe_mix(Tensor(u[None]), params, "t", cfg)).data[0]
        want = u.copy()
        for j in range(n_shared):
            want = want + _oracle_ffn(u, params, f"t.shared{j}")
        for j in range(n_routed):
            want = want + want_gates[j] * _oracle_ffn(u, params, f"t.routed{j}")

        worst_gate_sum = max(worst_gate_sum, abs(gates.sum() - 1.0))
        if (
            np.count_nonzero(gates) != k_routed
            or not np.allclose(gates, want_gates, rtol=1e-10, atol=1e-12)
            or not np.allclose(out, want, rtol=1e-9, atol=1e-11)
        ):
            bad += 1
    dt = time.time() - t0
    ok = bad == 0 and worst_gate_sum <= 1e-9 and dt < 10.0
    print(
        f"A1 {'PASS' if ok else 'FAIL'}: 1000 random MoE instances match the dense oracle "
        f"({bad} mismatches, max gate-sum error {worst_gate_sum:.2e} <= 1e-9, {dt:.1f}s < 10s)"
    )
    assert bad == 0
    assert worst_gate_sum <= 1e-9
    assert dt < 10.0


# ---------------------------------------------------------------------------
# A2: nearest-neighbor token assignment matches an exhaustive scan


def test_a2_quantize_matches_exhaustive_oracle():
    t0 = time.time()
    rng = np.random.default_rng(202)
    bad_whole = bad_domain = escaped = 0
    for trial in range(500):
        size = int(rng.integers(8, 1025))
        dim = int(rng.integers(2, 65))
        s_end = int(rng.integers(1, size - 1))
        m_end = int(rng.integers(s_end + 1, size))
        cfg = QuantizerConfig(codebook_size=size, speech_end=s_end, music_end=m_end)
        base = rng.standard_normal((size, dim))
        proj = rng.standard_normal((dim, dim)) if trial % 3 else np.eye(dim)
        eff = base @ proj.T
        frames = rng.standard_normal((int(rng.integers(1, 17)), dim))
        if trial % 5 == 0:
            # plant an exact tie: duplicate a row and park a frame on it
            i, j = sorted(rng.choice(size, size=2, replace=False))
            base[j] = base[i]
            eff = base @ proj.T
            frames[0] = eff[j]
        params = {"vq.base": Tensor(base), "vq.proj": Tensor(proj)}

        stream, _ = quantize(Tensor(frames), params, cfg)
        d = ((frames[:, None, :] - eff[None, :, :]) ** 2).sum(axis=2)
        if not np.array_equal(stream.ids, d.argmin(axis=1)):
            bad_whole += 1

        domain = (Domain.SPEECH, Domain.MUSIC, Domain.SOUND)[trial % 3]
        lo, hi = cfg.region(domain)
        rstream, _ = quantize(Tensor(frames), params, cfg, domain=domain)
        if not np.array_equal(rstream.ids, lo + d[:, lo:hi].argmin(axis=1)):
            bad_domain += 1
        if len(rstream.ids) and (rstream.ids.min() < lo or rstream.ids.max() >= hi):
            escaped += 1
    dt = time.time() - t0
    ok = bad_whole == bad_domain == escaped == 0 and dt < 30.0
    print(
        f"A2 {'PASS' if ok else 'FAIL'}: 500 random codebooks match the exhaustive scan "
        f"({bad_whole} whole-book, {bad_domain} regional mismatches, {escaped} region escapes, "
        f"{dt:.1f}s < 30s)"
    )
    assert bad_whole == 0 and bad_domain == 0 and escaped == 0
    assert dt < 30.0


# ---------------------------------------------------------------------------
# A3/A4/A8 share one toy acoustic run (the recipe under test)

TOY_TRAIN = gen_toy_dataset(7, 4, 1.0)
TOY_HELD = gen_toy_dataset(8, 4, 1.0)


def acoustic_recipe():
    return StageConfig.acoustic(
        steps=500, batch_size=2, seed=0, lr=1e-3, lr_min=1e-4, checkpoint_every=250
    )


def semantic_recipe():
    return StageConfig.semantic(
        steps=200, batch_size=2, seed=0, lr=5e-4, lr_min=5e-5, lam_c=50.0,
        n_distractors=16,
    )


def readouts(codec):
    """Print-only readouts on the training clips, all from one region-searched,
    unmasked forward pass per clip: live codes per region (speech/music/sound)
    and mean distinct ids per clip (the collapse readout); mean distinct ids
    at the masked positions of A4's mask draw (seed 0); each region's offset
    from its domain's frame centroid to the region's book centroid; and the
    perfect-prediction bound, the A4 loss with these quantized unmasked
    frames as anchors (mask seed 0, K = 16)."""
    qcfg = codec.config.quantizer
    rng = np.random.default_rng(0)
    streams, masked_ids, bound = [], [], []
    frames = {domain: [] for domain in Domain}
    with no_grad():
        book = effective_codewords(codec.params).data
        for clip in TOY_TRAIN:
            out = codec.forward(clip.samples, domain=clip.domain)
            streams.append(out.stream)
            frames[clip.domain].append(out.frames.data)
            maskset = sample_mask(len(out.stream), rng)
            masked_ids.append(len(np.unique(out.stream.ids[maskset.mask])))
            lm = contrastive_loss(out.quantized, out.conv_feats, maskset, 16, rng)
            bound.append(float(lm.data))
    live, offsets = [], []
    for domain in (Domain.SPEECH, Domain.MUSIC, Domain.SOUND):
        lo, hi = qcfg.region(domain)
        live.append(round(utilization(streams, qcfg, domain) * (hi - lo)))
        centroid = np.concatenate(frames[domain]).mean(axis=0)
        offsets.append(np.linalg.norm(centroid - book[lo:hi].mean(axis=0)))
    per_clip = np.mean([utilization([s], qcfg) * qcfg.codebook_size for s in streams])
    return (
        f"live codes {'/'.join(map(str, live))}, {per_clip:.1f} distinct ids per clip, "
        f"{np.mean(masked_ids):.1f} at masked positions; region offset from the domain frame "
        f"centroid {'/'.join(f'{o:.2f}' for o in offsets)}; perfect-prediction bound "
        f"{np.mean(bound):.4f}"
    )


def held_mel(codec):
    return float(np.mean([mel_distance(clip, codec.reconstruct(clip)) for clip in TOY_HELD]))


@pytest.fixture(scope="module")
def a3_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("accept_a3")
    t0 = time.time()
    res = train_stage(TOY_TRAIN, acoustic_recipe(), root, model_config=CodecConfig.toy())
    return {"dir": root, "result": res, "seconds": time.time() - t0}


def test_a3_toy_acoustic_training_trend(a3_run):
    res = a3_run["result"]
    ratio = res.final_recon / res.step0_recon
    mels = [
        held_mel(Codec.load(a3_run["dir"] / name))
        for name in ("ckpt_step0.tckp", "ckpt_step250.tckp", "ckpt_final.tckp")
    ]
    violations = sum(1 for a, b in zip(mels, mels[1:]) if b > a)
    use = readouts(Codec.load(a3_run["result"].final_checkpoint))
    dt = a3_run["seconds"]
    ok = ratio <= 0.5 and violations <= 1 and dt < 1200.0
    print(
        f"A3 {'PASS' if ok else 'FAIL'}: 500 acoustic steps cut reconstruction to "
        f"{100 * ratio:.1f}% of step 0 (<= 50%), held-out mel distance "
        f"{mels[0]:.3f} -> {mels[1]:.3f} -> {mels[2]:.3f} ({violations} non-monotone pair(s) "
        f"<= 1), {dt / 60:.1f} min < 20 min; final {use}"
    )
    assert ratio <= 0.5
    assert violations <= 1
    assert dt < 1200.0


def test_a4_semantic_stage_beats_uniform(a3_run):
    t0 = time.time()
    sem_dir = a3_run["dir"] / "semantic"
    res = train_stage(
        TOY_TRAIN, semantic_recipe(), sem_dir, init_from=a3_run["result"].final_checkpoint
    )
    codec = Codec.load(res.final_checkpoint)
    lm = dataset_contrastive_loss(codec, TOY_TRAIN, 16, seed=0)
    bound = float(np.log(17.0) - 0.5)
    mel_before = held_mel(Codec.load(a3_run["result"].final_checkpoint))
    mel_after = held_mel(codec)
    dt = time.time() - t0
    use = readouts(codec)
    ok = lm < bound and mel_after < 1.2 * mel_before and dt < 900.0
    print(
        f"A4 {'PASS' if ok else 'FAIL'}: 200 semantic steps with K=16 reach mean "
        f"contrastive loss {lm:.4f} < log(17)-0.5 = {bound:.4f}, held-out mel distance "
        f"{mel_before:.3f} -> {mel_after:.3f} ({100 * (mel_after / mel_before - 1):+.1f}% < +20%), "
        f"{dt / 60:.1f} min < 15 min; {use}"
    )
    assert lm < bound
    assert mel_after < 1.2 * mel_before
    assert dt < 900.0


# ---------------------------------------------------------------------------
# A5: gradient integrity on the three hardest paths


def test_a5_gradient_integrity():
    t0 = time.time()
    rng = np.random.default_rng(505)

    # (a) one full transformer block with MoE feed-forward
    enc_cfg = EncoderConfig(
        strides=(2, 2), conv_channels=(4, 8), layers=1, heads=2,
        moe=MoEConfig(n_shared=1, n_routed=2, k_routed=1, expert_dim=8),
    )
    from tricodec.encoder import init_encoder_params

    enc_params = _tensorize(init_encoder_params(enc_cfg, rng))
    x0 = rng.standard_normal((4, 8))
    mix = Tensor(rng.standard_normal((4, 8)))

    def block_of_input(xt):
        return tsum(mul(transformer_encode(xt, enc_params, enc_cfg), mix))

    reports = {"block/input": grad_check(block_of_input, Tensor(x0), h=1e-4, tol=1e-4)}
    for key in ("enc.blk0.centroids", "enc.blk0.routed0.w1", "enc.blk0.attn.wq", "enc.blk0.ln1.g"):
        def block_of_param(pt, key=key):
            trial = dict(enc_params)
            trial[key] = pt
            return tsum(mul(transformer_encode(Tensor(x0), trial, enc_cfg), mix))

        reports[f"block/{key}"] = grad_check(block_of_param, Tensor(enc_params[key].data), h=1e-4, tol=1e-4)

    # (b) straight-through quantizer into decoder + mel reconstruction term
    qcfg = QuantizerConfig(codebook_size=16, speech_end=4, music_end=8)
    vq_params = _tensorize(init_quantizer_params(qcfg, 8, rng), frozen=("vq.base",))
    dec_params = _tensorize(init_decoder_params(DecoderConfig(channels=(4, 4)), 8, (2, 2), rng))
    frames0 = rng.standard_normal((300, 8))
    target = Tensor(0.1 * rng.standard_normal(300 * 4))

    def mel_of(wave):
        return reconstruction_terms(target, wave)[1]

    _, q_fwd = quantize(Tensor(frames0), vq_params, qcfg)
    q0 = q_fwd.data.copy()

    def tail_of_q(qt):
        return mel_of(decode(qt, dec_params, (2, 2)))

    reports["ste/quantized"] = grad_check(tail_of_q, Tensor(q0), h=1e-4, tol=1e-4)

    def tail_of_proj(pt):
        trial = dict(vq_params)
        trial["vq.proj"] = pt
        _, qv = quantize(Tensor(frames0), trial, qcfg)
        return mel_of(decode(qv, dec_params, (2, 2)))

    reports["ste/proj"] = grad_check(tail_of_proj, Tensor(vq_params["vq.proj"].data), h=1e-4, tol=1e-4)

    # straight-through passthrough: frames receive exactly the quantized grad
    frames_t = Tensor(frames0, requires_grad=True)
    _, q_full = quantize(frames_t, vq_params, qcfg)
    backward(mel_of(decode(q_full, dec_params, (2, 2))))
    q_in = Tensor(q0, requires_grad=True)
    backward(tail_of_q(q_in))
    ste_exact = np.array_equal(frames_t.grad, q_in.grad)

    # (c) contrastive loss with respect to the quantized vectors
    c_feats = rng.standard_normal((40, 8))
    m = np.zeros(40, dtype=bool)
    m[rng.choice(40, size=12, replace=False)] = True
    maskset = MaskSet(mask=m, starts=np.where(m)[0])
    q_c0 = rng.standard_normal((40, 8))

    def contrastive_of_q(qt):
        return contrastive_loss(qt, Tensor(c_feats), maskset, 8, np.random.default_rng(7))

    reports["contrastive/q"] = grad_check(contrastive_of_q, Tensor(q_c0), h=1e-4, tol=1e-4)

    dt = time.time() - t0
    worst = max(r.max_rel_err for r in reports.values())
    failed = sorted(k for k, r in reports.items() if not r.passed)
    ok = not failed and ste_exact and dt < 300.0
    print(
        f"A5 {'PASS' if ok else 'FAIL'}: finite-difference checks on "
        f"{len(reports)} paths (worst rel err {worst:.2e} < 1e-4 at h=1e-4"
        f"{', failing: ' + ', '.join(failed) if failed else ''}), straight-through "
        f"passthrough exact={ste_exact}, {dt:.1f}s < 300s"
    )
    assert not failed
    assert ste_exact
    assert dt < 300.0


# ---------------------------------------------------------------------------
# A6: rate arithmetic and report fields


def test_a6_rate_arithmetic(tmp_path):
    codec = Codec(CodecConfig.toy(), seed=0)
    counts = {}
    for seconds, want in ((0.5, 37), (1.0, 75), (10.0, 750)):
        clip = AudioClip(np.zeros(int(24000 * seconds)), 24000)
        counts[seconds] = (len(codec.encode(clip)), want)

    entries = []
    for i, clip in enumerate(TOY_HELD[:3]):
        p = tmp_path / f"clip{i}.wav"
        save_wav(p, clip)
        entries.append((p, clip.domain))
    report = run_eval(codec, entries)
    fields = (report.tokens_per_second, report.tokens_per_frame, report.downsample_rate)

    ok = all(got == want for got, want in counts.values()) and fields == (75, 1, 320)
    detail = ", ".join(f"{s}s -> {got} (want {want})" for s, (got, want) in sorted(counts.items()))
    print(
        f"A6 {'PASS' if ok else 'FAIL'}: token counts {detail}; report fields "
        f"tps={fields[0]}, tpf={fields[1]}, dr={fields[2]} (want 75, 1, 320)"
    )
    for got, want in counts.values():
        assert got == want
    assert fields == (75, 1, 320)


# ---------------------------------------------------------------------------
# A7: speech-only training leaves other regions' per-entry state untouched


def test_a7_update_isolation(tmp_path):
    from tricodec import checkpoint as ckpt

    speech = [c for c in TOY_TRAIN if c.domain == Domain.SPEECH]
    cfg = dc_replace(acoustic_recipe(), steps=50, checkpoint_every=50)
    res = train_stage(speech, cfg, tmp_path / "a7", model_config=CodecConfig.toy())
    before = ckpt.load_tensors(tmp_path / "a7" / "ckpt_step0.tckp")
    after = ckpt.load_tensors(res.final_checkpoint)

    qcfg = CodecConfig.toy().quantizer
    size = qcfg.codebook_size
    per_entry = sorted(
        k for k, v in after.items()
        if k.startswith(("param/", "adam_")) and v.ndim >= 1 and v.shape[0] == size
    )
    regions = {
        "music": slice(*qcfg.region(Domain.MUSIC)),
        "sound": slice(*qcfg.region(Domain.SOUND)),
    }
    mismatched = [
        f"{k}[{name}]"
        for k in per_entry
        for name, sl in regions.items()
        if before[k][sl].tobytes() != after[k][sl].tobytes()
    ]
    trainable_per_entry = [k for k in per_entry if not k.startswith("param/vq.base")]

    ok = per_entry == ["param/vq.base"] and not mismatched and not trainable_per_entry
    print(
        f"A7 {'PASS' if ok else 'FAIL'}: after 50 speech-only steps the music/sound rows of "
        f"{per_entry} are byte-identical to initialization ({len(mismatched)} mismatches); "
        f"per-entry optimizer state: {trainable_per_entry or 'none'}"
    )
    assert per_entry == ["param/vq.base"]
    assert not mismatched
    assert not trainable_per_entry


# ---------------------------------------------------------------------------
# A8: training determinism


def test_a8_determinism(a3_run, tmp_path):
    rerun = train_stage(TOY_TRAIN, acoustic_recipe(), tmp_path / "rerun", model_config=CodecConfig.toy())
    bytes_a = a3_run["result"].final_checkpoint.read_bytes()
    bytes_b = rerun.final_checkpoint.read_bytes()

    entries = []
    for i, clip in enumerate(TOY_HELD):
        p = tmp_path / f"held{i}.wav"
        save_wav(p, clip)
        entries.append((p, clip.domain))
    report_a = "\n".join(run_eval(Codec.load(a3_run["result"].final_checkpoint), entries).lines())
    report_b = "\n".join(run_eval(Codec.load(rerun.final_checkpoint), entries).lines())

    ok = bytes_a == bytes_b and report_a == report_b
    print(
        f"A8 {'PASS' if ok else 'FAIL'}: two identically seeded acoustic runs produce "
        f"byte-identical final checkpoints ({len(bytes_a)} bytes) and identical eval reports "
        f"({len(report_a)} chars)"
    )
    assert bytes_a == bytes_b
    assert report_a == report_b


# ---------------------------------------------------------------------------
# A9: masking statistics


def test_a9_mask_statistics():
    t0 = time.time()
    assert (MASK_P, MASK_SPAN) == (0.1, 5)
    rng = np.random.default_rng(909)
    bad_counts = 0
    fracs = np.empty(10000)
    for i in range(10000):
        ms = sample_mask(1000, rng)
        if len(ms.starts) != 100:
            bad_counts += 1
        fracs[i] = ms.mask.mean()

    oracle_rng = np.random.default_rng(1909)
    oracle = np.empty(10000)
    marks = np.zeros(1000, dtype=bool)
    for i in range(10000):
        marks[:] = False
        for s in oracle_rng.choice(1000, size=100, replace=False):
            marks[s : s + 5] = True
        oracle[i] = marks.mean()

    gap = abs(fracs.mean() - oracle.mean())
    dt = time.time() - t0
    ok = bad_counts == 0 and gap <= 0.01
    print(
        f"A9 {'PASS' if ok else 'FAIL'}: 10000 masks at T=1000, p=0.1, span 5 all draw "
        f"exactly 100 starts ({bad_counts} exceptions); masked fraction {fracs.mean():.4f} vs "
        f"oracle {oracle.mean():.4f} (|gap| {gap:.4f} <= 0.01), {dt:.1f}s"
    )
    assert bad_counts == 0
    assert gap <= 0.01

"""Conv front end, domain-MoE routing, and the transformer encoder."""

import math

import numpy as np
import pytest

from tricodec import encoder
from tricodec.autodiff import (
    Tensor,
    add,
    backward,
    gelu,
    grad_check,
    layer_norm,
    linear,
    mul,
    topk_gate,
    tsum,
)
from tricodec.encoder import (
    EncoderConfig,
    MoEConfig,
    conv_encode,
    encode_frames,
    init_encoder_params,
    moe_mix,
    transformer_encode,
)
from tricodec.model import CodecConfig
from tricodec.training import AdamW

CFG = EncoderConfig(
    strides=(2, 4, 5, 4, 2),
    conv_channels=(4, 8, 8, 16, 16),
    layers=1,
    heads=2,
    moe=MoEConfig(n_shared=1, n_routed=3, k_routed=1, expert_dim=16),
)


def make_params(cfg=CFG, seed=0):
    raw = init_encoder_params(cfg, np.random.default_rng(seed))
    return {k: Tensor(v, requires_grad=True) for k, v in raw.items()}


def np_gelu(x):
    from scipy.special import erf

    return 0.5 * x * (1 + erf(x / math.sqrt(2)))


def moe_oracle(u, params, prefix, cfg):
    """Literal dense implementation of the gated expert mix."""

    def expert(name):
        w1, b1 = params[f"{prefix}.{name}.w1"].data, params[f"{prefix}.{name}.b1"].data
        w2, b2 = params[f"{prefix}.{name}.w2"].data, params[f"{prefix}.{name}.b2"].data
        return np_gelu(u @ w1.T + b1) @ w2.T + b2

    cents = params[f"{prefix}.centroids"].data
    s = 1.0 / (1.0 + np.exp(-(u @ cents.T)))
    order = np.argsort(-s, axis=1, kind="stable")
    keep = np.zeros_like(s)
    np.put_along_axis(keep, order[:, : cfg.k_routed], 1.0, axis=1)
    gates = s * keep
    gates = gates / gates.sum(axis=1, keepdims=True)

    out = u.copy()
    for j in range(cfg.n_shared):
        out = out + expert(f"shared{j}")
    for j in range(cfg.n_routed):
        out = out + gates[:, j : j + 1] * expert(f"routed{j}")
    return out, gates


# ---------------------------------------------------------------------------
# MoE routing


def test_moe_ffn_matches_dense_oracle():
    rng = np.random.default_rng(1)
    params = make_params()
    for _ in range(20):
        u = rng.standard_normal((6, CFG.hidden))
        got = add(Tensor(u), moe_mix(Tensor(u), params, "enc.blk0", CFG.moe)).data
        want, _ = moe_oracle(u, params, "enc.blk0", CFG.moe)
        assert np.allclose(got, want, atol=1e-12)


def test_moe_oracle_across_expert_counts():
    rng = np.random.default_rng(2)
    for n_r, k_r, n_s in [(2, 1, 0), (4, 2, 1), (6, 3, 2), (3, 3, 1)]:
        cfg = EncoderConfig(
            strides=(2,), conv_channels=(8,), layers=1, heads=2,
            moe=MoEConfig(n_shared=n_s, n_routed=n_r, k_routed=k_r, expert_dim=8),
        )
        params = make_params(cfg, seed=n_r * 10 + k_r)
        u = rng.standard_normal((5, 8))
        got = add(Tensor(u), moe_mix(Tensor(u), params, "enc.blk0", cfg.moe)).data
        want, gates = moe_oracle(u, params, "enc.blk0", cfg.moe)
        assert np.allclose(got, want, atol=1e-12)
        assert np.allclose(gates.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((gates > 0).sum(axis=1) == k_r)


def test_moe_gate_sums_and_support():
    rng = np.random.default_rng(3)
    cents = Tensor(rng.standard_normal((5, 8)))
    gates = topk_gate(Tensor(rng.standard_normal((7, 8))), cents, 2).data
    assert gates.shape == (7, 5)
    assert np.allclose(gates.sum(axis=1), 1.0, atol=1e-12)
    assert np.all((gates > 0).sum(axis=1) == 2)


def test_moe_gate_orthogonal_tie_picks_lowest_index():
    # u orthogonal to every centroid: all affinities sigmoid(0) = 0.5,
    # top-1 must fall to expert 0 and renormalize to gate exactly 1
    cents = Tensor(np.array([[0, 1.0, 0], [0, 0, 1.0], [0, 1.0, 1.0]]))
    gates = topk_gate(Tensor(np.array([[2.0, 0, 0]])), cents, 1).data
    assert np.array_equal(gates, [[1.0, 0.0, 0.0]])


def test_moe_gate_tie_among_equal_affinities():
    cents = Tensor(np.zeros((4, 6)))  # all affinities 0.5 regardless of u
    gates = topk_gate(Tensor(np.ones((3, 6))), cents, 2).data
    assert np.array_equal(gates, np.tile([0.5, 0.5, 0, 0], (3, 1)))


def test_moe_mix_has_no_residual_but_ffn_does():
    rng = np.random.default_rng(5)
    params = make_params()
    u = rng.standard_normal((4, CFG.hidden))
    mix = moe_mix(Tensor(u), params, "enc.blk0", CFG.moe).data
    ffn = add(Tensor(u), moe_mix(Tensor(u), params, "enc.blk0", CFG.moe)).data
    want, _ = moe_oracle(u, params, "enc.blk0", CFG.moe)
    assert np.allclose(mix, want - u, atol=1e-12)
    assert np.allclose(ffn, want, atol=1e-12)


def test_moe_gate_gradient_flows_to_centroids():
    rng = np.random.default_rng(6)
    cents = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    u = Tensor(rng.standard_normal((5, 8)))
    backward(tsum(mul(topk_gate(u, cents, 2), Tensor(rng.standard_normal((5, 3))))))
    assert cents.grad is not None
    assert np.any(cents.grad != 0)


def dense_moe_mix(u, params, prefix, cfg):
    """Graph of the dense form: every routed expert on every row, scaled by
    its gate, zero gates included."""

    def expert(name):
        h = gelu(linear(u, params[f"{prefix}.{name}.w1"], params[f"{prefix}.{name}.b1"]))
        return linear(h, params[f"{prefix}.{name}.w2"], params[f"{prefix}.{name}.b2"])

    gates = topk_gate(u, params[f"{prefix}.centroids"], cfg.k_routed)
    mix = None
    for name in [f"shared{j}" for j in range(cfg.n_shared)]:
        mix = expert(name) if mix is None else add(mix, expert(name))
    for j in range(cfg.n_routed):
        weighted = mul(expert(f"routed{j}"), gates[:, j : j + 1])
        mix = weighted if mix is None else add(mix, weighted)
    return mix


def moe_grads(mix_fn, cfg, u, readout, cents=None):
    """Gradients of sum(readout * mix) for u, the router centroids and
    every expert weight; None where the graph never reached a weight."""
    params = make_params(cfg, seed=31)
    if cents is not None:
        params["enc.blk0.centroids"] = Tensor(cents, requires_grad=True)
    ut = Tensor(u, requires_grad=True)
    backward(tsum(mul(mix_fn(ut, params, "enc.blk0", cfg.moe), Tensor(readout))))
    grads = {k: p.grad for k, p in params.items() if k.endswith((".centroids", ".w1", ".b1", ".w2", ".b2"))}
    return ut.grad, grads, params


def moe_cfg(n_shared, k):
    return EncoderConfig(
        strides=(2,), conv_channels=(8,), layers=1, heads=2,
        moe=MoEConfig(n_shared=n_shared, n_routed=3, k_routed=k, expert_dim=8),
    )


@pytest.mark.parametrize("n_shared,k", [(0, 1), (1, 1), (1, 2)])
def test_sparse_moe_grads_match_dense_graph(n_shared, k):
    cfg = moe_cfg(n_shared, k)
    rng = np.random.default_rng(40 + 10 * n_shared + k)
    u, readout = rng.standard_normal((24, 8)), rng.standard_normal((24, 8))
    gu, got, _ = moe_grads(moe_mix, cfg, u, readout)
    wu, want, _ = moe_grads(dense_moe_mix, cfg, u, readout)
    # the premise: every routed expert has rows, so every parameter has a gradient
    assert all(g is not None for g in got.values())
    np.testing.assert_allclose(gu, wu, rtol=1e-10)
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)


def test_unselected_routed_expert_gets_no_grad_and_adamw_treats_it_as_zero():
    cfg = moe_cfg(1, 1)
    rng = np.random.default_rng(44)
    u, readout = rng.standard_normal((24, 8)), rng.standard_normal((24, 8))
    cents = rng.standard_normal((3, 8))
    cents[2] = cents[0]  # equal affinities; the tie goes to expert 0, so top-1 never picks 2
    gu, got, params = moe_grads(moe_mix, cfg, u, readout, cents)
    wu, want, _ = moe_grads(dense_moe_mix, cfg, u, readout, cents)
    gates = topk_gate(Tensor(u), params["enc.blk0.centroids"], 1).data
    assert not gates[:, 2].any() and gates[:, 0].any() and gates[:, 1].any()
    np.testing.assert_allclose(gu, wu, rtol=1e-10)
    unused = [f"enc.blk0.routed2.{w}" for w in ("w1", "b1", "w2", "b2")]
    for name in want:
        if name in unused:
            assert got[name] is None and not want[name].any(), name
        else:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, err_msg=name)
    for name in unused:
        absent = params[name]
        explicit = Tensor(absent.data.copy(), requires_grad=True)
        explicit.grad = np.zeros_like(absent.data)
        AdamW({name: absent}).step(1e-3)
        AdamW({name: explicit}).step(1e-3)
        assert np.array_equal(absent.data, explicit.data), name


def test_routed_experts_run_only_on_selected_rows(monkeypatch):
    cfg = EncoderConfig(
        strides=(2,), conv_channels=(8,), layers=2, heads=2,
        moe=MoEConfig(n_shared=2, n_routed=4, k_routed=2, expert_dim=8),
    )
    rows = {}
    expert_ffn = encoder._expert_ffn

    def counting(u, params, prefix):
        block, kind = prefix.rsplit(".", 1)
        key = (block, kind.rstrip("0123456789"))
        rows[key] = rows.get(key, 0) + u.shape[0]
        return expert_ffn(u, params, prefix)

    monkeypatch.setattr(encoder, "_expert_ffn", counting)
    t = 13
    transformer_encode(Tensor(np.random.default_rng(45).standard_normal((t, 8))), make_params(cfg), cfg)
    for i in range(cfg.layers):
        assert rows[(f"enc.blk{i}", "routed")] == cfg.moe.k_routed * t
        assert rows[(f"enc.blk{i}", "shared")] == cfg.moe.n_shared * t


def test_transformer_encode_calls_moe_mix_once_per_block(monkeypatch):
    # the benchmark's encoder.moe_mix span wraps this module attribute
    cfg = CodecConfig.toy().encoder
    calls = []
    mix = encoder.moe_mix
    monkeypatch.setattr(encoder, "moe_mix", lambda *a, **k: calls.append(1) or mix(*a, **k))
    params = make_params(cfg)
    transformer_encode(Tensor(np.random.default_rng(46).standard_normal((7, cfg.hidden))), params, cfg)
    assert len(calls) == cfg.layers


def test_moe_config_validation():
    with pytest.raises(ValueError):
        MoEConfig(n_routed=2, k_routed=3)
    with pytest.raises(ValueError):
        MoEConfig(k_routed=0)


# ---------------------------------------------------------------------------
# conv front end


def test_conv_encode_frame_law():
    params = make_params()
    for n in (320, 321, 640, 959, 24000):
        out = conv_encode(np.zeros(n), params, CFG)
        assert out.shape == (n // 320, CFG.hidden)


def test_conv_encode_rejects_short_and_2d():
    params = make_params()
    with pytest.raises(ValueError):
        conv_encode(np.zeros(319), params, CFG)
    with pytest.raises(Exception):
        conv_encode(np.zeros((2, 320)), params, CFG)


def test_conv_encode_preserves_float32():
    params = {k: Tensor(v.data.astype(np.float32)) for k, v in make_params().items()}
    out = conv_encode(np.zeros(640, dtype=np.float32), params, CFG)
    assert out.dtype == np.float32


# ---------------------------------------------------------------------------
# transformer


def test_transformer_identity_when_block_outputs_zeroed():
    rng = np.random.default_rng(7)
    params = make_params()
    params["enc.blk0.attn.wo"] = Tensor(np.zeros((CFG.hidden, CFG.hidden)))
    for j in range(CFG.moe.n_shared):
        params[f"enc.blk0.shared{j}.w2"] = Tensor(np.zeros((CFG.hidden, CFG.moe.expert_dim)))
    for j in range(CFG.moe.n_routed):
        params[f"enc.blk0.routed{j}.w2"] = Tensor(np.zeros((CFG.hidden, CFG.moe.expert_dim)))
    x = rng.standard_normal((9, CFG.hidden))
    out = transformer_encode(Tensor(x), params, CFG)
    want = layer_norm(Tensor(x), params["enc.final_ln.g"], params["enc.final_ln.b"])
    assert np.array_equal(out.data, want.data)


def test_transformer_shape_preserved():
    rng = np.random.default_rng(8)
    params = make_params()
    out = transformer_encode(Tensor(rng.standard_normal((11, CFG.hidden))), params, CFG)
    assert out.shape == (11, CFG.hidden)


def test_encoder_block_grad_check():
    rng = np.random.default_rng(9)
    params = make_params()

    def f(x):
        out = transformer_encode(x, params, CFG)
        return tsum(mul(out, out))

    rep = grad_check(f, Tensor(rng.standard_normal((5, CFG.hidden))))
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# full encoder pass and masking


def test_encode_frames_shapes_and_targets():
    rng = np.random.default_rng(10)
    params = make_params()
    x = rng.standard_normal(960)
    frames, conv = encode_frames(x, params, CFG)
    assert frames.shape == (3, CFG.hidden)
    assert conv.shape == (3, CFG.hidden)


def test_encode_frames_mask_replaces_only_masked_rows():
    rng = np.random.default_rng(11)
    params = make_params()
    x = rng.standard_normal(3200)
    mask = np.zeros(10, dtype=bool)
    mask[2:5] = True

    frames_m, conv_m = encode_frames(x, params, CFG, mask=mask)
    frames_u, conv_u = encode_frames(x, params, CFG)
    # returned conv targets are never masked
    assert np.array_equal(conv_m.data, conv_u.data)
    # masking changes the transformer output
    assert not np.allclose(frames_m.data, frames_u.data)


def test_encode_frames_mask_embedding_reaches_transformer():
    rng = np.random.default_rng(12)
    params = make_params()
    x = rng.standard_normal(1600)
    mask = np.array([True, True, True, True, True])
    frames_a, _ = encode_frames(x, params, CFG, mask=mask)
    # all-masked input equals running the transformer on pure mask embeddings
    emb = params["enc.mask_embed"]
    stacked = Tensor(np.tile(emb.data, (5, 1)))
    want = transformer_encode(stacked, params, CFG)
    assert np.allclose(frames_a.data, want.data, atol=1e-12)


def test_encode_frames_bad_mask_shape():
    params = make_params()
    with pytest.raises(Exception) as e:
        encode_frames(np.zeros(960), params, CFG, mask=np.zeros(5, dtype=bool))
    assert "mask" in str(e.value)


def test_mask_grad_reaches_embedding():
    rng = np.random.default_rng(13)
    params = make_params()
    x = rng.standard_normal(1280)
    mask = np.array([True, False, True, False])
    frames, _ = encode_frames(x, params, CFG, mask=mask)
    backward(tsum(mul(frames, frames)))
    assert params["enc.mask_embed"].grad is not None
    assert np.any(params["enc.mask_embed"].grad != 0)


# ---------------------------------------------------------------------------
# config validation


def test_encoder_config_validation():
    with pytest.raises(ValueError):
        EncoderConfig(conv_channels=(4, 8), strides=(2, 4, 5))
    with pytest.raises(ValueError):
        EncoderConfig(conv_channels=(4, 8), strides=(2, 4), heads=3)
    for bad in ({"strides": (2, 0)}, {"conv_channels": (0, 8)}, {"heads": 0}, {"layers": -1}):
        with pytest.raises(ValueError):
            EncoderConfig(**{"conv_channels": (4, 8), "strides": (2, 4), **bad})
    assert EncoderConfig(conv_channels=(4, 8), strides=(2, 4), layers=0).layers == 0


def test_encoder_downsample_product():
    assert CFG.downsample == 320
    assert EncoderConfig().downsample == 320


def test_init_deterministic_and_keyed():
    a = init_encoder_params(CFG, np.random.default_rng(0))
    b = init_encoder_params(CFG, np.random.default_rng(0))
    assert a.keys() == b.keys()
    for k in a:
        assert np.array_equal(a[k], b[k]), k
    assert all(k.startswith("enc.") for k in a)
    assert all(v.dtype == np.float64 for v in a.values())

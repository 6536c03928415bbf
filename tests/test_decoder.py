"""Transposed-conv decoder: length law, shapes, gradients."""

import numpy as np
import pytest

from tricodec.autodiff import ShapeError, Tensor, grad_check, mul, tsum
from tricodec.decoder import DecoderConfig, decode, init_decoder_params

CFG = DecoderConfig(channels=(16, 16, 8, 8, 4))
STRIDES = (2, 4, 5, 4, 2)


def make_params(seed=0, cfg=CFG, hidden=16, strides=STRIDES):
    raw = init_decoder_params(cfg, hidden, strides, np.random.default_rng(seed))
    return {k: Tensor(v, requires_grad=True) for k, v in raw.items()}


def test_length_law_exact():
    params = make_params()
    for t in (1, 2, 3, 7, 75):
        out = decode(Tensor(np.random.default_rng(t).standard_normal((t, 16))), params, STRIDES)
        assert out.shape == (320 * t,)


def test_output_range_open_interval():
    rng = np.random.default_rng(1)
    params = make_params()
    out = decode(Tensor(rng.standard_normal((4, 16)) * 10), params, STRIDES).data
    assert np.all(out > -1.0) and np.all(out < 1.0)


def test_upsample_product():
    # the output is as long as the product of the strides it is given
    params = make_params(cfg=DecoderConfig(channels=(4, 4)), hidden=8, strides=(5, 3))
    out = decode(Tensor(np.random.default_rng(5).standard_normal((4, 8))), params, (5, 3))
    assert out.shape == (15 * 4,)


def test_rejects_bad_shapes():
    params = make_params()
    with pytest.raises(ShapeError):
        decode(Tensor(np.zeros((3,))), params, STRIDES)
    with pytest.raises(ShapeError):
        decode(Tensor(np.zeros((3, 8))), params, STRIDES)  # hidden mismatch
    with pytest.raises(ValueError):
        decode(Tensor(np.zeros((0, 16))), params, STRIDES)


def test_decode_grad_check():
    rng = np.random.default_rng(2)
    params = make_params(cfg=DecoderConfig(channels=(4, 4)), hidden=8, strides=(2, 2))

    def f(q):
        out = decode(q, params, (2, 2))
        return tsum(mul(out, out))

    rep = grad_check(f, Tensor(rng.standard_normal((3, 8))))
    assert rep.passed, str(rep)


def test_decode_weight_grads_flow():
    from tricodec.autodiff import backward

    rng = np.random.default_rng(3)
    params = make_params()
    out = decode(Tensor(rng.standard_normal((2, 16))), params, STRIDES)
    backward(tsum(mul(out, out)))
    for name, p in params.items():
        assert p.grad is not None, name


def test_decode_deterministic():
    rng = np.random.default_rng(4)
    params = make_params()
    q = rng.standard_normal((5, 16))
    a = decode(Tensor(q), params, STRIDES).data
    b = decode(Tensor(q.copy()), params, STRIDES).data
    assert np.array_equal(a, b)

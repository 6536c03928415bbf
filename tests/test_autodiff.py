"""Gradient and shape contracts for the reverse-mode tensor core."""

import ast
import os
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from tricodec.autodiff import (
    AutodiffError,
    NonFiniteError,
    ShapeError,
    Tensor,
    add,
    backward,
    conv1d,
    conv1d_transpose,
    index_add_rows,
    info_nce,
    gelu,
    grad_check,
    l1_distance,
    layer_norm,
    linear,
    masked_fill_rows,
    mul,
    no_grad,
    passthrough,
    rope_attention,
    sq_distance,
    stft_mag,
    tanh,
    topk_gate,
    tsum,
)
from tricodec import autodiff


def rand(rng, *shape):
    return rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# definitional forward values


def test_gelu_zero_is_zero():
    assert float(gelu(Tensor(np.array(0.0))).data) == 0.0


def test_gelu_matches_erf_form():
    from math import erf, sqrt

    x = np.linspace(-4, 4, 33)
    got = gelu(Tensor(x)).data
    want = np.array([0.5 * v * (1 + erf(v / sqrt(2))) for v in x])
    assert np.allclose(got, want, atol=1e-12)


def test_gelu_float32_within_rounding_of_erf_form():
    from scipy.special import erf

    x = np.concatenate([np.linspace(-10, 10, 200_001), [0.0, -0.0, 30.0, -30.0]]).astype(np.float32)
    got = gelu(Tensor(x)).data
    assert got.dtype == np.float32 and np.all(np.isfinite(got))
    assert gelu(Tensor(np.array(0.0, dtype=np.float32))).data == 0.0
    x64 = x.astype(np.float64)
    want = x64 * 0.5 * (1.0 + erf(x64 / np.sqrt(2.0)))
    err = np.abs(got - want) / np.maximum(1.0, np.abs(x64))
    assert err.max() <= 1e-6, f"max scaled error {err.max():.3e} at x = {x[np.argmax(err)]}"


def phi_float32_one_pass(x):
    """A&S 7.1.26 Phi of a float32 array in one pass over the whole array,
    in ``_phi_float32``'s order of operations."""
    a = np.abs(x)
    t = 1.0 / (a * (autodiff._AS_P * autodiff._INV_SQRT2) + 1.0)
    q = t * (-0.5 * autodiff._AS_A[4])
    for coef in autodiff._AS_A[3::-1]:
        q = (q + -0.5 * coef) * t
    with np.errstate(over="ignore"):
        e = np.exp(np.square(x) * -0.5)
    return np.copysign(q * e + 0.5, x) + 0.5


def test_phi_float32_slices_match_one_pass_to_the_bit():
    # sizes around the slice length, a partial last slice, a 0-d input and
    # a decoder-sized 2-d array
    n = autodiff._PHI_SLICE
    rng = np.random.default_rng(6)
    for shape in [(), (1,), (n - 1,), (n,), (n + 1,), (3 * n + 5,), (72000, 32)]:
        x = rng.normal(0.0, 4.0, shape).astype(np.float32)
        got = autodiff._phi_float32(x)
        assert got.shape == x.shape and got.dtype == np.float32
        assert np.array_equal(got, phi_float32_one_pass(x)), shape


def test_gelu_float64_is_the_scipy_erf_form():
    from scipy.special import erf

    x = np.random.default_rng(3).normal(0.0, 3.0, (64, 33))
    cdf = erf(x * (1.0 / np.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5
    assert np.array_equal(gelu(Tensor(x)).data, x * cdf)


def test_scipy_loads_only_with_the_first_float64_gelu():
    # a float32 process (every cli command) never needs scipy.special, whose
    # import alone took about a quarter of a second of each cold start
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import tricodec.cli\n"
        "from tricodec.autodiff import Tensor, gelu\n"
        "scipy = lambda: sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(scipy())\n"
        "gelu(Tensor(np.linspace(-3.0, 3.0, 7, dtype=np.float32)))\n"
        "print(scipy())\n"
        "gelu(Tensor(np.linspace(-3.0, 3.0, 7)))\n"
        "print('scipy.special' in scipy())\n"
    )
    src = str(Path(autodiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["[]", "[]", "True"]


def test_gelu_backward_is_the_plain_expression_to_the_bit():
    from scipy.special import erf

    rng = np.random.default_rng(5)
    x, g = rng.normal(0.0, 3.0, (64, 33)), rng.standard_normal((64, 33))
    cdf = erf(x * (1.0 / np.sqrt(2.0)))
    cdf += 1.0
    cdf *= 0.5
    want = g * (cdf + x * (autodiff._INV_SQRT2PI * np.exp(-0.5 * x * x)))
    xt = Tensor(x, requires_grad=True)
    backward(tsum(mul(gelu(xt), Tensor(g))))
    assert np.array_equal(xt.grad, want)
    # a 0-d input: the slope of x Phi(x) at 0.7 is Phi(0.7) + 0.7 pdf(0.7)
    x0 = Tensor(np.array(0.7), requires_grad=True)
    backward(gelu(x0))
    want0 = 0.5 * (1.0 + erf(0.7 / np.sqrt(2.0))) + 0.7 * np.exp(-0.245) / np.sqrt(2.0 * np.pi)
    assert x0.grad.shape == () and abs(float(x0.grad) - want0) < 1e-15


def test_conv1d_kernel_one_identity():
    rng = np.random.default_rng(1)
    x = Tensor(rand(rng, 20, 1))
    w = Tensor(np.ones((1, 1, 1)))
    out = conv1d(x, w, Tensor(np.zeros(1)), stride=1, padding=0)
    assert np.allclose(out.data, x.data)


def test_conv1d_stride_framing():
    rng = np.random.default_rng(2)
    # kernel 2s with pad (s//2, s - s//2) maps T to floor(T/s)
    for t, s in [(20, 2), (21, 3), (40, 5)]:
        x = Tensor(rand(rng, t, 1))
        w = Tensor(rand(rng, 4, 1, 2 * s))
        out = conv1d(x, w, Tensor(np.zeros(4)), stride=s, padding=(s // 2, s - s // 2))
        assert out.shape == (t // s, 4)


def test_conv1d_value_oracle():
    rng = np.random.default_rng(3)
    x = rand(rng, 9, 2)
    w = rand(rng, 3, 2, 4)
    b = rand(rng, 3)
    out = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=2, padding=1).data
    xp = np.pad(x, ((1, 1), (0, 0)))
    t_out = (xp.shape[0] - 4) // 2 + 1
    want = np.zeros((t_out, 3))
    for o in range(3):
        for j in range(t_out):
            want[j, o] = np.sum(xp[2 * j : 2 * j + 4, :].T * w[o]) + b[o]
    assert np.allclose(out, want, atol=1e-12)


def test_conv1d_transpose_value_oracle():
    rng = np.random.default_rng(4)
    x = rand(rng, 6, 2)
    w = rand(rng, 2, 3, 4)
    out = conv1d_transpose(Tensor(x), Tensor(w), Tensor(np.zeros(3)), stride=2).data
    want = np.zeros(((6 - 1) * 2 + 4, 3))
    for j in range(6):
        for c in range(2):
            want[2 * j : 2 * j + 4, :] += x[j, c] * w[c].T
    assert np.allclose(out, want, atol=1e-12)


def test_layer_norm_standardizes():
    rng = np.random.default_rng(5)
    x = Tensor(rand(rng, 6, 32) * 3 + 2)
    out = layer_norm(x, Tensor(np.ones(32)), Tensor(np.zeros(32))).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-4)


def layer_norm_reference(x, gain, bias):
    """The normalization as a chain of numpy ops, in the op's order."""
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-5)
    return centered * inv * gain + bias


def test_layer_norm_matches_numpy_reference():
    rng = np.random.default_rng(24)
    for shape in [(1, 8), (9, 16), (4, 64)]:
        x, gain, bias = rand(rng, *shape) * 3 + 1, rand(rng, shape[-1]), rand(rng, shape[-1])
        got = layer_norm(Tensor(x), Tensor(gain), Tensor(bias)).data
        assert np.array_equal(got, layer_norm_reference(x, gain, bias)), shape


# ---------------------------------------------------------------------------
# backward basics


def test_sum_grad_is_ones():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    backward(tsum(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_dot_grad_is_two_x():
    rng = np.random.default_rng(8)
    xv = rand(rng, 7)
    x = Tensor(xv, requires_grad=True)
    backward(tsum(mul(x, x)))
    assert np.allclose(x.grad, 2 * xv, atol=1e-12)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(AutodiffError):
        backward(add(x, x))


def test_grad_accumulates():
    x = Tensor(np.ones(4), requires_grad=True)
    backward(tsum(x))
    backward(tsum(x))
    assert np.allclose(x.grad, 2.0)


def test_reused_subexpression_grad():
    # y = x*x + x*x must give 4x, exercising grad accumulation at a fork
    xv = np.array([1.5, -2.0, 0.5])
    x = Tensor(xv, requires_grad=True)
    y = mul(x, x)
    backward(tsum(add(y, y)))
    assert np.allclose(x.grad, 4 * xv, atol=1e-12)


def test_mlp_matches_finite_differences():
    rng = np.random.default_rng(9)
    w1, b1 = rand(rng, 8, 6), rand(rng, 8)
    w2, b2 = rand(rng, 4, 8), rand(rng, 4)
    w3, b3 = rand(rng, 1, 4), rand(rng, 1)

    def f(x):
        h1 = gelu(linear(x, Tensor(w1), Tensor(b1)))
        h2 = tanh(linear(h1, Tensor(w2), Tensor(b2)))
        return tsum(linear(h2, Tensor(w3), Tensor(b3)))

    rep = grad_check(f, Tensor(rand(rng, 3, 6)))
    assert rep.passed, str(rep)


def test_mlp_weight_grads_match_finite_differences():
    rng = np.random.default_rng(10)
    x = rand(rng, 3, 6)
    b1 = rand(rng, 8)
    w2 = rand(rng, 1, 8)

    def f(w):
        return add(
            tsum(tanh(linear(Tensor(x), w, Tensor(b1)))),
            tsum(linear(gelu(linear(Tensor(x), w, Tensor(b1))), Tensor(w2))),
        )

    rep = grad_check(f, Tensor(rand(rng, 8, 6)))
    assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# grad_check harness itself


def test_grad_check_quadratic_near_exact():
    rng = np.random.default_rng(11)
    rep = grad_check(lambda x: mul(Tensor(np.array(0.5)), tsum(mul(x, x))), Tensor(rand(rng, 10)))
    assert rep.passed
    assert rep.max_rel_err < 1e-8


def test_grad_check_gelu_linear_stack():
    rng = np.random.default_rng(12)
    w = Tensor(rand(rng, 5, 5))

    def f(x):
        return tsum(gelu(linear(gelu(linear(x, w)), w)))

    rep = grad_check(f, Tensor(rand(rng, 4, 5)))
    assert rep.passed, str(rep)
    assert rep.max_rel_err < 1e-4


def test_grad_check_excludes_topk_kink():
    # |x - 0| at x = 1e-9 sits on its kink: the central difference straddles
    # 0 and disagrees with the analytic slope, so the second-difference
    # filter must flag and exclude that coordinate rather than fail
    rep = grad_check(lambda t: l1_distance(t, Tensor(np.zeros(3))), Tensor(np.array([1e-9, 1.0, -3.0])))
    assert rep.kink_coords == [0]
    assert rep.passed, str(rep)


def test_grad_check_reports_wrong_gradient():
    # f(x) = x . x, but x reaches one factor only through a leaf copy of its
    # data, so the analytic gradient is x while finite differences see 2x
    def f(x):
        return tsum(mul(x, Tensor(x.data.copy())))

    rep = grad_check(f, Tensor(np.array([1.0, 2.0])))
    assert not rep.passed


# ---------------------------------------------------------------------------
# every op's backward rule on >= 3 random shapes


def cycle_candidates(n):
    """Candidate rows for ``info_nce`` on n steps: each step, then the next
    one twice, so a c row appears in several rows and twice in one."""
    return (np.arange(n)[:, None] + np.array([0, 1, 1])) % n


OPS = [
    ("add", lambda x, y: add(x, y), 2),
    ("mul", lambda x, y: mul(x, y), 2),
    ("tanh", lambda x: tanh(x), 1),
    ("gelu", lambda x: gelu(x), 1),
    ("tsum", lambda x: tsum(x, axis=0, keepdims=True), 1),
    ("linear", lambda x, y: linear(x, y), 2),
    # x reaches the weight and the bias too, so all three backward outputs are checked
    ("linear_bias", lambda x, y: linear(x, mul(x, y), x[:, 0]), 2),
    # y is the centroids: as many experts as x has rows
    ("topk_gate", lambda x, y: topk_gate(x, y, 2), 2),
    ("layer_norm", lambda x: layer_norm(x, Tensor(np.ones(x.shape[-1])), Tensor(np.zeros(x.shape[-1]))), 1),
    # x reaches both operands, so both backward outputs are checked
    ("index_add_rows", lambda x, y: index_add_rows(x, np.array([x.shape[0] - 1, 0]), mul(x[:2], y[:2])), 2),
    ("masked_fill_rows", lambda x, y: masked_fill_rows(x, np.arange(x.shape[0]) % 2 == 0, mul(x[-1], y[0])), 2),
    # the forwarded operand; the straight-through side has no finite-difference
    # counterpart (test_passthrough_forwards_y_and_grads_both checks it)
    ("passthrough", lambda x, y: passthrough(y, x), 2),
    # y + 8 keeps every entry of x - y far from the kink at 0
    ("l1_distance", lambda x, y: l1_distance(x, add(y, Tensor(np.full(y.shape, 8.0)))), 2),
    ("sq_distance", lambda x, y: sq_distance(x, y.data), 2),
    # x is both the queries and the candidates
    ("info_nce", lambda x, y: info_nce(mul(x, y), x, cycle_candidates(x.shape[0]), 0.5), 2),
]


@pytest.mark.parametrize("name,op,arity", OPS, ids=[o[0] for o in OPS])
def test_op_backward_three_shapes(name, op, arity):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    for shape in [(3, 4), (2, 6), (4, 4)]:
        other = Tensor(rand(rng, *shape))

        def f(x):
            out = op(x, other) if arity == 2 else op(x)
            return tsum(mul(out, out))

        rep = grad_check(f, Tensor(rand(rng, *shape)))
        assert rep.passed, f"{name} {shape}: {rep}"


# ops without an OPS row, each with the test that grad_checks it
OWN_GRAD_CHECK = {
    "conv1d": "test_conv1d_grad_check_grid",
    "conv1d_transpose": "test_conv1d_transpose_grad_check_grid",
    "rope_attention": "test_rope_attention_grad",
    "stft_mag": "test_stft_mag_grad_overlapping_frames",
}
NOT_OPS = {"Tensor", "AutodiffError", "ShapeError", "NonFiniteError", "backward", "grad_check",
           "GradCheckReport", "no_grad", "frame_chunks"}


def test_every_op_has_a_grad_check():
    ops = set(autodiff.__all__) - NOT_OPS
    covered = {name for name, _, _ in OPS} | set(OWN_GRAD_CHECK)
    assert ops - covered == set(), "ops without a grad_check"
    assert set(OWN_GRAD_CHECK) <= ops
    assert all(test in globals() for test in OWN_GRAD_CHECK.values())


# ops the codec itself never calls: the tests' scalar read-out
UNUSED_BY_CODEC = {"tsum"}


def test_every_op_is_called_by_the_codec():
    # an op that only its own tests call is dead code
    src = Path(autodiff.__file__).parent
    called = set()
    for path in src.glob("*.py"):
        if path.name == "autodiff.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                called.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    ops = set(autodiff.__all__) - NOT_OPS
    assert ops - UNUSED_BY_CODEC - called == set(), "ops no codec module calls"
    assert UNUSED_BY_CODEC <= ops - called


# ---------------------------------------------------------------------------
# the MoE router's gate


def topk_gate_reference(u, c, k):
    """The gates as the chain of numpy ops the router ran before it was one
    op: logits, overflow-safe sigmoid, stable top-k mask, renormalization."""
    a = u @ c.T
    e = np.exp(-np.abs(a))
    s = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    keep = np.zeros_like(s)
    np.put_along_axis(keep, np.argsort(-s, axis=1, kind="stable")[:, :k], 1.0, axis=1)
    kept = s * keep
    return kept / kept.sum(axis=1, keepdims=True)


def test_topk_gate_matches_numpy_chain():
    rng = np.random.default_rng(30)
    for t, n, d, k in [(1, 3, 4, 1), (7, 5, 8, 2), (9, 4, 6, 3), (5, 4, 6, 4)]:
        for dtype in (np.float64, np.float32):
            u, c = rand(rng, t, d).astype(dtype), rand(rng, n, d).astype(dtype)
            got = topk_gate(Tensor(u), Tensor(c), k).data
            assert got.dtype == dtype and np.array_equal(got, topk_gate_reference(u, c, k)), (t, n, k, dtype)


@pytest.mark.parametrize("k,n", [(2, 3), (2, 5), (3, 4)])
def test_topk_gate_grad_check_both_operands(k, n):
    rng = np.random.default_rng(30 + 10 * k + n)
    grad_check_each_operand(topk_gate, (rand(rng, 6, 4), rand(rng, n, 4)), (6, n), rng, k=k)


def test_topk_gate_passes_exactly_zero_gradient_at_k1():
    rng = np.random.default_rng(31)
    u = Tensor(rand(rng, 6, 5), requires_grad=True)
    c = Tensor(rand(rng, 4, 5), requires_grad=True)
    gates = topk_gate(u, c, 1)
    assert np.array_equal(np.sort(gates.data, axis=1)[:, -1], np.ones(6))
    backward(tsum(mul(gates, Tensor(rand(rng, 6, 4)))))
    assert np.array_equal(u.grad, np.zeros((6, 5)))
    assert np.array_equal(c.grad, np.zeros((4, 5)))


def test_topk_gate_rejects_bad_shapes_and_k():
    u, c = Tensor(np.ones((3, 4))), Tensor(np.ones((5, 4)))
    for args in [(u, Tensor(np.ones((5, 3))), 2), (Tensor(np.ones(4)), c, 2), (u, c, 0), (u, c, 6)]:
        with pytest.raises(ShapeError):
            topk_gate(*args)


# ---------------------------------------------------------------------------
# the loss-term ops


def test_l1_distance_matches_numpy_composite():
    rng = np.random.default_rng(13)
    for shape in [(7,), (3, 5), (40, 64)]:
        a, b = rand(rng, *shape), rand(rng, *shape)
        assert np.array_equal(l1_distance(Tensor(a), Tensor(b)).data, np.asarray(np.abs(a - b).mean())), shape
    assert float(l1_distance(Tensor(a), Tensor(a.copy())).data) == 0.0


def test_l1_distance_grad_away_from_ties():
    rng = np.random.default_rng(14)
    for shape in [(5,), (3, 3), (2, 4)]:
        a = rand(rng, *shape)
        b = a + np.sign(rand(rng, *shape)) * (0.5 + np.abs(rand(rng, *shape)))
        grad_check_each_operand(l1_distance, (a, b), (), rng)


def test_sq_distance_matches_numpy_composite():
    rng = np.random.default_rng(15)
    for shape in [(1, 3), (6, 8), (75, 16)]:
        a, t = rand(rng, *shape), rand(rng, *shape)
        want = np.asarray(((a - t) * (a - t)).sum(axis=-1).mean())
        assert np.array_equal(sq_distance(Tensor(a), t).data, want), shape


def test_stop_gradient_blocks():
    # sq_distance's target is plain data: a tensor's data passed as the
    # target leaves that tensor out of the graph, the stop-gradient of the
    # commitment and alignment terms
    x = Tensor(np.array([[3.0, 1.0]]), requires_grad=True)
    y = Tensor(np.array([[1.0, 1.0]]), requires_grad=True)
    backward(sq_distance(x, y.data))
    assert np.array_equal(x.grad, np.array([[4.0, 0.0]]))
    assert y.grad is None


def info_nce_composite(q, c, cand, tau):
    """The masked contrastive loss as the numpy chain the fused op replaces:
    gather, cosine similarity with norms floored at 1e-12, divide by the
    temperature, logsumexp, minus the positive logit, mean."""
    qm = q[cand[:, 0]][:, None, :]
    cc = c[cand]
    dot = (qm * cc).sum(axis=-1)
    na = np.sqrt((qm * qm).sum(axis=-1) + 1e-24)
    nb = np.sqrt((cc * cc).sum(axis=-1) + 1e-24)
    logits = dot / (na * nb) / tau
    shift = logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(logits - shift).sum(axis=-1)) + shift[:, 0]
    return np.asarray((lse - logits[:, 0]).mean())


def test_info_nce_matches_numpy_composite():
    rng = np.random.default_rng(17)
    for t, d, k in [(4, 3, 1), (12, 8, 5), (60, 16, 30)]:
        q, c = rand(rng, t, d), rand(rng, t, d)
        cand = np.stack([np.concatenate([[i], rng.choice(t, size=k)]) for i in range(t)])
        for tau in (0.1, 1e-3):
            got = info_nce(Tensor(q), Tensor(c), cand, tau).data
            assert np.array_equal(got, info_nce_composite(q, c, cand, tau)), (t, d, k, tau)


def test_info_nce_large_logits_stable():
    # at temperature 1e-3 two candidates equal to the query have logit 1000
    # and an orthogonal one 0: the loss is log(2 + e^-1000) = log 2, where an
    # unshifted exp would overflow
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = float(info_nce(Tensor(q), Tensor(q), np.array([[0, 0, 1]]), 1e-3).data)
    assert abs(loss - np.log(2.0)) < 1e-12


def test_info_nce_grad_in_q_and_c_with_repeated_candidates():
    rng = np.random.default_rng(18)
    for t, d in [(2, 3), (5, 4), (8, 6)]:
        cand = cycle_candidates(t)
        grad_check_each_operand(info_nce, (rand(rng, t, d), rand(rng, t, d)), (), rng, cand=cand, temperature=0.3)


def ones(*shape):
    return Tensor(np.ones(shape))


BAD_LOSS_CALLS = {
    "l1 transposed": lambda: l1_distance(ones(2, 3), ones(3, 2)),
    "l1 broadcast": lambda: l1_distance(ones(4), ones(1, 4)),
    "sq width": lambda: sq_distance(ones(2, 3), np.ones((2, 4))),
    "sq 1-D": lambda: sq_distance(ones(3), np.ones(3)),
    "nce width": lambda: info_nce(ones(4, 3), ones(4, 2), np.zeros((2, 2), dtype=int), 0.1),
    "nce 1-D cand": lambda: info_nce(ones(4, 3), ones(4, 3), np.zeros(4, dtype=int), 0.1),
    "nce no rows": lambda: info_nce(ones(4, 3), ones(4, 3), np.zeros((0, 2), dtype=int), 0.1),
    "nce past end": lambda: info_nce(ones(4, 3), ones(4, 3), np.array([[0, 4]]), 0.1),
    "nce negative": lambda: info_nce(ones(4, 3), ones(4, 3), np.array([[0, -1]]), 0.1),
}


@pytest.mark.parametrize("case", BAD_LOSS_CALLS)
def test_loss_ops_reject_bad_shapes(case):
    with pytest.raises(ShapeError):
        BAD_LOSS_CALLS[case]()


def test_tsum_axis_variants():
    rng = np.random.default_rng(14)
    for axis in (None, 0, 1):
        rep = grad_check(lambda x: tsum(mul(tsum(x, axis=axis, keepdims=axis is not None), Tensor(np.array(2.0)))), Tensor(rand(rng, 3, 5)))
        assert rep.passed, str(rep)


def test_broadcast_add_mul_grads():
    rng = np.random.default_rng(15)
    row = Tensor(rand(rng, 1, 6))

    def f(x):
        return tsum(mul(add(x, row), row))

    rep = grad_check(f, Tensor(rand(rng, 4, 6)))
    assert rep.passed, str(rep)
    # and the broadcast side gets a reduced gradient of the right shape
    r = Tensor(rand(rng, 6), requires_grad=True)
    x = Tensor(rand(rng, 4, 6), requires_grad=True)
    backward(tsum(mul(add(x, r), x)))
    assert r.grad.shape == (6,)
    assert np.allclose(r.grad, x.data.sum(axis=0), atol=1e-12)


@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape",
    [((5,), (3, 5), None), ((2, 5), (1, 3, 5), None), ((2, 3), (4, 5), None), ((2, 5), (4, 5), (5,)),
     ((2, 5), (4, 5), (1, 4))],
    ids=["1-D x", "3-D w", "inner", "bias length", "2-D bias"],
)
def test_linear_shape_error_lists_both_shapes(x_shape, w_shape, b_shape):
    b = None if b_shape is None else Tensor(np.ones(b_shape))
    with pytest.raises(ShapeError) as e:
        linear(Tensor(np.ones(x_shape)), Tensor(np.ones(w_shape)), b)
    named = (w_shape, x_shape if b_shape is None else b_shape)
    assert all(str(s) in str(e.value) for s in named), str(e.value)


def test_getitem_slice_grad():
    # a row slice, and the column pick that flattens the decoder's (T, 1) output
    rng = np.random.default_rng(18)
    for shape, key in [((8, 3), slice(1, 5)), ((8, 1), (slice(None), 0))]:
        rep = grad_check(lambda x, key=key: tsum(mul(x[key], x[key])), Tensor(rand(rng, *shape)))
        assert rep.passed, f"{key}: {rep}"


def test_getitem_repeated_indices_add_their_grads():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    backward(tsum(x[np.array([0, 0, 2])]))
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))
    rng = np.random.default_rng(28)
    for key in [np.array([0, 0, 2]), (np.array([1, 1, 0]), slice(None)), (slice(1, None), [0, 0]),
                np.array([True, False, True, True])]:
        rep = grad_check(lambda t, key=key: tsum(mul(t[key], t[key])), Tensor(rand(rng, 4, 3)))
        assert rep.passed, f"{key}: {rep}"


def test_masked_fill_rows_values_and_grads():
    rng = np.random.default_rng(19)
    xv = rand(rng, 6, 4)
    mask = np.array([True, False, True, False, False, True])
    x = Tensor(xv.copy(), requires_grad=True)
    v = Tensor(rand(rng, 4), requires_grad=True)
    out = masked_fill_rows(x, mask, v)
    # unmasked rows bit-exact, masked rows replaced by v
    assert np.array_equal(out.data[~mask], xv[~mask])
    assert np.array_equal(out.data[mask], np.broadcast_to(v.data, (3, 4)))
    backward(tsum(mul(out, Tensor(np.ones((6, 4)) * 2))))
    assert np.array_equal(x.grad[mask], np.zeros((3, 4)))
    assert np.array_equal(x.grad[~mask], np.full((3, 4), 2.0))
    assert np.array_equal(v.grad, np.full(4, 6.0))


def test_index_add_rows_values_and_errors():
    rng = np.random.default_rng(23)
    xv, rv = rand(rng, 5, 3), rand(rng, 2, 3)
    out = index_add_rows(Tensor(xv), np.array([3, 1]), Tensor(rv))
    want = xv.copy()
    want[3] += rv[0]
    want[1] += rv[1]
    assert np.array_equal(out.data, want)
    with pytest.raises(AutodiffError):
        index_add_rows(Tensor(xv), np.array([1, 1]), Tensor(rv))
    with pytest.raises(ShapeError):
        index_add_rows(Tensor(xv), np.array([0, 1, 2]), Tensor(rv))


def test_passthrough_forwards_y_and_grads_both():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    y = Tensor(np.array([10.0, 20.0]), requires_grad=True)
    out = passthrough(x, y)
    assert np.array_equal(out.data, y.data)
    backward(tsum(mul(out, Tensor(np.array([3.0, 4.0])))))
    assert np.array_equal(x.grad, np.array([3.0, 4.0]))
    assert np.array_equal(y.grad, np.array([3.0, 4.0]))


def test_conv1d_grad_x_and_w():
    rng = np.random.default_rng(20)
    w = Tensor(rand(rng, 3, 2, 4))

    def fx(x):
        return tsum(mul(conv1d(x, w, Tensor(np.zeros(3)), stride=2, padding=(1, 1)), Tensor(np.array(1.5))))

    rep = grad_check(fx, Tensor(rand(rng, 10, 2)))
    assert rep.passed, str(rep)

    x = Tensor(rand(rng, 10, 2))

    def fw(wt):
        out = conv1d(x, wt, Tensor(np.zeros(3)), stride=2, padding=(1, 1))
        return tsum(mul(out, out))

    rep = grad_check(fw, Tensor(rand(rng, 3, 2, 4)))
    assert rep.passed, str(rep)


def test_conv1d_transpose_grad_x_and_w():
    rng = np.random.default_rng(21)
    w = Tensor(rand(rng, 2, 3, 4))

    def fx(x):
        out = conv1d_transpose(x, w, Tensor(np.zeros(3)), stride=2)
        return tsum(mul(out, out))

    rep = grad_check(fx, Tensor(rand(rng, 6, 2)))
    assert rep.passed, str(rep)

    x = Tensor(rand(rng, 6, 2))

    def fw(wt):
        out = conv1d_transpose(x, wt, Tensor(np.zeros(3)), stride=2)
        return tsum(mul(out, out))

    rep = grad_check(fw, Tensor(rand(rng, 2, 3, 4)))
    assert rep.passed, str(rep)


# per-tap reference loops for both conv ops, over a grid of strides, kernel
# sizes on each side of the stride, short inputs and asymmetric padding

def conv_grid(s):
    for k in sorted({1, max(1, s - 1), s, 2 * s, 2 * s + 1}):
        for t in (1, 2, 7):
            yield k, t


def conv1d_reference(x, w, b, stride, pad):
    xp = np.pad(x, (pad, (0, 0)))
    k = w.shape[2]
    out = np.tile(b, ((xp.shape[0] - k) // stride + 1, 1))
    for i in range(out.shape[0]):
        for j in range(k):
            out[i] += xp[stride * i + j] @ w[:, :, j].T
    return out


def conv1d_transpose_reference(x, w, b, stride, pad=(0, 0)):
    k = w.shape[2]
    out = np.tile(b, ((x.shape[0] - 1) * stride + k, 1))
    for i in range(x.shape[0]):
        for j in range(k):
            out[stride * i + j] += x[i] @ w[:, :, j]
    return out[pad[0] : out.shape[0] - pad[1]]


def conv_pads(k):
    return [(k // 2 + 1, k - 1 - k // 2), (0, k)]


def transpose_pads(s, k, t):
    """No crop, and the decoder's crop (s // 2, s - s // 2) where the full
    (t - 1) * s + k output outlasts it; at odd s that crop is asymmetric."""
    return [(0, 0)] + ([(s // 2, s - s // 2)] if (t - 1) * s + k > s else [])


@pytest.mark.parametrize("s", range(1, 6))
def test_conv1d_matches_per_tap_reference(s):
    rng = np.random.default_rng(40 + s)
    for k, t in conv_grid(s):
        for pad in conv_pads(k):
            x, w, b = rand(rng, t, 3), rand(rng, 2, 3, k), rand(rng, 2)
            got = conv1d(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=pad).data
            want = conv1d_reference(x, w, b, s, pad)
            assert got.shape == want.shape, (s, k, t, pad)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (s, k, t, pad)


@pytest.mark.parametrize("s", range(1, 6))
def test_conv1d_transpose_matches_per_tap_reference(s):
    rng = np.random.default_rng(50 + s)
    for k, t in conv_grid(s):
        for pad in transpose_pads(s, k, t):
            x, w, b = rand(rng, t, 3), rand(rng, 3, 2, k), rand(rng, 2)
            got = conv1d_transpose(Tensor(x), Tensor(w), Tensor(b), stride=s, padding=pad).data
            want = conv1d_transpose_reference(x, w, b, s, pad)
            assert got.shape == want.shape, (s, k, t, pad)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max(), (s, k, t, pad)


@pytest.mark.parametrize("s,k,pad", [(2, 4, (1, 1)), (5, 10, (2, 3)), (4, 8, (2, 2))])
def test_conv1d_transpose_is_the_adjoint_of_conv1d(s, k, pad):
    # <conv1d(x), y> = <x, conv1d_transpose(y)> for one w, stride and padding;
    # x spans whole strides, so the transposed output has its length
    rng = np.random.default_rng(100 + s)
    t = 4 * s + k - pad[0] - pad[1]
    x, w = rand(rng, t, 3), rand(rng, 2, 3, k)
    down = conv1d(Tensor(x), Tensor(w), Tensor(np.zeros(2)), stride=s, padding=pad).data
    y = rand(rng, *down.shape)
    up = conv1d_transpose(Tensor(y), Tensor(w), Tensor(np.zeros(3)), stride=s, padding=pad).data
    assert up.shape == x.shape
    lhs, rhs = np.sum(down * y), np.sum(x * up)
    assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), 1.0), (lhs, rhs)


def test_conv1d_transpose_rejects_bad_padding():
    x, w = Tensor(np.ones((3, 2))), Tensor(np.ones((2, 1, 4)))  # 8 full output steps at stride 2
    b = Tensor(np.zeros(1))
    for pad in [(-1, 0), (0, -1), (4, 4), (8, 0)]:
        with pytest.raises(ShapeError):
            conv1d_transpose(x, w, b, stride=2, padding=pad)
    assert conv1d_transpose(x, w, b, stride=2, padding=(4, 3)).shape == (1, 1)


def conv1d_input_grad_reference(g, w, stride, pad, t):
    """conv1d's gradient in x, tap by tap: output row i sends g[i] @ w[:, :, j]
    to padded input row stride * i + j."""
    gxp = np.zeros((t + pad[0] + pad[1], w.shape[1]))
    span = stride * (g.shape[0] - 1) + 1
    for j in range(w.shape[2]):
        gxp[j : j + span : stride] += g @ w[:, :, j]
    return gxp[pad[0] : pad[0] + t]


def conv1d_transpose_input_grad_reference(g, w, stride, t):
    """conv1d_transpose's gradient in x, tap by tap: input row i reads
    g[stride * i + j] @ w[:, :, j].T."""
    gx = np.zeros((t, w.shape[0]))
    span = stride * (t - 1) + 1
    for j in range(w.shape[2]):
        gx += g[j : j + span : stride] @ w[:, :, j].T
    return gx


def close_rel(got, want, rel=1e-12):
    return got.shape == want.shape and np.abs(got - want).max() <= rel * np.abs(want).max()


def test_conv_ops_at_the_decoders_24khz_shapes():
    # the decoder's output conv (1 <- 8 channels, K = 7, same padding) and the
    # transposed conv before it (8 channels, K = 4, 2x up), at the long time
    # axis where their input gradient and forward write a wide array once
    rng = np.random.default_rng(90)
    cases = [
        (conv1d, (2400, 8), (1, 8, 7), dict(stride=1, padding=(3, 3)),
         lambda x, w, b: conv1d_reference(x, w, b, 1, (3, 3)),
         lambda g, w, t: conv1d_input_grad_reference(g, w, 1, (3, 3), t)),
        (conv1d_transpose, (1200, 8), (8, 8, 4), dict(stride=2),
         lambda x, w, b: conv1d_transpose_reference(x, w, b, 2),
         lambda g, w, t: conv1d_transpose_input_grad_reference(g, w, 2, t)),
    ]
    for op, x_shape, w_shape, kw, value_ref, grad_ref in cases:
        x, w = rand(rng, *x_shape), rand(rng, *w_shape)
        b = rand(rng, w_shape[0] if op is conv1d else w_shape[1])
        xt = Tensor(x, requires_grad=True)
        out = op(xt, Tensor(w), Tensor(b), **kw)
        assert close_rel(out.data, value_ref(x, w, b)), op.__name__
        g = rand(rng, *out.shape)
        backward(tsum(mul(out, Tensor(g))))
        assert close_rel(xt.grad, grad_ref(g, w, x_shape[0])), op.__name__
        f32 = op(*(Tensor(a.astype(np.float32)) for a in (x, w, b)), **kw).data
        assert f32.dtype == np.float32 and f32.shape == out.shape, op.__name__


def grad_check_each_operand(op, args, out_shape, rng, **kw):
    """grad_check a linear read-out of op(*args) in each operand in turn."""
    weights = Tensor(rand(rng, *out_shape))
    for i, arg in enumerate(args):
        def f(v, i=i):
            operands = [Tensor(a) for a in args]
            operands[i] = v
            return tsum(mul(op(*operands, **kw), weights))

        rep = grad_check(f, Tensor(arg))
        assert rep.passed, f"operand {i}, {kw}: {rep}"


@pytest.mark.parametrize("s", range(1, 6))
def test_conv1d_grad_check_grid(s):
    rng = np.random.default_rng(60 + s)
    for k, t in conv_grid(s):
        for pad in conv_pads(k):
            t_out = (t + pad[0] + pad[1] - k) // s + 1
            args = (rand(rng, t, 3), rand(rng, 2, 3, k), rand(rng, 2))
            grad_check_each_operand(conv1d, args, (t_out, 2), rng, stride=s, padding=pad)


@pytest.mark.parametrize("s", range(1, 6))
def test_conv1d_transpose_grad_check_grid(s):
    rng = np.random.default_rng(70 + s)
    for k, t in conv_grid(s):
        for pad in transpose_pads(s, k, t):
            args = (rand(rng, t, 3), rand(rng, 3, 2, k), rand(rng, 2))
            t_out = (t - 1) * s + k - pad[0] - pad[1]
            grad_check_each_operand(conv1d_transpose, args, (t_out, 2), rng, stride=s, padding=pad)


def test_conv1d_builds_no_window_array():
    # a (T, K, C_in) im2col array would be 7x the input; the op may hold a
    # padded copy of the input plus a few output-sized buffers
    rng = np.random.default_rng(80)
    x = Tensor(rand(rng, 20000, 16))
    w = Tensor(rand(rng, 1, 16, 7), requires_grad=True)
    b = Tensor(rand(rng, 1))
    tracemalloc.start()
    try:
        out = conv1d(x, w, b, stride=1, padding=(3, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * (x.data.nbytes + out.data.nbytes)


def test_layer_norm_grad_all_inputs():
    rng = np.random.default_rng(25)
    for shape in [(1, 4), (3, 4), (5, 6)]:
        args = (rand(rng, *shape) * 2 + 1, 1.0 + 0.3 * rand(rng, shape[-1]), rand(rng, shape[-1]))
        grad_check_each_operand(layer_norm, args, shape, rng)


def test_linear_grad_all_inputs():
    # (T, in) @ (out, in).T + (out,), with and without the bias, T = 1 included
    rng = np.random.default_rng(26)
    for t, n_in, n_out in [(1, 3, 2), (4, 5, 3), (6, 2, 7)]:
        x, w, b = rand(rng, t, n_in), rand(rng, n_out, n_in), rand(rng, n_out)
        grad_check_each_operand(linear, (x, w, b), (t, n_out), rng)
        grad_check_each_operand(linear, (x, w), (t, n_out), rng)


def test_linear_values_and_frozen_operands():
    rng = np.random.default_rng(27)
    xv, wv, bv = rand(rng, 4, 3), rand(rng, 5, 3), rand(rng, 5)
    assert np.array_equal(linear(Tensor(xv), Tensor(wv), Tensor(bv)).data, xv @ wv.T + bv)
    x, w, b = Tensor(xv, requires_grad=True), Tensor(wv), Tensor(bv, requires_grad=True)
    backward(tsum(linear(x, w, b)))
    assert w.grad is None
    assert np.array_equal(x.grad, np.ones((4, 5)) @ wv)
    assert np.array_equal(b.grad, np.full(5, 4.0))
    x, w = Tensor(xv), Tensor(wv, requires_grad=True)
    backward(tsum(linear(x, w)))
    assert x.grad is None
    assert np.array_equal(w.grad, (xv.T @ np.ones((4, 5))).T)


def test_rope_attention_grad():
    # every input (x, wq, wk, wv, wo) on T = 1, one head, and multi-head shapes
    rng = np.random.default_rng(22)
    for t, h, heads in [(1, 8, 1), (4, 4, 1), (6, 8, 2), (5, 16, 4)]:
        args = (rand(rng, t, h),) + tuple(rand(rng, h, h) * 0.3 for _ in range(4))
        grad_check_each_operand(rope_attention, args, (t, h), rng, heads=heads)


def rope_attention_reference(x, wq, wk, wv, wo, heads):
    """Rotary attention as a chain of numpy ops, in the op's order and in
    the dtype of ``x``."""
    t, hidden = x.shape
    hd = hidden // heads
    half = hd // 2
    ang = np.outer(np.arange(t, dtype=np.float64), 10000.0 ** (-np.arange(half, dtype=np.float64) / half))
    cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=-1)[None].astype(x.dtype)
    sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=-1)[None].astype(x.dtype)

    def rotated(y):
        return y * cos + np.concatenate([-y[..., half:], y[..., :half]], axis=-1) * sin

    def split_heads(w):
        return (x @ w.T).reshape(t, heads, hd).transpose(1, 0, 2)

    q, k, v = rotated(split_heads(wq)), rotated(split_heads(wk)), split_heads(wv)
    scores = (q @ k.transpose(0, 2, 1)) * np.asarray(1.0 / np.sqrt(hd), x.dtype)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
    return ctx.transpose(1, 0, 2).reshape(t, hidden) @ wo.T


def test_rope_attention_matches_numpy_reference():
    rng = np.random.default_rng(23)
    h = 16
    for heads in (1, 2, 4):
        for t in (1, 9):
            x = rand(rng, t, h)
            ws = [rand(rng, h, h) * 0.2 for _ in range(4)]
            got = rope_attention(Tensor(x), *map(Tensor, ws), heads=heads).data
            assert np.array_equal(got, rope_attention_reference(x, *ws, heads)), (heads, t)


def test_rope_attention_query_blocks_match_numpy_reference():
    # without a graph the queries run in blocks of _ATTN_BLOCK rows: at most
    # one block is the reference to the bit, more may differ by how BLAS
    # rounds the block products; a recorded graph is one block at any T
    rng = np.random.default_rng(24)
    h, heads, block = 16, 4, autodiff._ATTN_BLOCK
    ws = [rand(rng, h, h) * 0.2 for _ in range(4)]
    for t in (block, block + 1, 600):
        for dtype in (np.float32, np.float64):
            x = rand(rng, t, h).astype(dtype)
            wd = [w.astype(dtype) for w in ws]
            want = rope_attention_reference(x, *wd, heads)
            with no_grad():
                got = rope_attention(Tensor(x), *map(Tensor, wd), heads=heads).data
            assert got.dtype == dtype
            if t <= block:
                assert np.array_equal(got, want), (t, dtype)
            else:
                rtol = 1e-5 if dtype == np.float32 else 1e-12
                assert np.allclose(got, want, rtol=rtol, atol=rtol), (t, dtype)
            recorded = rope_attention(Tensor(x, requires_grad=True), *map(Tensor, wd), heads=heads)
            assert recorded.requires_grad and np.array_equal(recorded.data, want), (t, dtype)


def test_rope_table_is_cached_and_read_only():
    cos, sin = autodiff._rope_table(450, 64, np.dtype(np.float32))
    again = autodiff._rope_table(450, 64, np.dtype(np.float32))
    assert again[0] is cos and again[1] is sin
    assert cos.shape == sin.shape == (1, 450, 64) and cos.dtype == np.float32
    with pytest.raises(ValueError):
        cos[0, 0, 0] = 2.0


def test_rope_attention_head_divisibility_error():
    x = Tensor(np.ones((4, 6)))
    w = Tensor(np.ones((6, 6)))
    with pytest.raises(ShapeError):
        rope_attention(x, w, w, w, w, heads=4)


@pytest.mark.parametrize("fft,hop,n", [(1024, 256, 1600), (64, 24, 150)])
def test_stft_mag_grad_overlapping_frames(fft, hop, n):
    # >= 3 overlapping frames and a length that is not a multiple of hop, so
    # the overlap-add and the uncovered tail are both exercised; hop 24 does
    # not divide fft 64, so the last slice is partial
    assert (n - fft) // hop + 1 >= 3 and n % hop != 0
    rng = np.random.default_rng(26)
    w = Tensor(rand(rng, (n - fft) // hop + 1, fft // 2 + 1))
    rep = grad_check(lambda x: tsum(mul(stft_mag(x, fft, hop), w)), Tensor(rand(rng, n)))
    assert rep.passed, str(rep)


def test_stft_mag_matches_signal_stft():
    from tricodec.signal import AudioClip, stft_magnitude

    rng = np.random.default_rng(27)
    x = rand(rng, 3000) * 0.2
    for fft, hop in [(1024, 256), (512, 128), (64, 24)]:
        got = stft_mag(Tensor(x), fft, hop).data
        want = stft_magnitude(AudioClip(x, 24000), fft, hop).T
        assert got.shape == want.shape
        # sqrt(m^2 + 1e-12) - m lies in [0, 1e-6]
        assert np.allclose(got, want, rtol=1e-12, atol=1e-6), (fft, hop)


def test_stft_mag_rejects_short_or_2d_input():
    with pytest.raises(ShapeError):
        stft_mag(Tensor(np.ones(63)), 64, 16)
    with pytest.raises(ShapeError):
        stft_mag(Tensor(np.ones((128, 2))), 64, 16)


# ---------------------------------------------------------------------------
# finiteness and dtype rules


def test_nonfinite_forward_raises():
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        mul(Tensor(np.array([1e200])), Tensor(np.array([1e200])))
    with pytest.raises(NonFiniteError):
        # both logits underflow their affinities to 0, so the kept gate is 0 / 0
        topk_gate(Tensor(np.array([[1.0]])), Tensor(np.array([[-1000.0], [-2000.0]])), 1)


def test_fused_ops_raise_on_overflow_a_finite_output_would_hide():
    # an infinite variance would normalize to 0, a -inf attention score
    # would get softmax weight 0, and an infinite router logit would give
    # gate 1; all must fail like any overflow
    w = np.eye(2) * 1e160
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteError):
            topk_gate(Tensor(np.array([[1e200]])), Tensor(np.array([[1e200], [1.0]])), 1)
        with pytest.raises(NonFiniteError):
            layer_norm(Tensor(np.array([[1e200, -1e200]])), Tensor(np.ones(2)), Tensor(np.zeros(2)))
        with pytest.raises(NonFiniteError):
            x = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
            rope_attention(x, Tensor(w), Tensor(-w), Tensor(np.eye(2)), Tensor(np.eye(2)), heads=1)


def test_tensor_rejects_nonfinite_data():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.nan]))
    with pytest.raises(NonFiniteError):
        Tensor(np.array([np.inf]), requires_grad=True)


def test_float32_preserved_float64_default():
    assert Tensor(np.ones(3, dtype=np.float32)).dtype == np.float32
    assert Tensor([1, 2, 3]).dtype == np.float64
    out = add(Tensor(np.ones(3, dtype=np.float32)), Tensor(np.ones(3, dtype=np.float32)))
    assert out.dtype == np.float32
    rng = np.random.default_rng(32)
    x, w = (Tensor(rand(rng, *s).astype(np.float32)) for s in ((5, 8), (8, 8)))
    assert rope_attention(x, w, w, w, w, heads=2).dtype == np.float32
    ones, zeros = Tensor(np.ones(8, dtype=np.float32)), Tensor(np.zeros(8, dtype=np.float32))
    assert layer_norm(x, ones, zeros).dtype == np.float32
    wave = Tensor(rand(rng, 200).astype(np.float32), requires_grad=True)
    mag = stft_mag(wave, 64, 16)
    assert mag.dtype == np.float32
    backward(tsum(mag))
    assert wave.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# no_grad


def small_graph(seed=31):
    """conv1d -> rope_attention -> layer_norm on requires-grad weights."""
    rng = np.random.default_rng(seed)
    h = 8
    x = Tensor(rand(rng, 20, 3))
    cw = Tensor(rand(rng, h, 3, 3) * 0.3, requires_grad=True)
    ws = [Tensor(rand(rng, h, h) * 0.3, requires_grad=True) for _ in range(4)]
    gain = Tensor(1.0 + 0.1 * rand(rng, h), requires_grad=True)
    bias = Tensor(0.1 * rand(rng, h), requires_grad=True)

    def forward():
        z = gelu(conv1d(x, cw, Tensor(np.zeros(h)), stride=2, padding=1))
        return layer_norm(rope_attention(z, *ws, heads=2), gain, bias)

    return forward


def test_no_grad_forward_bit_identical():
    forward = small_graph()
    with_grad = forward()
    with no_grad():
        without = forward()
    assert with_grad.requires_grad
    assert np.array_equal(with_grad.data, without.data)


def test_no_grad_results_have_no_graph():
    forward = small_graph()
    with no_grad():
        out = forward()
        loss = tsum(out)
    for t in (out, loss):
        assert not t.requires_grad
        assert t._parents == () and t._backward is None
    with pytest.raises(AutodiffError):
        backward(loss)


def builds_graph():
    return mul(Tensor(np.ones(2), requires_grad=True), Tensor(np.ones(2))).requires_grad


def test_no_grad_restored_after_exception_and_nesting():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert builds_graph()
    with no_grad():
        with no_grad():
            assert not builds_graph()
        assert not builds_graph()
    assert builds_graph()


def test_no_grad_as_decorator():
    @no_grad()
    def inner():
        return builds_graph()

    assert not inner()
    assert builds_graph()


def test_thread_started_inside_no_grad_builds_graphs():
    seen = []
    with no_grad():
        worker = threading.Thread(target=lambda: seen.append(builds_graph()))
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert seen == [True]

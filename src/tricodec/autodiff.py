"""Minimal reverse-mode automatic differentiation on numpy arrays.

Provides exactly the operators the codec graph needs: 1-D convolutions
(``conv1d`` and its adjoint ``conv1d_transpose``, which crops its output
by the same ``padding``), arithmetic (``add``, ``mul``), the pointwise
nonlinearities ``tanh`` and ``gelu``, the reduction ``tsum`` (the tests'
scalar read-out), indexing (``Tensor.__getitem__``, which also gathers
rows by an index array), ``masked_fill_rows``, ``index_add_rows`` (which
adds a row block into given distinct rows: the scatter of the MoE's
sparse expert dispatch), and a straight-through passthrough for the
quantizer.
The dense layer ``linear`` (x @ w.T + b: the expert FFNs, the router, the
codebook projection and the mel filterbank), the MoE router's top-k
sigmoid gate (``topk_gate``), layer norm, rotary-position
attention and the Hann-windowed STFT magnitude of the mel loss
(``stft_mag``) are single ops with closed-form backward passes, and so is
each loss term: ``l1_distance`` (the time and mel reconstruction terms),
``sq_distance`` (the codebook commitment and alignment terms) and
``info_nce`` (the masked contrastive term).
The graph is the implicit DAG linking each result tensor to its parents;
``backward`` walks it in exact reverse topological order. Graphs are
confined to the context that built them; distinct graphs may run
concurrently.

Inside a ``no_grad()`` block ops record no parents and no backward rule,
so a forward pass that is never differentiated holds only the arrays it
still references. The codec's inference paths (encode, decode, eval) and
the trainer's evaluation passes run this way. The switch is a context
variable: it covers the current thread or task only, and a new thread
starts with graphs on.

Every op checks its output for NaN/Inf and raises ``NonFiniteError``
rather than propagating poison through training.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "AutodiffError",
    "ShapeError",
    "NonFiniteError",
    "backward",
    "grad_check",
    "GradCheckReport",
    "no_grad",
    "add",
    "mul",
    "tanh",
    "gelu",
    "tsum",
    "masked_fill_rows",
    "index_add_rows",
    "linear",
    "topk_gate",
    "layer_norm",
    "conv1d",
    "conv1d_transpose",
    "rope_attention",
    "stft_mag",
    "l1_distance",
    "sq_distance",
    "info_nce",
    "passthrough",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Abramowitz & Stegun 7.1.26: for z >= 0, erfc(z) ~ exp(-z^2) t (a1 + a2 t +
# ... + a5 t^4) with t = 1 / (1 + p z), |error| <= 1.5e-7
_AS_P = 0.3275911
_AS_A = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)

# elements per slice of ``_phi_float32``; query rows per block of
# ``rope_attention`` when it records no graph
_PHI_SLICE = 65536
_ATTN_BLOCK = 256


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeError(AutodiffError):
    """Operands have incompatible shapes; message lists both."""


class NonFiniteError(AutodiffError):
    """An op produced NaN or Inf."""


class Tensor:
    """A shaped numeric array participating in reverse-mode differentiation.

    ``data`` is always an ``np.ndarray``. ``grad`` is populated by
    ``backward`` for tensors with ``requires_grad`` and matches ``data``
    in shape. Op results record their parents and a backward rule; leaf
    tensors have neither.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("a leaf tensor contains NaN/Inf")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._parents: tuple = ()
        self._backward: Optional[Callable] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def __getitem__(self, key):
        return _getitem(self, key)


_GRAD_ENABLED: ContextVar[bool] = ContextVar("tricodec_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Build no graph inside the block: op results have ``requires_grad``
    False and no parents, whatever their inputs. Forward values are
    unchanged. Usable as a decorator; nests, and restores the previous
    state on exit, also after an exception."""
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op '{op}' produced NaN/Inf")


def _records(parents: Sequence[Tensor]) -> bool:
    """Whether an op on ``parents`` records a graph node."""
    return _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: Sequence[Tensor], backward_fn: Callable, op: str) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _records(parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# pointwise and arithmetic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} vs {b.shape}") from None
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeError(f"mul: incompatible shapes {a.shape} vs {b.shape}") from None

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make(data, (a, b), bwd, "mul")


def tanh(a: Tensor) -> Tensor:
    data = np.tanh(a.data)
    return _make(data, (a,), lambda g: (g * (1.0 - data * data),), "tanh")


def _phi_float32(x: np.ndarray) -> np.ndarray:
    """Phi(x) of a float32 array from numpy ops alone (A&S 7.1.26). It is
    within 3e-7 of the exact CDF, a few float32 ulps: A&S's own error is
    7.5e-8 here, the rest is the float32 Horner sum.

    The flattened input runs in slices of ``_PHI_SLICE`` elements (256 kB
    of float32), each built in its slice of the one output with two
    slice-sized scratch buffers, so the passes stay in cache and no
    full-size temporary is made. Each element sees the same operations as
    in one pass over the whole array, so the result is the same to the bit.
    """
    shape, x = x.shape, x.reshape(-1)  # 1-d, so out= also takes a 0-d input
    out = np.empty_like(x)
    a_buf = np.empty(min(x.size, _PHI_SLICE), x.dtype)
    t_buf = np.empty_like(a_buf)
    for s in range(0, x.size, _PHI_SLICE):
        xs, q = x[s : s + _PHI_SLICE], out[s : s + _PHI_SLICE]
        a, t = a_buf[: len(xs)], t_buf[: len(xs)]
        np.abs(xs, out=a)
        np.multiply(a, _AS_P * _INV_SQRT2, out=t)
        t += 1.0
        np.reciprocal(t, out=t)
        np.multiply(t, -0.5 * _AS_A[4], out=q)  # Horner: q exp(-x^2 / 2) = -erfc(|x| / sqrt 2) / 2
        for coef in _AS_A[3::-1]:
            q += -0.5 * coef
            q *= t
        with np.errstate(over="ignore"):  # x^2 past float32's range gives exp(-inf) = 0
            np.square(xs, out=a)
        a *= -0.5
        np.exp(a, out=a)
        q *= a
        q += 0.5  # Phi(|x|) - 1/2
        np.copysign(q, xs, out=q)
        q += 0.5
    return out.reshape(shape)


def gelu(a: Tensor) -> Tensor:
    """Exact Gaussian-error-linear unit, x * Phi(x). A float32 input, as in
    training and inference, takes Phi from ``_phi_float32``, about three
    times faster than scipy's float32 ``erf``; any other input, such as the
    gradient checks' float64, takes it from scipy's ``erf``. scipy is
    imported here, on the first such call, so that importing the package
    (and every float32 process) loads no scipy module: ``scipy.special``
    alone costs about a quarter of a second."""
    x = a.data
    if x.dtype == np.float32:
        cdf = _phi_float32(x)
    else:
        from scipy.special import erf

        # Phi(x) = 0.5 (1 + erf(x / sqrt 2)), built in one buffer
        cdf = np.asarray(x * _INV_SQRT2)  # an array also for 0-d x, so out= can take it
        erf(cdf, out=cdf)
        cdf += 1.0
        cdf *= 0.5
    data = x * cdf

    def bwd(g):
        # g * (cdf + x * pdf(x)), built in one buffer in the order of the
        # plain expression, so the result is the same to the bit
        d = np.asarray(np.multiply(x, -0.5))  # an array also for 0-d x, so out= can take it
        d *= x
        np.exp(d, out=d)
        d *= _INV_SQRT2PI
        d *= x
        d += cdf
        d *= g
        return (d,)

    return _make(data, (a,), bwd, "gelu")


# ---------------------------------------------------------------------------
# reductions


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(np.asarray(data), (a,), bwd, "sum")


# ---------------------------------------------------------------------------
# linear algebra and structure


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """x @ w.T (+ b) as one op: ``x`` is (T, in), ``w`` (out, in) and ``b``
    (out,). The backward gives g @ w to x, (x.T @ g).T to w and the column
    sums of g to b, each only for an operand that requires grad."""
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} vs weight {w.shape}")
    if b is not None and b.shape != w.shape[:1]:
        raise ShapeError(f"linear: bias {b.shape} vs weight {w.shape}")
    data = x.data @ w.data.T
    if b is not None:
        data += b.data

    def bwd(g):
        gx = g @ w.data if x.requires_grad else None
        gw = (x.data.T @ g).T if w.requires_grad else None
        gb = g.sum(axis=0) if b is not None and b.requires_grad else None
        return gx, gw, gb  # backward pairs these with the parents, so gb drops without a bias

    return _make(data, (x, w) if b is None else (x, w, b), bwd, "linear")


def topk_gate(u: Tensor, centroids: Tensor, k: int) -> Tensor:
    """The MoE router's gates as one op: ``u`` is (T, D), ``centroids``
    (N, D) and the result (T, N). Each row's affinities s = sigmoid(u @
    centroids.T) keep their k largest (ties go to the lowest index),
    divided by their sum S; the rest of the row is exactly zero. A row
    whose kept affinities all underflow to 0 (logits below about -745)
    gives 0 / 0, which raises ``NonFiniteError``.

    Backward: a kept affinity gets ds = (g - sum_j g_j gate_j) / S and its
    logit da = ds s (1 - s), which gives da @ centroids to ``u`` and
    da.T @ u to ``centroids``, each only for an operand that requires grad.
    At k = 1 every kept gate is s / s = 1, so ds and both gradients are
    exactly zero and the router does not learn (ROADMAP item 3).
    """
    if u.ndim != 2 or centroids.ndim != 2 or u.shape[1] != centroids.shape[1]:
        raise ShapeError(f"topk_gate: input {u.shape} vs centroids {centroids.shape}")
    if not 1 <= k <= centroids.shape[0]:
        raise ShapeError(f"topk_gate: k = {k} outside [1, {centroids.shape[0]}] for centroids {centroids.shape}")
    a = u.data @ centroids.data.T
    _check_finite(a, "topk_gate")  # the sigmoid would map an overflowed logit to a finite gate
    # exp(-|a|) never overflows; both branches share it
    e = np.exp(-np.abs(a))
    s = np.where(a >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    keep = np.zeros_like(s)
    np.put_along_axis(keep, np.argsort(-s, axis=1, kind="stable")[:, :k], 1.0, axis=1)
    kept = s * keep
    total = kept.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):  # _make reports an underflowed row
        data = kept / total

    def bwd(g):
        ds = keep * (g - (g * data).sum(axis=1, keepdims=True)) / total
        da = ds * s * (1.0 - s)
        gu = da @ centroids.data if u.requires_grad else None
        gc = da.T @ u.data if centroids.requires_grad else None
        return gu, gc

    return _make(data, (u, centroids), bwd, "topk_gate")


def _getitem(a: Tensor, key) -> Tensor:
    data = a.data[key]
    # ints and slices pick each element at most once; an index array may
    # pick one more than once, and then every pick adds its gradient
    parts = key if isinstance(key, tuple) else (key,)
    basic = all(k is None or k is Ellipsis or isinstance(k, (int, np.integer, slice)) for k in parts)

    def bwd(g):
        ga = np.zeros_like(a.data)
        if basic:
            ga[key] = g
        else:
            np.add.at(ga, key, g)
        return (ga,)

    return _make(np.asarray(data), (a,), bwd, "getitem")


def masked_fill_rows(x: Tensor, mask: np.ndarray, v: Tensor) -> Tensor:
    """Replace rows of ``x`` where ``mask`` is True by the vector ``v``.

    Unmasked rows pass through bit-exactly (no arithmetic touches them).
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (x.shape[0],):
        raise ShapeError(f"masked_fill_rows: mask {mask.shape} vs rows {x.shape}")
    if v.shape != x.shape[1:]:
        raise ShapeError(f"masked_fill_rows: fill {v.shape} vs row shape {x.shape[1:]}")
    data = x.data.copy()
    data[mask] = v.data
    n_masked = int(mask.sum())

    def bwd(g):
        gx = g.copy()
        gx[mask] = 0.0
        gv = g[mask].sum(axis=0) if n_masked else np.zeros_like(v.data)
        return gx, gv

    return _make(data, (x, v), bwd, "masked_fill_rows")


def index_add_rows(x: Tensor, idx, rows: Tensor) -> Tensor:
    """x with ``rows[i]`` added to row ``idx[i]``; ``idx`` is a 1-D array of
    distinct row indices. Rows not in ``idx`` pass through bit-exactly."""
    idx = np.asarray(idx)
    if idx.ndim != 1 or rows.shape != idx.shape + x.shape[1:]:
        raise ShapeError(f"index_add_rows: rows {rows.shape} vs {idx.shape} indices into {x.shape}")
    if np.unique(idx).size != idx.size:
        raise AutodiffError("index_add_rows: row indices must be distinct")
    data = x.data.copy()
    data[idx] += rows.data
    return _make(data, (x, rows), lambda g: (g, g[idx]), "index_add_rows")


def passthrough(x: Tensor, y: Tensor) -> Tensor:
    """Identity-gradient passthrough: forwards ``y``, routes the upstream
    gradient unchanged to both ``x`` and ``y``.

    This is the straight-through estimator the quantizer composes: the
    discrete selection is treated as identity so encoder frames and the
    selected codewords both see the downstream gradient.
    """
    if x.shape != y.shape:
        raise ShapeError(f"passthrough: shapes differ, {x.shape} vs {y.shape}")
    return _make(y.data, (x, y), lambda g: (g, g), "passthrough")


# ---------------------------------------------------------------------------
# composites


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance (eps 1e-5),
    then affine."""
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    _check_finite(var, "layer_norm")  # an overflowed variance would zero the output
    inv = np.asarray(1.0, x.dtype) / np.sqrt(var + np.asarray(1e-5, x.dtype))
    xhat = centered * inv
    data = xhat * gain.data + bias.data

    def bwd(g):
        gh = g * gain.data
        gx = inv * (gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
        return gx, _unbroadcast(g * xhat, gain.shape), _unbroadcast(g, bias.shape)

    return _make(data, (x, gain, bias), bwd, "layer_norm")


# ---------------------------------------------------------------------------
# convolutions (time-major: x is (T, C))
#
# Both ops cut the time axis into blocks of ``stride`` steps: a contiguous
# (T, C) array reshaped, without a copy, to (T / stride, stride * C). Kernel
# tap j = q * stride + r then sits at block offset q, lane r, so a K-tap
# kernel is ceil(K / stride) weight blocks (taps past K are zero); at stride
# 1 the blocks are the taps. A sum over blocks that reads the wide, blocked
# array (``_shift_sum``, ``_shift_outer``) is one BLAS GEMM per block against
# a shifted row slice of it, so no (T, K, C) window array is built. A sum
# that writes the wide array (``_shift_add``) is one GEMM on the narrow
# operand stacked at its shifts, so the wide result is written once.


def _pad_pair(padding) -> tuple:
    if isinstance(padding, tuple):
        return padding
    return (int(padding), int(padding))


def _shift_sum(blocks: np.ndarray, mats: np.ndarray, n: int) -> np.ndarray:
    """Sum over q of blocks[q : q + n] @ mats[q]."""
    out = blocks[:n] @ mats[0]
    tmp = None
    for q in range(1, len(mats)):
        tmp = np.matmul(blocks[q : q + n], mats[q], out=tmp)
        out += tmp
    return out


def _shift_add(y: np.ndarray, mats: np.ndarray, rows: int) -> np.ndarray:
    """The (rows, W) array whose row r is the sum over q of y[r - q] @ mats[q]
    (rows of y outside [0, len(y)) count as zero): the adjoint of
    ``_shift_sum``. ``rows`` is at least len(y) + len(mats) - 1. One GEMM of
    the (rows, nb * C_y) stack of y at its nb shifts against the stacked
    mats; a product plus an add per block would stream the wide output
    through memory nb times."""
    n, c = y.shape
    nb = len(mats)
    stack = np.empty((rows, nb, c), dtype=np.result_type(y, mats))
    # only these rows hold a shift that y does not cover; zeroing just them
    # saves a pass over the whole stack
    stack[: nb - 1] = 0
    stack[n:] = 0
    for q in range(nb):
        stack[q : q + n, q] = y
    return stack.reshape(rows, nb * c) @ mats.reshape(nb * c, mats.shape[2])


def _shift_outer(blocks: np.ndarray, y: np.ndarray, nb: int) -> np.ndarray:
    """Stack over q < nb of blocks[q : q + len(y)].T @ y: the weight-block
    gradient of ``_shift_sum`` and, transposed, of ``_shift_add``."""
    out = np.empty((nb, blocks.shape[1], y.shape[1]), dtype=np.result_type(blocks, y))
    for q in range(nb):
        np.matmul(blocks[q : q + y.shape[0]].T, y, out=out[q])
    return out


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding=0) -> Tensor:
    """1-D convolution over time-major input.

    x: (T, C_in), w: (C_out, C_in, K), output (T', C_out) with
    T' = floor((T + pad_l + pad_r - K) / stride) + 1, and
    out[t] = sum_j xp[stride * t + j] @ w[:, :, j].T + b over the
    zero-padded input xp. That is ceil(K / stride) GEMMs on shifted row
    slices of xp in blocks of ``stride`` steps; the graph keeps only xp.
    """
    if stride < 1:
        raise ShapeError(f"conv1d: stride must be >= 1, got {stride}")
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(f"conv1d: expected x (T,C), w (O,C,K); got {x.shape} vs {w.shape}")
    c_out, c_in, k = w.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv1d: channel mismatch, input {x.shape} vs weight {w.shape}")
    pl, pr = _pad_pair(padding)
    t = x.shape[0]
    if t + pl + pr < k:
        raise ShapeError(f"conv1d: padded length {t + pl + pr} shorter than kernel {k}")
    t_out = (t + pl + pr - k) // stride + 1

    nb = -(-k // stride)
    # whole blocks that cover every window and all of x
    rows = -(-max((t_out - 1 + nb) * stride, pl + t) // stride)
    xp = np.zeros((rows * stride, c_in), dtype=x.dtype)
    xp[pl : pl + t] = x.data
    xb = xp.reshape(rows, stride * c_in)
    wp = np.zeros((nb * stride, c_in, c_out), dtype=w.dtype)
    wp[:k] = w.data.transpose(2, 1, 0)
    wb = wp.reshape(nb, stride * c_in, c_out)
    data = _shift_sum(xb, wb, t_out) + b.data

    def bwd(g):
        gw = _shift_outer(xb, g, nb).reshape(nb * stride, c_in, c_out)[:k].transpose(2, 1, 0)
        gxb = _shift_add(g, wb.transpose(0, 2, 1), rows)
        return gxb.reshape(rows * stride, c_in)[pl : pl + t], gw, g.sum(axis=0)

    return _make(data, (x, w, b), bwd, "conv1d")


def conv1d_transpose(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding=0) -> Tensor:
    """Transposed 1-D convolution: the adjoint of ``conv1d`` with the same
    stride and padding.

    x: (T, C_in), w: (C_in, C_out, K). The full output ((T-1)*stride + K,
    C_out) has out[stride * t + j] += x[t] @ w[:, :, j]; ``padding``
    (pad_l, pad_r) crops that many steps off each end, then b is added.
    In blocks of ``stride`` output steps the full output is one GEMM of x,
    stacked at its ceil(K / stride) block shifts, against the stacked
    weight blocks.
    """
    if stride < 1:
        raise ShapeError(f"conv1d_transpose: stride must be >= 1, got {stride}")
    if x.ndim != 2 or w.ndim != 3:
        raise ShapeError(
            f"conv1d_transpose: expected x (T,C), w (C,O,K); got {x.shape} vs {w.shape}"
        )
    c_in, c_out, k = w.shape
    if x.shape[1] != c_in:
        raise ShapeError(f"conv1d_transpose: channel mismatch, {x.shape} vs {w.shape}")
    pl, pr = _pad_pair(padding)
    t = x.shape[0]
    t_full = (t - 1) * stride + k
    if pl < 0 or pr < 0 or pl + pr >= t_full:
        raise ShapeError(f"conv1d_transpose: padding {(pl, pr)} must be >= 0 and leave some of {t_full} output steps")
    t_out = t_full - pl - pr

    nb = -(-k // stride)
    rows = t - 1 + nb
    wp = np.zeros((nb * stride, c_in, c_out), dtype=w.dtype)
    wp[:k] = w.data.transpose(2, 0, 1)
    wb = wp.reshape(nb, stride, c_in, c_out).transpose(0, 2, 1, 3).reshape(nb, c_in, stride * c_out)
    data = _shift_add(x.data, wb, rows).reshape(rows * stride, c_out)[pl : pl + t_out] + b.data

    def bwd(g):
        gb = np.zeros((rows * stride, c_out), dtype=g.dtype)
        gb[pl : pl + t_out] = g
        gb = gb.reshape(rows, stride * c_out)
        gx = _shift_sum(gb, wb.transpose(0, 2, 1), t)
        gw = _shift_outer(gb, x.data, nb).reshape(nb, stride, c_out, c_in)
        gw = gw.transpose(3, 2, 0, 1).reshape(c_in, c_out, nb * stride)[:, :, :k]
        return gx, gw, g.sum(axis=0)

    return _make(data, (x, w, b), bwd, "conv1d_transpose")


# ---------------------------------------------------------------------------
# rotary-position attention


@lru_cache(maxsize=32)
def _rope_table(t: int, head_dim: int, dtype) -> tuple:
    """cos/sin tables of shape (1, t, head_dim) for rotary positions 0..t-1,
    built once per (t, head_dim, dtype) and read-only, as every layer of an
    encode shares them."""
    half = head_dim // 2
    inv_freq = 10000.0 ** (-np.arange(half, dtype=np.float64) / half)
    ang = np.outer(np.arange(t, dtype=np.float64), inv_freq)
    cos = np.concatenate([np.cos(ang), np.cos(ang)], axis=-1).astype(dtype)
    sin = np.concatenate([np.sin(ang), np.sin(ang)], axis=-1).astype(dtype)
    cos.flags.writeable = False
    sin.flags.writeable = False
    return cos[None], sin[None]


def rope_attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, wo: Tensor, heads: int) -> Tensor:
    """Multi-head self-attention with rotary position rotation of q and k.

    x: (T, hidden); all weights (hidden, hidden); full (non-causal)
    attention. Rotating y by R(y) = concat(-y[half:], y[:half]) gives
    y * cos + R(y) * sin; its adjoint is g * cos + R^T(g * sin) with
    R^T(a) = concat(a[half:], -a[:half]).

    When no graph is recorded the queries run in blocks of ``_ATTN_BLOCK``
    (256) rows, so the live score array is (heads, 256, T) and memory grows
    linearly in T. Each query row's softmax still spans every key, so the
    result is exact (Rabe & Staats, arXiv 2112.05682); a clip of at most one
    block is the same to the bit, a longer one may differ by how BLAS
    rounds the block products. A recorded graph uses one block, since
    backward reads the whole (heads, T, T) ``attn``. Each block's
    finiteness check, scale, max-subtraction, exp and normalisation run in
    place.
    """
    t, hidden = x.shape
    if hidden % heads != 0:
        raise ShapeError(f"rope_attention: hidden {hidden} not divisible by heads {heads}")
    hd = hidden // heads
    if hd % 2 != 0:
        raise ShapeError(f"rope_attention: head_dim {hd} must be even for rotary pairs")
    half = hd // 2
    cos, sin = _rope_table(t, hd, x.dtype)
    scale = np.asarray(1.0 / math.sqrt(hd), x.dtype)
    parents = (x, wq, wk, wv, wo)
    record = _records(parents)

    def split_heads(w):
        return (x.data @ w.data.T).reshape(t, heads, hd).transpose(1, 0, 2)  # (H, T, hd)

    def rotate(y):
        # y * cos + R(y) * sin in one buffer; (-a) * b + c is c - a * b to the bit
        out = y * cos
        out[..., :half] -= y[..., half:] * sin[..., :half]
        out[..., half:] += y[..., :half] * sin[..., half:]
        return out

    q = rotate(split_heads(wq))
    k = rotate(split_heads(wk))
    v = split_heads(wv)
    kt = k.transpose(0, 2, 1)
    ctx = np.empty((t, heads, hd), x.dtype)  # merged heads, written per block
    block = t if record else _ATTN_BLOCK
    for s in range(0, t, block):
        attn = q[:, s : s + block] @ kt
        _check_finite(attn, "rope_attention")  # softmax would give an overflowed score weight 0
        attn *= scale
        attn -= attn.max(axis=-1, keepdims=True)
        np.exp(attn, out=attn)
        attn /= attn.sum(axis=-1, keepdims=True)
        np.matmul(attn, v, out=ctx[s : s + block].transpose(1, 0, 2))
    ctx = ctx.reshape(t, hidden)
    data = ctx @ wo.data.T

    def merge_heads(y):
        return y.transpose(1, 0, 2).reshape(t, hidden)

    def unrotate(g):
        gs = g * sin
        return g * cos + np.concatenate([gs[..., half:], -gs[..., :half]], axis=-1)

    def bwd(g):
        gctx = (g @ wo.data).reshape(t, heads, hd).transpose(1, 0, 2)
        gattn = gctx @ v.transpose(0, 2, 1)
        gscores = attn * (gattn - (gattn * attn).sum(axis=-1, keepdims=True)) * scale
        gq = merge_heads(unrotate(gscores @ k))
        gk = merge_heads(unrotate(gscores.transpose(0, 2, 1) @ q))
        gv = merge_heads(attn.transpose(0, 2, 1) @ gctx)
        gx = gq @ wq.data + gk @ wk.data + gv @ wv.data
        return gx, gq.T @ x.data, gk.T @ x.data, gv.T @ x.data, g.T @ ctx

    return _make(data, parents, bwd, "rope_attention")


# ---------------------------------------------------------------------------
# short-time Fourier transform


def stft_mag(x: Tensor, fft_size: int, hop: int) -> Tensor:
    """Hann-windowed STFT magnitude sqrt(|X|^2 + 1e-12) of a 1-D signal,
    time-major (frames, fft_size // 2 + 1), over the frames that lie fully
    inside it; the epsilon keeps silent bins smooth. Backward: a frame's
    gradient is fft_size * irfft(g / |X| * X) times the window, with bins
    1 .. fft_size/2 - 1 halved because irfft counts them twice; frame
    gradients are overlap-added in ceil(fft_size / hop) slices of hop samples.
    """
    if x.ndim != 1 or x.shape[0] < fft_size:
        raise ShapeError(f"stft_mag: need a 1-D signal of at least {fft_size} samples, got {x.shape}")
    t = x.shape[0]
    n_frames = (t - fft_size) // hop + 1
    window = np.hanning(fft_size).astype(x.dtype)
    spec = np.fft.rfft(np.lib.stride_tricks.sliding_window_view(x.data, fft_size)[::hop] * window, axis=1)
    # numpy < 2 promotes float32 to complex128
    mag = np.sqrt(spec.real * spec.real + spec.imag * spec.imag + 1e-12).astype(x.dtype, copy=False)

    def bwd(g):
        z = g / mag * spec
        z[:, 1 : fft_size // 2] *= 0.5
        d = np.fft.irfft(z, n=fft_size, axis=1) * (fft_size * window)
        nb = -(-fft_size // hop)
        gx = np.zeros(max(t, (n_frames - 1 + nb) * hop), dtype=x.dtype)
        blocks = gx[: (n_frames - 1 + nb) * hop].reshape(-1, hop)
        for q in range(nb):
            blocks[q : q + n_frames, : fft_size - q * hop] += d[:, q * hop : (q + 1) * hop]
        return (gx[:t],)

    return _make(mag, (x,), bwd, "stft_mag")


# ---------------------------------------------------------------------------
# loss terms


def l1_distance(a: Tensor, b: Tensor) -> Tensor:
    """Mean absolute difference of two same-shape tensors. Backward:
    sign(a - b) / size to ``a`` and its negative to ``b``, with
    subgradient 0 where they tie."""
    if a.shape != b.shape:
        raise ShapeError(f"l1_distance: shapes differ, {a.shape} vs {b.shape}")
    diff = a.data - b.data
    data = np.asarray(np.abs(diff).mean())

    def bwd(g):
        ga = np.broadcast_to(np.asarray(g) / diff.size, diff.shape) * np.sign(diff)
        return ga, -ga

    return _make(data, (a, b), bwd, "l1_distance")


def sq_distance(a: Tensor, target) -> Tensor:
    """Mean over the rows of ``a`` (rows, dim) of the squared Euclidean
    distance to the same row of ``target``, a constant array that takes no
    gradient. Backward: 2 (a - target) / rows to ``a``."""
    target = np.asarray(target)
    if a.ndim != 2 or target.shape != a.shape:
        raise ShapeError(f"sq_distance: input {a.shape} vs target {target.shape}")
    diff = a.data - target
    data = np.asarray((diff * diff).sum(axis=-1).mean())

    def bwd(g):
        half = (np.asarray(g) / diff.shape[0]) * diff
        return (half + half,)

    return _make(data, (a,), bwd, "sq_distance")


def info_nce(q: Tensor, c: Tensor, cand, temperature: float) -> Tensor:
    """Mean over the rows i of ``cand`` of -log softmax_j(s_ij / temperature)
    at j = 0, where s_ij is the cosine similarity of q[cand[i, 0]] and
    c[cand[i, j]], each norm floored at 1e-12. ``q`` and ``c`` are
    (T, dim); ``cand`` is a (rows, candidates) array of row indices, which
    may repeat: column 0 holds each query's own step, the rest its
    distractors.

    Backward: with p the softmax and G_ij = (p_ij - [j = 0]) /
    (rows * temperature), q's row cand[i, 0] gets sum_j G_ij (c_ij /
    (|q_i| |c_ij|) - s_ij q_i / |q_i|^2) and c's row cand[i, j] gets
    G_ij (q_i / (|q_i| |c_ij|) - s_ij c_ij / |c_ij|^2), summed over the
    rows that pick it.
    """
    cand = np.asarray(cand)
    if q.ndim != 2 or c.shape != q.shape:
        raise ShapeError(f"info_nce: queries {q.shape} vs candidates {c.shape}")
    if cand.ndim != 2 or cand.size == 0:
        raise ShapeError(f"info_nce: candidate indices {cand.shape} are not a non-empty (rows, candidates) array")
    if cand.min() < 0 or cand.max() >= q.shape[0]:
        raise ShapeError(f"info_nce: candidate indices outside [0, {q.shape[0]})")
    rows = cand.shape[0]
    tau = np.asarray(temperature, q.dtype)
    qi = q.data[cand[:, 0]]  # (rows, dim)
    ci = c.data[cand]  # (rows, candidates, dim)
    eps = np.asarray(1e-24, q.dtype)
    nq = np.sqrt((qi * qi).sum(axis=-1) + eps)[:, None]
    nc = np.sqrt((ci * ci).sum(axis=-1) + eps)
    norms = nq * nc
    sims = (qi[:, None, :] * ci).sum(axis=-1) / norms
    logits = sims / tau
    shift = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    total = e.sum(axis=-1)
    data = np.asarray((np.log(total) + shift[:, 0] - logits[:, 0]).mean())

    def bwd(g):
        gs = e / total[:, None]
        gs[:, 0] -= 1.0
        gs *= np.asarray(g) / (rows * tau)
        w = gs / norms
        gq = gc = None
        if q.requires_grad:
            rows_q = np.einsum("rk,rkd->rd", w, ci) - ((gs * sims).sum(axis=-1)[:, None] / (nq * nq)) * qi
            gq = np.zeros_like(q.data)
            np.add.at(gq, cand[:, 0], rows_q)
        if c.requires_grad:
            rows_c = w[:, :, None] * qi[:, None, :] - (gs * sims / (nc * nc))[:, :, None] * ci
            gc = np.zeros_like(c.data)
            np.add.at(gc, cand, rows_c)
        return gq, gc

    return _make(data, (q, c), bwd, "info_nce")


# ---------------------------------------------------------------------------
# backward pass


def _topo_order(root: Tensor) -> list:
    """Topological order of the op DAG reachable from ``root``."""
    order: list = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.requires_grad:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    ``loss`` must be a scalar. Gradients accumulate, so set the leaves'
    ``grad`` to None between passes.
    """
    if loss.size != 1:
        raise AutodiffError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise AutodiffError("backward on a tensor with no grad-requiring ancestors")

    order = _topo_order(loss)
    grads: dict = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad and node._backward is None:
            # leaf
            node.grad = g if node.grad is None else node.grad + g
            continue
        if node._backward is None:
            continue
        parent_grads = node._backward(g)
        for p, pg in zip(node._parents, parent_grads):
            if pg is None or not p.requires_grad:
                continue
            pg = np.asarray(pg)
            if p._backward is None:
                p.grad = pg if p.grad is None else p.grad + pg
            else:
                key = id(p)
                if key in grads:
                    grads[key] = grads[key] + pg
                else:
                    grads[key] = pg


# ---------------------------------------------------------------------------
# finite-difference verification


@dataclass
class GradCheckReport:
    """Per-coordinate comparison of analytic and central-difference grads."""

    max_rel_err: float
    passed: bool
    tol: float
    h: float
    num_coords: int
    kink_coords: list = field(default_factory=list)
    rel_errs: np.ndarray = field(default=None, repr=False)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        extra = f", {len(self.kink_coords)} kink coords excluded" if self.kink_coords else ""
        return (
            f"grad_check {status}: max_rel_err={self.max_rel_err:.3e} "
            f"(tol={self.tol:.1e}, h={self.h:.1e}, {self.num_coords} coords{extra})"
        )


def grad_check(
    f: Callable[[Tensor], Tensor],
    x: Tensor,
    h: float = 1e-4,
    tol: float = 1e-4,
    denom_floor: float = 1e-6,
    kink_tol: Optional[float] = 1e-2,
) -> GradCheckReport:
    """Compare analytic gradients of scalar-valued ``f`` at ``x`` against
    central finite differences.

    Coordinates whose second difference |f(x+h)+f(x-h)-2f(x)|/(2h) exceeds
    ``kink_tol`` are flagged as nondifferentiable points and excluded from
    the pass/fail decision (e.g. a top-k gate at a near-tie). Use 64-bit
    inputs; float32 cannot support tol=1e-4 at h=1e-4.
    """
    base = x.data.astype(np.float64).copy()
    xt = Tensor(base.copy(), requires_grad=True)
    out = f(xt)
    if out.size != 1:
        raise AutodiffError(f"grad_check requires scalar f, got shape {out.shape}")
    backward(out)
    analytic = xt.grad.reshape(-1).copy() if xt.grad is not None else np.zeros(base.size)
    f0 = float(out.data)

    flat = base.reshape(-1)
    numeric = np.zeros_like(flat)
    curvature = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(base.copy())).data)
        flat[i] = orig - h
        fm = float(f(Tensor(base.copy())).data)
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * h)
        curvature[i] = abs(fp + fm - 2.0 * f0) / (2.0 * h)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), denom_floor)
    rel = np.abs(analytic - numeric) / denom
    kinks = []
    if kink_tol is not None:
        kinks = list(np.nonzero(curvature > kink_tol)[0])
        if kinks:
            rel = rel.copy()
            rel[kinks] = 0.0
    max_rel = float(rel.max()) if rel.size else 0.0
    return GradCheckReport(
        max_rel_err=max_rel,
        passed=max_rel < tol,
        tol=tol,
        h=h,
        num_coords=int(flat.size),
        kink_coords=kinks,
        rel_errs=rel,
    )

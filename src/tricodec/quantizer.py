"""Single-codebook vector quantizer with domain-partitioned index regions
and a linear codebook reparameterization.

The codebook is a frozen Gaussian base matrix composed with one trainable
linear projection (no bias): effective codeword i = projection @ base[i].
Index regions reserve [0, 4096) for speech, [4096, 8192) for music, and
[8192, 16384) for sound; training restricts nearest-neighbor search to the
input's region, evaluation searches the whole book.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .autodiff import Tensor, linear, mul, no_grad, passthrough, sq_distance
from .signal import SAMPLE_RATE, Domain

__all__ = [
    "QuantizerConfig",
    "TokenStream",
    "TokenStreamError",
    "quantizer_param_shapes",
    "init_quantizer_params",
    "effective_codewords",
    "effective_book",
    "simvq_embed",
    "quantize",
    "commitment_loss",
    "alignment_loss",
    "utilization",
    "save_tokens",
    "load_tokens",
]

TOKEN_MAGIC = b"UCTK"
TOKEN_VERSION = 1

# frozen base rows: a shared mean of this norm plus i.i.d. noise of this std
BASE_MEAN = 4.0
BASE_STD = 1.0

# commitment weight (VQ-VAE's beta)
COMMIT_BETA = 0.25

# book rows per block when effective_book takes the float64 norms
_NORM_ROWS = 1024


@dataclass(frozen=True)
class QuantizerConfig:
    codebook_size: int = 16384
    speech_end: int = 4096
    music_end: int = 8192

    def __post_init__(self):
        if not (0 < self.speech_end < self.music_end < self.codebook_size):
            raise ValueError(
                f"region boundaries must satisfy 0 < {self.speech_end} < "
                f"{self.music_end} < {self.codebook_size}"
            )

    def region(self, domain: Domain) -> tuple:
        """Half-open index range [start, end) for a domain."""
        if domain == Domain.SPEECH:
            return (0, self.speech_end)
        if domain == Domain.MUSIC:
            return (self.speech_end, self.music_end)
        return (self.music_end, self.codebook_size)


@dataclass
class TokenStream:
    """Codebook indices at a fixed frame rate; one token per frame."""

    ids: np.ndarray
    frame_rate: int = 75
    source_sample_rate: int = SAMPLE_RATE
    codebook_size: int = 16384

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        if ids.ndim != 1:
            raise ValueError(f"ids must be 1-D, got shape {ids.shape}")
        if len(ids) and (ids.min() < 0 or ids.max() >= self.codebook_size):
            raise ValueError(
                f"ids out of range [0, {self.codebook_size}): min {ids.min()}, max {ids.max()}"
            )
        self.ids = ids

    def __len__(self):
        return len(self.ids)


def quantizer_param_shapes(cfg: QuantizerConfig, hidden: int) -> dict:
    """Name -> shape of every 'vq.*' parameter, in init order."""
    return {"vq.base": (cfg.codebook_size, hidden), "vq.proj": (hidden, hidden)}


def init_quantizer_params(cfg: QuantizerConfig, hidden: int, rng: np.random.Generator) -> dict:
    """Base embeddings are Gaussian with a shared mean of norm ``BASE_MEAN``
    (along a direction drawn once per init) plus i.i.d. noise of std
    ``BASE_STD``; they stay frozen. The projection starts at identity so
    initial codewords equal the base rows. Both are float64.

    Every selected codeword's projection gradient has a component along the
    shared mean, so projection @ mean acts as a global codeword offset that
    coherent updates shift as a whole. The offset does not keep entries in
    use by itself: the toy acoustic run ends on about five codewords per
    clip with it and about four with a zero mean. How many entries a
    clip uses follows how spread the encoder keeps its frames."""
    shapes = quantizer_param_shapes(cfg, hidden)
    direction = rng.normal(0.0, 1.0, hidden)
    direction /= np.linalg.norm(direction)
    base = BASE_MEAN * direction + rng.normal(0.0, BASE_STD, shapes["vq.base"])
    return {"vq.base": base, "vq.proj": np.eye(*shapes["vq.proj"])}


def effective_codewords(params: dict) -> Tensor:
    """All effective codewords, shape (codebook_size, hidden)."""
    return linear(params["vq.base"], params["vq.proj"])


def effective_book(params: dict) -> tuple:
    """(codewords, squared row norms) of the whole effective book, built
    without a graph: the search's inputs, which depend only on the ``vq.*``
    parameters. The codewords keep the parameters' dtype, so float32
    inference holds a float32 book; the norms are the float64 sums of
    squares of those values, taken a block of rows at a time so that no
    float64 copy of a float32 book is held."""
    with no_grad():
        book = effective_codewords(params).data
    sq = np.empty(len(book))
    for i in range(0, len(book), _NORM_ROWS):
        rows = book[i : i + _NORM_ROWS].astype(np.float64, copy=False)
        sq[i : i + _NORM_ROWS] = np.sum(rows * rows, axis=1)
    return book, sq


def simvq_embed(ids, params: dict) -> Tensor:
    """Effective codeword(s) for ``ids``: projection applied to base rows.

    Gradients reach only the projection; the base matrix is frozen.
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= params["vq.base"].shape[0]):
        raise IndexError(
            f"codebook id out of range [0, {params['vq.base'].shape[0]}): "
            f"min {ids.min()}, max {ids.max()}"
        )
    return linear(params["vq.base"][ids], params["vq.proj"])


def _nearest(f: np.ndarray, book: np.ndarray, sq: np.ndarray) -> np.ndarray:
    """Row index of the nearest book row for each row of ``f`` under squared
    Euclidean distance, ties to the lowest index; ``sq`` holds the book's
    squared row norms in float64.

    A GEMM screen in the book's dtype ranks by the expanded
    ``-2 f.c + |c|^2``, with ``f`` and the norms rounded to that dtype.
    Its rounding depends on how BLAS blocks the product, so bit-identical
    codewords can get different screened values, and in float32 two rows
    whose distances differ below float32 rounding can swap. Every
    candidate within the screen's error bound of its row minimum is
    therefore re-ranked by the exact float64 sum of squared differences,
    which is the same for identical rows. With u the unit roundoff of the
    book's dtype (half its eps), D the width and c any codeword, a screened
    value is off by at most
      - 2 u |f| |c| from rounding ``f`` to the book's dtype,
      - 2 D u |f| |c| (to first order in u) from the GEMM,
      - u |c|^2 from rounding the norm, and
      - u (2 |f| |c| + |c|^2) from the final sum,
    which with 2 |f| |c| <= |f|^2 + |c|^2 totals at most
    (D + 2) u (|f|^2 + 2 |c|^2). The tolerance is that bound with 2 eps = 4 u
    in place of u: one factor of two because two screened values are
    compared, the other for the second-order terms and the float64 rounding
    of the norms themselves. When ``f`` and the book already hold values of
    the book's dtype, as in float32 inference, the candidates' exact
    distances are the values a float64 search of the same values sees, so
    the ids are too.
    """
    f64 = np.asarray(f, dtype=np.float64)
    d = np.asarray(f, dtype=book.dtype) @ book.T
    d *= -2.0
    d += sq.astype(book.dtype, copy=False)
    dmin = d.min(axis=1)
    tol = 2.0 * (f.shape[1] + 2) * np.finfo(book.dtype).eps * (np.sum(f64 * f64, axis=1) + 2.0 * sq.max())
    near = d <= (dmin + tol)[:, None]
    near[np.arange(len(d)), np.argmin(d, axis=1)] = True  # keeps non-finite rows
    # the flat scan gives np.nonzero's row-major order at a fraction of its
    # cost on a (T, 16384) mask
    rows, cols = np.divmod(np.flatnonzero(near), near.shape[1])
    exact = np.sum((f64[rows] - book[cols]) ** 2, axis=1)
    # rows ascending, then exact distance: first hit per row wins. Each row's
    # columns arrive ascending and lexsort is stable, so ties keep the lowest id
    order = np.lexsort((exact, rows))
    first = np.ones(len(order), dtype=bool)
    first[1:] = rows[order][1:] != rows[order][:-1]
    return cols[order][first]


def quantize(
    frames: Tensor,
    params: dict,
    cfg: QuantizerConfig,
    domain: Optional[Domain] = None,
    frame_rate: int = 75,
    book: Optional[tuple] = None,
) -> tuple:
    """Nearest-codeword assignment under squared Euclidean distance.

    Without a domain the whole book is searched; with one, only that
    domain's region. Ties break toward the lowest id. Returns
    (TokenStream, quantized frames); the quantized frames carry an
    identity-gradient passthrough, so encoder frames and selected
    codewords both receive the downstream gradient. The search builds no
    graph; the codewords are ``simvq_embed`` of the ids, as in decoding.
    ``book`` is ``effective_book(params)`` when the caller keeps it; without
    it the call builds the book itself.
    """
    codewords, sq = effective_book(params) if book is None else book
    lo, hi = (0, cfg.codebook_size) if domain is None else cfg.region(domain)
    ids = lo + _nearest(frames.data, codewords[lo:hi], sq[lo:hi])
    quantized = passthrough(frames, simvq_embed(ids, params))
    stream = TokenStream(ids=ids, frame_rate=frame_rate, codebook_size=cfg.codebook_size)
    return stream, quantized


def commitment_loss(frames: Tensor, quantized: Tensor) -> Tensor:
    """COMMIT_BETA * mean over frames of squared distance to the
    (stop-gradient) quantized frames: zero iff every frame already sits on
    its codeword."""
    return mul(sq_distance(frames, quantized.data), Tensor(np.asarray(COMMIT_BETA, dtype=frames.dtype)))


def alignment_loss(frames: Tensor, codewords: Tensor) -> Tensor:
    """Mean squared distance from selected codewords to their (stop-gradient)
    frames: the counterpart of commitment_loss that trains the codebook side.

    ``codewords`` must be the gathered effective codewords (simvq_embed of
    the emitted ids), not the straight-through quantized frames, so the
    gradient reaches only the projection. Pulling selected codewords toward
    the frames they serve drags the whole projected book toward the
    encoder's frame cloud. It does not keep entries in use: a toy acoustic
    run with both this term and the commitment term dropped uses no fewer
    codewords per clip than with both, since the count follows how spread
    the encoder keeps its frames. Training adds it at unit weight."""
    return sq_distance(codewords, frames.data)


def utilization(streams: Sequence[TokenStream], cfg: QuantizerConfig, domain: Optional[Domain] = None) -> float:
    """Distinct ids observed divided by region size (whole book if no domain)."""
    if not streams:
        raise ValueError("utilization requires at least one token stream")
    all_ids = np.concatenate([s.ids for s in streams])
    lo, hi = (0, cfg.codebook_size) if domain is None else cfg.region(domain)
    in_region = all_ids[(all_ids >= lo) & (all_ids < hi)]
    return len(np.unique(in_region)) / (hi - lo)


class TokenStreamError(Exception):
    pass


def save_tokens(path, stream: TokenStream) -> None:
    """Header: magic 'UCTK', u32 version, u32 sample rate, u32 frame rate,
    u32 codebook size, u64 count; then little-endian u16 ids."""
    if stream.codebook_size > 0x10000:
        raise TokenStreamError(f"codebook size {stream.codebook_size} does not fit u16 ids")
    header = TOKEN_MAGIC + struct.pack(
        "<IIIIQ",
        TOKEN_VERSION,
        stream.source_sample_rate,
        stream.frame_rate,
        stream.codebook_size,
        len(stream.ids),
    )
    Path(path).write_bytes(header + stream.ids.astype("<u2").tobytes())


def load_tokens(path) -> TokenStream:
    raw = Path(path).read_bytes()
    if len(raw) < 28:
        raise TokenStreamError(f"{path}: too short for a token stream header")
    if raw[:4] != TOKEN_MAGIC:
        raise TokenStreamError(f"{path}: bad magic {raw[:4]!r}, expected {TOKEN_MAGIC!r}")
    version, rate, frame_rate, book, count = struct.unpack_from("<IIIIQ", raw, 4)
    if version != TOKEN_VERSION:
        raise TokenStreamError(f"{path}: unsupported version {version}, expected {TOKEN_VERSION}")
    payload = raw[28:]
    if len(payload) != 2 * count:
        raise TokenStreamError(f"{path}: expected {count} ids, payload holds {len(payload) // 2}")
    ids = np.frombuffer(payload, dtype="<u2").astype(np.int64)
    try:
        return TokenStream(ids=ids, frame_rate=frame_rate, source_sample_rate=rate, codebook_size=book)
    except ValueError as e:
        raise TokenStreamError(f"{path}: {e}") from e

"""Transformer denoiser: predicts the clean latent from a noisy one.

Encoder-only, pre-norm residual blocks (attention + width-4d GELU feed
forward), layer norms on the way in and out, and no output head: the final
layer norm IS the prediction, in latent space. The step index enters once,
as a sinusoidal code pushed through a two-layer MLP and added to every
position of the input; the model has no positional table of its own (the
latents already carry one).

Only real slots are computed. Forward gathers them once into packed
(N_real, dim) rows, frame by frame in batch order, and every layer runs on
those rows, in forward and backward alike. The per-token layers (time-vector
add, layer norms, Q/K/V/O projections, feed forward, GELU) run on all of
them at once. Attention runs once per run of frames of one real length n
(`_frame_runs`, the frames taken by a stable sort on length): the run's g
frames are a (g, H, n, n) product over their own packed rows, so padding
is never a key, never a query and never stored, and a frame's outputs do
not depend on the width of its batch. The prediction and the input
gradient come back as (B, L, dim) with exact zeros at padding slots.

A caller that reads only some predictions (the loss and the reverse chain
read the scanpath side) passes their read_mask. The last block then takes
keys and values from every real row but runs its query side, up to the
output norm, on the read rows alone; the other predictions come back as
exact zeros. A read prediction and the input gradient are bit-identical
to the all-rows pass, and the parameter gradients lose only rows whose
gradient is exactly zero (`demos/blas_row_stability.py` checks the BLAS
property this rests on).

The denoiser is one pass over the frames it is given. Training cuts a
batch into shards of frames one level up (`training.frame_shards`) and
runs each through the whole loss. A shard's per-token products are row
blocks of the whole batch's, so its frames get the batch's predictions
bit for bit (blocks of at least MIN_PRODUCT_ROWS rows), and its input
gradient too where its backward products are past the BLAS's small-block
range, as every desk and paper batch's shards are
(`demos/blas_row_stability.py`).

Forward and backward are written out by hand in numpy. Every layer
computes in the dtype of the parameters (float64 for a fresh library
model, float32 for one that goes to or comes from a checkpoint): forward
casts z to it, and nothing upcasts. Forward can record a cache that
backward uses up, returning both parameter gradients and the gradient
with respect to the input latents (the training loss needs the latter,
since the latents are built from trainable tables).

The cache serves one backward. Backward drops each block's entries as
soon as that block's gradients are computed, so the cache shrinks while
the gradients grow, and a second backward on it is refused. Each
activation is stored once: a layer norm keeps its normalized input and
inverse deviation, and backward rebuilds the norm's output from them with
forward's own expression, bit for bit. Likewise the cache keeps each
GELU's normal CDF Phi(u) in place of its output u*Phi(u): backward
rebuilds the output with the same product and reuses Phi in the
derivative, so Phi is evaluated once per step and the results are
bit-identical to evaluating it again. In float64, Phi is exact erf
arithmetic (scipy's, imported on the first float64 call, so a float32
model never loads scipy); in float32 it is read from a constant table by
linear interpolation, within 1.5e-7 of the exact value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

LN_EPS = 1e-5
# the fewest rows a per-token product runs on (see forward's read_mask)
MIN_PRODUCT_ROWS = 6


# ---------------------------------------------------------------------------
# primitive ops (forward + backward pairs)

def _row_mean(x):
    """x.mean(axis=-1, keepdims=True), bit for bit, in x's dtype.

    ndarray.mean divides the sum by a numpy integer, in float64 for a
    float32 x, then rounds back; a python int keeps the division in float32,
    and since float64 carries more than twice float32's digits, rounding
    twice gives the bits of rounding once.
    """
    return x.sum(axis=-1, keepdims=True) / x.shape[-1]


def _layer_norm(x, g, b):
    # the bits of x.mean and x.var, with the mean subtracted once
    xhat = x - _row_mean(x)
    inv = 1.0 / np.sqrt(_row_mean(xhat * xhat) + LN_EPS)
    xhat *= inv
    cache = (xhat, inv)
    return _layer_norm_out(cache, g, b), cache


def _layer_norm_out(cache, g, b):
    """A layer norm's output from its cache: forward's expression, which
    backward uses to rebuild the output bit for bit instead of storing it."""
    return cache[0] * g + b


def _layer_norm_bwd(d_out, g, cache):
    xhat, inv = cache
    d_xhat = d_out * g
    d_g = (d_out * xhat).sum(axis=tuple(range(d_out.ndim - 1)))
    d_b = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    m1 = _row_mean(d_xhat)
    m2 = _row_mean(d_xhat * xhat)
    d_x = inv * (d_xhat - m1 - xhat * m2)
    return d_x, d_g, d_b


def _linear(x, w, b):
    return x @ w + b


def _linear_bwd(d_out, x, w):
    din, dout = w.shape
    d_w = x.reshape(-1, din).T @ d_out.reshape(-1, dout)
    d_b = d_out.reshape(-1, dout).sum(axis=0)
    d_x = d_out @ w.T
    return d_x, d_w, d_b


# Phi on a grid of step 2**-10 over [-8, 8], from float64 erfc rounded to
# float32: its value at each grid point and its rise over the cell above
# (0 above the last point). math.erfc's grid is off scipy's ndtr by up to
# 102 ulps in the far tails, but rounded to float32 both tables are the
# same, bit for bit (tested)
_CDF_CELLS = 1024  # grid points per unit
_CDF_HALF = 8 * _CDF_CELLS
_cdf_grid = np.array([0.5 * math.erfc(-(k / _CDF_CELLS) / math.sqrt(2.0))
                      for k in range(-_CDF_HALF, _CDF_HALF + 1)])
_CDF_VALUE = _cdf_grid.astype(np.float32)
_CDF_SLOPE = np.append(np.diff(_cdf_grid), 0.0).astype(np.float32)
del _cdf_grid


def _gelu_cdf(x):
    """Phi(x), the standard normal CDF; GELU(x) = x * Phi(x).

    float32 reads a linear interpolation of the table above, within 1.5e-7
    of the exact Phi (tested); any other dtype evaluates erf.
    """
    if x.dtype != np.float32:
        # scipy's erf, not math.erf, which differs in the last bits
        from scipy.special import erf
        return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    # x * 1024 and its floor are exact; fmax/fmin, unlike clip, turn a NaN
    # into a bound, so it reaches no int cast, and x * Phi(x) is NaN again
    y = x * _CDF_CELLS
    np.fmax(y, -_CDF_HALF, out=y)
    np.fmin(y, _CDF_HALF, out=y)
    cell = np.floor(y)
    y -= cell
    idx = cell.astype(np.intp)
    idx += _CDF_HALF
    phi = _CDF_SLOPE.take(idx)
    phi *= y
    phi += _CDF_VALUE.take(idx)
    return phi


def _gelu(x):
    return x * _gelu_cdf(x)


def _gelu_grad(x, phi):
    """d GELU / dx, given phi = _gelu_cdf(x) from the forward pass."""
    return phi + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def timestep_embedding(t, dim: int) -> np.ndarray:
    """Sinusoidal code for (a batch of) step indices, shape (B, dim), at
    frequencies that fall geometrically from 1 toward 1/10000."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(10000.0) * np.arange(half) / half)
    args = t[:, None] * freqs[None, :]
    emb = np.concatenate([np.cos(args), np.sin(args)], axis=1)
    if dim % 2:
        emb = np.concatenate([emb, np.zeros((emb.shape[0], 1))], axis=1)
    return emb


# ---------------------------------------------------------------------------
# parameters

@dataclass
class DenoiserParams:
    dim: int
    n_blocks: int
    n_heads: int
    tensors: dict[str, np.ndarray]

    @property
    def dtype(self) -> np.dtype:
        return self.tensors["time_w1"].dtype


def denoiser_shapes(dim: int, n_blocks: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every denoiser tensor, in checkpoint order."""
    h = 4 * dim
    shapes = {"time_w1": (dim, h), "time_b1": (h,), "time_w2": (h, dim), "time_b2": (dim,),
              "ln_in_g": (dim,), "ln_in_b": (dim,), "ln_out_g": (dim,), "ln_out_b": (dim,)}
    block = {"ln1_g": (dim,), "ln1_b": (dim,),
             "wq": (dim, dim), "bq": (dim,), "wk": (dim, dim), "bk": (dim,),
             "wv": (dim, dim), "bv": (dim,), "wo": (dim, dim), "bo": (dim,),
             "ln2_g": (dim,), "ln2_b": (dim,),
             "ffn_w1": (dim, h), "ffn_b1": (h,), "ffn_w2": (h, dim), "ffn_b2": (dim,)}
    for i in range(n_blocks):
        shapes.update({f"b{i}.{leaf}": shape for leaf, shape in block.items()})
    return shapes


def init_denoiser(dim: int, n_blocks: int, n_heads: int, rng: np.random.Generator) -> DenoiserParams:
    """Fresh denoiser weights, drawn in `denoiser_shapes` order.

    Normal(0, 0.02) for weight matrices, zeros for biases and for the
    closing projection of each residual branch (wo, ffn_w2), so every block
    starts as the identity and the early updates stay small.
    """
    if n_heads < 1:
        raise ValidationError(f"need at least 1 head, got {n_heads}")
    if dim % n_heads != 0:
        raise ValidationError(f"dim {dim} not divisible by {n_heads} heads")
    if n_blocks < 1:
        raise ValidationError(f"need at least 1 block, got {n_blocks}")

    t = {}
    for name, shape in denoiser_shapes(dim, n_blocks).items():
        leaf = name.rpartition(".")[2]
        if leaf.endswith("_g"):
            t[name] = np.ones(shape)
        elif len(shape) == 1 or leaf in ("wo", "ffn_w2"):
            t[name] = np.zeros(shape)
        else:
            t[name] = rng.normal(0.0, 0.02, size=shape)
    return DenoiserParams(dim=dim, n_blocks=n_blocks, n_heads=n_heads, tensors=t)


# ---------------------------------------------------------------------------
# forward / backward

def _pack(x, rows):
    """(B, L, d) frames -> (N_real, d) rows, keeping the real slots only."""
    return x.reshape(-1, x.shape[-1])[rows]


def _scatter(x, at, n):
    """x's rows at positions `at` of n rows, the others exact zeros; x
    itself when `at` is a slice, which here always means every row."""
    if isinstance(at, slice):
        return x
    out = np.zeros((n, x.shape[1]), dtype=x.dtype)
    out[at] = x
    return out


def _frame_runs(pad_mask):
    """A batch's runs of frames of one real length, for attention.

    The packed rows hold the frames in batch order, each frame's real
    slots in slot order. Taking the frames by a stable sort on real
    length, each nonzero length n gives one run: (at, g, n), its g frames
    in batch order and `at` the positions of their g * n rows among the
    packed rows, a slice when those rows are contiguous (a run of one
    frame always is) and an index array otherwise. The runs depend on the
    batch alone, not on its width.
    """
    lens = pad_mask.sum(axis=1)
    first = np.cumsum(lens) - lens  # each frame's first packed row
    runs = []
    for n in np.unique(lens[lens > 0]):
        frames = np.flatnonzero(lens == n)
        at = (first[frames][:, None] + np.arange(n)).ravel()
        if at[-1] - at[0] == len(at) - 1:
            at = slice(at[0], at[-1] + 1)
        runs.append((at, len(frames), int(n)))
    return runs


def _heads(x, run, n_heads):
    """A run's packed rows of x, (g * n, d), as (g, H, n, d // H)."""
    at, g, n = run
    return x[at].reshape(g, n, n_heads, -1).transpose(0, 2, 1, 3)


def _rows(x):
    """(g, H, n, dh) heads -> their (g * n, H * dh) packed rows."""
    g, h, n, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(g * n, h * dh)


def _attention(q, k, v, runs, n_heads):
    """Each frame's queries over its own keys, one (g, H, n, n) product per
    run. q, k and v are packed (N_real, d) rows; returns the context rows
    and each run's attention weights."""
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    ctx = np.empty_like(v)
    atts = []
    for run in runs:
        scores = _heads(q, run, n_heads) @ _heads(k, run, n_heads).swapaxes(-1, -2) * scale
        scores -= scores.max(axis=-1, keepdims=True)
        att = np.exp(scores)
        att /= att.sum(axis=-1, keepdims=True)
        ctx[run[0]] = _rows(att @ _heads(v, run, n_heads))
        atts.append(att)
    return ctx, atts


def _attention_bwd(d_ctx, q, k, v, atts, runs, n_heads):
    """The gradients of _attention's q, k and v, as packed rows."""
    scale = 1.0 / math.sqrt(q.shape[1] // n_heads)
    d_q, d_k, d_v = (np.empty_like(x) for x in (q, k, v))
    for run, att in zip(runs, atts):
        at = run[0]
        d_ctx_h = _heads(d_ctx, run, n_heads)
        d_att = d_ctx_h @ _heads(v, run, n_heads).swapaxes(-1, -2)
        d_v[at] = _rows(att.swapaxes(-1, -2) @ d_ctx_h)
        d_scores = att * (d_att - (d_att * att).sum(axis=-1, keepdims=True))
        d_q[at] = _rows(d_scores @ _heads(k, run, n_heads) * scale)
        d_k[at] = _rows(d_scores.swapaxes(-1, -2) @ _heads(q, run, n_heads) * scale)
    return d_q, d_k, d_v


def forward(params: DenoiserParams, z, t, pad_mask, need_cache: bool = False,
            read_mask=None):
    """Run the denoiser. Returns (prediction, cache or None).

    z is (B, L, dim) and is cast to the parameters' dtype; t is a scalar
    step or a (B,) array; pad_mask is (B, L) bool with True on real slots.
    A scalar t runs the time MLP on one time-code row and adds its output
    to every frame, so each frame's prediction is bit-identical to running
    that frame alone (a one-row and a B-row matmul take different BLAS
    paths); a (B,) t runs one row per frame.
    Every layer runs on the real slots alone, packed as (N_real, dim)
    rows; attention runs each frame over its own real slots, one stacked
    product per run of frames of one length. The prediction comes back
    as (B, L, dim) with exact zeros at padding.

    read_mask (B, L), real slots only, marks the predictions the caller
    reads (default: every real slot); the others come back as exact zeros.
    The last block still takes keys and values from every real slot, but
    runs its query side (Q, attention output, W_O, LN2, feed forward and
    the output norm) on the read rows alone, so a read prediction is
    bit-identical to the one an all-rows forward gives.
    """
    z = np.asarray(z, dtype=params.dtype)
    if z.ndim != 3 or z.shape[2] != params.dim:
        raise ValidationError(f"expected z of shape (B, L, {params.dim}), got {z.shape}")
    pad_mask = np.asarray(pad_mask, dtype=bool)
    bsz, seq, dim = z.shape
    if pad_mask.shape != (bsz, seq):
        raise ValidationError(f"expected pad_mask of shape ({bsz}, {seq}), got {pad_mask.shape}")
    read_mask = pad_mask if read_mask is None else np.asarray(read_mask, dtype=bool)
    if read_mask.shape != (bsz, seq) or np.any(read_mask & ~pad_mask):
        raise ValidationError(f"expected a read_mask of shape ({bsz}, {seq}) marking real "
                              f"slots only")
    p = params.tensors

    t = np.asarray(t, dtype=np.float64)
    if t.shape not in ((), (bsz,)):
        raise ValidationError(f"expected a scalar t or one of shape ({bsz},), got {t.shape}")
    # in float64 first: t up to t_max times a frequency loses digits in float32
    t_code = timestep_embedding(t, dim).astype(params.dtype)
    t_hid = _linear(t_code, p["time_w1"], p["time_b1"])
    t_phi = _gelu_cdf(t_hid)
    t_vec = _linear(t_hid * t_phi, p["time_w2"], p["time_b2"])

    rows = np.flatnonzero(pad_mask.ravel())
    runs = _frame_runs(pad_mask)
    is_read = read_mask.ravel()[rows]
    # positions, among the packed rows, of the last block's query side; a
    # product of fewer than MIN_PRODUCT_ROWS rows can take another BLAS path
    # than the same rows inside a larger one, so a smaller read set keeps
    # every row and zeroes the unread predictions instead
    last = np.flatnonzero(is_read)
    if len(last) < MIN_PRODUCT_ROWS or len(last) == len(rows):
        last = slice(None)
    unread = ~is_read[last]

    z_in = _pack(z, rows) + (t_vec[rows // seq] if t.ndim else t_vec)
    h, ln_in_cache = _layer_norm(z_in, p["ln_in_g"], p["ln_in_b"])

    blocks = []
    for i in range(params.n_blocks):
        pre = f"b{i}."
        sel = last if i == params.n_blocks - 1 else slice(None)  # this block's query rows
        a, ln1_cache = _layer_norm(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
        # the last block's unread query rows attend as zeros, and are dropped
        q = _scatter(_linear(a[sel], p[pre + "wq"], p[pre + "bq"]), sel, len(a))
        k = _linear(a, p[pre + "wk"], p[pre + "bk"])
        v = _linear(a, p[pre + "wv"], p[pre + "bv"])
        ctx, att = _attention(q, k, v, runs, params.n_heads)
        ctx = ctx[sel]
        attn_out = _linear(ctx, p[pre + "wo"], p[pre + "bo"])
        h = h[sel] + attn_out

        h_pre_ffn = h
        fin, ln2_cache = _layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        u = _linear(fin, p[pre + "ffn_w1"], p[pre + "ffn_b1"])
        phi = _gelu_cdf(u)
        ffn_out = _linear(u * phi, p[pre + "ffn_w2"], p[pre + "ffn_b2"])
        h = h_pre_ffn + ffn_out
        if need_cache:
            # a and fin are rebuilt from their layer norms' caches
            blocks.append({
                "ln1": ln1_cache, "q": q, "k": k, "v": v, "att": att,
                "ctx": ctx, "ln2": ln2_cache, "u": u, "phi": phi,
            })

    pred, ln_out_cache = _layer_norm(h, p["ln_out_g"], p["ln_out_b"])
    pred[unread] = 0.0
    out = np.zeros(z.shape, dtype=params.dtype)
    out.reshape(-1, dim)[rows[last]] = pred
    if not need_cache:
        return out, None
    return out, {"t_code": t_code, "t_hid": t_hid, "t_phi": t_phi,
                 "rows": rows, "runs": runs, "last": last, "unread": unread,
                 "ln_in": ln_in_cache, "ln_out": ln_out_cache, "blocks": blocks}


def backward(params: DenoiserParams, cache, d_out):
    """Backprop through a cached forward pass.

    d_out is (B, L, dim), cast to the parameters' dtype; only its slots
    the forward's read_mask marks are read. Returns
    (grads, d_z): parameter gradients in `denoiser_shapes` order, and the
    (B, L, dim) gradient with respect to the input latents, exact zeros at
    padding. Like forward, every per-token layer runs on the packed rows,
    and the last block's query side on the read rows alone.

    Backward uses the cache up: it takes the blocks out of it and drops a
    block's activations once that block's gradients are computed, so the
    cache shrinks while the gradients grow. A cache serves one backward; a
    second raises ValidationError.
    """
    if "blocks" not in cache:
        raise ValidationError("this forward cache was used up by an earlier backward; "
                              "each backward needs the cache of its own forward")
    p = params.tensors
    grads = {}
    rows, last = cache["rows"], cache["last"]
    blocks = cache.pop("blocks")

    d_out = np.asarray(d_out, dtype=params.dtype)
    d_h = _pack(d_out, rows[last])
    d_h[cache["unread"]] = 0.0
    d_h, grads["ln_out_g"], grads["ln_out_b"] = _layer_norm_bwd(
        d_h, p["ln_out_g"], cache["ln_out"])

    for i in reversed(range(params.n_blocks)):
        pre = f"b{i}."
        blk = blocks.pop()  # block i; the one after it is dropped here
        sel = last if i == params.n_blocks - 1 else slice(None)

        # feed-forward branch
        u, phi = blk["u"], blk["phi"]
        d_g_act, grads[pre + "ffn_w2"], grads[pre + "ffn_b2"] = _linear_bwd(
            d_h, u * phi, p[pre + "ffn_w2"])
        d_u = d_g_act * _gelu_grad(u, phi)
        fin = _layer_norm_out(blk["ln2"], p[pre + "ln2_g"], p[pre + "ln2_b"])
        d_fin, grads[pre + "ffn_w1"], grads[pre + "ffn_b1"] = _linear_bwd(
            d_u, fin, p[pre + "ffn_w1"])
        d_h_ln2, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = _layer_norm_bwd(
            d_fin, p[pre + "ln2_g"], blk["ln2"])
        d_h = d_h + d_h_ln2

        # attention branch
        d_ctx, grads[pre + "wo"], grads[pre + "bo"] = _linear_bwd(
            d_h, blk["ctx"], p[pre + "wo"])
        a = _layer_norm_out(blk["ln1"], p[pre + "ln1_g"], p[pre + "ln1_b"])
        d_q, d_k, d_v = _attention_bwd(_scatter(d_ctx, sel, len(a)), blk["q"], blk["k"],
                                       blk["v"], blk["att"], cache["runs"], params.n_heads)
        d_a = np.zeros_like(a)
        for name, d_x_rows, at in (("wq", d_q, sel), ("wk", d_k, slice(None)),
                                   ("wv", d_v, slice(None))):
            d_x, grads[pre + name], grads[pre + "b" + name[1]] = _linear_bwd(
                d_x_rows[at], a[at], p[pre + name])
            d_a[at] += d_x
        d_h_ln1, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = _layer_norm_bwd(
            d_a, p[pre + "ln1_g"], blk["ln1"])
        d_h_ln1[sel] += d_h
        d_h = d_h_ln1

    d_z_in, grads["ln_in_g"], grads["ln_in_b"] = _layer_norm_bwd(
        d_h, p["ln_in_g"], cache["ln_in"])
    d_z = np.zeros(d_out.shape, dtype=params.dtype)
    d_z.reshape(-1, d_z.shape[2])[rows] = d_z_in

    d_t_vec = d_z.sum(axis=1)
    t_hid, t_phi = cache["t_hid"], cache["t_phi"]
    if len(t_hid) != len(d_z):  # a scalar t: one time-code row served every frame
        d_t_vec = d_t_vec.sum(axis=0, keepdims=True)
    d_t_act, grads["time_w2"], grads["time_b2"] = _linear_bwd(
        d_t_vec, t_hid * t_phi, p["time_w2"])
    d_t_hid = d_t_act * _gelu_grad(t_hid, t_phi)
    _, grads["time_w1"], grads["time_b1"] = _linear_bwd(
        d_t_hid, cache["t_code"], p["time_w1"])

    # the gradients above arrive in reverse layer order; hand them back in
    # manifest order, the order training.loss_backward promises its callers,
    # and the one clip_global_norm sums their squares in for a library caller
    order = denoiser_shapes(params.dim, params.n_blocks)
    return {name: grads[name] for name in order}, d_z

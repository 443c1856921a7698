"""Transformer denoiser: predicts the clean latent from a noisy one.

Encoder-only, pre-norm residual blocks (attention + width-4d GELU feed
forward), layer norms on the way in and out, and no output head: the final
layer norm IS the prediction, in latent space. The step index enters once,
as a sinusoidal code pushed through a two-layer MLP and added to every
position of the input; the model has no positional table of its own (the
latents already carry one).

Only real slots are computed. Forward gathers them once into packed
(N_real, dim) rows, and every per-token layer (time-vector add, layer
norms, Q/K/V/O projections, feed forward, GELU) runs on those rows, in
forward and backward alike. Attention alone needs the (B, H, L, L) layout:
q, k and v (and the context gradient) are scattered into zeroed frames for
it, padding is never a key, and the results are gathered back at the real
rows. The prediction and the input gradient come back as (B, L, dim) with
exact zeros at padding slots.

Forward and backward are written out by hand in numpy. Every layer
computes in the dtype of the parameters (float64 for a fresh library
model, float32 for one that goes to or comes from a checkpoint): forward
casts z to it, and nothing upcasts. Forward can record a cache that
backward consumes, returning both parameter gradients and the gradient
with respect to the input latents (the training loss needs the latter,
since the latents are built from trainable tables). The cache keeps each
GELU's normal CDF Phi(u) in place of its output u*Phi(u): backward
rebuilds the output with the same product and reuses Phi in the
derivative, so erf is evaluated once per step and the results are
bit-identical to evaluating it again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import ValidationError

LN_EPS = 1e-5
MASK_BIAS = -1e30


# ---------------------------------------------------------------------------
# primitive ops (forward + backward pairs)

def _layer_norm(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_bwd(d_out, g, cache):
    xhat, inv = cache
    d_xhat = d_out * g
    d_g = (d_out * xhat).sum(axis=tuple(range(d_out.ndim - 1)))
    d_b = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
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


def _gelu_cdf(x):
    """Phi(x), the standard normal CDF; GELU(x) = x * Phi(x)."""
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu(x):
    return x * _gelu_cdf(x)


def _gelu_grad(x, phi):
    """d GELU / dx, given phi = _gelu_cdf(x) from the forward pass."""
    return phi + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def timestep_embedding(t, dim: int, max_period: float = 10000.0) -> np.ndarray:
    """Sinusoidal code for (a batch of) step indices, shape (B, dim)."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    half = dim // 2
    freqs = np.exp(-math.log(max_period) * np.arange(half) / half)
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
    def head_dim(self) -> int:
        return self.dim // self.n_heads

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

def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _pack(x, rows):
    """(B, L, d) frames -> (N_real, d) rows, keeping the real slots only."""
    return x.reshape(-1, x.shape[-1])[rows]


def _unpack(x, rows, bsz, seq):
    """(N_real, d) rows -> (B, L, d) frames, exact zeros at padding slots."""
    out = np.zeros((bsz * seq, x.shape[-1]), dtype=x.dtype)
    out[rows] = x
    return out.reshape(bsz, seq, -1)


def forward(params: DenoiserParams, z, t, pad_mask, need_cache: bool = False):
    """Run the denoiser. Returns (prediction, cache or None).

    z is (B, L, dim) and is cast to the parameters' dtype; t is a scalar
    step or a (B,) array; pad_mask is (B, L) bool with True on real slots.
    Every per-token layer runs on the real slots alone, packed as
    (N_real, dim) rows; only attention scatters them back into (B, L)
    frames, where padding is never a key. The prediction comes back as
    (B, L, dim) with exact zeros at padding.
    """
    z = np.asarray(z, dtype=params.dtype)
    if z.ndim != 3 or z.shape[2] != params.dim:
        raise ValidationError(f"expected z of shape (B, L, {params.dim}), got {z.shape}")
    pad_mask = np.asarray(pad_mask, dtype=bool)
    bsz, seq, dim = z.shape
    if pad_mask.shape != (bsz, seq):
        raise ValidationError(f"expected pad_mask of shape ({bsz}, {seq}), got {pad_mask.shape}")
    p = params.tensors
    rows = np.flatnonzero(pad_mask.ravel())

    t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (bsz,))
    # in float64 first: t up to t_max times a frequency loses digits in float32
    t_code = timestep_embedding(t_arr, dim).astype(params.dtype)
    t_hid = _linear(t_code, p["time_w1"], p["time_b1"])
    t_phi = _gelu_cdf(t_hid)
    t_vec = _linear(t_hid * t_phi, p["time_w2"], p["time_b2"])

    z_in = _pack(z, rows) + t_vec[rows // seq]
    h, ln_in_cache = _layer_norm(z_in, p["ln_in_g"], p["ln_in_b"])

    key_bias = np.where(pad_mask, 0.0, MASK_BIAS).astype(params.dtype)[:, None, None, :]
    scale = 1.0 / math.sqrt(params.head_dim)

    def heads(x):
        return _split_heads(_unpack(x, rows, bsz, seq), params.n_heads)

    blocks = []
    for i in range(params.n_blocks):
        pre = f"b{i}."
        h_pre_attn = h
        a, ln1_cache = _layer_norm(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
        q = heads(_linear(a, p[pre + "wq"], p[pre + "bq"]))
        k = heads(_linear(a, p[pre + "wk"], p[pre + "bk"]))
        v = heads(_linear(a, p[pre + "wv"], p[pre + "bv"]))
        scores = q @ k.swapaxes(-1, -2) * scale + key_bias
        scores -= scores.max(axis=-1, keepdims=True)
        att = np.exp(scores)
        att /= att.sum(axis=-1, keepdims=True)
        ctx = _pack(_merge_heads(att @ v), rows)
        attn_out = _linear(ctx, p[pre + "wo"], p[pre + "bo"])
        h = h_pre_attn + attn_out

        h_pre_ffn = h
        fin, ln2_cache = _layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        u = _linear(fin, p[pre + "ffn_w1"], p[pre + "ffn_b1"])
        phi = _gelu_cdf(u)
        ffn_out = _linear(u * phi, p[pre + "ffn_w2"], p[pre + "ffn_b2"])
        h = h_pre_ffn + ffn_out
        if need_cache:
            blocks.append({
                "a": a, "ln1": ln1_cache, "q": q, "k": k, "v": v, "att": att,
                "ctx": ctx, "ln2": ln2_cache, "fin": fin, "u": u, "phi": phi,
            })

    out, ln_out_cache = _layer_norm(h, p["ln_out_g"], p["ln_out_b"])
    out = _unpack(out, rows, bsz, seq)
    if not need_cache:
        return out, None
    cache = {
        "rows": rows,
        "t_code": t_code, "t_hid": t_hid, "t_phi": t_phi,
        "ln_in": ln_in_cache, "ln_out": ln_out_cache, "blocks": blocks,
    }
    return out, cache


def backward(params: DenoiserParams, cache, d_out):
    """Backprop through a cached forward pass.

    d_out is (B, L, dim), cast to the parameters' dtype; its padding slots
    are never read. Returns
    (grads, d_z): parameter gradients in `denoiser_shapes` order, and the
    (B, L, dim) gradient with respect to the input latents, exact zeros at
    padding. Like forward, every per-token layer runs on the packed rows.
    """
    p = params.tensors
    grads = {}
    scale = 1.0 / math.sqrt(params.head_dim)
    rows = cache["rows"]
    bsz, seq = d_out.shape[:2]

    d_h, grads["ln_out_g"], grads["ln_out_b"] = _layer_norm_bwd(
        _pack(np.asarray(d_out, dtype=params.dtype), rows), p["ln_out_g"], cache["ln_out"])

    for i in reversed(range(params.n_blocks)):
        pre = f"b{i}."
        blk = cache["blocks"][i]

        # feed-forward branch
        u, phi = blk["u"], blk["phi"]
        d_g_act, grads[pre + "ffn_w2"], grads[pre + "ffn_b2"] = _linear_bwd(
            d_h, u * phi, p[pre + "ffn_w2"])
        d_u = d_g_act * _gelu_grad(u, phi)
        d_fin, grads[pre + "ffn_w1"], grads[pre + "ffn_b1"] = _linear_bwd(
            d_u, blk["fin"], p[pre + "ffn_w1"])
        d_h_ln2, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = _layer_norm_bwd(
            d_fin, p[pre + "ln2_g"], blk["ln2"])
        d_h = d_h + d_h_ln2

        # attention branch
        d_ctx, grads[pre + "wo"], grads[pre + "bo"] = _linear_bwd(
            d_h, blk["ctx"], p[pre + "wo"])
        d_ctx_h = _split_heads(_unpack(d_ctx, rows, bsz, seq), params.n_heads)
        att = blk["att"]
        d_att = d_ctx_h @ blk["v"].swapaxes(-1, -2)
        d_v = att.swapaxes(-1, -2) @ d_ctx_h
        d_scores = att * (d_att - (d_att * att).sum(axis=-1, keepdims=True))
        d_q = d_scores @ blk["k"] * scale
        d_k = d_scores.swapaxes(-1, -2) @ blk["q"] * scale
        d_a = np.zeros_like(blk["a"])
        for name, d_head in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            d_x, grads[pre + name], grads[pre + "b" + name[1]] = _linear_bwd(
                _pack(_merge_heads(d_head), rows), blk["a"], p[pre + name])
            d_a += d_x
        d_h_ln1, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = _layer_norm_bwd(
            d_a, p[pre + "ln1_g"], blk["ln1"])
        d_h = d_h + d_h_ln1

    d_z_in, grads["ln_in_g"], grads["ln_in_b"] = _layer_norm_bwd(
        d_h, p["ln_in_g"], cache["ln_in"])
    d_z_in = _unpack(d_z_in, rows, bsz, seq)

    d_t_vec = d_z_in.sum(axis=1)
    t_hid, t_phi = cache["t_hid"], cache["t_phi"]
    d_t_act, grads["time_w2"], grads["time_b2"] = _linear_bwd(
        d_t_vec, t_hid * t_phi, p["time_w2"])
    d_t_hid = d_t_act * _gelu_grad(t_hid, t_phi)
    _, grads["time_w1"], grads["time_b1"] = _linear_bwd(
        d_t_hid, cache["t_code"], p["time_w1"])

    # the gradients above arrive in reverse layer order; hand them back in
    # manifest order, because clip_global_norm sums the squares in dict order
    # and another order moves the norm's last bits, and with them the run
    order = denoiser_shapes(params.dim, params.n_blocks)
    return {name: grads[name] for name in order}, d_z_in

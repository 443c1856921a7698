"""Transformer denoiser: forward oracle checks and manual-backprop gradients."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf, ndtr

from scanpath_diffusion import (ValidationError, encode_instance, init_denoiser,
                                tokenize_sentence)
from scanpath_diffusion import denoiser as dn


def test_timestep_embedding_formula():
    """Independent per-element evaluation of the sinusoidal code."""
    dim = 10
    out = dn.timestep_embedding([0, 3, 117], dim)
    assert out.shape == (3, dim)
    half = dim // 2
    for row, t in enumerate((0, 3, 117)):
        for k in range(half):
            freq = math.exp(-math.log(10000.0) * k / half)
            assert out[row, k] == pytest.approx(math.cos(t * freq), abs=1e-12)
            assert out[row, half + k] == pytest.approx(math.sin(t * freq), abs=1e-12)


def test_timestep_embedding_odd_dim_pads_zero():
    out = dn.timestep_embedding(5, 7)
    assert out.shape == (1, 7)
    assert out[0, -1] == 0.0


def test_timestep_embedding_distinguishes_steps():
    a = dn.timestep_embedding(1, 32)
    b = dn.timestep_embedding(2, 32)
    assert not np.allclose(a, b)


def test_init_denoiser_tensor_set():
    params = init_denoiser(8, 2, 2, np.random.default_rng(0))
    names = set(params.tensors)
    assert {"time_w1", "time_b1", "time_w2", "time_b2",
            "ln_in_g", "ln_in_b", "ln_out_g", "ln_out_b"} <= names
    assert "b0.wq" in names and "b1.ffn_w2" in names
    assert "b2.wq" not in names
    assert params.head_dim == 4
    # residual branches close with zeros so each block starts as an identity
    assert np.all(params.tensors["b0.wo"] == 0.0)
    assert np.all(params.tensors["b1.ffn_w2"] == 0.0)


def test_init_denoiser_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        init_denoiser(10, 2, 3, rng)
    with pytest.raises(ValidationError):
        init_denoiser(8, 0, 2, rng)


@pytest.mark.parametrize("n_heads", [0, -2])
def test_init_denoiser_rejects_head_count_below_one(n_heads):
    with pytest.raises(ValidationError, match="at least 1 head"):
        init_denoiser(8, 1, n_heads, np.random.default_rng(0))


def test_forward_shape_and_finite():
    rng = np.random.default_rng(1)
    params = init_denoiser(8, 2, 2, rng)
    z = rng.standard_normal((3, 6, 8))
    pad = np.ones((3, 6), dtype=bool)
    pad[2, 4:] = False
    out, cache = dn.forward(params, z, 5, pad)
    assert out.shape == (3, 6, 8)
    assert np.all(np.isfinite(out))
    assert np.max(np.abs(out)) < 1e3
    assert cache is None


def test_forward_rejects_bad_shape():
    params = init_denoiser(8, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        dn.forward(params, np.zeros((2, 4, 7)), 1, np.ones((2, 4), dtype=bool))


def test_forward_rejects_pad_mask_of_another_shape():
    """The packed rows come from pad_mask, so it must match z slot for slot."""
    params = init_denoiser(8, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        dn.forward(params, np.zeros((2, 4, 8)), 1, np.ones((1, 4), dtype=bool))


def test_fresh_blocks_are_identity():
    """With zeroed closing projections, the net is LN(LN(z + time))."""
    rng = np.random.default_rng(2)
    params = init_denoiser(8, 3, 2, rng)
    z = rng.standard_normal((2, 5, 8))
    pad = np.ones((2, 5), dtype=bool)
    out, _ = dn.forward(params, z, 4, pad)
    p = params.tensors
    t_code = dn.timestep_embedding(np.array([4.0, 4.0]), 8)
    t_vec = dn._gelu(t_code @ p["time_w1"] + p["time_b1"]) @ p["time_w2"] + p["time_b2"]
    h = z + t_vec[:, None, :]
    for _ in range(2):  # ln_in then ln_out; inner blocks add zero
        mu = h.mean(axis=-1, keepdims=True)
        var = h.var(axis=-1, keepdims=True)
        h = (h - mu) / np.sqrt(var + 1e-5)
    assert np.allclose(out, h, atol=1e-12)


def _loop_attention(z, params, t, pad_row):
    """Single-block, single-head attention computed with explicit loops.

    Mirrors the architecture contract (pre-LN residual attention + FFN,
    time code added at the input) without any of the library's vectorized
    machinery.
    """
    p = params.tensors
    dim = params.dim
    L = z.shape[0]

    def ln(vec, g, b):
        mu = sum(vec) / dim
        var = sum((v - mu) ** 2 for v in vec) / dim
        return [(v - mu) / math.sqrt(var + 1e-5) * g[i] + b[i]
                for i, v in enumerate(vec)]

    def gelu(x):
        return 0.5 * x * (1.0 + math.erf(x / math.sqrt(2.0)))

    # time vector
    code = dn.timestep_embedding(np.array([float(t)]), dim)[0]
    hid = [sum(code[a] * p["time_w1"][a, j] for a in range(dim)) + p["time_b1"][j]
           for j in range(4 * dim)]
    act = [gelu(v) for v in hid]
    tv = [sum(act[a] * p["time_w2"][a, j] for a in range(4 * dim)) + p["time_b2"][j]
          for j in range(dim)]

    h = [[z[i, j] + tv[j] for j in range(dim)] for i in range(L)]
    h = [ln(row, p["ln_in_g"], p["ln_in_b"]) for row in h]

    a_rows = [ln(row, p["b0.ln1_g"], p["b0.ln1_b"]) for row in h]

    def proj(row, w, b):
        return [sum(row[a] * w[a, j] for a in range(dim)) + b[j] for j in range(dim)]

    q = [proj(r, p["b0.wq"], p["b0.bq"]) for r in a_rows]
    k = [proj(r, p["b0.wk"], p["b0.bk"]) for r in a_rows]
    v = [proj(r, p["b0.wv"], p["b0.bv"]) for r in a_rows]
    scale = 1.0 / math.sqrt(dim)  # one head: head_dim = dim
    out_rows = []
    for i in range(L):
        scores = []
        for j in range(L):
            s = sum(q[i][a] * k[j][a] for a in range(dim)) * scale
            if not pad_row[j]:
                s += -1e30
            scores.append(s)
        mx = max(scores)
        ex = [math.exp(s - mx) for s in scores]
        tot = sum(ex)
        att = [e / tot for e in ex]
        ctx = [sum(att[j] * v[j][a] for j in range(L)) for a in range(dim)]
        attn_out = proj(ctx, p["b0.wo"], p["b0.bo"])
        out_rows.append([h[i][a] + attn_out[a] for a in range(dim)])

    final = []
    for row in out_rows:
        fin = ln(row, p["b0.ln2_g"], p["b0.ln2_b"])
        u = [sum(fin[a] * p["b0.ffn_w1"][a, j] for a in range(dim)) + p["b0.ffn_b1"][j]
             for j in range(4 * dim)]
        g = [gelu(x) for x in u]
        ffn = [sum(g[a] * p["b0.ffn_w2"][a, j] for a in range(4 * dim)) + p["b0.ffn_b2"][j]
               for j in range(dim)]
        mid = [row[a] + ffn[a] for a in range(dim)]
        final.append(ln(mid, p["ln_out_g"], p["ln_out_b"]))
    return np.array(final)


def test_forward_matches_loop_oracle():
    rng = np.random.default_rng(3)
    params = init_denoiser(4, 1, 1, rng)
    # randomize every tensor so the zero-init projections do not hide bugs
    for name, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    z = rng.standard_normal((1, 3, 4))
    pad_row = [True, True, False]
    pad = np.array([pad_row])
    out, _ = dn.forward(params, z, 7, pad)
    oracle = _loop_attention(z[0], params, 7, pad_row)
    # real rows follow the oracle; the padding row is never computed
    assert np.allclose(out[0][pad[0]], oracle[pad[0]], atol=1e-10)
    assert np.all(out[0][~pad[0]] == 0.0)


def test_pad_keys_never_attended():
    """Output at real positions is unchanged by arbitrary values at padding."""
    rng = np.random.default_rng(4)
    params = init_denoiser(8, 2, 2, rng)
    for name, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.3, size=arr.shape)
    z = rng.standard_normal((2, 6, 8))
    pad = np.ones((2, 6), dtype=bool)
    pad[:, 4:] = False
    out_a, _ = dn.forward(params, z, 3, pad)
    z2 = z.copy()
    z2[:, 4:, :] = rng.standard_normal((2, 2, 8)) * 50.0
    out_b, _ = dn.forward(params, z2, 3, pad)
    assert np.allclose(out_a[:, :4], out_b[:, :4], atol=1e-12)


def test_pad_positions_receive_zero_gradient():
    rng = np.random.default_rng(5)
    params = init_denoiser(8, 2, 2, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.3, size=arr.shape)
    z = rng.standard_normal((1, 5, 8))
    pad = np.array([[True, True, True, False, False]])
    _, cache = dn.forward(params, z, 2, pad, need_cache=True)
    d_out = rng.standard_normal((1, 5, 8))
    d_out[:, 3:, :] = 0.0  # upstream loss never touches pad outputs
    _, d_z = dn.backward(params, cache, d_out)
    assert np.allclose(d_z[:, 3:, :], 0.0, atol=1e-18)


def test_backward_input_gradient_fd():
    rng = np.random.default_rng(6)
    params = init_denoiser(4, 2, 2, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.3, size=arr.shape)
    z = rng.standard_normal((1, 4, 4))
    pad = np.array([[True, True, True, True]])
    d_out = rng.standard_normal((1, 4, 4))

    def scalar_loss(zz):
        out, _ = dn.forward(params, zz, 3, pad)
        return float((out * d_out).sum())

    _, cache = dn.forward(params, z, 3, pad, need_cache=True)
    _, d_z = dn.backward(params, cache, d_out)
    eps = 1e-6
    for idx in [(0, 0, 0), (0, 1, 2), (0, 3, 3), (0, 2, 1)]:
        zp = z.copy(); zp[idx] += eps
        zm = z.copy(); zm[idx] -= eps
        fd = (scalar_loss(zp) - scalar_loss(zm)) / (2 * eps)
        assert d_z[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_backward_parameter_gradients_fd():
    """Central differences over a sample of entries of every tensor."""
    rng = np.random.default_rng(7)
    params = init_denoiser(4, 1, 2, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.3, size=arr.shape)
    z = rng.standard_normal((2, 3, 4))
    pad = np.array([[True, True, True], [True, True, False]])
    d_out = rng.standard_normal((2, 3, 4))
    d_out[1, 2] = 0.0

    def scalar_loss():
        out, _ = dn.forward(params, z, np.array([2, 5]), pad)
        return float((out * d_out).sum())

    _, cache = dn.forward(params, z, np.array([2, 5]), pad, need_cache=True)
    grads, _ = dn.backward(params, cache, d_out)
    eps = 1e-6
    for name, arr in params.tensors.items():
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(4, flat.size), replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + eps
            up = scalar_loss()
            flat[j] = orig - eps
            down = scalar_loss()
            flat[j] = orig
            fd = (up - down) / (2 * eps)
            got = grads[name].reshape(-1)[j]
            assert got == pytest.approx(fd, rel=1e-4, abs=1e-7), name


def test_per_row_t_changes_only_that_row():
    rng = np.random.default_rng(8)
    params = init_denoiser(8, 1, 2, rng)
    z = rng.standard_normal((2, 4, 8))
    pad = np.ones((2, 4), dtype=bool)
    base, _ = dn.forward(params, z, np.array([3, 3]), pad)
    bumped, _ = dn.forward(params, z, np.array([3, 9]), pad)
    assert np.allclose(base[0], bumped[0], atol=1e-15)
    assert not np.allclose(base[1], bumped[1])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scalar_t_frames_match_each_frame_alone(dtype):
    """A scalar t is one time-code row for the whole batch, so a frame's
    prediction is bit-identical to running that frame alone, padding or not."""
    rng = np.random.default_rng(9)
    params = init_denoiser(16, 2, 2, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    params.tensors = {k: v.astype(dtype) for k, v in params.tensors.items()}
    lens = np.array([12, 6, 9, 12, 7, 10, 8, 11])
    pad = np.arange(12)[None, :] < lens[:, None]
    z = rng.standard_normal(pad.shape + (16,))
    out, _ = dn.forward(params, z, 7, pad)
    for i in range(len(lens)):
        alone, _ = dn.forward(params, z[i:i + 1], 7, pad[i:i + 1])
        assert np.array_equal(out[i], alone[0]), i


def test_scalar_t_backward_matches_per_frame_t():
    """Backward through one shared time-code row sums its gradient over the
    frames: the same gradients as a (B,) t of equal steps, up to rounding
    (the two forwards already differ in the last bits of the time vector)."""
    rng = np.random.default_rng(10)
    params = init_denoiser(8, 1, 2, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.3, size=arr.shape)
    z = rng.standard_normal((3, 5, 8))
    pad = np.arange(5)[None, :] < np.array([5, 3, 4])[:, None]
    d_out = rng.standard_normal(z.shape)
    _, shared = dn.forward(params, z, 4, pad, need_cache=True)
    _, per_frame = dn.forward(params, z, np.full(3, 4), pad, need_cache=True)
    grads, d_z = dn.backward(params, shared, d_out)
    ref_grads, ref_d_z = dn.backward(params, per_frame, d_out)
    assert np.allclose(d_z, ref_d_z, rtol=1e-12, atol=1e-14)
    for name, g in ref_grads.items():
        assert np.allclose(grads[name], g, rtol=1e-12, atol=1e-14), name


def test_forward_rejects_t_of_another_shape():
    params = init_denoiser(8, 1, 2, np.random.default_rng(0))
    with pytest.raises(ValidationError):
        dn.forward(params, np.zeros((3, 4, 8)), np.array([1, 2]), np.ones((3, 4), dtype=bool))


def _gelu_reference(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad_reference(x):
    return 0.5 * (1.0 + erf(x / math.sqrt(2.0))) + x * np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


@pytest.mark.parametrize("dim,n_blocks,n_heads,seed",
                         [(4, 1, 1, 30), (8, 2, 2, 31), (12, 3, 3, 32)])
def test_cached_gelu_cdf_is_bit_identical(monkeypatch, dim, n_blocks, n_heads, seed):
    """Reusing the forward's normal CDF in backward changes no bit of the
    prediction, the input gradient or any parameter gradient."""
    rng = np.random.default_rng(seed)
    params = init_denoiser(dim, n_blocks, n_heads, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    z = rng.standard_normal((3, 7, dim))
    pad = np.ones((3, 7), dtype=bool)
    pad[1, 5:] = False
    pad[2, 3:] = False
    t = np.array([0, 4, 9])
    d_out = np.where(pad[..., None], rng.standard_normal((3, 7, dim)), 0.0)

    out, cache = dn.forward(params, z, t, pad, need_cache=True)
    # forward: every GELU output u * Phi(u) is the one-expression GELU; all
    # other forward arithmetic is unchanged, so the prediction is too (read
    # before backward, which uses the cache up)
    pre = [cache["t_hid"]] + [blk["u"] for blk in cache["blocks"]]
    phis = [cache["t_phi"]] + [blk["phi"] for blk in cache["blocks"]]
    for u, phi in zip(pre, phis):
        assert np.array_equal(u * phi, _gelu_reference(u))
        assert np.array_equal(dn._gelu(u), _gelu_reference(u))
    assert np.array_equal(dn.forward(params, z, t, pad)[0], out)
    grads, d_z = dn.backward(params, cache, d_out)

    # backward: the reference evaluates erf again from the pre-activation, on
    # the cache of a fresh forward (forward is deterministic)
    monkeypatch.setattr(dn, "_gelu_grad", lambda x, phi: _gelu_grad_reference(x))
    ref_out, ref_cache = dn.forward(params, z, t, pad, need_cache=True)
    assert np.array_equal(ref_out, out)
    ref_grads, ref_d_z = dn.backward(params, ref_cache, d_out)
    assert np.array_equal(d_z, ref_d_z)
    assert set(grads) == set(ref_grads)
    for name, g in ref_grads.items():
        assert np.array_equal(grads[name], g), name


def _split_heads(x, n_heads):
    b, l, d = x.shape
    return x.reshape(b, l, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, l, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, l, h * dh)


def _padded_forward(params, z, t, pad_mask):
    """The denoiser forward as it ran before packing: every per-token layer
    over all B * L slots, padding included, and attention frame by frame
    over that frame's real slots (padding slots get a zero context).
    Reference for the packed path."""
    bsz, seq, dim = z.shape
    p = params.tensors

    t_arr = np.broadcast_to(np.atleast_1d(np.asarray(t, dtype=np.float64)), (bsz,))
    t_code = dn.timestep_embedding(t_arr, dim)
    t_hid = dn._linear(t_code, p["time_w1"], p["time_b1"])
    t_phi = dn._gelu_cdf(t_hid)
    t_vec = dn._linear(t_hid * t_phi, p["time_w2"], p["time_b2"])

    z_in = z + t_vec[:, None, :]
    h, ln_in_cache = dn._layer_norm(z_in, p["ln_in_g"], p["ln_in_b"])

    scale = 1.0 / math.sqrt(params.head_dim)
    real = [np.flatnonzero(frame) for frame in pad_mask]

    blocks = []
    for i in range(params.n_blocks):
        pre = f"b{i}."
        h_pre_attn = h
        a, ln1_cache = dn._layer_norm(h, p[pre + "ln1_g"], p[pre + "ln1_b"])
        q = _split_heads(dn._linear(a, p[pre + "wq"], p[pre + "bq"]), params.n_heads)
        k = _split_heads(dn._linear(a, p[pre + "wk"], p[pre + "bk"]), params.n_heads)
        v = _split_heads(dn._linear(a, p[pre + "wv"], p[pre + "bv"]), params.n_heads)
        ctx_h = np.zeros_like(v)
        att = []
        for b, at in enumerate(real):
            scores = q[b][:, at] @ k[b][:, at].swapaxes(-1, -2) * scale
            scores -= scores.max(axis=-1, keepdims=True)
            att_b = np.exp(scores)
            att_b /= att_b.sum(axis=-1, keepdims=True)
            ctx_h[b][:, at] = att_b @ v[b][:, at]
            att.append(att_b)
        ctx = _merge_heads(ctx_h)
        attn_out = dn._linear(ctx, p[pre + "wo"], p[pre + "bo"])
        h = h_pre_attn + attn_out

        h_pre_ffn = h
        fin, ln2_cache = dn._layer_norm(h, p[pre + "ln2_g"], p[pre + "ln2_b"])
        u = dn._linear(fin, p[pre + "ffn_w1"], p[pre + "ffn_b1"])
        phi = dn._gelu_cdf(u)
        ffn_out = dn._linear(u * phi, p[pre + "ffn_w2"], p[pre + "ffn_b2"])
        h = h_pre_ffn + ffn_out
        blocks.append({
            "a": a, "ln1": ln1_cache, "q": q, "k": k, "v": v, "att": att,
            "ctx": ctx, "ln2": ln2_cache, "fin": fin, "u": u, "phi": phi,
        })

    out, ln_out_cache = dn._layer_norm(h, p["ln_out_g"], p["ln_out_b"])
    cache = {
        "t_code": t_code, "t_hid": t_hid, "t_phi": t_phi, "real": real,
        "ln_in": ln_in_cache, "ln_out": ln_out_cache, "blocks": blocks,
    }
    return out, cache


def _padded_backward(params, cache, d_out):
    """Backward through `_padded_forward`, over all B * L slots."""
    p = params.tensors
    grads = {}
    scale = 1.0 / math.sqrt(params.head_dim)

    d_h, grads["ln_out_g"], grads["ln_out_b"] = dn._layer_norm_bwd(
        d_out, p["ln_out_g"], cache["ln_out"])

    for i in reversed(range(params.n_blocks)):
        pre = f"b{i}."
        blk = cache["blocks"][i]

        u, phi = blk["u"], blk["phi"]
        d_g_act, grads[pre + "ffn_w2"], grads[pre + "ffn_b2"] = dn._linear_bwd(
            d_h, u * phi, p[pre + "ffn_w2"])
        d_u = d_g_act * dn._gelu_grad(u, phi)
        d_fin, grads[pre + "ffn_w1"], grads[pre + "ffn_b1"] = dn._linear_bwd(
            d_u, blk["fin"], p[pre + "ffn_w1"])
        d_h_ln2, grads[pre + "ln2_g"], grads[pre + "ln2_b"] = dn._layer_norm_bwd(
            d_fin, p[pre + "ln2_g"], blk["ln2"])
        d_h = d_h + d_h_ln2

        d_ctx, grads[pre + "wo"], grads[pre + "bo"] = dn._linear_bwd(
            d_h, blk["ctx"], p[pre + "wo"])
        d_ctx_h = _split_heads(d_ctx, params.n_heads)
        q, k, v = blk["q"], blk["k"], blk["v"]
        d_q, d_k, d_v = (np.zeros_like(x) for x in (q, k, v))
        for b, (at, att) in enumerate(zip(cache["real"], blk["att"])):
            d_ctx_b = d_ctx_h[b][:, at]
            d_att = d_ctx_b @ v[b][:, at].swapaxes(-1, -2)
            d_v[b][:, at] = att.swapaxes(-1, -2) @ d_ctx_b
            d_scores = att * (d_att - (d_att * att).sum(axis=-1, keepdims=True))
            d_q[b][:, at] = d_scores @ k[b][:, at] * scale
            d_k[b][:, at] = d_scores.swapaxes(-1, -2) @ q[b][:, at] * scale
        d_a = np.zeros_like(blk["a"])
        for name, d_head in (("wq", d_q), ("wk", d_k), ("wv", d_v)):
            d_x, grads[pre + name], grads[pre + "b" + name[1]] = dn._linear_bwd(
                _merge_heads(d_head), blk["a"], p[pre + name])
            d_a += d_x
        d_h_ln1, grads[pre + "ln1_g"], grads[pre + "ln1_b"] = dn._layer_norm_bwd(
            d_a, p[pre + "ln1_g"], blk["ln1"])
        d_h = d_h + d_h_ln1

    d_z_in, grads["ln_in_g"], grads["ln_in_b"] = dn._layer_norm_bwd(
        d_h, p["ln_in_g"], cache["ln_in"])

    d_t_vec = d_z_in.sum(axis=1)
    t_hid, t_phi = cache["t_hid"], cache["t_phi"]
    d_t_act, grads["time_w2"], grads["time_b2"] = dn._linear_bwd(
        d_t_vec, t_hid * t_phi, p["time_w2"])
    d_t_hid = d_t_act * dn._gelu_grad(t_hid, t_phi)
    _, grads["time_w1"], grads["time_b1"] = dn._linear_bwd(
        d_t_hid, cache["t_code"], p["time_w1"])
    order = dn.denoiser_shapes(params.dim, params.n_blocks)
    return {name: grads[name] for name in order}, d_z_in


def _pad_frames(case, tiny_vocab):
    """(pad_mask, t) for one frame layout of the packed-path contract."""
    if case == "ragged":
        lens = np.array([11, 4, 7, 1])
        return np.arange(11)[None, :] < lens[:, None], np.array([0, 3, 9, 1])
    if case == "single-full":
        return np.ones((1, 9), dtype=bool), 6
    tok = tokenize_sentence(["bala", "deon", "firi"], tiny_vocab)
    inst = encode_instance(tok, None, 24, tiny_vocab, target_budget=5)
    assert not inst.pad_mask.all()
    return inst.pad_mask[None], 4


@pytest.mark.parametrize("case,dim,n_blocks,n_heads,seed", [
    ("ragged", 8, 2, 2, 40), ("ragged", 12, 3, 3, 41),
    ("single-full", 8, 2, 2, 42), ("generation-budget", 8, 2, 2, 43),
])
def test_packed_path_matches_padded_reference(tiny_vocab, case, dim, n_blocks,
                                               n_heads, seed):
    """Running the per-token layers on real rows only changes no output at
    a real slot and no bit of d_z; padding outputs are exact zeros, and the
    parameter gradients move only by summation order."""
    pad, t = _pad_frames(case, tiny_vocab)
    rng = np.random.default_rng(seed)
    params = init_denoiser(dim, n_blocks, n_heads, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    z = rng.standard_normal(pad.shape + (dim,))
    d_out = np.where(pad[..., None], rng.standard_normal(z.shape), 0.0)

    out, cache = dn.forward(params, z, t, pad, need_cache=True)
    grads, d_z = dn.backward(params, cache, d_out)
    ref_out, ref_cache = _padded_forward(params, z, t, pad)
    ref_grads, ref_d_z = _padded_backward(params, ref_cache, d_out)

    assert out.shape == d_z.shape == z.shape
    assert np.array_equal(out[pad], ref_out[pad])
    assert np.all(out[~pad] == 0.0)
    assert np.array_equal(dn.forward(params, z, t, pad)[0], out)
    assert np.array_equal(d_z, ref_d_z)
    assert list(grads) == list(ref_grads)
    for name, g in ref_grads.items():
        floor = 1e-12 * np.abs(g).max()
        assert np.allclose(grads[name], g, rtol=1e-12, atol=floor), name


# ---------------------------------------------------------------------------
# lean layer norm, float32 normal CDF table, read rows

def _layer_norm_reference(x, g, b):
    """The layer norm as written with ndarray.mean and ndarray.var."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + dn.LN_EPS)
    xhat = (x - mu) * inv
    return xhat * g + b, (xhat, inv)


def _layer_norm_bwd_reference(d_out, g, cache):
    xhat, inv = cache
    d_xhat = d_out * g
    d_g = (d_out * xhat).sum(axis=tuple(range(d_out.ndim - 1)))
    d_b = d_out.sum(axis=tuple(range(d_out.ndim - 1)))
    m1 = d_xhat.mean(axis=-1, keepdims=True)
    m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (d_xhat - m1 - xhat * m2), d_g, d_b


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(256, 64), (7, 13), (3, 5, 12), (1, 1), (33, 1024)])
def test_layer_norm_is_bit_identical_to_mean_and_var(dtype, shape):
    rng = np.random.default_rng(sum(shape))
    x = (rng.normal(1.5, 7.0, size=shape)).astype(dtype)
    g, b = (rng.standard_normal(shape[-1]).astype(dtype) for _ in range(2))
    d_out = rng.standard_normal(shape).astype(dtype)

    out, cache = dn._layer_norm(x, g, b)
    ref_out, ref_cache = _layer_norm_reference(x, g, b)
    assert out.dtype == cache[0].dtype == cache[1].dtype == np.dtype(dtype)
    assert np.array_equal(out, ref_out)
    assert all(np.array_equal(a, r) for a, r in zip(cache, ref_cache))
    got = dn._layer_norm_bwd(d_out, g, cache)
    want = _layer_norm_bwd_reference(d_out, g, ref_cache)
    assert [a.dtype for a in got] == [np.dtype(dtype)] * 3
    assert all(np.array_equal(a, r) for a, r in zip(got, want))


def test_float32_gelu_cdf_table_is_within_its_tolerance():
    """Tolerance fixed before measuring: |Phi_table - ndtr| <= 1.5e-7 over a
    dense float32 sweep of [-10, 10] and the awkward points."""
    tiny = np.finfo(np.float32).smallest_subnormal
    edges = [0.0, -0.0, tiny, -tiny, 1e-40, -1e-40, np.finfo(np.float32).tiny,
             8.0, -8.0, np.nextafter(np.float32(8), 0), np.nextafter(np.float32(-8), 0),
             np.nextafter(np.float32(8), 9), np.nextafter(np.float32(-8), -9),
             np.inf, -np.inf]
    x = np.concatenate([np.linspace(-10, 10, 2_000_001, dtype=np.float32),
                        np.array(edges, dtype=np.float32)])
    phi = dn._gelu_cdf(x)
    assert phi.dtype == np.float32
    assert np.abs(phi.astype(np.float64) - ndtr(x.astype(np.float64))).max() <= 1.5e-7


def test_float32_gelu_cdf_lets_nan_through():
    """A NaN reaches no int cast (that would warn, then index out of the
    table), and the GELU output u * Phi(u) is NaN again."""
    x = np.array([np.nan, -np.nan, 0.5, np.inf, -np.inf], dtype=np.float32)
    out = x * dn._gelu_cdf(x)
    assert out.dtype == np.float32
    assert np.array_equal(np.isnan(out), [True, True, False, False, False])
    assert np.array_equal(dn._gelu(x), out, equal_nan=True)


def _random_params(dim, n_blocks, n_heads, dtype, rng):
    params = init_denoiser(dim, n_blocks, n_heads, rng)
    for _, arr in params.tensors.items():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    params.tensors = {k: v.astype(dtype) for k, v in params.tensors.items()}
    return params


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t", [6, np.array([0, 3, 9, 1, 4])], ids=["scalar-t", "per-frame-t"])
def test_read_mask_changes_no_read_prediction(dtype, t):
    """The last block's query side on the read rows alone: read predictions
    and d_z are bit-identical to the all-rows pass, unread rows are exact
    zeros, and parameter gradients lose only rows whose gradient is zero."""
    rng = np.random.default_rng(50)
    params = _random_params(12, 3, 3, dtype, rng)
    lens = np.array([11, 4, 7, 9, 6])
    pad = np.arange(11)[None, :] < lens[:, None]
    read = pad & (np.arange(11)[None, :] >= np.array([5, 1, 4, 2, 3])[:, None])
    z = rng.standard_normal(pad.shape + (12,))
    d_out = rng.standard_normal(z.shape)

    out, cache = dn.forward(params, z, t, pad, need_cache=True, read_mask=read)
    grads, d_z = dn.backward(params, cache, d_out)
    full, full_cache = dn.forward(params, z, t, pad, need_cache=True)
    ref_grads, ref_d_z = dn.backward(params, full_cache, np.where(read[..., None], d_out, 0.0))

    assert read.sum() >= dn.MIN_PRODUCT_ROWS
    assert out.dtype == d_z.dtype == np.dtype(dtype)
    assert np.array_equal(out[read], full[read])
    assert np.all(out[~read] == 0.0)
    assert np.array_equal(dn.forward(params, z, t, pad, read_mask=read)[0], out)
    assert np.array_equal(d_z, ref_d_z)
    assert list(grads) == list(ref_grads)
    rel = 1e-12 if dtype == np.float64 else 1e-5
    for name, g in ref_grads.items():
        assert np.allclose(grads[name], g, rtol=rel, atol=rel * np.abs(g).max()), name


def test_read_mask_of_few_rows_keeps_every_row():
    """Fewer read rows than a product needs run the last block on every
    real row: the same bits as the all-rows pass, unread rows zeroed."""
    rng = np.random.default_rng(51)
    params = _random_params(8, 2, 2, np.float64, rng)
    pad = np.ones((1, 9), dtype=bool)
    read = np.zeros_like(pad)
    read[0, 6:] = True
    z = rng.standard_normal((1, 9, 8))
    d_out = rng.standard_normal(z.shape)

    out, cache = dn.forward(params, z, 3, pad, need_cache=True, read_mask=read)
    grads, d_z = dn.backward(params, cache, d_out)
    full, full_cache = dn.forward(params, z, 3, pad, need_cache=True)
    ref_grads, ref_d_z = dn.backward(params, full_cache, np.where(read[..., None], d_out, 0.0))
    assert np.array_equal(out, np.where(read[..., None], full, 0.0))
    assert np.array_equal(d_z, ref_d_z)
    for name, g in ref_grads.items():
        assert np.array_equal(grads[name], g), name



def test_small_read_set_alone_matches_it_stacked():
    """A one-slot scanpath side is 3 read rows. At the paper width, a
    3-row feed-forward product takes another BLAS path than the same rows
    in a stacked one, so without the MIN_PRODUCT_ROWS rule a frame's
    one-sentence chain would part from its lockstep chain."""
    rng = np.random.default_rng(52)
    params = _random_params(256, 1, 8, np.float32, rng)
    pad = np.arange(16)[None, :] < np.array([9, 12])[:, None]
    read = pad & (np.arange(16)[None, :] >= np.array([6, 7])[:, None])
    z = rng.standard_normal(pad.shape + (256,))
    both, _ = dn.forward(params, z, 5, pad, read_mask=read)
    alone, _ = dn.forward(params, z[:1], 5, pad[:1], read_mask=read[:1])
    assert read[0].sum() < dn.MIN_PRODUCT_ROWS <= read.sum()
    assert np.array_equal(both[0], alone[0])

def test_forward_rejects_read_mask_outside_real_slots():
    params = init_denoiser(8, 1, 2, np.random.default_rng(0))
    pad = np.ones((2, 4), dtype=bool)
    pad[1, 3] = False
    z = np.zeros((2, 4, 8))
    for read in (np.ones((2, 4), dtype=bool), np.ones((2, 3), dtype=bool)):
        with pytest.raises(ValidationError, match="read_mask"):
            dn.forward(params, z, 1, pad, read_mask=read)


# ---------------------------------------------------------------------------
# attention on real slots only

def _forward_backward(params, z, t, pad, d_out, read=None):
    out, cache = dn.forward(params, z, t, pad, need_cache=True, read_mask=read)
    blocks = list(cache["blocks"])  # backward takes them out of the cache
    grads, d_z = dn.backward(params, cache, d_out)
    return out, d_z, grads, blocks


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("with_read", [False, True], ids=["all-rows", "read-mask"])
@pytest.mark.parametrize("t", [5, np.array([0, 3, 9, 1, 4, 7])], ids=["scalar-t", "per-frame-t"])
def test_batch_width_changes_no_bit(dtype, with_read, t):
    """A batch cut after its last real column and the same batch padded out
    to a wider frame: every real-slot prediction, the input gradient and
    every parameter gradient are bit-identical, since padding is never
    computed, not even as an attention key."""
    rng = np.random.default_rng(71)
    params = _random_params(16, 2, 4, dtype, rng)
    lens = np.array([7, 3, 7, 5, 3, 7])  # runs of one, two and three frames
    wide = 12
    pad = np.arange(wide)[None, :] < lens[:, None]
    read = pad & (np.arange(wide)[None, :] >= 2) if with_read else None
    z = rng.standard_normal(pad.shape + (16,))
    d_out = rng.standard_normal(z.shape)
    cut = lens.max()

    out, d_z, grads, blocks = _forward_backward(params, z, t, pad, d_out, read)
    out_cut, d_z_cut, grads_cut, _ = _forward_backward(
        params, z[:, :cut], t, pad[:, :cut], d_out[:, :cut],
        None if read is None else read[:, :cut])

    assert np.array_equal(out[:, :cut], out_cut) and np.all(out[:, cut:] == 0.0)
    assert np.array_equal(d_z[:, :cut], d_z_cut) and np.all(d_z[:, cut:] == 0.0)
    assert list(grads) == list(grads_cut)
    for name, g in grads_cut.items():
        assert np.array_equal(grads[name], g), name
    # the cache holds packed rows and one (g, H, n, n) weight per run
    assert len(blocks) == 2
    for blk in blocks:
        assert [att.shape for att in blk["att"]] == [(2, 4, 3, 3), (1, 4, 5, 5), (3, 4, 7, 7)]
        assert blk["q"].shape == blk["k"].shape == blk["v"].shape == (lens.sum(), 16)


def test_all_padding_frame_gives_exact_zeros():
    """A frame with no real slot is no run of attention: its prediction and
    input gradient are exact zeros, and nothing warns. A batch of such
    frames alone gives zeros too."""
    rng = np.random.default_rng(72)
    params = _random_params(8, 2, 2, np.float64, rng)
    pad = np.arange(6)[None, :] < np.array([4, 0, 6])[:, None]
    z = rng.standard_normal(pad.shape + (8,))
    d_out = rng.standard_normal(z.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, d_z, grads, _ = _forward_backward(params, z, np.array([2, 5, 8]), pad, d_out)
        empty_out, empty_d_z, empty_grads, _ = _forward_backward(
            params, z[1:2], 3, pad[1:2], d_out[1:2])
    assert np.all(out[~pad] == 0.0) and np.all(d_z[~pad] == 0.0)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(d_z))
    assert all(np.all(np.isfinite(g)) for g in grads.values())
    assert np.all(empty_out == 0.0) and np.all(empty_d_z == 0.0)
    assert all(np.all(np.isfinite(g)) for g in empty_grads.values())


def test_frame_with_a_hole_matches_it_compacted():
    """The denoiser has no positions of its own: a frame whose real slots
    have gaps gives, slot for slot, the bits of the same slots moved to the
    front, forward and backward."""
    rng = np.random.default_rng(73)
    params = _random_params(12, 2, 3, np.float64, rng)
    pad = np.arange(9)[None, :] < np.array([5, 9, 5])[:, None]
    holed = pad.copy()
    holed[0] = [True, False, True, True, False, False, True, True, False]
    z = rng.standard_normal(pad.shape + (12,))
    z_holed = z.copy()
    z_holed[0, holed[0]] = z[0, pad[0]]
    d_out = rng.standard_normal(z.shape)
    d_out_holed = d_out.copy()
    d_out_holed[0, holed[0]] = d_out[0, pad[0]]

    results = []
    for zz, mask, dd in ((z, pad, d_out), (z_holed, holed, d_out_holed)):
        out, cache = dn.forward(params, zz, np.array([4, 1, 6]), mask, need_cache=True)
        grads, d_z = dn.backward(params, cache, dd)
        results.append((out[mask], d_z[mask], grads))
    (out, d_z, grads), (out_h, d_z_h, grads_h) = results
    assert np.array_equal(out, out_h) and np.array_equal(d_z, d_z_h)
    for name, g in grads.items():
        assert np.array_equal(grads_h[name], g), name

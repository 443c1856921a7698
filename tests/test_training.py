"""Training loss, optimizer, and loop behavior."""

import csv
import math
import multiprocessing
import os
import types
import weakref

import numpy as np
import pytest

from scanpath_diffusion import (AdamW, ModelConfig, ValidationError,
                                at_checkpoint_precision, build_vocab,
                                encode_instance, generate, init_model,
                                posterior_params, q_sample, synthetic_corpus,
                                tokenize_sentence, train)
from scanpath_diffusion import denoiser as dn
from scanpath_diffusion import training
from scanpath_diffusion.embedding import embed_parts
from scanpath_diffusion.encoding import stack_instances
from scanpath_diffusion.workers import Forked, WorkerError
from scanpath_diffusion.training import (METRICS_HEADER, clip_global_norm,
                                         loss_backward, loss_forward)

from conftest import encode_corpus, tiny_config


def make_model(**over):
    config = tiny_config(**over)
    return init_model(config, np.random.default_rng(13))


def make_batch(model, vocab, corpus, n=4):
    instances = encode_corpus(corpus, vocab, model.config.max_len)
    return stack_instances(instances[:n])


def slot_by_slot_terms(model, batch, z0_hat, target):
    """Per-frame (mse, rounding nll), one scanpath slot at a time."""
    mses, nlls = [], []
    for i in range(batch.size):
        slots = np.flatnonzero(batch.target_mask[i])
        se, nll = 0.0, 0.0
        for pos in slots:
            diff = z0_hat[i, pos] - target[i, pos]
            se += float(diff @ diff)
            logits = model.emb.e_idx @ z0_hat[i, pos]
            logits -= logits.max()
            nll += math.log(np.exp(logits).sum()) - logits[batch.x_idx[i, pos]]
        mses.append(se / (len(slots) * model.config.dim))
        nlls.append(nll / len(slots))
    return mses, nlls


def test_loss_forward_deterministic_oracle(tiny_vocab, small_corpus):
    """With beta_zero = 0 and t = 0 everywhere, no drawn noise reaches the
    forward pass, so every term is recomputable from first principles. The
    beta_zero = 0 comes from the model's config alone."""
    model = make_model(beta_zero=0.0, v_bert=len(tiny_vocab))
    batch = make_batch(model, tiny_vocab, small_corpus)
    t_arr = np.zeros(batch.size, dtype=np.int64)
    breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(0))

    emb_idx, emb_ctx = embed_parts(model.emb, batch.x_idx, batch.x_bert, batch.x_pos)
    emb = emb_idx + emb_ctx
    z0_hat, _ = dn.forward(model.den, emb, t_arr, batch.pad_mask)
    mses, nlls = slot_by_slot_terms(model, batch, z0_hat, emb)
    assert breakdown.per_sample_mse == pytest.approx(mses, rel=1e-12)
    assert breakdown.per_sample_round == pytest.approx(nlls, rel=1e-12)
    assert breakdown.l_emb == pytest.approx(float(np.mean(mses)), rel=1e-12)
    assert breakdown.l_vlb == 0.0
    assert breakdown.l_round == pytest.approx(float(np.mean(nlls)), rel=1e-12)
    assert breakdown.total == pytest.approx(
        breakdown.l_vlb + breakdown.l_emb + breakdown.l_round
    )


@pytest.mark.parametrize("t", [2, 5, "t_max"])
def test_loss_forward_noised_rows_oracle(tiny_vocab, small_corpus, t):
    """At t >= 2 with beta_zero > 0, replaying the generator gives both
    noise draws, so the clean latent, its jump to t and every term are
    recomputable from the tested primitives."""
    b0 = 0.3
    model = make_model(beta_zero=b0, v_bert=len(tiny_vocab), max_len=32, v_idx=32)
    rng = np.random.default_rng(8)
    for arr in model.trainable_tensors().values():
        arr[...] = rng.normal(0.0, 0.3, size=arr.shape)
    batch = make_batch(model, tiny_vocab, small_corpus)
    bsz = batch.size
    sched = model.schedule()
    t_arr = np.full(bsz, sched.t_max if t == "t_max" else t)
    breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(5))

    replay = np.random.default_rng(5)
    frame = (bsz, model.config.max_len, model.config.dim)
    eps0 = replay.standard_normal(frame)
    eps = replay.standard_normal(frame)
    emb_idx, emb_ctx = embed_parts(model.emb, batch.x_idx, batch.x_bert, batch.x_pos)
    z0 = emb_idx + math.sqrt(b0) * eps0
    z_t = q_sample(z0, t_arr, eps, sched, batch.target_mask) + emb_ctx
    z0_hat, _ = dn.forward(model.den, z_t, t_arr, batch.pad_mask)
    mses, nlls = slot_by_slot_terms(model, batch, z0_hat, z0 + emb_ctx)
    assert breakdown.per_sample_mse == pytest.approx(mses, rel=1e-12)
    assert breakdown.per_sample_round == pytest.approx(nlls, rel=1e-12)
    assert breakdown.l_emb == 0.0
    assert breakdown.l_vlb == pytest.approx(float(np.mean(mses)), rel=1e-12)


def test_gradients_come_back_in_manifest_order(tiny_vocab, small_corpus):
    """clip_global_norm sums squares in dict order, so the order of the
    gradient dicts is part of what makes a run reproducible bit for bit."""
    model = make_model(v_bert=len(tiny_vocab))
    batch = make_batch(model, tiny_vocab, small_corpus)

    def fresh_cache():  # a cache serves one backward; forward is deterministic
        return loss_forward(model, batch, np.array([0, 1, 4, 9]),
                            np.random.default_rng(3), need_cache=True)[1]

    cache = fresh_cache()
    den_grads, _ = dn.backward(model.den, cache["den_cache"],
                               np.ones_like(cache["z0_hat"]))
    cfg = model.config
    assert list(den_grads) == list(dn.denoiser_shapes(cfg.dim, cfg.n_blocks))
    grads = loss_backward(model, fresh_cache(), np.ones(batch.size))
    assert list(grads) == list(model.trainable_tensors())


def test_rounding_nll_is_log_vocab_when_logits_flat(tiny_vocab, small_corpus):
    """Zeroed index table makes every rounding logit equal, so the term is
    exactly log(v_idx) regardless of the denoiser."""
    model = make_model(v_bert=len(tiny_vocab))
    model.emb.e_idx[...] = 0.0
    batch = make_batch(model, tiny_vocab, small_corpus)
    t_arr = np.full(batch.size, 3)
    breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(1))
    assert breakdown.l_round == pytest.approx(math.log(model.config.v_idx), rel=1e-12)


def test_low_t_rows_switch_loss_bucket(tiny_vocab, small_corpus):
    mt = make_model(v_bert=len(tiny_vocab), emb_target_low_t=True)
    mf = make_model(v_bert=len(tiny_vocab), emb_target_low_t=False)
    batch = make_batch(mt, tiny_vocab, small_corpus)
    t_arr = np.ones(batch.size, dtype=np.int64)
    bt, _ = loss_forward(mt, batch, t_arr, np.random.default_rng(2))
    bf, _ = loss_forward(mf, batch, t_arr, np.random.default_rng(2))
    assert bt.l_vlb == 0.0 and bt.l_emb > 0.0
    assert bf.l_emb == 0.0 and bf.l_vlb > 0.0
    # t = 0 rows always use the embedding target
    t0 = np.zeros(batch.size, dtype=np.int64)
    b0, _ = loss_forward(mf, batch, t0, np.random.default_rng(3))
    assert b0.l_emb > 0.0 and b0.l_vlb == 0.0


def test_loss_forward_validates_t(tiny_vocab, small_corpus):
    model = make_model(v_bert=len(tiny_vocab))
    batch = make_batch(model, tiny_vocab, small_corpus)
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        loss_forward(model, batch, np.zeros(batch.size + 1, dtype=int), rng)
    with pytest.raises(ValidationError):
        loss_forward(model, batch, np.full(batch.size, model.config.t_max + 1), rng)


@pytest.mark.parametrize("frame, width", [(24, 28), (28, 24)], ids=["wider", "narrower"])
def test_loss_forward_rejects_batch_wider_than_frame(tiny_vocab, small_corpus, frame, width):
    """Batches are whole frames: the noise is drawn per model frame, so a
    batch of any other width is refused, and the message names both."""
    model = make_model(v_bert=len(tiny_vocab), max_len=frame, v_idx=frame)
    other = stack_instances(encode_corpus(small_corpus, tiny_vocab, width)[:4])
    with pytest.raises(ValidationError, match=f"width {width} is not the model frame of {frame}"):
        loss_forward(model, other, np.zeros(4, dtype=np.int64), np.random.default_rng(0))


@pytest.mark.parametrize("to_float32", [False, True], ids=["float64", "float32"])
def test_draw_noise_replays_the_generator(tiny_vocab, small_corpus, to_float32):
    """Both noise tensors span the whole frame, (B, max_len, dim): the
    generator's next two float64 draws, cast to the model's dtype."""
    model = make_model(v_bert=len(tiny_vocab))
    if to_float32:
        model = at_checkpoint_precision(model)
    batch = make_batch(model, tiny_vocab, small_corpus, n=3)
    rng, replay = np.random.default_rng(31), np.random.default_rng(31)
    frame = (3, model.config.max_len, model.config.dim)
    dtype = np.float32 if to_float32 else np.float64
    for got in training.draw_noise(model, batch, rng):
        assert got.shape == frame and got.dtype == dtype
        assert np.array_equal(got, replay.standard_normal(frame).astype(dtype))
    assert rng.bit_generator.state == replay.bit_generator.state


def test_full_loss_gradients_match_finite_differences(tiny_vocab, small_corpus):
    """Central differences through embedding + denoiser + both loss paths,
    including the gradient that flows through the loss target."""
    model = make_model(v_bert=len(tiny_vocab), dim=4, n_blocks=1, n_heads=2,
                       max_len=24, v_idx=24)
    batch = make_batch(model, tiny_vocab, small_corpus, n=2)
    t_arr = np.array([0, 4])
    weights = np.array([0.7, 1.3])

    def objective():
        breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(99))
        return float(np.mean(weights * breakdown.per_sample_mse
                             + breakdown.per_sample_round))

    _, cache = loss_forward(model, batch, t_arr, np.random.default_rng(99),
                            need_cache=True)
    grads = loss_backward(model, cache, weights)
    tensors = model.trainable_tensors()
    assert set(grads) == set(tensors)

    rng = np.random.default_rng(17)
    eps = 1e-6
    for name, arr in tensors.items():
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(3, flat.size), replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + eps
            up = objective()
            flat[j] = orig - eps
            down = objective()
            flat[j] = orig
            fd = (up - down) / (2 * eps)
            got = grads[name].reshape(-1)[j]
            assert got == pytest.approx(fd, rel=1e-3, abs=1e-8), name


def test_zero_weights_leave_only_rounding_gradient(tiny_vocab, small_corpus):
    model = make_model(v_bert=len(tiny_vocab))
    batch = make_batch(model, tiny_vocab, small_corpus, n=2)
    t_arr = np.array([3, 5])
    _, cache = loss_forward(model, batch, t_arr, np.random.default_rng(4),
                            need_cache=True)
    grads = loss_backward(model, cache, np.zeros(2))

    def objective():
        breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(4))
        return float(np.mean(breakdown.per_sample_round))

    eps = 1e-6
    arr = model.emb.e_idx
    got = grads["emb.e_idx"]
    for idx in [(1, 0), (3, 2), (5, 5)]:
        orig = arr[idx]
        arr[idx] = orig + eps
        up = objective()
        arr[idx] = orig - eps
        down = objective()
        arr[idx] = orig
        assert got[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-4, abs=1e-9)


def test_frozen_table_gets_no_gradient(tiny_vocab, small_corpus):
    model = make_model(v_bert=len(tiny_vocab))
    batch = make_batch(model, tiny_vocab, small_corpus, n=2)
    _, cache = loss_forward(model, batch, np.array([2, 3]), np.random.default_rng(5),
                            need_cache=True)
    grads = loss_backward(model, cache, np.ones(2))
    assert "emb.e_bert" not in grads


# ---------------------------------------------------------------------------
# optimizer and clipping

def test_clip_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.allclose(grads["a"], [0.6, 0.0])
    assert np.allclose(grads["b"], [0.0, 0.8])
    grads2 = {"a": np.array([0.3])}
    norm2 = clip_global_norm(grads2, 1.0)
    assert norm2 == pytest.approx(0.3)
    assert grads2["a"][0] == 0.3  # below cap: untouched
    grads3 = {"a": np.array([30.0])}
    norm3 = clip_global_norm(grads3, 0.0)  # 0 disables clipping
    assert norm3 == 30.0 and grads3["a"][0] == 30.0


def test_adamw_two_step_hand_trace():
    """Stepwise scalar recomputation with plain python floats."""
    theta = np.array([1.0])
    opt = AdamW({"w": theta}, lr=0.1, weight_decay=0.5)
    g1, g2 = 2.0, -1.0
    x = 1.0
    m = v = 0.0
    for k, g in enumerate((g1, g2), start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9 ** k)
        vhat = v / (1 - 0.999 ** k)
        x = x * (1 - 0.1 * 0.5)
        x = x - 0.1 * mhat / (math.sqrt(vhat) + 1e-8)
    opt.step({"w": np.array([g1])})
    opt.step({"w": np.array([g2])})
    assert theta[0] == pytest.approx(x, rel=1e-12)


def test_adamw_lr_zero_is_strict_noop():
    theta = np.array([2.0, -3.0])
    opt = AdamW({"w": theta}, lr=0.0, weight_decay=0.7)
    for _ in range(3):
        opt.step({"w": np.array([1.0, 5.0])})
    assert np.array_equal(theta, [2.0, -3.0])


def test_adamw_decay_is_decoupled_from_moments():
    # zero gradient: only the multiplicative decay acts
    theta = np.array([4.0])
    opt = AdamW({"w": theta}, lr=0.1, weight_decay=0.5)
    opt.step({"w": np.array([0.0])})
    assert theta[0] == pytest.approx(4.0 * (1 - 0.1 * 0.5))


def test_adamw_first_step_size_is_lr():
    # bias correction makes |update| = lr (up to eps) for any first gradient
    for g in (0.001, 1.0, 250.0):
        theta = np.array([0.0])
        opt = AdamW({"w": theta}, lr=0.01)
        opt.step({"w": np.array([g])})
        assert abs(theta[0]) == pytest.approx(0.01, rel=1e-4)


def per_tensor_adamw(theta, m, v, g, lr, weight_decay, step):
    """AdamW's update of one tensor, as one expression per moment and one
    for the parameter: the ufuncs, and their order, that the span kernel
    must keep."""
    c1 = 1.0 - AdamW.BETA1 ** step
    c2 = 1.0 - AdamW.BETA2 ** step
    m *= AdamW.BETA1
    m += (1.0 - AdamW.BETA1) * g
    v *= AdamW.BETA2
    v += (1.0 - AdamW.BETA2) * g * g
    if weight_decay != 0.0:
        theta *= 1.0 - lr * weight_decay
    theta -= lr * ((m / c1) / (np.sqrt(v / c2) + AdamW.EPS))


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adamw_span_kernel_matches_the_per_tensor_expression(dtype, weight_decay):
    """Over 3 steps, one clipped, a group's update over its span of the
    rows of a training run's mapping (`_update_group`: the clip scale,
    then one `_adamw_span` over the parameter, moment and summed-gradient
    rows) and the library's `AdamW.step` over each tensor give the
    per-tensor expression's bits. "b" is cut by a chunk boundary; the
    tensor before the group is left as it is, and the alignment gaps
    between tensors stay 0 in all four rows."""
    rng = np.random.default_rng(31)
    shapes = {"a": (3, 5), "b": (300, 250), "c": (7,), "d": (2, 3)}
    assert 300 * 250 > training._ADAMW_CHUNK
    init = {name: rng.standard_normal(shape).astype(dtype) for name, shape in shapes.items()}
    flat, spans = training._shared_copies(init, 4)
    theta, m, v, g = ({name: row[at].reshape(shapes[name]) for name, at in spans.items()}
                      for row in flat)
    for name, arr in init.items():
        theta[name][...] = arr
    group = ["b", "c", "d"]
    gaps = np.ones(flat.shape[1], bool)
    for at in spans.values():
        gaps[at] = False
    assert gaps[spans["b"].start:spans["d"].stop].any()
    lr = 1e-2
    run = types.SimpleNamespace(flat=flat, spans=spans)
    library = {name: init[name].copy() for name in group}
    library_opt = AdamW(library, lr=lr, weight_decay=weight_decay)
    ref = {name: init[name].copy() for name in group}
    ref_m = {name: np.zeros_like(arr) for name, arr in ref.items()}
    ref_v = {name: np.zeros_like(arr) for name, arr in ref.items()}
    for step, scale in ((1, None), (2, 0.25), (3, None)):
        grads = {name: rng.standard_normal(shapes[name]).astype(dtype) for name in group}
        for name, grad in grads.items():
            g[name][...] = grad
            if scale is not None:
                grad *= scale
            per_tensor_adamw(ref[name], ref_m[name], ref_v[name], grad, lr, weight_decay, step)
        training._update_group(run, group, scale, step, lr, weight_decay)
        library_opt.step(grads)
        for name in group:
            assert np.array_equal(g[name], grads[name]), name
            for params, m_now, v_now in ((theta, m, v),
                                         (library, library_opt._m, library_opt._v)):
                assert params[name].dtype == dtype
                assert np.array_equal(params[name], ref[name]), name
                assert np.array_equal(m_now[name], ref_m[name]), name
                assert np.array_equal(v_now[name], ref_v[name]), name
    assert np.array_equal(theta["a"], init["a"])
    assert not flat[1:, spans["a"]].any()
    assert not flat[:, gaps].any()


def test_adamw_rejects_a_tensor_it_cannot_step_as_a_flat_view():
    with pytest.raises(ValidationError, match="C-contiguous"):
        AdamW({"w": np.zeros((3, 4)).T}, lr=0.1)


# ---------------------------------------------------------------------------
# precision: every layer computes in its model's dtype

def float_dtypes(tree) -> set:
    """The dtypes of the float arrays in a nest of dicts, lists and tuples."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (list, tuple)):
        return set().union(*map(float_dtypes, tree))
    return {tree.dtype} if isinstance(tree, np.ndarray) and tree.dtype.kind == "f" else set()


def test_float32_model_never_upcasts(tiny_vocab, small_corpus):
    model = at_checkpoint_precision(make_model(v_bert=len(tiny_vocab)))
    f32 = np.dtype(np.float32)
    batch = make_batch(model, tiny_vocab, small_corpus)
    z = np.zeros(batch.x_idx.shape + (model.config.dim,), dtype=np.float32)
    pred, _ = dn.forward(model.den, z, 3, batch.pad_mask)
    assert pred.dtype == f32
    sched = model.schedule()
    assert q_sample(z, np.arange(1, batch.size + 1), z, sched).dtype == f32
    assert posterior_params(z, z, 2, sched)[0].dtype == f32
    t_arr = np.array([0, 1, 2, model.config.t_max])
    _, cache = loss_forward(model, batch, t_arr, np.random.default_rng(0), need_cache=True)
    assert float_dtypes(cache) == {f32}
    grads = loss_backward(model, cache, np.ones(batch.size))
    assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, f32)
    opt = AdamW(model.trainable_tensors(), lr=1e-3)
    opt.step(grads)
    for moments in (opt._m, opt._v):
        assert {m.dtype for m in moments.values()} == {f32}
    assert {arr.dtype for arr in model.all_tensors().values()} == {f32}

    states = []
    tok = tokenize_sentence(["bala", "deon", "firi"], tiny_vocab)
    generate(model, [tok], tiny_vocab, rngs=[np.random.default_rng(1)],
             on_step=lambda i, t, z, z0: states.append((z.dtype, z0.dtype)))
    assert len(states) == model.config.t_max and set(states) == {(f32, f32)}


def test_float32_loss_and_gradients_match_float64():
    """One training step at the desk model shape (criterion 6's config),
    float32 against float64 from the same float32-representable weights.
    Tolerances, fixed in advance: the total loss to a relative 1e-5, each
    gradient within 1e-5 times its float64 tensor's largest entry."""
    corpus = synthetic_corpus(n_sentences=32, min_words=5, max_words=10, seed=21)
    vocab = build_vocab(corpus.sentences.values())
    config = ModelConfig(max_len=32, dim=64, d_bert=64, n_blocks=4, n_heads=4,
                         v_idx=32, v_bert=len(vocab), t_max=200, schedule="sqrt",
                         s=1e-4, beta_zero=None, emb_target_low_t=True)
    model64 = init_model(config, np.random.default_rng(77))
    rng = np.random.default_rng(5)
    for arr in model64.all_tensors().values():
        # move the constant-initialised tensors (biases, gains, residual
        # closers) so every path carries signal, then round to float32
        arr += rng.normal(0.0, 0.02, size=arr.shape)
        arr[...] = arr.astype(np.float32)
    model32 = at_checkpoint_precision(model64)
    instances = [encode_instance(tokenize_sentence(corpus.sentences[r.sentence_id], vocab),
                                 r.fixations, config.max_len, vocab)
                 for r in corpus.records[:16]]
    batch = stack_instances(instances)
    t_arr = rng.integers(0, config.t_max + 1, size=batch.size)
    weights = rng.uniform(0.5, 2.0, size=batch.size)

    def step(model):
        breakdown, cache = loss_forward(model, batch, t_arr, np.random.default_rng(9),
                                        need_cache=True)
        return breakdown.total, loss_backward(model, cache, weights)

    total64, grads64 = step(model64)
    total32, grads32 = step(model32)
    assert total32 == pytest.approx(total64, rel=1e-5)
    # the key biases' exact gradient is zero (softmax ignores a per-query
    # constant), so their float64 entries are roundoff: they are held to the
    # largest entry of any gradient instead
    largest = max(float(np.abs(g).max()) for g in grads64.values())
    for name, g64 in grads64.items():
        scale = largest if name.endswith(".bk") else float(np.abs(g64).max())
        assert float(np.abs(grads32[name] - g64).max()) <= 1e-5 * scale, name


# ---------------------------------------------------------------------------
# training loop

def run_tiny_train(tiny_vocab, corpus, tmp_path, tag, **over):
    defaults = dict(steps=8, batch=3, lr=1e-3, seed=5)
    defaults.update(over)
    model = make_model(v_bert=len(tiny_vocab))
    instances = encode_corpus(corpus, tiny_vocab, model.config.max_len)
    metrics = tmp_path / f"metrics_{tag}.csv"
    ckpt = tmp_path / f"ckpt_{tag}.bin"
    result = train(model, instances, metrics_path=metrics, ckpt_path=ckpt,
                   **defaults)
    return model, result, metrics, ckpt


def test_train_zero_steps_writes_checkpoint(tiny_vocab, small_corpus, tmp_path):
    model, result, metrics, ckpt = run_tiny_train(
        tiny_vocab, small_corpus, tmp_path, "zero", steps=0)
    assert len(result.rows) == 0 and not result.aborted
    assert ckpt.exists()
    with open(metrics) as fh:
        rows = list(csv.reader(fh))
    assert rows == [METRICS_HEADER]


def test_train_metrics_rows(tiny_vocab, small_corpus, tmp_path):
    _, result, metrics, _ = run_tiny_train(tiny_vocab, small_corpus, tmp_path, "rows")
    assert len(result.rows) == 8
    with open(metrics) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == METRICS_HEADER
    assert len(rows) == 8
    assert [int(r[0]) for r in rows] == list(range(1, 9))
    for r in rows:
        for cell in r[1:]:
            float(cell)
    # every value round-trips exactly (repr serialization)
    assert result.rows[0]["total"] == float(rows[0][5])


def test_train_deterministic_same_seed(tiny_vocab, small_corpus, tmp_path):
    m1, r1, metrics1, _ = run_tiny_train(tiny_vocab, small_corpus, tmp_path, "a")
    m2, r2, metrics2, _ = run_tiny_train(tiny_vocab, small_corpus, tmp_path, "b")
    assert metrics1.read_text() == metrics2.read_text()
    for name, arr in m1.all_tensors().items():
        assert np.array_equal(arr, m2.all_tensors()[name]), name
    m3, _, metrics3, _ = run_tiny_train(tiny_vocab, small_corpus, tmp_path, "c", seed=6)
    assert metrics1.read_text() != metrics3.read_text()


def test_train_loss_decreases_on_tiny_problem(tiny_vocab, small_corpus, tmp_path):
    _, result, _, _ = run_tiny_train(tiny_vocab, small_corpus, tmp_path, "learn",
                                     steps=60, batch=4, lr=3e-3)
    first = np.mean([r["total"] for r in result.rows[:10]])
    last = np.mean([r["total"] for r in result.rows[-10:]])
    assert last < first


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_aborts_on_nonfinite_loss(tiny_vocab, small_corpus, tmp_path):
    model = make_model(v_bert=len(tiny_vocab))
    instances = encode_corpus(small_corpus, tiny_vocab, model.config.max_len)
    before = {k: v.copy() for k, v in model.all_tensors().items()}
    result = train(model, instances, steps=20, batch=2, lr=1e160, seed=1,
                   clip_norm=0.0)
    assert result.aborted
    assert len(result.rows) < 20
    assert not math.isfinite(result.rows[-1]["total"])
    # the model keeps the parameters from before the poisoned step
    changed = sum(
        not np.array_equal(before[k], v) for k, v in model.all_tensors().items()
    )
    assert changed > 0  # earlier finite steps did apply


def test_train_interval_checkpoints(tiny_vocab, small_corpus, tmp_path, monkeypatch):
    """Saves at steps 2 and 4 and at the end (no interval save at the last
    step); the save at step 2 holds, byte for byte, the model a 2-step run
    of the same seed ends with."""
    instances = encode_corpus(small_corpus, tiny_vocab, tiny_config().max_len)
    ckpt = tmp_path / "ckpt.bin"
    saved = []
    real_save = training.save_checkpoint

    def spy(m, path):
        real_save(m, path)
        saved.append(path.read_bytes())

    monkeypatch.setattr(training, "save_checkpoint", spy)
    train(make_model(v_bert=len(tiny_vocab)), instances, steps=5, batch=2, lr=1e-3, seed=0,
          ckpt_path=ckpt, ckpt_interval=2)
    assert len(saved) == 3
    train(make_model(v_bert=len(tiny_vocab)), instances, steps=2, batch=2, lr=1e-3, seed=0,
          ckpt_path=ckpt)
    assert len(saved) == 4
    assert saved[0] == saved[3]


def spied_runs(monkeypatch):
    """The `_Run` of each train call from here on, kept alive after it ends."""
    runs = []

    class Spy(training._Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(training, "_Run", Spy)
    return runs


def assert_out_of_the_mapping_at_row_0(model, run):
    """No tensor of the model shares memory with run's mapping, and each
    trainable one holds row 0's values."""
    for name, arr in model.all_tensors().items():
        assert not np.shares_memory(arr, run.flat), name
    for name, arr in model.trainable_tensors().items():
        row_0 = run.flat[0, run.spans[name]].reshape(arr.shape)
        assert np.array_equal(arr, row_0), name


def test_train_holds_one_copy_of_the_trained_tensors(tiny_vocab, small_corpus, monkeypatch):
    """train moves the model into its shared mapping: by step 1's forward
    the caller's trainable arrays are freed and the model's are views of
    the mapping. When train returns, the model holds copies of the trained
    values, in manifest order, and its frozen table is the one it had,
    never copied."""
    model = make_model(v_bert=len(tiny_vocab))
    instances = encode_corpus(small_corpus, tiny_vocab, model.config.max_len)
    before = {name: arr.copy() for name, arr in model.all_tensors().items()}
    originals = {name: weakref.ref(arr) for name, arr in model.trainable_tensors().items()}
    e_bert = model.emb.e_bert
    runs = spied_runs(monkeypatch)
    at_step_1 = []
    forward = training.loss_forward

    def watched(*args, **kwargs):
        if not at_step_1:
            (run,) = runs
            at_step_1.append(
                ([name for name, ref in originals.items() if ref() is not None],
                 [name for name, arr in model.trainable_tensors().items()
                  if not np.shares_memory(arr, run.flat)]))
        return forward(*args, **kwargs)

    monkeypatch.setattr(training, "loss_forward", watched)
    train(model, instances, steps=3, batch=2, lr=1e-3, seed=0)
    (run,) = runs
    # no original array alive, no trainable tensor outside the mapping
    assert at_step_1 == [([], [])]
    assert list(model.all_tensors()) == list(before)
    assert_out_of_the_mapping_at_row_0(model, run)
    assert any(not np.array_equal(arr, before[name])
               for name, arr in model.trainable_tensors().items())
    assert run.model.emb.e_bert is model.emb.e_bert is e_bert


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("ending", ["non-finite loss", "failing shard"])
def test_train_that_stops_early_leaves_the_model_at_its_last_good_step(
        tiny_vocab, small_corpus, monkeypatch, ending):
    """A run that aborts on a non-finite loss, or whose worker shard
    raises, moves the model out of the mapping too, holding the values a
    run of its good steps alone ends with."""
    def fail():
        raise ArithmeticError("shard went wrong")

    if ending == "non-finite loss":  # as in test_train_aborts_on_nonfinite_loss
        model = make_model(v_bert=len(tiny_vocab))
        instances = encode_corpus(small_corpus, tiny_vocab, model.config.max_len)
        settings = dict(batch=2, lr=1e160, seed=1, clip_norm=0.0)
        runs = spied_runs(monkeypatch)
        result = train(model, instances, steps=20, **settings)
        assert result.aborted
        good = len(result.rows) - 1
    else:  # as in test_a_failing_shard_raises_naming_it: step 3 fails
        model, instances = split_run(monkeypatch, small_corpus)
        settings = dict(batch=12, lr=1e-3, seed=0)
        runs = spied_runs(monkeypatch)
        failing_shard_step(monkeypatch, fail)
        with pytest.raises(WorkerError, match="training shard 1 failed"):
            train(model, instances, steps=5, **settings)
        good = 2
    (run,) = runs
    assert_out_of_the_mapping_at_row_0(model, run)
    monkeypatch.undo()  # the reference runs unpatched; the process count changes no bit
    ref = make_model(v_bert=model.config.v_bert)
    assert good > 0 and not train(ref, instances, steps=good, **settings).aborted
    for name, arr in ref.all_tensors().items():
        assert np.array_equal(model.all_tensors()[name], arr), name


def test_train_input_validation(tiny_vocab, small_corpus):
    model = make_model(v_bert=len(tiny_vocab))
    instances = encode_corpus(small_corpus, tiny_vocab, model.config.max_len)
    with pytest.raises(ValidationError):
        train(model, [], steps=1, batch=1, lr=1e-3, seed=0)
    with pytest.raises(ValidationError):
        train(model, instances, steps=1, batch=0, lr=1e-3, seed=0)
    with pytest.raises(ValidationError):
        train(model, instances, steps=-1, batch=1, lr=1e-3, seed=0)
    with pytest.raises(ValidationError):
        train(model, instances, steps=1, batch=1, lr=0.0, seed=0)
    with pytest.raises(ValidationError):
        train(model, instances, steps=1, batch=1, lr=1e-3, seed=0, clip_norm=-1)


def test_shard_processes_divides_the_cpus_by_blas_threads(monkeypatch):
    """Usable CPUs over the BLAS thread count, at most one per shard, the
    training process counted; BLAS with no count set is taken to use every
    CPU, which leaves one."""
    monkeypatch.setattr(training.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    for var in training.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert training.shard_processes(3) == 1
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    assert training.shard_processes(3) == 3
    assert training.shard_processes(8) == 4
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # read before OMP_NUM_THREADS
    assert training.shard_processes(3) == 2
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
    assert training.shard_processes(3) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")  # unreadable: the next variable
    assert training.shard_processes(3) == 3


# ---------------------------------------------------------------------------
# frame shards

def frames(lens):
    """The pad mask of frames of the given real lengths."""
    lens = np.asarray(lens)
    return np.arange(lens.max())[None, :] < lens[:, None]


def sizes(cut):
    return [s.stop - s.start for s in cut]


def test_frame_shards_cut_by_batch_size_alone():
    """ceil(B / SHARD_FRAMES) shards, but none of fewer than MIN_PRODUCT_ROWS
    frames, whatever the frames' lengths: a batch of 16 short frames splits
    like 16 long ones."""
    for lens in ([30] * 16, [12] * 16, [6] * 16, [3] * 16):
        assert training.frame_shards(frames(lens)) == [slice(0, 8), slice(8, 16)]
    for bsz, want in ((1, [1]), (8, [8]), (9, [9]), (11, [11]), (12, [6, 6]), (16, [8, 8]),
                      (17, [8, 9]), (24, [8, 8, 8]), (31, [8, 7, 8, 8])):
        assert sizes(training.frame_shards(frames([4] * bsz))) == want, bsz


def test_frame_shards_balance_real_rows():
    """Each cut falls at the frame boundary that best balances the real
    rows, keeping MIN_PRODUCT_ROWS frames a shard."""
    # 16 frames: 4 long ones first, then 12 short ones
    pad = frames([30] * 4 + [10] * 12)
    cut = training.frame_shards(pad)
    assert sizes(cut) == [6, 10]  # 140 and 100 rows; equal counts would give 200 and 80
    assert [int(pad[s].sum()) for s in cut] == [140, 100]
    # the best balance would put 4 frames in shard 0: kept at 6
    assert sizes(training.frame_shards(frames([32] * 4 + [6] * 12))) == [6, 10]
    # three shards of 24 frames, rows piled at the end
    pad = frames([6] * 16 + [30] * 8)
    cut = training.frame_shards(pad)
    assert sizes(cut) == [12, 6, 6]
    assert [int(pad[s].sum()) for s in cut] == [72, 84, 180]


def desk_case(seed, dim=64, n_blocks=4, bsz=16, float64=False):
    """A float32 model (float64 if asked) of the desk size (dim 64, 4
    blocks, L 32) by default, with random weights, and a batch of bsz
    frames of desk-fit's sentence lengths."""
    corpus = synthetic_corpus(n_sentences=16, min_words=5, max_words=10, seed=seed)
    vocab = build_vocab(corpus.sentences.values())
    config = tiny_config(max_len=32, dim=dim, d_bert=64, n_blocks=n_blocks, n_heads=4,
                         v_idx=32, v_bert=len(vocab), t_max=200)
    model = init_model(config, np.random.default_rng(seed))
    if not float64:
        model = at_checkpoint_precision(model)
    rng = np.random.default_rng(seed + 1)
    for arr in model.trainable_tensors().values():
        arr += rng.normal(0, 0.05, size=arr.shape).astype(arr.dtype)
    instances = encode_corpus(corpus, vocab, 32)
    batch = stack_instances([instances[int(i)] for i in rng.permutation(32)[:bsz]])
    t = rng.integers(0, 201, size=bsz)
    weights = rng.uniform(0.5, 2.0, size=bsz)
    return model, batch, t, weights, training.draw_noise(model, batch, rng)


def run_shards(model, batch, t, weights, noise, processes):
    """The step's shards through a training runner, then the reduction by
    optimizer group that sums their gradients: the per-frame losses and a
    copy of the summed gradients."""
    cut = training.frame_shards(batch.pad_mask)
    run = training._Run(model, len(cut))
    with Forked(training._step_part, run, processes) as runner:
        losses = training._run_shards(runner, batch, t, weights, noise)
        groups = training._optimizer_groups(model.trainable_tensors(), runner.processes)
        runner.map([("reduce", names) for names in groups], "optimizer group")
    grads = {name: run.flat[3, run.spans[name]].reshape(arr.shape).copy()
             for name, arr in model.trainable_tensors().items()}
    return losses, grads, cut


@pytest.mark.parametrize("float64", [False, True], ids=["float32", "float64"])
@pytest.mark.parametrize("bsz", [16, 17, 24, 31])
@pytest.mark.parametrize("dim, n_blocks", [(64, 4), (256, 2)], ids=["desk", "paper-width"])
def test_shards_match_one_shard_pass(monkeypatch, dim, n_blocks, bsz, float64):
    """Batches cut into 2, 3 and 4 shards, of equal and of
    uneven frame counts: each frame's prediction, d_z and per-frame losses
    are bit-identical to the one-shard pass, and the summed parameter
    gradients move only by summation order, to a relative 1e-12 in
    float64 (1e-4 in float32). The key biases' gradient is zero in exact
    arithmetic (a shift shared by every key leaves the softmax as it is),
    so both passes leave only rounding residue there, checked against the
    largest gradient entry."""
    model, batch, t, weights, noise = desk_case(3, dim, n_blocks, bsz, float64)
    preds, d_zs = [], []
    forward, backward = dn.forward, dn.backward

    def recording_forward(*args, **kwargs):
        out = forward(*args, **kwargs)
        preds.append(out[0])
        return out

    def recording_backward(*args, **kwargs):
        out = backward(*args, **kwargs)
        d_zs.append(out[1])
        return out

    monkeypatch.setattr(dn, "forward", recording_forward)
    monkeypatch.setattr(dn, "backward", recording_backward)
    ref, cache = loss_forward(model, batch, t, need_cache=True, noise=noise)
    ref_grads = loss_backward(model, cache, weights)
    (ref_pred,), (ref_d_z,) = preds, d_zs
    preds.clear()
    d_zs.clear()

    (mse, rnd), grads, cut = run_shards(model, batch, t, weights, noise, processes=1)
    assert len(cut) == {16: 2, 17: 2, 24: 3, 31: 4}[bsz]
    assert min(batch.target_mask[s].sum() for s in cut) * dim >= 2048
    assert np.array_equal(mse, ref.per_sample_mse)
    assert np.array_equal(rnd, ref.per_sample_round)
    assert np.array_equal(np.concatenate(preds), ref_pred)
    assert np.array_equal(np.concatenate(d_zs), ref_d_z)
    assert list(grads) == list(ref_grads) == list(model.trainable_tensors())
    scale = max(np.abs(g).max() for g in ref_grads.values())
    if not float64:
        for name, g in ref_grads.items():
            assert np.allclose(grads[name], g, rtol=1e-4, atol=1e-6 * scale), name
        return
    for name, g in ref_grads.items():
        if name.endswith(".bk"):
            assert np.abs(grads[name]).max() <= 1e-12 * scale, name
            assert np.abs(g).max() <= 1e-12 * scale, name
        else:
            assert np.allclose(grads[name], g, rtol=1e-12, atol=1e-12 * np.abs(g).max()), name


def test_shard_process_count_changes_no_bit():
    """The shards of a step run in one process or two: the same per-frame
    losses and summed gradients, bit for bit, the model's own arrays back
    with the values it had, and no worker left."""
    model, batch, t, weights, noise = desk_case(4)
    own = model.trainable_tensors()
    before = {name: arr.copy() for name, arr in own.items()}
    runs = [run_shards(model, batch, t, weights, noise, processes) for processes in (1, 2)]
    (losses1, grads1, cut), (losses2, grads2, _) = runs
    assert len(cut) == 2
    assert all(np.array_equal(a, b) for a, b in zip(losses1, losses2))
    assert all(np.array_equal(grads1[name], grads2[name]) for name in grads1)
    assert all(model.trainable_tensors()[name] is arr for name, arr in own.items())
    assert all(np.array_equal(arr, before[name]) for name, arr in own.items())
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("dim, n_blocks", [(64, 4), (256, 2)], ids=["desk", "paper-width"])
def test_optimizer_groups_cut_the_manifest_in_order(dim, n_blocks):
    """The optimizer's groups: one per process, each a nonempty contiguous
    run of the trainable manifest, together the whole manifest in order,
    each within the largest tensor of an equal share of its elements; one
    process, one group."""
    model = desk_case(5, dim, n_blocks)[0]
    sizes = {name: arr.size for name, arr in model.trainable_tensors().items()}
    for processes in (1, 2, 3, 4):
        groups = training._optimizer_groups(model.trainable_tensors(), processes)
        assert len(groups) == processes and all(groups)
        assert [name for group in groups for name in group] == list(sizes)
        share = sum(sizes.values()) / processes
        for group in groups:
            assert abs(sum(sizes[name] for name in group) - share) <= max(sizes.values())


def failing_shard_step(monkeypatch, fail):
    """Patch training's shard step, before any fork, to call fail() on its
    third call in a worker process (step 3 of a 2-shard run)."""
    shard_step = training._shard_step
    main_pid = os.getpid()
    calls = []

    def patched(*args):
        if os.getpid() != main_pid:
            calls.append(1)
            if len(calls) == 3:
                fail()
        return shard_step(*args)

    monkeypatch.setattr(training, "_shard_step", patched)


def split_run(monkeypatch, small_corpus):
    """A tiny model, its instances, and two processes: batches of 12 frames
    run as two shards, shard 1 in a worker."""
    vocab = build_vocab(small_corpus.sentences.values())
    model = make_model(v_bert=len(vocab))
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: 2)
    return model, encode_corpus(small_corpus, vocab, model.config.max_len)


def test_a_failing_shard_raises_naming_it(monkeypatch, small_corpus):
    """An exception in a worker's shard makes train raise with the shard
    named; the model keeps the last good step and no worker is left."""
    def fail():
        raise ArithmeticError("shard went wrong")

    model, instances = split_run(monkeypatch, small_corpus)
    ref = make_model(v_bert=model.config.v_bert)
    train(ref, instances, steps=2, batch=12, lr=1e-3, seed=0)
    failing_shard_step(monkeypatch, fail)
    with pytest.raises(WorkerError,
                       match="training shard 1 failed in its worker process: "
                             "ArithmeticError: shard went wrong"):
        train(model, instances, steps=5, batch=12, lr=1e-3, seed=0)
    assert multiprocessing.active_children() == []
    for name, arr in ref.all_tensors().items():
        assert np.array_equal(model.all_tensors()[name], arr), name


def test_a_worker_that_exits_is_an_error_not_a_hang(monkeypatch, small_corpus):
    model, instances = split_run(monkeypatch, small_corpus)
    failing_shard_step(monkeypatch, lambda: os._exit(3))
    with pytest.raises(WorkerError,
                       match="worker process running training shard 1 exited unexpectedly"):
        train(model, instances, steps=5, batch=12, lr=1e-3, seed=0)
    assert multiprocessing.active_children() == []

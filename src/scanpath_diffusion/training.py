"""Loss, optimizer, and the training loop.

Per step: draw a batch of frames, a step index t per frame (loss-aware
sampler over 0..t_max), draw the clean latent around the embedded frame
(index channel + sqrt(beta_zero) * noise), jump its scanpath side to its t
with schedules.q_sample (rows at t = 0 stay clean), and fit the denoiser
prediction with three terms:

  reconstruction  mean squared error against the clean latent (t >= 2) or
                  against the noise-free embedding (t in {0, 1}; the t=1
                  case is what anchors the latent space to the tables, and
                  can be moved to the t >= 2 rule via config)
  rounding        cross-entropy of the prediction's inner products against
                  the index table (embedding.round_logits), at the true
                  word-position values

Each per-frame loss is a mean over that frame's scanpath slots. The
reconstruction term is importance-weighted (1 / (t_max * p(t))) so the
sampled-t estimator stays unbiased; the rounding term sits outside the sum
over t and is left unweighted. Gradients flow through every trainable
tensor, including through the loss target (the clean latent is built from
the same tables the denoiser consumes).

Every batch is made of whole frames, (B, max_len). Both noise tensors are
drawn over the whole frame in float64 and then cast to the model's dtype,
which every term of the loss and its gradient computes in, so a float32
model draws the same stream.

The noise schedule, t_max and beta_zero come from the model alone
(Model.schedule, Model.beta_zero), so every caller of the loss trains the
model its config describes.

The training process draws each step's batch, t, weights and both noise
tensors, then cuts the batch into shards, contiguous runs of frames that
depend on its frame count and real lengths alone (`frame_shards`). A
shard computes its frames' whole loss forward and backward, every
parameter gradient included, at the batch's width and scale, so each
frame's prediction and losses are bit-identical to a one-shard pass, its
input gradient too where the shard's backward products are past the
BLAS's small-block range (`denoiser`), and the shards' gradients, summed
in shard order, differ from it only in summation order. A `train` call
runs its shards through one forked runner, `workers.Forked`, over one
shared state, `_Run`: shard 0 in the training process, the others in
workers forked at the first step; the process count changes no bit of a
run. `_Run` holds one anonymous shared mapping in rows of one layout: row
0 the trained tensors, rows 1 and 2 AdamW's moments, row 3 + k shard k's
gradients, which loss_backward returns and the shard copies into its row.
The model itself moves into row 0 for the call, so no process holds a
second copy of its trainable tensors; it moves out, to fresh arrays of
the last good values, when the call ends.

The optimizer is split across the same processes, as stage 1 of ZeRO
(Rajbhandari et al. 2020) splits it: the trainable manifest is cut into
one contiguous group of tensors per process, so each group is one span
of every row. On each step each process sums its groups' span of the
shard rows into row 3 in shard order and returns their per-tensor
squared norms; the training process adds those in manifest order, as
`clip_global_norm` does, and decides whether to abort or clip
(`clip_factor`); then each process clips and steps AdamW over its
groups' span (`_adamw_span`, the kernel of the library's `AdamW` too).
Every piece of that arithmetic is per tensor or per element, so the
groups change no bit either.
"""

from __future__ import annotations

import logging
import math
import mmap
import os
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields

import numpy as np

from . import denoiser as dn
from .corpus import table_writer
from .embedding import embed_parts, round_logits
from .encoding import Batch, stack_instances
from .errors import ValidationError
from .model import Model, save_checkpoint
from .schedules import TimestepSampler, q_sample
from .workers import Forked

__all__ = [
    "loss_forward", "loss_backward",
    "AdamW", "clip_factor", "clip_global_norm", "check_train_settings", "train", "TrainResult",
    "METRICS_HEADER", "draw_noise", "frame_shards", "shard_processes",
]

log = logging.getLogger(__name__)

METRICS_HEADER = ["step", "t", "l_vlb", "l_emb", "l_round", "total", "grad_norm"]


def _emb_target_rows(model: Model, t_arr) -> np.ndarray:
    """The frames whose reconstruction target is the noise-free embedding."""
    return (t_arr == 0) | (model.config.emb_target_low_t & (t_arr == 1))


@dataclass
class LossBreakdown:
    l_vlb: float
    l_emb: float
    l_round: float
    total: float
    per_sample_mse: np.ndarray    # (B,)
    per_sample_round: np.ndarray  # (B,)

    @classmethod
    def of(cls, model: Model, t_arr, per_sample_mse, per_sample_round) -> "LossBreakdown":
        """The batch means of per-frame losses: the reconstruction term
        split at the rows whose target is the noise-free embedding."""
        emb_rows = _emb_target_rows(model, t_arr)
        vlb_rows = ~emb_rows
        l_vlb = float(per_sample_mse[vlb_rows].mean()) if vlb_rows.any() else 0.0
        l_emb = float(per_sample_mse[emb_rows].mean()) if emb_rows.any() else 0.0
        l_round = float(per_sample_round.mean())
        return cls(l_vlb=l_vlb, l_emb=l_emb, l_round=l_round, total=l_vlb + l_emb + l_round,
                   per_sample_mse=per_sample_mse, per_sample_round=per_sample_round)


def draw_noise(model: Model, batch: Batch, rng: np.random.Generator):
    """A step's two noise tensors, the clean latent's and q_sample's, in that
    order: each drawn as (B, max_len, dim) in float64 and cast to the
    model's dtype."""
    shape = (batch.size, model.config.max_len, model.config.dim)
    dtype = np.result_type(*model.emb.tensors().values())  # the embedding's
    return tuple(rng.standard_normal(shape).astype(dtype) for _ in range(2))


def loss_forward(model: Model, batch: Batch, t_arr, rng: np.random.Generator | None = None,
                 need_cache: bool = False, *, noise=None, batch_size: int | None = None):
    """Forward pass of the full training loss for one batch.

    t_arr holds one step index in 0..t_max per frame. The schedule and
    beta_zero are the model's (model.schedule(), model.beta_zero()). The
    batch is made of whole frames, max_len wide. The noise is drawn from
    rng (`draw_noise`), or given as noise, the (eps0, eps) pair
    `draw_noise` returns. batch_size, default the batch's own, is the frame
    count loss_backward divides by: a shard of a batch passes the whole
    batch's. Returns (LossBreakdown, cache); the cache feeds loss_backward.
    """
    t_arr = np.asarray(t_arr, dtype=np.int64)
    bsz, width = batch.x_idx.shape
    max_len = model.config.max_len
    sched = model.schedule()
    if width != max_len:
        raise ValidationError(f"batch width {width} is not the model frame of {max_len}")
    if t_arr.shape != (bsz,):
        raise ValidationError(f"expected t of shape ({bsz},), got {t_arr.shape}")
    if np.any(t_arr < 0) or np.any(t_arr > sched.t_max):
        raise ValidationError("sampled t outside 0..t_max")
    eps0, eps = draw_noise(model, batch, rng) if noise is None else noise

    emb_idx, emb_ctx = embed_parts(model.emb, batch.x_idx, batch.x_bert, batch.x_pos)
    emb_total = emb_idx + emb_ctx
    dtype = emb_total.dtype
    z0_idx = emb_idx + math.sqrt(model.beta_zero()) * eps0
    z0 = z0_idx + emb_ctx

    # noise the scanpath side of rows with t >= 1 (t = 0 rows pass through);
    # backward needs the multiplier on the clean component, d z_t / d z0
    noised = batch.target_mask & (t_arr >= 1)[:, None]
    t_jump = np.maximum(t_arr, 1)
    z_t = q_sample(z0_idx, t_jump, eps, sched, noised) + emb_ctx
    sqrt_ab = np.sqrt(sched.alpha_bar[t_jump - 1])[:, None, None]
    coef = np.where(noised[..., None], sqrt_ab, 1.0).astype(dtype)

    z0_hat, den_cache = dn.forward(model.den, z_t, t_arr, batch.pad_mask,
                                   need_cache=need_cache, read_mask=batch.target_mask)

    target = np.where(_emb_target_rows(model, t_arr)[:, None, None], emb_total, z0)

    tgt = batch.target_mask[..., None]
    n_tgt = batch.target_mask.sum(axis=1)  # >= 3 by construction
    dim = emb_total.shape[-1]
    sq = np.where(tgt, (z0_hat - target) ** 2, 0.0)
    per_sample_mse = sq.sum(axis=(1, 2)) / (n_tgt * dim)

    logits = round_logits(z0_hat, model.emb)
    logits = logits - logits.max(axis=-1, keepdims=True)
    log_z = np.log(np.exp(logits).sum(axis=-1))
    true_logit = np.take_along_axis(logits, batch.x_idx[..., None], axis=-1)[..., 0]
    nll = np.where(batch.target_mask, log_z - true_logit, 0.0)
    per_sample_round = nll.sum(axis=1) / n_tgt

    breakdown = LossBreakdown.of(model, t_arr, per_sample_mse, per_sample_round)
    if not need_cache:
        return breakdown, None
    cache = {
        "batch": batch, "batch_size": batch_size or bsz, "coef": coef, "n_tgt": n_tgt,
        "z0_hat": z0_hat, "target": target, "logits_shifted": logits,
        "log_z": log_z, "den_cache": den_cache,
    }
    return breakdown, cache


def loss_backward(model: Model, cache, weights) -> dict[str, np.ndarray]:
    """Gradients of sum_i [w_i * mse_i + round_i] / batch_size over the
    batch's frames (batch_size as loss_forward was given it).

    weights are the per-frame importance weights for the reconstruction
    term. Returns gradients keyed like Model.trainable_tensors(), in its
    order. The cache serves one call: its denoiser part is used up
    (`denoiser.backward`).
    """
    batch: Batch = cache["batch"]
    bsz = cache["batch_size"]
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (batch.size,))
    z0_hat = cache["z0_hat"]
    dim = z0_hat.shape[-1]
    n_tgt = cache["n_tgt"]
    tgt = batch.target_mask[..., None]

    # reconstruction: d/dz0_hat of w * sum((z0_hat - target)^2) / (n * d) / B
    mse_scale = (weights / (n_tgt * dim * bsz)).astype(z0_hat.dtype)[:, None, None]
    d_z0_hat = np.where(tgt, 2.0 * mse_scale * (z0_hat - cache["target"]), 0.0)
    d_target = -d_z0_hat

    # rounding: softmax cross-entropy over the index table
    probs = np.exp(cache["logits_shifted"]) / np.exp(cache["log_z"])[..., None]
    d_logits = probs
    np.put_along_axis(
        d_logits, batch.x_idx[..., None],
        np.take_along_axis(d_logits, batch.x_idx[..., None], axis=-1) - 1.0,
        axis=-1,
    )
    round_scale = (1.0 / (n_tgt * bsz)).astype(z0_hat.dtype)[:, None, None]
    d_logits = np.where(tgt, d_logits * round_scale, 0.0)
    # float32 softmax tails fall below the smallest normal float, and the two
    # matmuls below run about ten times slower over such subnormals: flush
    # them to zero, far too small to move any sum they enter
    d_logits[np.abs(d_logits) < np.finfo(d_logits.dtype).tiny] = 0.0
    d_z0_hat = d_z0_hat + d_logits @ model.emb.e_idx
    g_e_idx_logits = (
        d_logits.reshape(-1, d_logits.shape[-1]).T @ z0_hat.reshape(-1, dim)
    )

    den_grads, d_zt = dn.backward(model.den, cache["den_cache"], d_z0_hat)

    # z_t = coef * (emb_idx + noise) + emb_ctx (+ drawn noise); the target
    # is emb_idx + emb_ctx (+ noise for the clean-latent rows)
    d_emb_idx = d_zt * cache["coef"] + d_target
    d_emb_ctx = d_zt + d_target

    g_e_idx = np.zeros_like(model.emb.e_idx)
    np.add.at(g_e_idx, batch.x_idx.ravel(), d_emb_idx.reshape(-1, dim))
    g_e_idx += g_e_idx_logits

    g_e_pos = np.zeros_like(model.emb.e_pos)
    np.add.at(g_e_pos, batch.x_pos.ravel(), d_emb_ctx.reshape(-1, dim))

    bert_rows = model.emb.e_bert[batch.x_bert]
    d_ctx_flat = d_emb_ctx.reshape(-1, dim)
    return {"emb.e_idx": g_e_idx, "emb.e_pos": g_e_pos,
            "emb.w_proj": bert_rows.reshape(-1, bert_rows.shape[-1]).T @ d_ctx_flat,
            "emb.b_proj": d_ctx_flat.sum(axis=0),
            **{f"den.{name}": g for name, g in den_grads.items()}}


def clip_factor(squares, max_norm: float) -> tuple[float, float | None]:
    """The clip rule. The global norm of gradients whose per-tensor squared
    norms are squares, in manifest order, summed in that order; and the
    factor that scales the gradients to max_norm, None when they stay as
    they are (max_norm 0, or a norm within it)."""
    total = 0.0
    for sq in squares:
        total += sq
    norm = math.sqrt(total)
    return norm, max_norm / norm if max_norm > 0 and norm > max_norm else None


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place to a global norm cap; returns the raw norm."""
    norm, scale = clip_factor([float((g * g).sum()) for g in grads.values()], max_norm)
    if scale is not None:
        for g in grads.values():
            g *= scale
    return norm


# elements of a span that _adamw_span updates at a time: the chunks of
# theta, m, v, g and the two scratch buffers stay in a core's cache
_ADAMW_CHUNK = 1 << 16


class AdamW:
    """Adam with decoupled weight decay, updating tensors in place.

    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * wd * theta;
    the decay multiplies the parameter directly, never the moments, so
    lr = 0 is a strict no-op whatever the decay. The tensors are
    C-contiguous, so each one is stepped as a flat view, by the kernel
    (`_adamw_span`) that `train` steps its own moments with.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, tensors: dict[str, np.ndarray], lr: float, weight_decay: float = 0.0):
        if not all(arr.flags.c_contiguous for arr in tensors.values()):
            raise ValidationError("AdamW updates C-contiguous arrays in place")
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.step_count = 0
        self._m = {name: np.zeros_like(arr) for name, arr in tensors.items()}
        self._v = {name: np.zeros_like(arr) for name, arr in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of the tensors that grads names."""
        self.step_count += 1
        for name, g in grads.items():
            _adamw_span(*(arr.reshape(-1) for arr in
                          (self.tensors[name], self._m[name], self._v[name], g)),
                        self.step_count, self.lr, self.weight_decay)


def _adamw_span(theta, m, v, g, step: int, lr: float, weight_decay: float) -> None:
    """AdamW's update number step (its bias correction) of a flat span of
    parameters theta, its moments m and v and its gradient g, in chunks of
    _ADAMW_CHUNK elements. Each element takes the ufuncs of the per-tensor
    expression, in its order, so a span of many tensors gets their
    per-tensor bits, and zeros between them (the alignment gaps of
    `_shared_copies`) stay zero."""
    c1 = 1.0 - AdamW.BETA1 ** step
    c2 = 1.0 - AdamW.BETA2 ** step
    decay = 1.0 - lr * weight_decay
    scratch = np.empty((2, min(_ADAMW_CHUNK, theta.size)), theta.dtype)
    for at in range(0, theta.size, _ADAMW_CHUNK):
        part = slice(at, at + _ADAMW_CHUNK)
        th, mc, vc, gc = theta[part], m[part], v[part], g[part]
        t1, t2 = scratch[:, :th.size]
        mc *= AdamW.BETA1
        mc += np.multiply(gc, 1.0 - AdamW.BETA1, out=t1)
        vc *= AdamW.BETA2
        np.multiply(gc, 1.0 - AdamW.BETA2, out=t1)
        vc += np.multiply(t1, gc, out=t1)
        if weight_decay != 0.0:
            th *= decay
        np.divide(vc, c2, out=t1)
        np.sqrt(t1, out=t1)
        t1 += AdamW.EPS
        np.divide(mc, c1, out=t2)
        t2 /= t1
        t2 *= lr
        th -= t2


# check_train_settings' keywords, the loop settings train takes by the same names
LOOP_SETTINGS = ("steps", "batch", "lr", "weight_decay", "clip_norm", "sampler_history",
                 "ckpt_interval")


def check_train_settings(*, steps: int, batch: int, lr: float, weight_decay: float,
                         clip_norm: float, sampler_history: int, ckpt_interval: int) -> None:
    """Reject training-loop settings train cannot run with."""
    if batch < 1 or steps < 0:
        raise ValidationError(f"bad steps/batch: {steps}/{batch}")
    if not 0 < lr < math.inf:  # NaN fails too
        raise ValidationError(f"learning rate must be > 0 and finite, got {lr}")
    if not (0 <= weight_decay < math.inf and clip_norm >= 0):
        raise ValidationError("weight_decay and clip_norm must be >= 0 (weight_decay finite)")
    if sampler_history < 1:
        raise ValidationError(f"sampler_history must be >= 1, got {sampler_history}")
    if ckpt_interval < 0:
        raise ValidationError(f"ckpt_interval must be >= 0, got {ckpt_interval}")


# the most frames in one shard of a batch (see frame_shards)
SHARD_FRAMES = 8


def _shard_count(bsz: int) -> int:
    """The most shards a batch of bsz frames is cut into: ceil(bsz /
    SHARD_FRAMES), but no more than leave each MIN_PRODUCT_ROWS frames (a
    shard's time MLP is a product of one row per frame)."""
    return max(1, min(-(-bsz // SHARD_FRAMES), bsz // dn.MIN_PRODUCT_ROWS))


def _balanced_cut(weights, n: int, least: int) -> list[slice]:
    """n contiguous runs of the weighted items, each of at least `least`
    items: the k-th cut falls at the item boundary nearest k / n of the
    total weight that the earlier cuts leave room for."""
    before = np.concatenate([[0], np.cumsum(weights)])  # weight before item j
    bounds = [0]
    for k in range(1, n):
        ends = np.arange(bounds[-1] + least, len(weights) - (n - k) * least + 1)
        bounds.append(int(ends[np.argmin(np.abs(n * before[ends] - k * before[-1]))]))
    bounds.append(len(weights))
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def frame_shards(pad_mask) -> list[slice]:
    """The runs of frames of a batch that training computes one by one.

    A batch of B frames is cut into _shard_count(B) contiguous shards, each
    cut at the frame boundary that best balances the real rows on either
    side of it. The cut depends on the frames' count and real lengths
    alone, never on the model or on how many processes run it.
    """
    return _balanced_cut(pad_mask.sum(axis=1), _shard_count(len(pad_mask)), dn.MIN_PRODUCT_ROWS)


# the variables that set a BLAS call's thread count, in the order they are read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shard_processes(n_shards: int) -> int:
    """Processes to run a batch's shards on, the training process counted:
    the usable CPUs divided by the threads each BLAS call takes, at most
    one per shard, at least 1. Where fork is unavailable the runner
    (`workers.Forked`) runs them all in the training process.

    BLAS with no thread count set is taken to use every CPU already, which
    leaves one process: shards beside a threaded BLAS slow training down
    (README, "Performance").
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    counts = [int(v) for v in (os.environ.get(var, "").strip() for var in BLAS_THREAD_VARS)
              if v.isdigit() and int(v) > 0]
    blas = counts[0] if counts else cpus  # unset, unreadable or 0: BLAS takes every CPU
    return max(1, min(cpus // blas, n_shards))


def _shared_copies(tensors: dict[str, np.ndarray], copies: int):
    """copies rows of zeros that each hold arrays shaped like tensors, one
    dtype for all, in one anonymous shared mapping, which processes forked
    later see as their parent does. A page of it counts in the resident
    memory of the processes that touch it, no other.

    Returns the mapping as one (copies, size) array, and each tensor's
    slice of a row, in manifest order, each starting on a cache line, with
    zeros between them. Tensors of the same sizes and dtype get the same
    layout.
    """
    dtype = np.result_type(*tensors.values())
    align = 64 // dtype.itemsize  # each array starts on a cache line
    spans, size = {}, 0
    for name, arr in tensors.items():
        spans[name] = slice(size, size + arr.size)
        size += -(-arr.size // align) * align
    return np.ndarray((copies, size), dtype,
                      mmap.mmap(-1, max(1, copies * size * dtype.itemsize))), spans


class _Run:
    """The state that a `train` call's processes share, the job state of
    its runner: one `_shared_copies` mapping, `flat`, of rows of one layout
    (each trainable tensor at its slice of a row, `spans`). Row 0 holds
    the trained tensors, rows 1 and 2 AdamW's first and second moments,
    and row 3 + k the gradients of a step's shard k; row 3 also ends
    holding the step's summed gradients. `model` is the model training
    updates: its trainable tensors are views of row 0, set to the given
    model's values, and its frozen ones are the given model's own. `train`
    rebinds the given model to these tensors for the call, so its own
    trainable arrays go, and no second copy of them is held.
    """

    def __init__(self, model: Model, n_shards: int):
        own = model.trainable_tensors()
        self.flat, self.spans = _shared_copies(own, 3 + n_shards)
        trained = {name: self.flat[0, self.spans[name]].reshape(arr.shape)
                   for name, arr in own.items()}
        for name, arr in own.items():
            trained[name][...] = arr
        self.model = Model.from_tensors(model.config, {**model.all_tensors(), **trained})


def _optimizer_groups(tensors: dict[str, np.ndarray], processes: int) -> list[list[str]]:
    """The tensors' names cut into one contiguous run per process, balanced
    by element count, no more runs than tensors: the optimizer's groups,
    each one span of a `_Run`'s rows."""
    names = list(tensors)
    return [names[at] for at in _balanced_cut([arr.size for arr in tensors.values()],
                                              min(processes, len(names)), 1)]


def _frames(batch: Batch, at: slice) -> Batch:
    return Batch(**{f.name: getattr(batch, f.name)[at] for f in fields(Batch)})


def _shard_step(run, shard, frames, t_arr, weights, noise, batch_size):
    """Shard number shard's part of a training step on run.model: its
    frames' loss forward and backward at the batch's scale, the returned
    gradients copied into the shard's row. Returns its frames' per-frame
    (reconstruction, rounding) losses."""
    breakdown, cache = loss_forward(run.model, frames, t_arr, need_cache=True, noise=noise,
                                    batch_size=batch_size)
    row = run.flat[3 + shard]
    for name, g in loss_backward(run.model, cache, weights).items():
        row[run.spans[name]].reshape(g.shape)[...] = g
    return breakdown.per_sample_mse, breakdown.per_sample_round


def _group_span(run, names) -> slice:
    """The span of run's rows that a group of contiguous tensors covers."""
    return slice(run.spans[names[0]].start, run.spans[names[-1]].stop)


def _reduce_group(run, names):
    """A group's part of a step's gradient sum: its span of each shard's
    row summed into row 3 in shard order. Returns each of its tensors'
    squared norms, in order."""
    span = _group_span(run, names)
    g = run.flat[3, span]
    for row in run.flat[4:]:
        g += row[span]
    return [float((grad * grad).sum())
            for grad in (run.flat[3, run.spans[name]] for name in names)]


def _update_group(run, names, scale, step, lr, weight_decay):
    """A group's part of a step's update, over its span of run's rows: its
    summed gradients scaled by the clip factor (`clip_factor`, None for
    none), and AdamW's update number step over them (`_adamw_span`)."""
    theta, m, v, g = run.flat[:4, _group_span(run, names)]
    if scale is not None:
        g *= scale
    _adamw_span(theta, m, v, g, step, lr, weight_decay)


def _step_part(run, part, *args):
    """The job function of `train`'s runner: part names the step's part,
    looked up when the job runs."""
    return {"shard": _shard_step, "reduce": _reduce_group,
            "update": _update_group}[part](run, *args)


def _run_shards(runner, batch: Batch, t_arr, weights, noise):
    """Every shard of a step through runner, whose state is a `_Run`, each
    leaving its gradients in its row; returns the batch's per-frame
    (reconstruction, rounding) losses."""
    losses = runner.map([("shard", i, _frames(batch, at), t_arr[at], weights[at],
                          tuple(eps[at] for eps in noise), batch.size)
                         for i, at in enumerate(frame_shards(batch.pad_mask))],
                        "training shard")
    return tuple(np.concatenate([shard[k] for shard in losses]) for k in (0, 1))


def _train_step(runner, groups, frame_batch, t_arr, weights, rng, sampler, *, clip_norm,
                step, lr, weight_decay):
    """Step number step of `train` through runner, whose state is a `_Run`,
    and its optimizer groups: the noise drawn, the batch cut into shards
    and run, the sampler fed, the gradients summed in shard order and,
    when the loss and their norm are finite, clipped and applied as
    AdamW's update number step. Returns ((l_vlb, l_emb, l_round, total,
    grad_norm), whether it updated).

    A shard's arrays, its loss cache and its gradients, are locals of
    `_shard_step` and die when it returns, before the next shard's forward.
    """
    model = runner.state.model
    noise = draw_noise(model, frame_batch, rng)
    per_mse, per_round = _run_shards(runner, frame_batch, t_arr, weights, noise)
    breakdown = LossBreakdown.of(model, t_arr, per_mse, per_round)
    for t_i, mse_i in zip(t_arr.tolist(), per_mse.tolist()):
        sampler.update(int(t_i), mse_i)
    squares = runner.map([("reduce", names) for names in groups], "optimizer group")
    grad_norm, scale = clip_factor([sq for group in squares for sq in group], clip_norm)
    updated = math.isfinite(breakdown.total) and math.isfinite(grad_norm)
    if updated:
        runner.map([("update", names, scale, step, lr, weight_decay) for names in groups],
                   "optimizer group")
    return (breakdown.l_vlb, breakdown.l_emb, breakdown.l_round, breakdown.total,
            grad_norm), updated


@dataclass
class TrainResult:
    aborted: bool
    rows: list[dict]  # one metrics row per step run


def train(model: Model, instances, *, steps: int, batch: int, lr: float,
          seed: int, weight_decay: float = 0.0, clip_norm: float = 1.0,
          sampler_history: int = 10, metrics_path=None, ckpt_path=None,
          ckpt_interval: int = 0, log_every: int = 0) -> TrainResult:
    """Run the training loop on the model, which ends holding the trained
    tensors, also when this raises.

    Frames are drawn with replacement; one t per frame comes from the
    loss-aware sampler, which is fed the per-frame reconstruction losses.
    A non-finite loss or gradient aborts the loop before the update, so
    the in-memory model (and any checkpoint on disk) stays at the last
    good step. Metrics rows are flushed as they are produced.

    Each step cuts its batch into shards (`frame_shards`), as many for
    every step of a call, and runs them through one runner
    (`workers.Forked`) on `shard_processes` processes, this one and
    workers forked at the first step; the cut depends on the batch's
    frames alone, so the process count changes no bit of the run. Each
    process also sums, clips and steps AdamW over its own group of
    tensors. A shard that fails in a worker, or a worker that exits,
    raises `workers.WorkerError` naming the shard, and every worker is
    joined before this returns or raises. Workers write no file and no
    log.

    Training holds one copy of the trainable tensors. The model moves
    into the call's shared mapping (`_Run`): its trainable tensors are
    rebound to views of the mapping, so the arrays it held are freed
    before the first step forks a worker, unless the caller keeps them.
    The steps update those views, which the interval checkpoints save.
    When the loop ends, also when it raises, the model is rebound to fresh
    copies of the last good values, and the mapping goes when this
    returns. Arrays taken out of the model before the call are therefore
    not updated: read the model after it. The frozen table stays the
    model's own, never copied.

    Per process, training holds one shard's arrays at a time: its forward
    cache (used up by backward, block by block) and its gradients, which
    backward returns and the shard copies into its row. The last log line
    gives this process's peak resident memory, and that of the largest
    child process it has waited for, the shard workers included.
    """
    check_train_settings(steps=steps, batch=batch, lr=lr, weight_decay=weight_decay,
                         clip_norm=clip_norm, sampler_history=sampler_history,
                         ckpt_interval=ckpt_interval)
    if not instances:
        raise ValidationError("cannot train on an empty instance list")
    rng = np.random.default_rng(seed)
    sampler = TimestepSampler(model.config.t_max, history=sampler_history)

    rows: list[dict] = []
    aborted = False
    n_shards = _shard_count(batch)
    run = _Run(model, n_shards)
    # the model moves into the mapping: its own trainable arrays go here,
    # before the first step forks a worker, unless the caller holds them
    model.emb, model.den = run.model.emb, run.model.den
    started = time.perf_counter()
    metrics = table_writer(metrics_path, METRICS_HEADER) if metrics_path else nullcontext()
    try:
        with Forked(_step_part, run, shard_processes(n_shards)) as runner, \
                metrics as write_rows:
            groups = _optimizer_groups(run.model.trainable_tensors(), runner.processes)
            for step in range(1, steps + 1):
                picks = rng.integers(0, len(instances), size=batch)
                frame_batch = stack_instances([instances[int(i)] for i in picks])
                t_arr, weights = sampler.sample(rng, size=batch)
                losses, updated = _train_step(runner, groups, frame_batch, t_arr, weights, rng,
                                              sampler, clip_norm=clip_norm, step=step, lr=lr,
                                              weight_decay=weight_decay)
                row = dict(zip(METRICS_HEADER, (step, float(np.mean(t_arr)), *losses)))
                rows.append(row)
                if write_rows is not None:
                    write_rows([row.values()])
                if not updated:
                    aborted = True
                    break
                if log_every and step % log_every == 0:
                    log.info("step %d/%d total=%.5f grad_norm=%.3f",
                             step, steps, row["total"], row["grad_norm"])
                if ckpt_path and ckpt_interval and step % ckpt_interval == 0 and step < steps:
                    save_checkpoint(run.model, ckpt_path)
    finally:  # out of the mapping, to copies of the last good values
        out = Model.from_tensors(model.config, {
            **model.all_tensors(),
            **{name: arr.copy() for name, arr in model.trainable_tensors().items()}})
        model.emb, model.den = out.emb, out.den
    log.info("batches of %d frames: %d shards, %d worker processes; %.1f ms per step",
             batch, n_shards, runner.workers,
             1e3 * (time.perf_counter() - started) / max(1, len(rows)))
    if ckpt_path and not aborted:
        save_checkpoint(model, ckpt_path)
    # ru_maxrss counts KiB on Linux; RUSAGE_CHILDREN gives the largest child
    # that this process has waited for, the shard workers joined above included
    log.info("peak resident memory of this process: %d KiB; of its largest child process "
             "waited for so far: %d KiB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return TrainResult(aborted=aborted, rows=rows)

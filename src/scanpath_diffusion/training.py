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
depend on the batch alone (`frame_shards`). A shard computes its frames'
whole loss forward and backward, every parameter gradient included, at
the batch's width and scale, so each frame's prediction, input gradient
and losses are bit-identical to a one-shard pass, and the shards'
gradients, summed in shard order, differ from it only in summation
order. The shards run through the one forked runner, `workers.Forked`:
shard 0 in the training process, the others in workers forked once per
`train` call (`_Shards`); the process count changes no bit of a run.
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
from .workers import Forked, WorkerError

__all__ = [
    "loss_forward", "loss_backward",
    "AdamW", "clip_global_norm", "check_train_settings", "train", "TrainResult",
    "METRICS_HEADER", "draw_noise", "frame_shards", "shard_processes", "ShardError",
]

log = logging.getLogger(__name__)

METRICS_HEADER = ["step", "t", "l_vlb", "l_emb", "l_round", "total", "grad_norm"]


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
        emb_rows = (t_arr == 0) | (model.config.emb_target_low_t & (t_arr == 1))
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

    emb_rows = (t_arr == 0) | (model.config.emb_target_low_t & (t_arr == 1))
    target = np.where(emb_rows[:, None, None], emb_total, z0)

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


def loss_backward(model: Model, cache, weights, out=None) -> dict[str, np.ndarray]:
    """Gradients of sum_i [w_i * mse_i + round_i] / batch_size over the
    batch's frames (batch_size as loss_forward was given it).

    weights are the per-frame importance weights for the reconstruction
    term. Returns gradients keyed like Model.trainable_tensors(); out, when
    given, is the GradSlot they are assigned into. The cache serves one
    call: its denoiser part is used up (`denoiser.backward`).
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

    grads = {} if out is None else out
    den_grads, d_zt = dn.backward(model.den, cache["den_cache"], d_z0_hat,
                                  out=None if out is None else out.part("den."))

    # z_t = coef * (emb_idx + noise) + emb_ctx (+ drawn noise); the target
    # is emb_idx + emb_ctx (+ noise for the clean-latent rows)
    d_emb_idx = d_zt * cache["coef"] + d_target
    d_emb_ctx = d_zt + d_target

    g_e_idx = np.zeros_like(model.emb.e_idx)
    np.add.at(g_e_idx, batch.x_idx.ravel(), d_emb_idx.reshape(-1, dim))
    g_e_idx += g_e_idx_logits
    grads["emb.e_idx"] = g_e_idx

    g_e_pos = np.zeros_like(model.emb.e_pos)
    np.add.at(g_e_pos, batch.x_pos.ravel(), d_emb_ctx.reshape(-1, dim))
    grads["emb.e_pos"] = g_e_pos

    bert_rows = model.emb.e_bert[batch.x_bert]
    d_ctx_flat = d_emb_ctx.reshape(-1, dim)
    grads["emb.w_proj"] = bert_rows.reshape(-1, bert_rows.shape[-1]).T @ d_ctx_flat
    grads["emb.b_proj"] = d_ctx_flat.sum(axis=0)

    if out is None:
        grads.update((f"den.{name}", g) for name, g in den_grads.items())
    return grads


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> float:
    """Scale all gradients in place to a global norm cap; returns the raw norm."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    norm = math.sqrt(total)
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for g in grads.values():
            g *= scale
    return norm


class AdamW:
    """Adam with decoupled weight decay, updating tensors in place.

    theta <- theta - lr * mhat / (sqrt(vhat) + eps) - lr * wd * theta;
    the decay multiplies the parameter directly, never the moments, so
    lr = 0 is a strict no-op whatever the decay.
    """

    def __init__(self, tensors: dict[str, np.ndarray], lr: float,
                 weight_decay: float = 0.0, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.tensors = tensors
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {k: np.zeros(v.shape, v.dtype) for k, v in tensors.items()}
        self._v = {k: np.zeros(v.shape, v.dtype) for k, v in tensors.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        c1 = 1.0 - self.beta1 ** self.step_count
        c2 = 1.0 - self.beta2 ** self.step_count
        for name, theta in self.tensors.items():
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            if self.weight_decay != 0.0:
                theta *= 1.0 - self.lr * self.weight_decay
            theta -= self.lr * ((m / c1) / (np.sqrt(v / c2) + self.eps))


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
# the least work, read rows x dim, the smallest shard of a split batch
# carries. Two shard processes beat one down to the smallest shards measured
# at dims 16 to 256 (README, "Performance"), so the floor is the BLAS's: a
# backward product d @ w.T gives a block of up to 75 rows (dim 16), 18 (dim
# 64) or 4 (dim 256) other bits than the same rows stacked, about 1200 / dim
# (`demos/blas_row_stability.py`), and a shard's smallest product is its read
# rows. 2048 clears that with room, splits every desk batch (dim 64, 16
# frames, about 80 read rows a shard) and no batch of tier-1's small models.
MIN_SHARD_WORK = 2048


def _shard_count(bsz: int) -> int:
    """The most shards a batch of bsz frames is cut into: ceil(bsz /
    SHARD_FRAMES), but no more than leave each MIN_PRODUCT_ROWS frames (a
    shard's time MLP is a product of one row per frame)."""
    return max(1, min(-(-bsz // SHARD_FRAMES), bsz // dn.MIN_PRODUCT_ROWS))


def frame_shards(pad_mask, read_mask, dim: int) -> list[slice]:
    """The runs of frames of a batch that training computes one by one.

    A batch of B frames is cut into _shard_count(B) contiguous shards, each
    cut at the frame boundary that best balances the real rows on either
    side of it. The batch splits only when its smallest shard carries at
    least MIN_SHARD_WORK, its read rows times dim; otherwise it is one
    shard. The cut depends on the batch alone, never on how many processes
    run it.
    """
    bsz = len(pad_mask)
    n = _shard_count(bsz)
    before = np.concatenate([[0], np.cumsum(pad_mask.sum(axis=1))])  # rows before frame j
    bounds = [0]
    for k in range(1, n):
        ends = np.arange(bounds[-1] + dn.MIN_PRODUCT_ROWS,
                         bsz - (n - k) * dn.MIN_PRODUCT_ROWS + 1)
        bounds.append(int(ends[np.argmin(np.abs(n * before[ends] - k * before[-1]))]))
    bounds.append(bsz)
    shards = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    read = read_mask.sum(axis=1)
    if n > 1 and min(int(read[s].sum()) for s in shards) * dim < MIN_SHARD_WORK:
        return [slice(0, bsz)]
    return shards


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


class GradSlot(dict):
    """Gradients by name, each an array set aside for it: assigning a
    gradient copies it into that array, so the computed one lives only
    until it is copied."""

    def __setitem__(self, name, g):
        np.copyto(dict.__getitem__(self, name), g)

    def part(self, prefix: str) -> "GradSlot":
        """The slot's arrays whose names start with prefix, keyed without it."""
        return GradSlot((k[len(prefix):], v) for k, v in self.items() if k.startswith(prefix))


def _shared_copies(tensors: dict[str, np.ndarray], copies: int):
    """copies sets of zeroed arrays shaped like tensors, one dtype for all,
    laid out one set after another in one anonymous shared mapping, which
    processes forked later see as their parent does. Returns the sets and
    a (copies, n) view of the whole mapping, a set per row."""
    dtype = np.result_type(*tensors.values())
    align = 64 // dtype.itemsize  # each array starts on a cache line
    offsets, size = {}, 0
    for name, arr in tensors.items():
        offsets[name] = size
        size += -(-arr.size // align) * align
    flat = np.ndarray((copies, size), dtype, mmap.mmap(-1, max(1, copies * size * dtype.itemsize)))
    return [{name: flat[c, offsets[name]:offsets[name] + arr.size].reshape(arr.shape)
             for name, arr in tensors.items()} for c in range(copies)], flat


def _set_tensors(model: Model, tensors: dict[str, np.ndarray]) -> None:
    """Point the model's tensors, by Model.all_tensors() name, at tensors."""
    for name, arr in tensors.items():
        part, _, leaf = name.partition(".")
        if part == "emb":
            setattr(model.emb, leaf, arr)
        else:
            model.den.tensors[leaf] = arr


def _frames(batch: Batch, at: slice) -> Batch:
    return Batch(**{f.name: getattr(batch, f.name)[at] for f in fields(Batch)})


def _shard_step(state, shard, frames, t_arr, weights, noise, batch_size):
    """Shard number shard's part of a training step, state the (model,
    gradient slots) of `_Shards`: its frames' loss forward and backward at
    the batch's scale, every gradient written into the shard's slot.
    Returns its frames' per-frame (reconstruction, rounding) losses."""
    model, slots = state
    breakdown, cache = loss_forward(model, frames, t_arr, need_cache=True, noise=noise,
                                    batch_size=batch_size)
    loss_backward(model, cache, weights, out=slots[shard])
    return breakdown.per_sample_mse, breakdown.per_sample_round


# a training shard that failed in a worker process, or whose worker exited
ShardError = WorkerError


class _Shards:
    """The shards of `train`'s steps, and the processes that run them.

    For its lifetime the model's trainable tensors live in one shared
    mapping, and every shard of a step has a gradient slot in a second
    one. The shards run through a `workers.Forked` runner whose state is
    (model, slots): its workers are forked at the first split step and
    see the optimizer's in-place updates through the shared mapping. The
    slots are summed in shard order into slot 0. On exit the model gets
    its own arrays back, holding the trained values, and every worker is
    joined.
    """

    def __init__(self, model: Model, n_slots: int, processes: int):
        self.model = model
        self.own = model.trainable_tensors()
        (shared,), _ = _shared_copies(self.own, 1)
        slots, self.flat = _shared_copies(self.own, n_slots)
        self.slots = [GradSlot(slot) for slot in slots]
        self.runner = Forked(_shard_step, (model, self.slots), processes, "training shard")
        for name, arr in self.own.items():
            shared[name][...] = arr
        _set_tensors(model, shared)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.runner.__exit__(*exc)
        shared = self.model.trainable_tensors()
        for name, arr in self.own.items():
            arr[...] = shared[name]
        _set_tensors(self.model, self.own)

    def run(self, batch: Batch, cut: list[slice], t_arr, weights, noise):
        """Every shard of a step; returns the batch's per-frame losses, and
        leaves the summed gradients in slot 0."""
        losses = self.runner.map([(i, _frames(batch, at), t_arr[at], weights[at],
                                   tuple(eps[at] for eps in noise), batch.size)
                                  for i, at in enumerate(cut)])
        total = self.flat[0]
        for i in range(1, len(cut)):
            total += self.flat[i]
        return tuple(np.concatenate([shard[k] for shard in losses]) for k in (0, 1))


def _train_step(model, frame_batch, t_arr, weights, rng, sampler, optimizer, clip_norm,
                shards):
    """One step of `train`: the noise drawn, the batch cut into shards and
    run (its gradients summed in shard order), the sampler fed, the
    gradients clipped and, when the loss and their norm are finite, the
    update. Returns ((l_vlb, l_emb, l_round, total, grad_norm), whether it
    updated, how many shards it ran).

    A shard's arrays, its loss cache and its gradients, are locals of
    `_shard_step` and die when it returns, before the next shard's forward.
    """
    noise = draw_noise(model, frame_batch, rng)
    cut = frame_shards(frame_batch.pad_mask, frame_batch.target_mask, model.den.dim)
    per_mse, per_round = shards.run(frame_batch, cut, t_arr, weights, noise)
    breakdown = LossBreakdown.of(model, t_arr, per_mse, per_round)
    for t_i, mse_i in zip(t_arr.tolist(), per_mse.tolist()):
        sampler.update(int(t_i), mse_i)
    grads = shards.slots[0]
    grad_norm = clip_global_norm(grads, clip_norm)
    updated = math.isfinite(breakdown.total) and math.isfinite(grad_norm)
    if updated:
        optimizer.step(grads)
    return (breakdown.l_vlb, breakdown.l_emb, breakdown.l_round, breakdown.total,
            grad_norm), updated, len(cut)


@dataclass
class TrainResult:
    steps_done: int
    aborted: bool
    rows: list[dict]


def train(model: Model, instances, *, steps: int, batch: int, lr: float,
          seed: int, weight_decay: float = 0.0, clip_norm: float = 1.0,
          sampler_history: int = 10, metrics_path=None, ckpt_path=None,
          ckpt_interval: int = 0, log_every: int = 0) -> TrainResult:
    """Run the training loop, mutating the model in place.

    Frames are drawn with replacement; one t per frame comes from the
    loss-aware sampler, which is fed the per-frame reconstruction losses.
    A non-finite loss or gradient aborts the loop before the update, so
    the in-memory model (and any checkpoint on disk) stays at the last
    good step. Metrics rows are flushed as they are produced.

    Each step cuts its batch into shards (`frame_shards`) and runs them on
    `shard_processes` processes, this one and workers forked at the first
    split step (`_Shards`); the cut depends on the batch alone, so the
    process count changes no bit of the run. A shard that fails in a
    worker, or a worker that exits, raises ShardError naming the shard, and
    every worker is joined before this returns or raises. Workers write
    no file and no log.

    Training holds one shard's arrays at a time per process: its forward
    cache (used up by backward, block by block) and its gradients, which
    are copied into the shard's slot as they are computed. The last log
    line gives this process's peak resident memory.
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
    processes = shard_processes(n_shards)
    split_steps = 0
    started = time.perf_counter()
    metrics = table_writer(metrics_path, METRICS_HEADER) if metrics_path else nullcontext()
    with _Shards(model, n_shards, processes) as shards, metrics as write_rows:
        optimizer = AdamW(model.trainable_tensors(), lr=lr, weight_decay=weight_decay)
        for step in range(1, steps + 1):
            picks = rng.integers(0, len(instances), size=batch)
            frame_batch = stack_instances([instances[int(i)] for i in picks])
            t_arr, weights = sampler.sample(rng, size=batch)
            losses, updated, ran = _train_step(model, frame_batch, t_arr, weights, rng,
                                               sampler, optimizer, clip_norm, shards)
            split_steps += ran > 1
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
                save_checkpoint(model, ckpt_path)
        workers = shards.runner.workers
    log.info("batches of %d frames: up to %d shards, %d worker processes; the shard gate "
             "split %d of %d steps; %.1f ms per step", batch, n_shards, workers, split_steps,
             len(rows), 1e3 * (time.perf_counter() - started) / max(1, len(rows)))
    if ckpt_path and not aborted:
        save_checkpoint(model, ckpt_path)
    # ru_maxrss counts KiB on Linux
    log.info("peak resident memory of this process: %d KiB",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return TrainResult(steps_done=len(rows), aborted=aborted, rows=rows)

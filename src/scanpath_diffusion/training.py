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

The training loop cuts each batch after its longest real frame
(encoding.trim_batch). Both noise tensors are still drawn per full frame,
(B, max_len, dim), and then cut to the batch width, so the trim moves
neither the random stream nor any later draw: a trimmed step matches the
untrimmed one up to summation order. Likewise both are drawn in float64
and then cast to the model's dtype, which every term of the loss and its
gradient computes in, so a float32 model draws the same stream.

The noise schedule, t_max and beta_zero come from the model alone
(Model.schedule, Model.beta_zero), so every caller of the loss trains the
model its config describes.
"""

from __future__ import annotations

import logging
import math
import os
import resource
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from .corpus import table_writer
from .embedding import embed_parts, round_logits
from .encoding import Batch, stack_instances, trim_batch
from .errors import ValidationError
from .model import Model, save_checkpoint
from .schedules import TimestepSampler, q_sample

__all__ = [
    "loss_forward", "loss_backward",
    "AdamW", "clip_global_norm", "check_train_settings", "train", "TrainResult",
    "METRICS_HEADER", "shard_threads",
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


def loss_forward(model: Model, batch: Batch, t_arr, rng: np.random.Generator,
                 need_cache: bool = False, pool=None):
    """Forward pass of the full training loss for one batch.

    t_arr holds one step index in 0..t_max per frame. The schedule and
    beta_zero are the model's (model.schedule(), model.beta_zero()). The
    batch may be narrower than the model's frame (see trim_batch), never
    wider. Returns (LossBreakdown, cache); the cache feeds loss_backward.
    pool runs the denoiser's shards (`denoiser.forward`).
    """
    t_arr = np.asarray(t_arr, dtype=np.int64)
    bsz, width = batch.x_idx.shape
    max_len = model.config.max_len
    sched = model.schedule()
    if width > max_len:
        raise ValidationError(f"batch width {width} exceeds the model frame of {max_len}")
    if t_arr.shape != (bsz,):
        raise ValidationError(f"expected t of shape ({bsz},), got {t_arr.shape}")
    if np.any(t_arr < 0) or np.any(t_arr > sched.t_max):
        raise ValidationError("sampled t outside 0..t_max")

    emb_idx, emb_ctx = embed_parts(model.emb, batch.x_idx, batch.x_bert, batch.x_pos)
    emb_total = emb_idx + emb_ctx
    dtype = emb_total.dtype
    full_frame = (bsz, max_len, emb_total.shape[-1])
    eps0 = rng.standard_normal(full_frame)[:, :width].astype(dtype)
    z0_idx = emb_idx + math.sqrt(model.beta_zero()) * eps0
    z0 = z0_idx + emb_ctx

    # noise the scanpath side of rows with t >= 1 (t = 0 rows pass through);
    # backward needs the multiplier on the clean component, d z_t / d z0
    eps = rng.standard_normal(full_frame)[:, :width].astype(dtype)
    noised = batch.target_mask & (t_arr >= 1)[:, None]
    t_jump = np.maximum(t_arr, 1)
    z_t = q_sample(z0_idx, t_jump, eps, sched, noised) + emb_ctx
    sqrt_ab = np.sqrt(sched.alpha_bar[t_jump - 1])[:, None, None]
    coef = np.where(noised[..., None], sqrt_ab, 1.0).astype(dtype)

    z0_hat, den_cache = dn.forward(model.den, z_t, t_arr, batch.pad_mask,
                                   need_cache=need_cache, read_mask=batch.target_mask,
                                   pool=pool)

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

    vlb_rows = ~emb_rows
    l_vlb = float(per_sample_mse[vlb_rows].mean()) if vlb_rows.any() else 0.0
    l_emb = float(per_sample_mse[emb_rows].mean()) if emb_rows.any() else 0.0
    l_round = float(per_sample_round.mean())
    breakdown = LossBreakdown(
        l_vlb=l_vlb, l_emb=l_emb, l_round=l_round,
        total=l_vlb + l_emb + l_round,
        per_sample_mse=per_sample_mse, per_sample_round=per_sample_round,
    )
    if not need_cache:
        return breakdown, None
    cache = {
        "batch": batch, "coef": coef, "n_tgt": n_tgt,
        "z0_hat": z0_hat, "target": target, "logits_shifted": logits,
        "log_z": log_z, "den_cache": den_cache,
    }
    return breakdown, cache


def loss_backward(model: Model, cache, weights, pool=None) -> dict[str, np.ndarray]:
    """Gradients of mean_i [w_i * mse_i + round_i] over the batch.

    weights are the per-frame importance weights for the reconstruction
    term; pool runs the denoiser's shards (`denoiser.backward`). Returns
    gradients keyed like Model.trainable_tensors(). The cache serves one
    call: its denoiser part is used up (`denoiser.backward`).
    """
    batch: Batch = cache["batch"]
    bsz = batch.size
    weights = np.broadcast_to(np.asarray(weights, dtype=np.float64), (bsz,))
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

    den_grads, d_zt = dn.backward(model.den, cache["den_cache"], d_z0_hat, pool=pool)

    # z_t = coef * (emb_idx + noise) + emb_ctx (+ drawn noise); the target
    # is emb_idx + emb_ctx (+ noise for the clean-latent rows)
    d_emb_idx = d_zt * cache["coef"] + d_target
    d_emb_ctx = d_zt + d_target

    grads: dict[str, np.ndarray] = {}
    g_e_idx = np.zeros_like(model.emb.e_idx)
    np.add.at(g_e_idx, batch.x_idx.ravel(), d_emb_idx.reshape(-1, dim))
    grads["emb.e_idx"] = g_e_idx + g_e_idx_logits

    g_e_pos = np.zeros_like(model.emb.e_pos)
    np.add.at(g_e_pos, batch.x_pos.ravel(), d_emb_ctx.reshape(-1, dim))
    grads["emb.e_pos"] = g_e_pos

    bert_rows = model.emb.e_bert[batch.x_bert]
    d_ctx_flat = d_emb_ctx.reshape(-1, dim)
    grads["emb.w_proj"] = bert_rows.reshape(-1, bert_rows.shape[-1]).T @ d_ctx_flat
    grads["emb.b_proj"] = d_ctx_flat.sum(axis=0)

    for name, g in den_grads.items():
        grads[f"den.{name}"] = g
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
        self._m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self._v = {k: np.zeros_like(v) for k, v in tensors.items()}

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


# the variables that set a BLAS call's thread count, in the order they are read
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def shard_threads(n_shards: int) -> int:
    """Threads to run a batch's denoiser shards on: the usable CPUs divided
    by the threads each BLAS call takes, at most one per shard, at least 1.

    BLAS with no thread count set is taken to use every CPU already, which
    leaves one thread: shard threads on top of a threaded BLAS slow
    training down (README, "Performance").
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    counts = [int(v) for v in (os.environ.get(var, "").strip() for var in BLAS_THREAD_VARS)
              if v.isdigit() and int(v) > 0]
    blas = counts[0] if counts else cpus  # unset, unreadable or 0: BLAS takes every CPU
    return max(1, min(cpus // blas, n_shards))


def _train_step(model, frame_batch, t_arr, weights, rng, sampler, optimizer, clip_norm,
                pool):
    """One step of `train`: the loss and its gradients, the sampler fed,
    the gradients clipped and, when the loss and their norm are finite,
    the update. Returns ((l_vlb, l_emb, l_round, total, grad_norm), whether
    it updated).

    The step's arrays, the loss cache and the gradients, are locals here
    and die when it returns, before the next step's forward.
    """
    breakdown, cache = loss_forward(model, frame_batch, t_arr, rng, need_cache=True, pool=pool)
    grads = loss_backward(model, cache, weights, pool=pool)
    for t_i, mse_i in zip(t_arr.tolist(), breakdown.per_sample_mse.tolist()):
        sampler.update(int(t_i), mse_i)
    grad_norm = clip_global_norm(grads, clip_norm)
    updated = math.isfinite(breakdown.total) and math.isfinite(grad_norm)
    if updated:
        optimizer.step(grads)
    return (breakdown.l_vlb, breakdown.l_emb, breakdown.l_round, breakdown.total,
            grad_norm), updated


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

    Training holds one step's arrays at a time: each step runs in
    `_train_step`, whose forward cache (used up by backward, block by
    block) and gradients die when it returns, so the next step's forward
    starts with none of them alive. The last log line gives the process's
    peak resident memory.

    The denoiser runs a batch's shards on a thread pool of `shard_threads`
    threads that lives only as long as this call; the shards depend on the
    batch alone, so the thread count changes no bit of the run.
    """
    check_train_settings(steps=steps, batch=batch, lr=lr, weight_decay=weight_decay,
                         clip_norm=clip_norm, sampler_history=sampler_history,
                         ckpt_interval=ckpt_interval)
    if not instances:
        raise ValidationError("cannot train on an empty instance list")
    rng = np.random.default_rng(seed)
    sampler = TimestepSampler(model.config.t_max, history=sampler_history)
    optimizer = AdamW(model.trainable_tensors(), lr=lr, weight_decay=weight_decay)

    rows: list[dict] = []
    aborted = False
    n_shards = math.ceil(batch / dn.SHARD_FRAMES)
    threads = shard_threads(n_shards)
    sharded_steps = 0
    metrics = table_writer(metrics_path, METRICS_HEADER) if metrics_path else nullcontext()
    shard_pool = ThreadPoolExecutor(threads) if threads > 1 else nullcontext()
    with metrics as write_rows, shard_pool as pool:
        for step in range(1, steps + 1):
            picks = rng.integers(0, len(instances), size=batch)
            frame_batch = trim_batch(stack_instances([instances[int(i)] for i in picks]))
            sharded_steps += len(dn.frame_shards(frame_batch.pad_mask, model.den.dim)) > 1
            t_arr, weights = sampler.sample(rng, size=batch)
            losses, updated = _train_step(model, frame_batch, t_arr, weights, rng, sampler,
                                          optimizer, clip_norm, pool)
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
    log.info("batches of %d frames: up to %d shards on %d threads; the shard gate split "
             "%d of %d steps", batch, n_shards, threads, sharded_steps, len(rows))
    if ckpt_path and not aborted:
        save_checkpoint(model, ckpt_path)
    # ru_maxrss counts KiB on Linux
    log.info("peak resident memory of this process: %d KiB",
             resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return TrainResult(steps_done=len(rows), aborted=aborted, rows=rows)

"""Anchored reverse diffusion: sentence in, fixation sequence out.

The scanpath side of the frame starts as unit Gaussian noise in the index
channel (context and position channels stay intact); the sentence side
starts, and stays, at its exact embedding. Each step t = t_max .. 1:

  1. predict the clean latent from the current state
  2. rounding anchor: snap the prediction's scanpath slots to their
     nearest index-table rows (bit-exact rows, ties to the lowest id)
  3. for t >= 2, sample the reverse posterior of the index channel given
     (current state, anchored prediction), or take its mean with
     mean_only; at t = 1 the anchored prediction is the final state
  4. condition anchor: the sentence side is never written, so it stays at
     its exact embedding

The final scanpath-side ids are decoded by truncating at the end marker,
dropping frame markers, and clamping stray out-of-range values.

Seeding rule: the sentence at position i of `fitting_sentence_ids` draws
all its noise from `sentence_rng(seed, i)`, whatever the worker count or
run order, so `trace` replays the chain that `generate` ran.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from .embedding import embed_parts, round_argmax
from .encoding import decode_fixations, encode_instance, scanpath_room
from .errors import ValidationError
from .model import Model
from .schedules import posterior_params
from .tokenization import TokenizedSentence, Vocabulary, tokenize_sentence

__all__ = ["GenerationResult", "generate", "dump_latent_trace", "TRACE_HEADER",
           "fitting_sentence_ids", "sentence_rng"]

log = logging.getLogger(__name__)

TRACE_HEADER = ["t", "position", "dim", "value"]


def fitting_sentence_ids(sentences: dict, vocab: Vocabulary, max_len: int) -> list[str]:
    """Sorted ids of the sentences that leave room for a scanpath in the frame."""
    return [sid for sid in sorted(sentences)
            if scanpath_room(len(tokenize_sentence(sentences[sid], vocab).pieces), max_len) > 0]


def sentence_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the sentence at `index` in `fitting_sentence_ids`."""
    return np.random.default_rng([seed, index])


@dataclass
class GenerationResult:
    fixations: list[int]
    clamped: int
    raw_target_ids: np.ndarray
    word_count: int
    target_budget: int


def generate(model: Model, tok: TokenizedSentence, vocab: Vocabulary, *,
             rng: np.random.Generator, target_budget: int | None = None,
             mean_only: bool = False, on_step=None) -> GenerationResult:
    """Sample one scanpath for a tokenized sentence.

    on_step, if given, is called after every reverse step as
    on_step(step_index, t_after, z, z0_anchored) with step_index counting
    1..t_max, t_after the step label of the new state, z the full frame
    latent (L, dim), and z0_anchored the post-anchor clean prediction.
    """
    inst = encode_instance(tok, None, model.config.max_len, vocab,
                           target_budget=target_budget)
    sched = model.schedule()
    tgt = inst.target_mask
    n_tgt = int(tgt.sum())
    dim = model.config.dim

    emb_idx, emb_ctx = embed_parts(
        model.emb, inst.x_idx[None], inst.x_bert[None], inst.x_pos[None]
    )
    emb_idx, emb_ctx = emb_idx[0], emb_ctx[0]

    z = emb_idx + emb_ctx
    z[tgt] = rng.standard_normal((n_tgt, dim)) + emb_ctx[tgt]

    pad_mask = inst.pad_mask[None]
    for i, t in enumerate(range(sched.t_max, 0, -1), start=1):
        z0_hat, _ = dn.forward(model.den, z[None], t, pad_mask)
        z0_anchored = z0_hat[0]
        ids = round_argmax(z0_anchored[tgt], model.emb)
        z0_anchored[tgt] = model.emb.e_idx[ids]
        if t >= 2:
            zt_idx = z[tgt] - emb_ctx[tgt]
            z0_idx = z0_anchored[tgt]  # anchor-1 already stripped the context
            mu, var = posterior_params(zt_idx, z0_idx, t, sched)
            step_idx = mu if mean_only else mu + np.sqrt(var) * rng.standard_normal(mu.shape)
            z[tgt] = step_idx + emb_ctx[tgt]
        else:
            z[tgt] = z0_anchored[tgt]
        if on_step is not None:
            on_step(i, t - 1, z, z0_anchored)

    final_ids = round_argmax(z[tgt], model.emb)
    fixations, clamped = decode_fixations(final_ids, inst.word_count)
    if not fixations:
        # degenerate sample: every slot decoded to a marker; fall back to a
        # single fixation on the first word rather than an empty scanpath
        log.warning("generation produced an empty scanpath; falling back to [1]")
        fixations = [1]
    return GenerationResult(
        fixations=fixations,
        clamped=clamped,
        raw_target_ids=final_ids,
        word_count=inst.word_count,
        target_budget=n_tgt - 2,
    )


def dump_latent_trace(model: Model, tok: TokenizedSentence, vocab: Vocabulary,
                      fh, *, rng: np.random.Generator, stride: int = 1,
                      target_budget: int | None = None,
                      mean_only: bool = False) -> GenerationResult:
    """Generate while writing latent snapshots as t,position,dim,value rows.

    Snapshots are taken after reverse steps 1, 1+stride, 1+2*stride, ...
    and always after the final step, labeled with the t of the state they
    capture (t_max - step_index, down to 0).
    """
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    writer = csv.writer(fh)
    writer.writerow(TRACE_HEADER)
    t_max = model.config.t_max

    def on_step(i, t_after, z, _z0):
        if (i - 1) % stride == 0 or i == t_max:
            for pos in range(z.shape[0]):
                for k in range(z.shape[1]):
                    writer.writerow([t_after, pos, k, repr(float(z[pos, k]))])

    return generate(model, tok, vocab, rng=rng, target_budget=target_budget,
                    mean_only=mean_only, on_step=on_step)

"""Anchored reverse diffusion: sentence in, fixation sequence out.

The scanpath side of the frame starts as unit Gaussian noise in the index
channel (context and position channels stay intact); the sentence side
starts, and stays, at its exact embedding. Each step t = t_max .. 1:

  1. predict the clean latent from the current state
  2. rounding anchor: snap each of the prediction's scanpath slots to
     the index-table row with the largest inner product with it
     (`embedding.round_argmax`: bit-exact rows, ties to the lowest id;
     not the nearest row by L2 distance, which measured worse)
  3. for t >= 2, sample the reverse posterior of the index channel given
     (current state, anchored prediction), or take its mean with
     mean_only; at t = 1 the anchored prediction is the final state
  4. condition anchor: the sentence side is never written, so it stays at
     its exact embedding

The final scanpath-side ids are decoded by truncating at the end marker,
dropping frame markers, and clamping stray out-of-range values.

Seeding rule: the sentence at position i of `fitting_sentences` (the
sentences `corpus.filter_encodable` keeps, in sorted id order) draws all its
noise from `sentence_rng(seed, i)`, whatever the worker count, run order
or the other sentences its chain runs in lockstep with.

`generate` is the one sampling function: it runs the chains of a list of
sentences in lockstep, one denoiser forward per step for them all. A
lockstep chain gives each sentence the bits of its one-sentence chain, so
the `trace` command, which runs one sentence, replays the chain the
`generate` command ran in a chunk, provided the BLAS gives
a frame's block of rows in a stacked product the bits it gets alone:
the per-token denoiser layers are such products, and the rest of a
chain runs one frame at a time. `demos/blas_row_stability.py` checks the
property; OpenBLAS has it at the desk and paper model sizes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import denoiser as dn
from .corpus import Corpus, filter_encodable, table_writer
from .embedding import embed_parts, round_argmax
from .encoding import decode_fixations, encode_instance, stack_instances
from .errors import ValidationError
from .model import Model
from .schedules import posterior_params
from .tokenization import TokenizedSentence, Vocabulary

__all__ = ["GenerationResult", "generate", "dump_latent_trace",
           "TRACE_HEADER", "fitting_sentences", "sentence_rng"]

log = logging.getLogger(__name__)

TRACE_HEADER = ["t", "position", "dim", "value"]


def fitting_sentences(sentences: dict, vocab: Vocabulary,
                      max_len: int) -> dict[str, TokenizedSentence]:
    """The tokenization of each sentence `filter_encodable` keeps (it warns
    about the rest), in sorted id order."""
    toks = filter_encodable(Corpus(sentences=sentences), vocab, max_len)[1]
    return {sid: toks[sid] for sid in sorted(toks)}


def sentence_rng(seed: int, index: int) -> np.random.Generator:
    """The generator of the sentence at `index` in the sorted ids `filter_encodable` keeps."""
    return np.random.default_rng([seed, index])


@dataclass
class GenerationResult:
    fixations: list[int]
    clamped: int
    ended: bool  # the end marker is among the final target ids
    raw_target_ids: np.ndarray
    word_count: int
    target_budget: int


def generate(model: Model, toks: list[TokenizedSentence], vocab: Vocabulary, *,
             rngs: list[np.random.Generator], target_budget: int | None = None,
             mean_only: bool = False, on_step=None) -> list[GenerationResult]:
    """Sample one scanpath for each tokenized sentence, all chains in lockstep.

    Every reverse step runs one denoiser forward over the stacked frames.
    Sentence i draws all its noise from rngs[i], in the order and shapes
    of a one-sentence chain, and a frame's prediction does not depend on
    the other frames, so each result is bit-identical to `generate` of
    that sentence alone with the same generator.

    on_step, if given, is called after every reverse step as
    on_step(step_index, t_after, z, z0_anchored) with step_index counting
    1..t_max, t_after the step label of the new state, z the stacked frame
    latents (B, L, dim), and z0_anchored the post-anchor clean predictions
    (B, L, dim): the chain reads the denoiser on the scanpath side only
    (its read_mask), so z0_anchored is exact zeros outside that side.
    """
    if len(rngs) != len(toks):
        raise ValidationError(f"need one generator per sentence, got {len(rngs)} "
                              f"for {len(toks)}")
    if not toks:
        return []
    insts = [encode_instance(tok, None, model.config.max_len, vocab,
                             target_budget=target_budget) for tok in toks]
    batch = stack_instances(insts)
    sched = model.schedule()
    tgt = batch.target_mask
    n_tgt = tgt.sum(axis=1)
    dim = model.config.dim

    def noise():
        return np.concatenate([rng.standard_normal((n, dim)) for rng, n in zip(rngs, n_tgt)])

    def round_frames(x):
        # one product per frame: against the transposed index table, a
        # stacked product gives a small block of rows other bits than the
        # block gets alone (demos/blas_row_stability.py)
        return [round_argmax(frame[mask], model.emb) for frame, mask in zip(x, tgt)]

    emb_idx, emb_ctx = embed_parts(model.emb, batch.x_idx, batch.x_bert, batch.x_pos)
    ctx_tgt = emb_ctx[tgt]
    z = emb_idx + emb_ctx
    z[tgt] = noise() + ctx_tgt

    for i, t in enumerate(range(sched.t_max, 0, -1), start=1):
        z0_anchored, _ = dn.forward(model.den, z, t, batch.pad_mask, read_mask=tgt)
        z0_anchored[tgt] = model.emb.e_idx[np.concatenate(round_frames(z0_anchored))]
        if t >= 2:
            zt_idx = z[tgt] - ctx_tgt
            z0_idx = z0_anchored[tgt]  # anchor-1 already stripped the context
            mu, var = posterior_params(zt_idx, z0_idx, t, sched)
            step_idx = mu if mean_only else mu + np.sqrt(var) * noise()
            z[tgt] = step_idx + ctx_tgt
        else:
            z[tgt] = z0_anchored[tgt]
        if on_step is not None:
            on_step(i, t - 1, z, z0_anchored)

    return [_decode(ids, inst.word_count) for ids, inst in zip(round_frames(z), insts)]


def _decode(final_ids: np.ndarray, word_count: int) -> GenerationResult:
    """The result of a chain whose target slots rounded to final_ids."""
    fixations, clamped = decode_fixations(final_ids, word_count)
    if not fixations:
        # degenerate sample: every slot decoded to a marker; fall back to a
        # single fixation on the first word rather than an empty scanpath
        log.warning("generation produced an empty scanpath; falling back to [1]")
        fixations = [1]
    return GenerationResult(
        fixations=fixations,
        clamped=clamped,
        ended=bool(np.any(final_ids == word_count + 1)),
        raw_target_ids=final_ids,
        word_count=word_count,
        target_budget=len(final_ids) - 2,
    )


def dump_latent_trace(model: Model, tok: TokenizedSentence, vocab: Vocabulary,
                      target, *, rng: np.random.Generator, stride: int = 1,
                      target_budget: int | None = None,
                      mean_only: bool = False) -> GenerationResult:
    """Generate while writing latent snapshots as t,position,dim,value rows.

    target is a path or an open text file. Snapshots are taken after
    reverse steps 1, 1+stride, 1+2*stride, ... and always after the final
    step, labeled with the t of the state they capture (t_max - step_index,
    down to 0).
    """
    if stride < 1:
        raise ValidationError(f"stride must be >= 1, got {stride}")
    t_max = model.config.t_max
    with table_writer(target, TRACE_HEADER) as write_rows:

        def on_step(i, t_after, z, _z0):
            if (i - 1) % stride == 0 or i == t_max:
                write_rows([t_after, pos, k, value]
                           for pos, values in enumerate(z[0].tolist())
                           for k, value in enumerate(values))

        return generate(model, [tok], vocab, rngs=[rng], target_budget=target_budget,
                        mean_only=mean_only, on_step=on_step)[0]

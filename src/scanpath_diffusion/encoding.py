"""Fixed-width frames pairing a sentence with a scanpath (or a slot for one).

A frame of width L is laid out as

    [CLS, piece_1 .. piece_n, SEP | CLS, fix_1 .. fix_N, SEP | PAD ...]

and is described by three aligned integer sequences plus three masks:

  x_idx   word-position channel: CLS -> 0, piece of word j -> j (1-based,
          shared by all pieces of the word), fixated word -> its index,
          SEP -> word_count + 1, PAD -> 0
  x_bert  subword-vocabulary ids on the sentence side (with real CLS/SEP
          ids); the scanpath side and padding carry the PAD id
  x_pos   position within each side, restarting at 0 for the scanpath side

condition_mask covers the sentence side, target_mask the scanpath side;
they are disjoint and union to pad_mask, so a stacked Batch carries only
target_mask and pad_mask. For generation the scanpath side is built from
placeholder zeros over a caller-sized budget.

Real slots always form a prefix of the frame, and a batch stacks whole
frames. The denoiser computes no padding slot, not even as an attention
key, and padding never enters a loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError
from .tokenization import TokenizedSentence, Vocabulary


def scanpath_room(n_pieces: int, max_len: int) -> int:
    """Scanpath slots a max_len frame has left beside n_pieces subword
    pieces and the 4 markers; a scanpath fits iff its length is <= this."""
    return max_len - n_pieces - 4


@dataclass(frozen=True)
class EncodedInstance:
    x_idx: np.ndarray
    x_bert: np.ndarray
    x_pos: np.ndarray
    condition_mask: np.ndarray
    target_mask: np.ndarray
    pad_mask: np.ndarray
    seq_len: int
    word_count: int


def encode_instance(
    tok: TokenizedSentence,
    fixations,
    max_len: int,
    vocab: Vocabulary,
    target_budget: int | None = None,
) -> EncodedInstance:
    """Build one frame. fixations=None builds a generation frame.

    A generation frame sizes its scanpath side to target_budget (default:
    all remaining space) and fills it with placeholder zeros; the markers
    and masks are laid out exactly as in training frames.
    """
    n = len(tok.pieces)
    m = tok.word_count
    if fixations is None:
        budget = scanpath_room(n, max_len) if target_budget is None else target_budget
        if budget < 1:
            raise ValidationError(
                f"target budget {budget} < 1 (sentence has {n} pieces, frame {max_len})"
            )
        fix_values = [0] * budget
    else:
        if target_budget is not None:
            raise ValidationError("target_budget only applies to generation frames")
        fix_values = list(fixations)
        if not fix_values:
            raise ValidationError("cannot encode an empty scanpath")
        for f in fix_values:
            if not 1 <= f <= m:
                raise ValidationError(f"fixation index {f} out of range 1..{m}")
    seq_len = n + len(fix_values) + 4
    if len(fix_values) > scanpath_room(n, max_len):
        raise ValidationError(
            f"{n} pieces + {len(fix_values)} scanpath slots + 4 markers "
            f"= {seq_len} exceeds frame of {max_len}"
        )

    x_idx = np.zeros(max_len, dtype=np.int64)
    x_bert = np.full(max_len, vocab.pad_id, dtype=np.int64)
    x_pos = np.zeros(max_len, dtype=np.int64)
    condition = np.zeros(max_len, dtype=bool)
    target = np.zeros(max_len, dtype=bool)

    # sentence side: [CLS, pieces..., SEP]
    w_len = n + 2
    x_idx[1:n + 1] = tok.word_index
    x_idx[n + 1] = m + 1
    x_bert[0] = vocab.cls_id
    x_bert[1:n + 1] = tok.piece_ids
    x_bert[n + 1] = vocab.sep_id
    x_pos[:w_len] = np.arange(w_len)
    condition[:w_len] = True

    # scanpath side: [CLS, values..., SEP]
    f_len = len(fix_values) + 2
    lo = w_len
    x_idx[lo + 1:lo + 1 + len(fix_values)] = fix_values
    x_idx[lo + f_len - 1] = m + 1
    x_pos[lo:lo + f_len] = np.arange(f_len)
    target[lo:lo + f_len] = True

    pad_mask = condition | target
    return EncodedInstance(
        x_idx=x_idx,
        x_bert=x_bert,
        x_pos=x_pos,
        condition_mask=condition,
        target_mask=target,
        pad_mask=pad_mask,
        seq_len=seq_len,
        word_count=m,
    )


def decode_fixations(target_idx_values, word_count: int) -> tuple[list[int], int]:
    """Recover a fixation sequence from word-index values on target slots.

    Truncates at the first end marker (word_count + 1), drops zeros (frame
    markers / placeholders), clamps any remaining out-of-range value down
    to word_count. Returns (fixations, clamp_count); an empty list is a
    legal outcome.
    """
    sep = word_count + 1
    fixations = []
    clamped = 0
    for v in np.asarray(target_idx_values).tolist():
        if v == sep:
            break
        if v == 0:
            continue
        if v > word_count:
            v = word_count
            clamped += 1
        fixations.append(int(v))
    return fixations, clamped


@dataclass(frozen=True)
class Batch:
    """Whole frames stacked, (B, max_len) each field."""

    x_idx: np.ndarray
    x_bert: np.ndarray
    x_pos: np.ndarray
    target_mask: np.ndarray
    pad_mask: np.ndarray

    @property
    def size(self) -> int:
        return self.x_idx.shape[0]


def stack_instances(instances) -> Batch:
    if not instances:
        raise ValidationError("cannot stack an empty instance list")
    widths = {inst.x_idx.shape[0] for inst in instances}
    if len(widths) != 1:
        raise ValidationError(f"instances have mixed frame widths {sorted(widths)}")
    return Batch(**{f.name: np.stack([getattr(inst, f.name) for inst in instances])
                    for f in fields(Batch)})


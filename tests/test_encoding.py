"""Frame layout, masks, and fixation decoding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanpath_diffusion import (ValidationError, Vocabulary,
                                decode_fixations, encode_instance,
                                stack_instances, tokenize_sentence)

VOCAB = Vocabulary.from_tokens(
    ["[UNK]", "[PAD]", "[CLS]", "[SEP]", "the", "dog", "ran", "walk", "##ing"]
)


def enc(words, fixations, max_len=16, budget=None):
    tok = tokenize_sentence(words, VOCAB)
    return encode_instance(tok, fixations, max_len, VOCAB, target_budget=budget)


def test_training_frame_layout_exact():
    # "the walking dog" -> pieces [the, walk, ##ing, dog] over 3 words
    inst = enc(["the", "walking", "dog"], [1, 3, 2], max_len=12)
    # [CLS the walk ##ing dog SEP | CLS 1 3 2 SEP | PAD]
    assert inst.x_idx.tolist() == [0, 1, 2, 2, 3, 4, 0, 1, 3, 2, 4, 0]
    ids = VOCAB.ids
    assert inst.x_bert.tolist() == [
        ids["[CLS]"], ids["the"], ids["walk"], ids["##ing"], ids["dog"],
        ids["[SEP]"],
        ids["[PAD]"], ids["[PAD]"], ids["[PAD]"], ids["[PAD]"], ids["[PAD]"],
        ids["[PAD]"],
    ]
    assert inst.x_pos.tolist() == [0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 0]
    assert inst.condition_mask.tolist() == [True] * 6 + [False] * 6
    assert inst.target_mask.tolist() == [False] * 6 + [True] * 5 + [False]
    assert inst.seq_len == 11
    assert inst.word_count == 3


def test_masks_disjoint_and_union_is_pad():
    inst = enc(["the", "dog"], [1, 2, 1], max_len=16)
    assert not np.any(inst.condition_mask & inst.target_mask)
    assert np.array_equal(inst.condition_mask | inst.target_mask, inst.pad_mask)
    assert inst.pad_mask.sum() == inst.seq_len


def test_generation_frame_default_budget():
    tok = tokenize_sentence(["the", "dog"], VOCAB)
    inst = encode_instance(tok, None, 16, VOCAB)
    # 2 pieces: budget = 16 - 2 - 4 = 10 slots, target side 12 wide
    assert inst.target_mask.sum() == 12
    assert inst.pad_mask.sum() == 16
    assert np.all(inst.x_idx[inst.target_mask][1:-1] == 0)
    # markers still present: scanpath-side SEP carries word_count + 1
    target_positions = np.flatnonzero(inst.target_mask)
    assert inst.x_idx[target_positions[-1]] == 3


def test_generation_frame_explicit_budget():
    tok = tokenize_sentence(["the", "dog"], VOCAB)
    inst = encode_instance(tok, None, 16, VOCAB, target_budget=5)
    assert inst.target_mask.sum() == 7
    assert inst.seq_len == 2 + 5 + 4


def test_generation_frame_budget_too_small():
    tok = tokenize_sentence(["the", "dog"], VOCAB)
    # 2 pieces + 4 markers: a frame of 7 leaves budget 1, a frame of 6 none
    inst = encode_instance(tok, None, 7, VOCAB)
    assert inst.target_mask.sum() == 3
    with pytest.raises(ValidationError):
        encode_instance(tok, None, 6, VOCAB)


def test_budget_rejected_for_training_frames():
    tok = tokenize_sentence(["the", "dog"], VOCAB)
    with pytest.raises(ValidationError):
        encode_instance(tok, [1], 16, VOCAB, target_budget=5)


def test_overlong_frame_rejected():
    with pytest.raises(ValidationError):
        enc(["the", "dog"], [1, 2] * 6, max_len=12)


def test_empty_scanpath_rejected():
    with pytest.raises(ValidationError):
        enc(["the", "dog"], [], max_len=12)


def test_fixation_range_validated():
    with pytest.raises(ValidationError):
        enc(["the", "dog"], [3], max_len=12)
    with pytest.raises(ValidationError):
        enc(["the", "dog"], [0], max_len=12)


def test_position_channel_restarts_per_side():
    inst = enc(["the", "dog", "ran"], [2, 1], max_len=14)
    cond_pos = inst.x_pos[inst.condition_mask]
    tgt_pos = inst.x_pos[inst.target_mask]
    assert cond_pos.tolist() == list(range(5))
    assert tgt_pos.tolist() == list(range(4))


# ---------------------------------------------------------------------------
# decoding

def test_decode_plain():
    assert decode_fixations([1, 3, 2], 4) == ([1, 3, 2], 0)


def test_decode_truncates_at_end_marker():
    assert decode_fixations([1, 2, 5, 3, 1], 4) == ([1, 2], 0)


def test_decode_drops_zeros():
    assert decode_fixations([0, 1, 0, 2], 4) == ([1, 2], 0)


def test_decode_clamps_above_word_count():
    fix, clamped = decode_fixations([1, 9, 2, 7], 4)
    assert fix == [1, 4, 2, 4]
    assert clamped == 2


def test_decode_marker_is_not_clamped():
    # value 5 on a 4-word sentence is the end marker, not a clamp target
    fix, clamped = decode_fixations([9, 5, 9], 4)
    assert fix == [4]
    assert clamped == 1


def test_decode_empty_is_legal():
    assert decode_fixations([5, 1, 2], 4) == ([], 0)
    assert decode_fixations([0, 0], 4) == ([], 0)


@settings(max_examples=80, deadline=None)
@given(values=st.lists(st.integers(min_value=0, max_value=12), max_size=12),
       m=st.integers(min_value=1, max_value=8))
def test_decode_reference_semantics(values, m):
    """Independent re-statement: cut at first m+1, then keep nonzero values
    capped at m."""
    cut = []
    for v in values:
        if v == m + 1:
            break
        cut.append(v)
    expect = [min(v, m) for v in cut if v != 0]
    expect_clamps = sum(1 for v in cut if v != 0 and v > m)
    fix, clamped = decode_fixations(values, m)
    assert fix == expect
    assert clamped == expect_clamps
    assert all(1 <= f <= m for f in fix)


def test_encode_decode_round_trip():
    for fixations in ([1], [1, 2, 3], [3, 1, 2, 2, 1]):
        inst = enc(["the", "dog", "ran"], fixations, max_len=16)
        values = inst.x_idx[inst.target_mask]
        decoded, clamped = decode_fixations(values, inst.word_count)
        assert decoded == fixations
        assert clamped == 0


# ---------------------------------------------------------------------------
# batching

def test_stack_instances():
    a = enc(["the", "dog"], [1, 2], max_len=12)
    b = enc(["ran"], [1, 1, 1], max_len=12)
    batch = stack_instances([a, b])
    assert batch.size == 2
    assert batch.x_idx.shape == (2, 12)
    assert np.array_equal(batch.x_idx[0], a.x_idx)
    assert np.array_equal(batch.target_mask[1], b.target_mask)


def test_stack_rejects_mixed_widths():
    a = enc(["the"], [1], max_len=12)
    b = enc(["the"], [1], max_len=10)
    with pytest.raises(ValidationError):
        stack_instances([a, b])


def test_stack_rejects_empty():
    with pytest.raises(ValidationError):
        stack_instances([])

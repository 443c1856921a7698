"""Embedding channels, rounding, and table files."""

import numpy as np
import pytest

from scanpath_diffusion import (ValidationError, embed_parts,
                                init_embedding, load_table, round_argmax,
                                round_logits, save_table)
from scanpath_diffusion.embedding import EmbeddingParams


def hand_params():
    e_idx = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    e_pos = np.array([[0.1, 0.1], [0.2, 0.2]])
    e_bert = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    w_proj = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    b_proj = np.array([0.5, -0.5])
    return EmbeddingParams(e_idx=e_idx, e_pos=e_pos, e_bert=e_bert,
                           w_proj=w_proj, b_proj=b_proj)


def test_embed_parts_hand_case():
    params = hand_params()
    x_idx = np.array([0, 2])
    x_bert = np.array([1, 0])
    x_pos = np.array([1, 0])
    emb_idx, emb_ctx = embed_parts(params, x_idx, x_bert, x_pos)
    assert np.array_equal(emb_idx, np.array([[1.0, 0.0], [2.0, 2.0]]))
    # ctx = e_bert row @ w_proj + b_proj + e_pos row
    # row 0: [0,1,0]@W = [3,4]; +b = [3.5,3.5]; +pos1 = [3.7,3.7]
    # row 1: [1,0,0]@W = [1,2]; +b = [1.5,1.5]; +pos0 = [1.6,1.6]
    assert np.allclose(emb_ctx, np.array([[3.7, 3.7], [1.6, 1.6]]))


def test_embed_parts_batched():
    params = hand_params()
    x_idx = np.array([[0, 1], [2, 0]])
    x_bert = np.zeros((2, 2), dtype=np.int64)
    x_pos = np.zeros((2, 2), dtype=np.int64)
    emb_idx, emb_ctx = embed_parts(params, x_idx, x_bert, x_pos)
    assert emb_idx.shape == (2, 2, 2)
    assert np.array_equal(emb_idx[0, 1], params.e_idx[1])


def test_embed_rejects_out_of_range_ids():
    params = hand_params()
    with pytest.raises(ValidationError):
        embed_parts(params, np.array([3]), np.array([0]), np.array([0]))
    with pytest.raises(ValidationError):
        embed_parts(params, np.array([0]), np.array([2]), np.array([0]))
    with pytest.raises(ValidationError):
        embed_parts(params, np.array([0]), np.array([0]), np.array([-1]))


def test_init_embedding_shapes_and_frozen_adoption():
    rng = np.random.default_rng(0)
    table = rng.standard_normal((11, 5))
    params = init_embedding(v_idx=7, max_len=9, d=4, rng=rng, e_bert=table)
    assert params.e_idx.shape == (7, 4)
    assert params.e_pos.shape == (9, 4)
    assert params.w_proj.shape == (5, 4)
    assert params.b_proj.shape == (4,)
    assert np.array_equal(params.e_bert, table)
    assert params.dim == 4
    assert EmbeddingParams.FROZEN == ("e_bert",)


def test_init_embedding_needs_bert_spec():
    rng = np.random.default_rng(0)
    with pytest.raises(ValidationError):
        init_embedding(v_idx=4, max_len=4, d=2, rng=rng)
    params = init_embedding(v_idx=4, max_len=4, d=2, rng=rng, v_bert=6, d_bert=3)
    assert params.e_bert.shape == (6, 3)


def test_init_scales():
    rng = np.random.default_rng(1)
    params = init_embedding(v_idx=500, max_len=400, d=64, rng=rng, v_bert=5, d_bert=100)
    # index/position tables are unit-normal; projection is tight around 0
    assert abs(params.e_idx.std() - 1.0) < 0.05
    assert abs(params.e_pos.std() - 1.0) < 0.05
    assert params.w_proj.std() < 0.05
    assert np.all(params.b_proj == 0.0)


def test_round_logits_and_argmax():
    params = hand_params()
    z = np.array([[0.9, 0.1], [0.0, 2.0]])
    logits = round_logits(z, params)
    assert np.allclose(logits, z @ params.e_idx.T)
    ids = round_argmax(z, params)
    # row 0: scores [0.9, 0.1, 2.0] -> id 2; row 1: [0, 2, 4] -> id 2
    assert ids.tolist() == [2, 2]


def test_round_argmax_tie_takes_lowest_id():
    params = EmbeddingParams(
        e_idx=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        e_pos=np.zeros((1, 2)), e_bert=np.zeros((1, 1)),
        w_proj=np.zeros((1, 2)), b_proj=np.zeros(2),
    )
    ids = round_argmax(np.array([[1.0, 0.0]]), params)
    assert ids.tolist() == [0]


def test_round_argmax_on_exact_rows_recovers_ids():
    rng = np.random.default_rng(3)
    params = init_embedding(v_idx=20, max_len=4, d=16, rng=rng, v_bert=4, d_bert=3)
    ids = np.arange(20)
    recovered = round_argmax(params.e_idx[ids], params)
    # unit-normal rows: a row's inner product with itself dominates w.h.p.
    assert np.mean(recovered == ids) > 0.9


def test_table_file_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    table = rng.standard_normal((6, 3)).astype(np.float32).astype(np.float64)
    path = tmp_path / "table.bin"
    save_table(table, path)
    again = load_table(path)
    assert again.dtype == np.float64
    assert np.array_equal(again, table)


def test_table_file_truncation_detected(tmp_path):
    path = tmp_path / "table.bin"
    save_table(np.ones((4, 2)), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4])
    with pytest.raises(ValidationError):
        load_table(path)


def test_table_file_bad_header(tmp_path):
    path = tmp_path / "table.bin"
    path.write_bytes(b"not json\n" + b"\x00" * 8)
    with pytest.raises(ValidationError):
        load_table(path)


def test_save_table_rejects_non_2d(tmp_path):
    with pytest.raises(ValidationError):
        save_table(np.ones(5), tmp_path / "t.bin")

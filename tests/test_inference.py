"""Anchored reverse diffusion, trace dumps, and checkpoint files."""

import csv
import io
import json

import numpy as np
import pytest

from scanpath_diffusion import (ValidationError, dump_latent_trace, generate,
                                init_model, load_checkpoint, save_checkpoint,
                                tensor_shapes, tokenize_sentence)
from scanpath_diffusion import container
from scanpath_diffusion import inference as inf_mod
from scanpath_diffusion.embedding import embed_parts

from conftest import tiny_config


def small_model(tiny_vocab, **over):
    config = tiny_config(v_bert=len(tiny_vocab), **over)
    return init_model(config, np.random.default_rng(21))


def sentence_tok(tiny_vocab):
    return tokenize_sentence(["bala", "deon", "firi", "gola"], tiny_vocab)


def test_generate_basic_contract(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    res = generate(model, tok, tiny_vocab, rng=np.random.default_rng(0))
    assert res.word_count == 4
    assert len(res.fixations) >= 1
    assert all(1 <= f <= 4 for f in res.fixations)
    assert res.clamped >= 0
    # default budget: max_len - pieces - 4
    assert res.target_budget == model.config.max_len - len(tok.pieces) - 4
    assert res.raw_target_ids.shape == (res.target_budget + 2,)


def test_generate_deterministic_under_rng_seed(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    a = generate(model, tok, tiny_vocab, rng=np.random.default_rng(9))
    b = generate(model, tok, tiny_vocab, rng=np.random.default_rng(9))
    c = generate(model, tok, tiny_vocab, rng=np.random.default_rng(10))
    assert a.fixations == b.fixations
    assert np.array_equal(a.raw_target_ids, b.raw_target_ids)
    assert (a.fixations != c.fixations) or not np.array_equal(
        a.raw_target_ids, c.raw_target_ids)


def test_generate_mean_only_removes_posterior_noise(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    a = generate(model, tok, tiny_vocab, rng=np.random.default_rng(3), mean_only=True)
    b = generate(model, tok, tiny_vocab, rng=np.random.default_rng(3), mean_only=True)
    assert a.fixations == b.fixations


def test_generate_explicit_budget(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    res = generate(model, tok, tiny_vocab, rng=np.random.default_rng(1),
                   target_budget=5)
    assert res.target_budget == 5
    # raw side spans budget + 2 marker slots; decode strips only markers the
    # model actually reconstructed, so that is the hard cap
    assert len(res.fixations) <= 7
    assert res.raw_target_ids.shape == (7,)


def test_anchoring_invariants_every_step(tiny_vocab):
    """Condition slots return to the exact embedding after every step, and
    anchor-1 output rows sit bit-exactly on index-table rows."""
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    inst_probe = {}

    from scanpath_diffusion.encoding import encode_instance
    inst = encode_instance(tok, None, model.config.max_len, tiny_vocab)
    emb_idx, emb_ctx = embed_parts(
        model.emb, inst.x_idx[None], inst.x_bert[None], inst.x_pos[None])
    emb_total = (emb_idx + emb_ctx)[0]
    cond = inst.condition_mask
    tgt = inst.target_mask
    rows = {tuple(np.asarray(r, dtype=np.float64)) for r in model.emb.e_idx}
    steps = []

    def on_step(i, t_after, z, z0_anchored):
        steps.append((i, t_after))
        assert np.array_equal(z[cond], emb_total[cond])
        for row in z0_anchored[tgt]:
            assert tuple(row) in rows

    generate(model, tok, tiny_vocab, rng=np.random.default_rng(2), on_step=on_step)
    t_max = model.config.t_max
    assert steps == [(i, t_max - i) for i in range(1, t_max + 1)]


def test_final_state_is_anchored_rows(tiny_vocab):
    """After the t=1 step the target slots hold exact table rows, so the
    final rounding recovers their ids bit-exactly."""
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    final = {}

    def on_step(i, t_after, z, z0_anchored):
        if t_after == 0:
            final["z"] = z.copy()
            final["anchored"] = z0_anchored.copy()

    from scanpath_diffusion.encoding import encode_instance
    inst = encode_instance(tok, None, model.config.max_len, tiny_vocab)
    res = generate(model, tok, tiny_vocab, rng=np.random.default_rng(4),
                   on_step=on_step)
    tgt = inst.target_mask
    assert np.array_equal(final["z"][tgt], final["anchored"][tgt])


def test_generate_empty_decode_falls_back(tiny_vocab, monkeypatch, caplog):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    monkeypatch.setattr(inf_mod, "decode_fixations", lambda vals, m: ([], 0))
    with caplog.at_level("WARNING"):
        res = generate(model, tok, tiny_vocab, rng=np.random.default_rng(5))
    assert res.fixations == [1]
    assert any("empty scanpath" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# latent traces

def trace_rows(model, tok, vocab, stride, seed=0):
    buf = io.StringIO()
    dump_latent_trace(model, tok, vocab, buf, rng=np.random.default_rng(seed),
                      stride=stride)
    buf.seek(0)
    reader = csv.reader(buf)
    header = next(reader)
    assert header == ["t", "position", "dim", "value"]
    return list(reader)


def test_trace_stride_one_snapshots_every_step(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    rows = trace_rows(model, tok, tiny_vocab, stride=1)
    L, d, t_max = model.config.max_len, model.config.dim, model.config.t_max
    assert len(rows) == t_max * L * d
    labels = sorted({int(r[0]) for r in rows}, reverse=True)
    assert labels == list(range(t_max - 1, -1, -1))


def test_trace_stride_t_max_keeps_first_and_last(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    t_max = model.config.t_max
    rows = trace_rows(model, tok, tiny_vocab, stride=t_max)
    labels = sorted({int(r[0]) for r in rows})
    assert labels == [0, t_max - 1]


def test_trace_stride_three(tiny_vocab):
    model = small_model(tiny_vocab)  # t_max = 10
    tok = sentence_tok(tiny_vocab)
    rows = trace_rows(model, tok, tiny_vocab, stride=3)
    labels = {int(r[0]) for r in rows}
    # snapshots after steps 1,4,7,10 -> labels t_max - i = 9,6,3,0
    assert labels == {9, 6, 3, 0}


def test_trace_values_round_trip(tiny_vocab):
    model = small_model(tiny_vocab, t_max=3)
    tok = sentence_tok(tiny_vocab)
    seen = {}

    def on_step(i, t_after, z, _a):
        seen[t_after] = z.copy()

    buf = io.StringIO()
    dump_latent_trace(model, tok, tiny_vocab, buf,
                      rng=np.random.default_rng(8), stride=1)
    generate(model, tok, tiny_vocab, rng=np.random.default_rng(8),
             on_step=on_step)
    buf.seek(0)
    reader = csv.reader(buf)
    next(reader)
    for t_s, pos_s, dim_s, val_s in reader:
        assert float(val_s) == seen[int(t_s)][int(pos_s), int(dim_s)]


def test_trace_rejects_bad_stride(tiny_vocab):
    model = small_model(tiny_vocab)
    tok = sentence_tok(tiny_vocab)
    with pytest.raises(ValidationError):
        dump_latent_trace(model, tok, tiny_vocab, io.StringIO(),
                          rng=np.random.default_rng(0), stride=0)


# ---------------------------------------------------------------------------
# checkpoints

def test_checkpoint_round_trip(tiny_vocab, tmp_path):
    model = small_model(tiny_vocab)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    assert again.config == model.config
    for name, arr in model.all_tensors().items():
        stored = again.all_tensors()[name]
        assert stored.shape == arr.shape
        assert np.allclose(stored, arr, atol=1e-6)  # float32 payloads


def test_checkpoint_generation_agrees_after_reload(tiny_vocab, tmp_path):
    model = small_model(tiny_vocab)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    again = load_checkpoint(path)
    tok = sentence_tok(tiny_vocab)
    a = generate(again, tok, tiny_vocab, rng=np.random.default_rng(6))
    b = generate(load_checkpoint(path), tok, tiny_vocab,
                 rng=np.random.default_rng(6))
    assert a.fixations == b.fixations


def test_checkpoint_truncation_detected(tiny_vocab, tmp_path):
    model = small_model(tiny_vocab)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_checkpoint_trailing_bytes_detected(tiny_vocab, tmp_path):
    model = small_model(tiny_vocab)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b'{"nope": 1}\n')
    with pytest.raises(ValidationError):
        load_checkpoint(path)


def test_tensor_shapes_list_every_model_tensor_in_order(tiny_vocab):
    model = small_model(tiny_vocab, n_blocks=2)
    shapes = [(name, arr.shape) for name, arr in model.all_tensors().items()]
    assert shapes == list(tensor_shapes(model.config).items())


def test_checkpoint_transposed_tensor_rejected(tiny_vocab, tmp_path):
    # same element count, so only the shape check can catch it
    model = small_model(tiny_vocab)
    path = tmp_path / "model.bin"
    save_checkpoint(model, path)
    header_line, payload = path.read_bytes().split(b"\n", 1)
    header = json.loads(header_line)
    entry = next(e for e in header["tensors"] if e["name"] == "den.b0.ffn_w1")
    entry["shape"] = entry["shape"][::-1]
    assert entry["shape"][0] != entry["shape"][1]
    path.write_bytes(json.dumps(header).encode("ascii") + b"\n" + payload)
    with pytest.raises(ValidationError, match="den.b0.ffn_w1"):
        load_checkpoint(path)


def test_failed_checkpoint_write_keeps_previous_file(tiny_vocab, tmp_path,
                                                      monkeypatch):
    path = tmp_path / "model.bin"
    save_checkpoint(small_model(tiny_vocab), path)
    before = path.read_bytes()
    other = init_model(small_model(tiny_vocab).config, np.random.default_rng(99))
    real, calls = container.np.ascontiguousarray, []

    def fail_on_third_tensor(*args, **kwargs):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        return real(*args, **kwargs)

    monkeypatch.setattr(container.np, "ascontiguousarray", fail_on_third_tensor)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(other, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]
    load_checkpoint(path)


def test_init_model_v_idx_guard(tiny_vocab):
    with pytest.raises(ValidationError):
        small_model(tiny_vocab, v_idx=8, max_len=24)


@pytest.mark.parametrize("field", ["max_len", "dim", "d_bert", "n_blocks", "n_heads"])
def test_init_model_rejects_non_positive_size(tiny_vocab, field):
    with pytest.raises(ValidationError, match=f"^{field} must be >= 1, got 0$"):
        small_model(tiny_vocab, **{field: 0})

"""Training memory: one step's arrays at a time, a forward cache used up by
its backward, and each activation cached once. Measured with tracemalloc,
which numpy reports its array buffers to."""

import gc
import logging
import re
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

from scanpath_diffusion import (ValidationError, build_vocab, init_model, stack_instances,
                                train)
from scanpath_diffusion import denoiser as dn
from scanpath_diffusion import training

from conftest import encode_corpus, tiny_config

# what may stay behind from one step to the next: the metrics row, and
# allocator caches of numpy and the interpreter (about 2 KiB a step)
STEP_DRIFT = 32 * 1024


@contextmanager
def traced():
    """tracemalloc on for the block, and as it was afterwards: a run that
    already traces keeps tracing, with its traces."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        yield
    finally:
        if not was_tracing:
            tracemalloc.stop()


def traced_now() -> int:
    return tracemalloc.get_traced_memory()[0]


def array_bytes(obj) -> int:
    """Bytes of every array held by obj, through dicts, lists and tuples."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return array_bytes(list(obj.values()))
    if isinstance(obj, (list, tuple)):
        return sum(array_bytes(x) for x in obj)
    return 0


def random_denoiser(dim, n_blocks, n_heads, seed):
    rng = np.random.default_rng(seed)
    params = dn.init_denoiser(dim, n_blocks, n_heads, rng)
    for arr in params.tensors.values():
        arr[...] = rng.normal(0, 0.5, size=arr.shape)
    return params, rng


def test_each_step_forward_starts_with_no_array_of_the_step_before(monkeypatch, caplog,
                                                                   small_corpus):
    """When a step's forward starts, no array of the step before is alive:
    the traced memory there is step 1's, within STEP_DRIFT, while each
    forward alone allocates more than ten times that. train's last log
    line gives the process's peak resident memory, and that of the
    largest child process waited for so far."""
    vocab = build_vocab(small_corpus.sentences.values())
    model = init_model(tiny_config(dim=32, v_bert=len(vocab)), np.random.default_rng(13))
    instances = encode_corpus(small_corpus, vocab, model.config.max_len)
    at_start, held = [], []
    loss_forward = training.loss_forward

    def measured(*args, **kwargs):
        at_start.append(traced_now())
        out = loss_forward(*args, **kwargs)
        held.append(traced_now() - at_start[-1])
        return out

    monkeypatch.setattr(training, "loss_forward", measured)
    with traced(), caplog.at_level(logging.INFO, logger="scanpath_diffusion.training"):
        result = train(model, instances, steps=6, batch=4, lr=1e-3, seed=0)
    assert len(result.rows) == 6 and len(at_start) == 6
    assert min(held) > 10 * STEP_DRIFT
    assert [m - at_start[0] for m in at_start] == pytest.approx([0] * 6, abs=STEP_DRIFT)
    assert re.fullmatch(r"peak resident memory of this process: [1-9]\d* KiB; of its largest "
                        r"child process waited for so far: \d+ KiB",
                        caplog.records[-1].getMessage())


@pytest.mark.parametrize("processes", [1, 2])
def test_train_frees_its_shared_state_when_it_returns(monkeypatch, small_corpus, processes):
    """With the collector off, nothing of a finished train call's shards or
    optimizer is left, on one process or with a worker: its shared
    mappings (the model copy, the gradient slots and the moments) go when
    it returns, not at a later collection."""
    vocab = build_vocab(small_corpus.sentences.values())
    model = init_model(tiny_config(v_bert=len(vocab)), np.random.default_rng(14))
    instances = encode_corpus(small_corpus, vocab, model.config.max_len)
    monkeypatch.setattr(training, "shard_processes", lambda n_shards: processes)
    gc.collect()
    gc.disable()
    try:
        train(model, instances, steps=2, batch=12, lr=1e-3, seed=0)
        left = [obj for obj in gc.get_objects()
                if isinstance(obj, (training._Shards, training.AdamW))]
    finally:
        gc.enable()
    assert left == []


@pytest.mark.parametrize("shards", [1, 2])
def test_backward_uses_the_cache_up(monkeypatch, small_corpus, shards):
    """Each shard's backward takes every block's activations out of its
    cache and drops them block by block (the traced memory falls from one
    block's attention backward to the next), the shards of a step in turn
    in one process; and a second backward on a used-up cache is refused."""
    vocab = build_vocab(small_corpus.sentences.values())
    model = init_model(tiny_config(dim=8, n_blocks=4, v_bert=len(vocab)),
                       np.random.default_rng(80 + shards))
    for arr in model.trainable_tensors().values():
        arr[...] = np.random.default_rng(81).normal(0, 0.5, size=arr.shape)
    instances = encode_corpus(small_corpus, vocab, model.config.max_len)
    bsz = {1: 8, 2: 12}[shards]
    batch = stack_instances(instances[:bsz])
    rng = np.random.default_rng(82)
    t, weights = rng.integers(0, 11, size=bsz), np.ones(bsz)
    noise = training.draw_noise(model, batch, rng)
    cut = training.frame_shards(batch.pad_mask)
    assert len(cut) == shards
    attention_bwd, backward = dn._attention_bwd, dn.backward
    at_block, used_up = [], []

    def measured(*args):
        at_block.append(traced_now())
        return attention_bwd(*args)

    def checked(params, cache, d_out, **kwargs):
        blocks, total = array_bytes(cache["blocks"]), array_bytes(cache)
        out = backward(params, cache, d_out, **kwargs)
        used_up.append(array_bytes(cache) == total - blocks)
        with pytest.raises(ValidationError, match="used up by an earlier backward"):
            backward(params, cache, d_out)
        return out

    monkeypatch.setattr(dn, "_attention_bwd", measured)
    monkeypatch.setattr(dn, "backward", checked)
    with traced(), training._Shards(model, shards, 1) as runner:
        runner.run(batch, cut, t, weights, noise)
    assert used_up == [True] * shards
    assert len(at_block) == 4 * shards
    for shard in range(shards):
        falls = np.diff(at_block[4 * shard:4 * shard + 4])
        assert np.all(falls < 0), falls


def test_block_cache_stores_each_activation_once():
    """The layer norms' outputs a and fin are not cached: backward rebuilds
    them from the norms' own caches."""
    params, rng = random_denoiser(8, 2, 2, 90)
    pad = np.arange(6)[None, :] < np.array([6, 4, 5])[:, None]
    _, cache = dn.forward(params, rng.standard_normal(pad.shape + (8,)), 3, pad,
                          need_cache=True)
    for blk in cache["blocks"]:
        assert set(blk) == {"ln1", "q", "k", "v", "att", "ctx", "ln2", "u", "phi"}

import signal
from contextlib import contextmanager

import numpy as np
import pytest

from scanpath_diffusion import (ModelConfig, Vocabulary, build_vocab,
                                encode_instance, init_model, stack_instances,
                                synthetic_corpus, tokenize_sentence)


def tiny_config(**over):
    base = dict(
        max_len=24, dim=8, d_bert=6, n_blocks=2, n_heads=2,
        v_idx=24, v_bert=30, t_max=10, schedule="sqrt", s=1e-4,
        beta_zero=None, emb_target_low_t=True,
    )
    base.update(over)
    return ModelConfig(**base)


@contextmanager
def within(seconds: int):
    """Raise TimeoutError in the block once it has run `seconds` seconds, so
    a process protocol that deadlocks fails the test instead of hanging it."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def tiny_vocab():
    return Vocabulary.from_tokens(
        ["[UNK]", "[PAD]", "[CLS]", "[SEP]",
         "bala", "deon", "firi", "gola", "huon", "kari", "lola", "meon",
         "##la", "##on", "##ri", "ba", "de", "fi"]
    )


@pytest.fixture
def tiny_model(tiny_vocab):
    config = tiny_config(v_bert=len(tiny_vocab))
    return init_model(config, np.random.default_rng(7))


@pytest.fixture
def small_corpus():
    return synthetic_corpus(n_sentences=8, min_words=4, max_words=6, seed=3)


def encode_corpus(corpus, vocab, max_len):
    toks = {sid: tokenize_sentence(words, vocab)
            for sid, words in corpus.sentences.items()}
    return [encode_instance(toks[r.sentence_id], r.fixations, max_len, vocab)
            for r in corpus.records]


@pytest.fixture
def small_batch(small_corpus, tiny_vocab):
    instances = encode_corpus(small_corpus, tiny_vocab, 24)
    return stack_instances(instances[:4])


@pytest.fixture
def corpus_vocab(small_corpus):
    return build_vocab(small_corpus.sentences.values())

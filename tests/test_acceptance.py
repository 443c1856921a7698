"""Acceptance gates.

One test per shipped guarantee, run at the sizes and tolerances the
guarantees state. Each prints a `[criterion NN] name: PASS/FAIL` line
(visible with -s; pytest -v shows the same verdict per test) and fails
if it exceeds its runtime budget.
"""

import functools
import math
import time
from functools import lru_cache

import numpy as np
import pytest

from scanpath_diffusion import (Corpus, ModelConfig, ScanpathRecord,
                                TrainStats, at_checkpoint_precision,
                                baseline_corpus, build_schedule,
                                build_vocab, encode_instance, evaluation_report,
                                generate, init_model, levenshtein, nld,
                                posterior_params, q_sample, reading_measures,
                                save_corpus, save_sentences,
                                stack_instances, synthetic_corpus,
                                tokenize_sentence, train)
from scanpath_diffusion.cli import main
from scanpath_diffusion.embedding import embed_parts
from scanpath_diffusion.schedules import KINDS, TimestepSampler
from scanpath_diffusion.tokenization import Vocabulary
from scanpath_diffusion.training import loss_backward, loss_forward


def criterion(num, name, limit=None):
    """Wrap a test so it reports one pass/fail line and a runtime budget."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - t0
                print(f"[criterion {num:02d}] {name}: FAIL ({elapsed:.1f}s)",
                      flush=True)
                raise
            elapsed = time.perf_counter() - t0
            if limit is not None and elapsed >= limit:
                print(f"[criterion {num:02d}] {name}: FAIL "
                      f"(runtime {elapsed:.1f}s over the {limit:g}s budget)",
                      flush=True)
                raise AssertionError(
                    f"runtime {elapsed:.2f}s exceeds the {limit:g}s budget")
            print(f"[criterion {num:02d}] {name}: PASS ({elapsed:.1f}s)",
                  flush=True)
        return wrapper
    return deco


# ---------------------------------------------------------------------------
# 1: every schedule family is a valid noising process at every size


@criterion(1, "schedule validity", limit=1.0)
def test_criterion_01_schedule_validity():
    for kind in KINDS:
        for t_max in (10, 200, 2000):
            sched = build_schedule(kind, t_max)
            assert sched.beta.shape == (t_max,)
            assert np.all(sched.beta > 0.0) and np.all(sched.beta < 1.0)
            assert np.array_equal(sched.alpha, 1.0 - sched.beta)
            assert np.all(np.diff(sched.alpha_bar) < 0.0)
            # product consistency against a scalar running product
            prod = 1.0
            for i, a in enumerate(sched.alpha):
                prod *= float(a)
                assert abs(prod - float(sched.alpha_bar[i])) <= 1e-12
    for t_max in (10, 200, 2000):
        lin = build_schedule("linear", t_max)
        assert float(lin.beta[0]) == 1e-4
        assert float(lin.beta[-1]) == 0.02


# ---------------------------------------------------------------------------
# 2: the closed-form jump to step t matches the step-by-step chain


@criterion(2, "closed-form forward vs iterative noising", limit=10.0)
def test_criterion_02_closed_form_matches_chain():
    sched = build_schedule("linear", 10)
    rng = np.random.default_rng(20240)
    trials = 10_000
    z0 = np.full((trials, 3), 2.0)

    closed = q_sample(z0, 10, rng.standard_normal(z0.shape), sched)
    chain = z0.copy()
    for t in range(1, 11):
        b = sched.beta_at(t)
        chain = (math.sqrt(1.0 - b) * chain
                 + math.sqrt(b) * rng.standard_normal(z0.shape))

    assert closed.mean() == pytest.approx(chain.mean(), rel=0.05)
    assert closed.var() == pytest.approx(chain.var(), rel=0.05)
    # both ensembles should also sit on the analytic moments
    ab = sched.alpha_bar_at(10)
    for sample in (closed, chain):
        assert sample.mean() == pytest.approx(2.0 * math.sqrt(ab), rel=0.05)
        assert sample.var() == pytest.approx(1.0 - ab, rel=0.05)

    # rows outside the target mask pass through bit-identically
    frame = np.array([[1.5, -0.5], [0.25, 2.0]])
    mask = np.array([False, True])
    out = q_sample(frame, 10, rng.standard_normal(frame.shape), sched, mask)
    assert np.array_equal(out[0], frame[0])
    assert not np.array_equal(out[1], frame[1])


# ---------------------------------------------------------------------------
# 3: reverse-posterior moments against scalar Bayes quadrature


def _posterior_quadrature(z_t, z0, t, sched):
    """Mean/variance of p(z_{t-1} | z_t, z0) by brute-force quadrature."""
    x = np.linspace(-30.0, 30.0, 400_001)
    a_t = sched.alpha_at(t)
    b_t = sched.beta_at(t)
    ab_prev = sched.alpha_bar_at(t - 1)
    logw = (-(x - math.sqrt(ab_prev) * z0) ** 2 / (2.0 * (1.0 - ab_prev))
            - (z_t - math.sqrt(a_t) * x) ** 2 / (2.0 * b_t))
    w = np.exp(logw - logw.max())
    w /= w.sum()
    mu = float(np.sum(w * x))
    var = float(np.sum(w * (x - mu) ** 2))
    return mu, var


@criterion(3, "posterior moments vs quadrature oracle", limit=10.0)
def test_criterion_03_posterior_quadrature():
    rng = np.random.default_rng(31)
    for case in range(20):
        kind = KINDS[case % len(KINDS)]
        t_max = 10 if case % 2 == 0 else 200
        sched = build_schedule(kind, t_max)
        t = int(rng.integers(2, t_max + 1))
        z0 = float(rng.normal(scale=2.0))
        z_t = float(rng.normal(scale=2.0))
        mu, var = posterior_params(np.array([z_t]), np.array([z0]), t, sched)
        mu_q, var_q = _posterior_quadrature(z_t, z0, t, sched)
        assert abs(float(mu[0]) - mu_q) < 1e-6, (kind, t_max, t)
        assert abs(float(var) - var_q) < 1e-6, (kind, t_max, t)


# ---------------------------------------------------------------------------
# 4: analytic gradients vs central differences on a 4-dim model


@criterion(4, "gradients vs central differences", limit=30.0)
def test_criterion_04_gradient_check():
    vocab = Vocabulary.from_tokens(
        ["[UNK]", "[PAD]", "[CLS]", "[SEP]", "bala", "deon", "firi", "gola"])
    config = ModelConfig(
        max_len=8, dim=4, d_bert=4, n_blocks=1, n_heads=2,
        v_idx=8, v_bert=len(vocab), t_max=10, schedule="sqrt", s=1e-4,
        beta_zero=None, emb_target_low_t=True,
    )
    model = init_model(config, np.random.default_rng(13))
    # two 2-word single-piece sentences fill the frame exactly:
    # 2 pieces + 2 fixations + 4 markers = 8 slots
    instances = [
        encode_instance(tokenize_sentence(("bala", "deon"), vocab), [1, 2],
                        8, vocab),
        encode_instance(tokenize_sentence(("firi", "gola"), vocab), [2, 1],
                        8, vocab),
    ]
    batch = stack_instances(instances)
    t_arr = np.array([0, 4])  # cover the clean-target and noised rows
    weights = np.array([0.7, 1.3])

    def objective():
        breakdown, _ = loss_forward(model, batch, t_arr, np.random.default_rng(99))
        return float(np.mean(weights * breakdown.per_sample_mse
                             + breakdown.per_sample_round))

    _, cache = loss_forward(model, batch, t_arr, np.random.default_rng(99),
                            need_cache=True)
    grads = loss_backward(model, cache, weights)
    tensors = model.trainable_tensors()
    assert set(grads) == set(tensors)

    rng = np.random.default_rng(17)
    eps = 1e-6
    for name, arr in tensors.items():
        flat = arr.reshape(-1)
        picks = rng.choice(flat.size, size=min(6, flat.size), replace=False)
        for j in picks:
            orig = flat[j]
            flat[j] = orig + eps
            up = objective()
            flat[j] = orig - eps
            down = objective()
            flat[j] = orig
            fd = (up - down) / (2 * eps)
            got = grads[name].reshape(-1)[j]
            assert got == pytest.approx(fd, rel=1e-3, abs=1e-8), name


# ---------------------------------------------------------------------------
# 5: both anchors hold at every one of the 200 reverse steps


@criterion(5, "anchoring invariants during generation", limit=60.0)
def test_criterion_05_anchoring_invariants():
    corpus = synthetic_corpus(n_sentences=10, min_words=4, max_words=6, seed=9)
    vocab = build_vocab(corpus.sentences.values())
    config = ModelConfig(
        max_len=24, dim=8, d_bert=6, n_blocks=1, n_heads=2,
        v_idx=24, v_bert=len(vocab), t_max=200, schedule="sqrt", s=1e-4,
        beta_zero=None, emb_target_low_t=True,
    )
    model = init_model(config, np.random.default_rng(3))

    for i, sid in enumerate(sorted(corpus.sentences)):
        tok = tokenize_sentence(corpus.sentences[sid], vocab)
        inst = encode_instance(tok, None, config.max_len, vocab)
        emb_idx, emb_ctx = embed_parts(
            model.emb, inst.x_idx[None], inst.x_bert[None], inst.x_pos[None])
        emb_total = (emb_idx + emb_ctx)[0]
        cond, tgt = inst.condition_mask, inst.target_mask
        seen = []

        def on_step(step, t_after, z, z0_anchored):
            seen.append(t_after)
            # condition anchor: sentence slots sit at their exact embedding
            assert np.array_equal(z[0][cond], emb_total[cond])
            # rounding anchor: every scanpath slot of the clean prediction
            # is bit-equal to some index-table row (not necessarily the one
            # re-rounding picks: the rounding argmax is inner-product based)
            hit = (z0_anchored[0][tgt][:, None, :]
                   == model.emb.e_idx[None, :, :]).all(-1).any(-1)
            assert hit.all()

        generate(model, [tok], vocab, rngs=[np.random.default_rng([1234, i])],
                 on_step=on_step)
        assert seen == list(range(199, -1, -1))


# ---------------------------------------------------------------------------
# 6: a desk-scale model memorizes a synthetic corpus and beats the
#    trivial baselines


@criterion(6, "memorization beats the trivial baselines", limit=1200.0)
def test_criterion_06_memorization():
    corpus = synthetic_corpus(n_sentences=32, min_words=5, max_words=10,
                              seed=21)
    vocab = build_vocab(corpus.sentences.values())
    toks = {sid: tokenize_sentence(words, vocab)
            for sid, words in corpus.sentences.items()}
    max_len = 32
    config = ModelConfig(
        max_len=max_len, dim=64, d_bert=64, n_blocks=4, n_heads=4,
        v_idx=max_len, v_bert=len(vocab), t_max=200, schedule="sqrt", s=1e-4,
        beta_zero=None, emb_target_low_t=True,
    )
    # the float32 model `cli train` ships
    model = at_checkpoint_precision(init_model(config, np.random.default_rng(77)))
    instances = [encode_instance(toks[r.sentence_id], r.fixations,
                                 max_len, vocab)
                 for r in corpus.records]
    result = train(model, instances, steps=2000, batch=16, lr=1e-3, seed=77,
                   weight_decay=0.0, clip_norm=1.0)
    assert not result.aborted

    # budget covers the longest training scanpath; rng per sentence so the
    # outcome does not depend on generation order or on the lockstep chain
    budget = max(len(r.fixations) for r in corpus.records) + 2
    sids = sorted(corpus.sentences)
    outs = generate(model, [toks[sid] for sid in sids], vocab,
                    rngs=[np.random.default_rng([777, i]) for i in range(len(sids))],
                    target_budget=budget)
    records = [ScanpathRecord("model", sid, tuple(out.fixations))
               for sid, out in zip(sids, outs)]
    generated = Corpus(sentences=dict(corpus.sentences), records=records)

    stats = TrainStats.from_corpus(corpus)
    trained = evaluation_report(corpus, generated).mean_nld
    trainlabel = evaluation_report(
        corpus, baseline_corpus("trainlabel", corpus.sentences, stats,
                                np.random.default_rng(5))).mean_nld
    uniform = evaluation_report(
        corpus, baseline_corpus("uniform", corpus.sentences, stats,
                                np.random.default_rng(5))).mean_nld
    print(f"  mean training-set NLD: trained {trained:.4f}, "
          f"trainlabel {trainlabel:.4f}, uniform {uniform:.4f}", flush=True)
    assert trained <= 0.25
    assert trained < trainlabel < uniform


# ---------------------------------------------------------------------------
# 7: edit distance agrees with a textbook recursion on random pairs


def _lev_recursive(a, b):
    a, b = tuple(a), tuple(b)

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        return min(go(i - 1, j) + 1,
                   go(i, j - 1) + 1,
                   go(i - 1, j - 1) + (a[i - 1] != b[j - 1]))

    return go(len(a), len(b))


@criterion(7, "edit-distance oracle equivalence", limit=5.0)
def test_criterion_07_levenshtein_oracle():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a = rng.integers(1, 7, size=int(rng.integers(0, 11))).tolist()
        b = rng.integers(1, 7, size=int(rng.integers(0, 11))).tolist()
        assert levenshtein(a, b) == _lev_recursive(a, b)
        if a or b:
            assert 0.0 <= nld(a, b) <= 1.0


# ---------------------------------------------------------------------------
# 8: reading measures reproduce the worked traces and hold their
#    identities on random scanpaths


@criterion(8, "reading-measure traces and identities", limit=30.0)
def test_criterion_08_reading_measures():
    rm = reading_measures([1, 2, 3], 3)  # strictly linear read
    assert rm.sr.tolist() == [0, 0, 0]
    assert rm.ffc.tolist() == [1, 1, 1]
    assert rm.tfc.tolist() == [1, 1, 1]
    assert rm.fpr.tolist() == [0, 0, 0]
    assert rm.regression_rate == 0.0
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 1.0
    assert rm.regressive_saccade_len == 0.0
    assert rm.skipping_rate == 0.0
    assert rm.first_pass_count == 1.0

    rm = reading_measures([1, 3, 2, 4], 4)  # one skip, one regression
    assert rm.sr.tolist() == [0, 1, 0, 0]
    assert rm.ffc.tolist() == [1, 0, 1, 1]
    assert rm.tfc.tolist() == [1, 1, 1, 1]
    assert rm.fpr.tolist() == [0, 0, 1, 0]
    assert rm.regression_rate == pytest.approx(0.25)
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 2.0
    assert rm.regressive_saccade_len == 1.0
    assert rm.skipping_rate == pytest.approx(0.25)
    assert rm.first_pass_count == pytest.approx(0.75)

    rm = reading_measures([2, 2, 3], 3)  # refixation on word 2
    assert rm.sr.tolist() == [1, 0, 0]
    assert rm.ffc.tolist() == [0, 2, 1]
    assert rm.tfc.tolist() == [0, 2, 1]
    assert rm.fpr.tolist() == [0, 0, 0]
    assert rm.regression_rate == 0.0
    assert rm.normalized_fixation_count == 1.0
    assert rm.progressive_saccade_len == 1.0
    assert rm.regressive_saccade_len == 0.0
    assert rm.skipping_rate == pytest.approx(1 / 3)
    assert rm.first_pass_count == 1.0

    rng = np.random.default_rng(4321)
    for _ in range(10_000):
        m = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        path = rng.integers(1, m + 1, size=n).tolist()
        rm = reading_measures(path, m)
        assert rm.tfc.sum() == n
        assert np.all(rm.ffc <= rm.tfc)
        assert np.all(rm.ffc[rm.sr == 1] == 0)
        assert np.all(rm.fpr[rm.ffc == 0] == 0)
        assert set(rm.sr.tolist()) <= {0, 1}
        assert set(rm.fpr.tolist()) <= {0, 1}
        assert 0.0 <= rm.regression_rate <= 1.0
        assert 0.0 <= rm.skipping_rate <= 1.0
        assert rm.normalized_fixation_count == pytest.approx(n / m)
        assert rm.first_pass_count == pytest.approx(float(rm.ffc.mean()))


# ---------------------------------------------------------------------------
# 9: the loss-aware sampler is uniform while warming up, then follows
#    the sqrt-of-mean-squared-loss ratio


@criterion(9, "loss-aware step sampler frequencies", limit=5.0)
def test_criterion_09_importance_sampler():
    sampler = TimestepSampler(t_max=1, history=10)
    rng = np.random.default_rng(77)

    assert not sampler.warmed_up
    t, _ = sampler.sample(rng, size=100_000)
    freq = np.bincount(t, minlength=2) / t.size
    assert freq[0] == pytest.approx(0.5, abs=0.02)
    assert freq[1] == pytest.approx(0.5, abs=0.02)

    # fill both buckets: losses 1.0 and 2.0 give sqrt-mean-square weights
    # 1 and 2, hence probabilities 1/3 and 2/3
    for _ in range(10):
        sampler.update(0, 1.0)
        sampler.update(1, 2.0)
    assert sampler.warmed_up
    p = sampler.probabilities()
    assert p[0] == pytest.approx(1 / 3, rel=1e-12)
    assert p[1] == pytest.approx(2 / 3, rel=1e-12)

    t, w = sampler.sample(rng, size=100_000)
    freq = np.bincount(t, minlength=2) / t.size
    assert freq[0] == pytest.approx(1 / 3, abs=0.02)
    assert freq[1] == pytest.approx(2 / 3, abs=0.02)
    assert np.all(w[t == 0] == pytest.approx(3.0, rel=1e-12))
    assert np.all(w[t == 1] == pytest.approx(1.5, rel=1e-12))


# ---------------------------------------------------------------------------
# 10: training and generation are bit-reproducible through the CLI


@criterion(10, "same-seed runs are bit-identical")
def test_criterion_10_determinism(tmp_path):
    corpus = synthetic_corpus(n_sentences=4, min_words=3, max_words=5, seed=11)
    vocab = build_vocab(corpus.sentences.values())
    sent_path = tmp_path / "sentences.csv"
    corpus_path = tmp_path / "corpus.csv"
    vocab_path = tmp_path / "vocab.txt"
    save_sentences(corpus.sentences, sent_path)
    save_corpus(corpus, corpus_path)
    vocab_path.write_text("".join(tok + "\n" for tok in vocab.tokens))

    flags = ["--t-max", "6", "--hidden-dim", "8", "--d-bert", "8",
             "--blocks", "1", "--heads", "2", "--max-len", "20",
             "--steps", "50", "--batch", "4", "--lr", "1e-3", "--seed", "5"]
    for run in ("a", "b"):
        rc = main(["train",
                   "--corpus", str(corpus_path),
                   "--sentences", str(sent_path),
                   "--vocab", str(vocab_path),
                   "--out-dir", str(tmp_path / run), *flags])
        assert rc == 0
    for name in ("metrics.csv", "config.txt", "checkpoint.bin"):
        assert (tmp_path / "a" / name).read_bytes() \
            == (tmp_path / "b" / name).read_bytes(), name

    outs = []
    for run in ("g1", "g2"):
        out = tmp_path / f"{run}.csv"
        rc = main(["generate",
                   "--checkpoint", str(tmp_path / "a" / "checkpoint.bin"),
                   "--sentences", str(sent_path),
                   "--vocab", str(vocab_path),
                   "--out", str(out), "--seed", "9"])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

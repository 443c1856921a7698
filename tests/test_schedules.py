"""Noise-schedule construction, forward noising, posterior, step sampler."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scanpath_diffusion import (KINDS, TimestepSampler, ValidationError,
                                build_schedule, dump_schedule,
                                posterior_params, q_sample)

# Frozen reference values, computed independently from the closed-form
# construction rules (stepwise python-float evaluation, separate from the
# library's vectorized path).
SQRT10 = {
    "beta1": 0.30948064685972476,
    "beta5": 0.2031290593665106,
    "beta10": 0.999,            # decay curve crosses zero; clipped
    "abar1": 0.6905193531402752,
    "abar10": 5.1781816955305926e-05,
    "beta_zero": 0.010000000000000009,
}
COSINE10 = {
    "beta1": 0.02790726288603096,
    "beta5": 0.23728153019052478,
    "abar10": 2.4091724140085884e-05,
    "beta_zero": 0.00015540899959176624,
}
TRUNC_LINEAR4 = [0.0101, 0.016733333333333336, 0.023366666666666668, 0.03]
LINEAR2000 = {"beta2": 0.00010995497748874438, "abar_final": 1.6288471245503092e-09}


def test_linear_endpoints_exact():
    for t_max in (2, 4, 100, 2000):
        sched = build_schedule("linear", t_max)
        assert sched.beta[0] == 1e-4
        assert sched.beta[-1] == 0.02


def test_linear_is_affine_in_step_index():
    sched = build_schedule("linear", 2000)
    assert sched.beta[1] == pytest.approx(LINEAR2000["beta2"], rel=0, abs=0)
    assert sched.alpha_bar[-1] == pytest.approx(LINEAR2000["abar_final"], rel=1e-12)
    seconds = np.diff(np.diff(sched.beta))
    assert np.max(np.abs(seconds)) < 1e-15


def test_trunc_linear_values():
    sched = build_schedule("trunc_linear", 4)
    assert sched.beta.tolist() == pytest.approx(TRUNC_LINEAR4, rel=1e-15)
    assert sched.beta_zero == pytest.approx(0.0101)


def test_sqrt_frozen_values():
    sched = build_schedule("sqrt", 10)
    assert sched.beta_at(1) == pytest.approx(SQRT10["beta1"], rel=1e-14)
    assert sched.beta_at(5) == pytest.approx(SQRT10["beta5"], rel=1e-14)
    assert sched.beta_at(10) == SQRT10["beta10"]
    assert sched.alpha_bar_at(1) == pytest.approx(SQRT10["abar1"], rel=1e-14)
    assert sched.alpha_bar_at(10) == pytest.approx(SQRT10["abar10"], rel=1e-12)
    assert sched.beta_zero == pytest.approx(SQRT10["beta_zero"], rel=1e-14)


def test_cosine_frozen_values():
    sched = build_schedule("cosine", 10)
    assert sched.beta_at(1) == pytest.approx(COSINE10["beta1"], rel=1e-13)
    assert sched.beta_at(5) == pytest.approx(COSINE10["beta5"], rel=1e-13)
    assert sched.alpha_bar_at(10) == pytest.approx(COSINE10["abar10"], rel=1e-11)
    assert sched.beta_zero == pytest.approx(COSINE10["beta_zero"], rel=1e-12)


def test_trunc_cosine_matches_cosine():
    a = build_schedule("cosine", 50)
    b = build_schedule("trunc_cosine", 50)
    assert np.array_equal(a.beta, b.beta)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("t_max", [1, 2, 10, 200, 2000])
def test_schedule_validity(kind, t_max):
    sched = build_schedule(kind, t_max)
    assert sched.beta.shape == (t_max,)
    assert np.all(sched.beta > 0) and np.all(sched.beta < 1)
    assert np.all(np.diff(sched.alpha_bar) < 0) or t_max == 1
    # the product identity holds to machine precision by construction
    assert np.allclose(sched.alpha_bar, np.cumprod(1.0 - sched.beta),
                       rtol=0, atol=1e-15)
    assert 0 < sched.beta_zero < 1


@pytest.mark.parametrize("kind, s", [
    ("sqrt", -5.0), ("sqrt", -1e-12), ("sqrt", 1.0), ("sqrt", 2.0), ("sqrt", math.nan),
    ("linear", 2.0),
    ("sqrt", 0.5),  # in [0, 1), but at t_max 10 the curve reaches zero at step 5
])
def test_schedule_rejects_bad_s(kind, s):
    with pytest.raises(ValidationError, match=r"^s "):
        build_schedule(kind, 10, s)


def test_decay_beta_recovers_curve_ratio():
    # independent check: alpha_bar_t / alpha_bar_{t-1} telescopes back to
    # the clipped decay-curve ratio
    sched = build_schedule("sqrt", 40)
    for t in range(2, 41):
        ratio = sched.alpha_bar_at(t) / sched.alpha_bar_at(t - 1)
        assert ratio == pytest.approx(sched.alpha_at(t), rel=1e-12)


def test_bad_kind_and_t_max():
    with pytest.raises(ValidationError):
        build_schedule("quadratic", 10)
    with pytest.raises(ValidationError):
        build_schedule("linear", 0)


def test_schedule_built_once_and_read_only():
    sched = build_schedule("sqrt", 30, 1e-4)
    assert build_schedule("sqrt", 30, 1e-4) is sched
    assert build_schedule("sqrt", 30, 1e-3) is not sched
    for arr in (sched.beta, sched.alpha, sched.alpha_bar):
        with pytest.raises(ValueError):
            arr[0] = 0.5


def test_step_accessors_range_checked():
    sched = build_schedule("linear", 5)
    with pytest.raises(ValidationError):
        sched.beta_at(0)
    with pytest.raises(ValidationError):
        sched.alpha_bar_at(6)


# ---------------------------------------------------------------------------
# closed-form forward noising

def test_q_sample_matches_iterative_chain_mc():
    """One closed-form jump agrees with t iterated single-step corruptions
    in distribution (mean and variance, Monte Carlo)."""
    sched = build_schedule("linear", 10)
    rng = np.random.default_rng(11)
    z0 = np.array([1.5, -2.0, 0.5])
    trials = 10_000
    for t in (3, 10):
        closed = np.stack([
            q_sample(z0, t, rng.standard_normal(3), sched) for _ in range(trials)
        ])
        iterated = np.empty((trials, 3))
        for k in range(trials):
            z = z0.copy()
            for step in range(1, t + 1):
                b = sched.beta_at(step)
                z = math.sqrt(1.0 - b) * z + math.sqrt(b) * rng.standard_normal(3)
            iterated[k] = z
        expect_mean = math.sqrt(sched.alpha_bar_at(t)) * z0
        expect_var = 1.0 - sched.alpha_bar_at(t)
        for sample in (closed, iterated):
            assert np.allclose(sample.mean(axis=0), expect_mean, atol=0.05)
            assert np.allclose(sample.var(axis=0), expect_var, rtol=0.05)


def test_q_sample_per_row_t_and_mask():
    sched = build_schedule("sqrt", 10)
    rng = np.random.default_rng(0)
    z0 = rng.standard_normal((4, 6, 3))
    eps = rng.standard_normal(z0.shape)
    t = np.array([1, 4, 7, 10])
    out = q_sample(z0, t, eps, sched)
    for i in range(4):
        ab = sched.alpha_bar_at(int(t[i]))
        expect = math.sqrt(ab) * z0[i] + math.sqrt(1 - ab) * eps[i]
        assert np.allclose(out[i], expect, rtol=0, atol=0)
    mask = np.zeros((4, 6), dtype=bool)
    mask[:, :2] = True
    masked = q_sample(z0, t, eps, sched, target_mask=mask)
    assert np.array_equal(masked[:, 2:], z0[:, 2:])
    assert np.array_equal(masked[:, :2], out[:, :2])


def test_q_sample_rejects_out_of_range_t():
    sched = build_schedule("linear", 10)
    with pytest.raises(ValidationError):
        q_sample(np.zeros(2), 0, np.zeros(2), sched)
    with pytest.raises(ValidationError):
        q_sample(np.zeros(2), 11, np.zeros(2), sched)


# ---------------------------------------------------------------------------
# reverse posterior

def _posterior_quadrature(z_t, z0, t, sched):
    """Scalar Bayes oracle: grid integration of
    N(z_t; sqrt(1-beta_t) x, beta_t) * N(x; sqrt(abar_{t-1}) z0, 1-abar_{t-1})."""
    a_t = sched.alpha_at(t)
    ab_prev = sched.alpha_bar_at(t - 1)
    beta_t = sched.beta_at(t)
    xs = np.linspace(-30.0, 30.0, 400_001)
    lik = np.exp(-0.5 * (z_t - math.sqrt(a_t) * xs) ** 2 / beta_t)
    pri = np.exp(-0.5 * (xs - math.sqrt(ab_prev) * z0) ** 2 / (1.0 - ab_prev))
    w = lik * pri
    w /= w.sum()
    mean = float((xs * w).sum())
    var = float(((xs - mean) ** 2 * w).sum())
    return mean, var


def test_posterior_matches_bayes_quadrature():
    rng = np.random.default_rng(5)
    for case in range(20):
        kind = KINDS[case % len(KINDS)]
        sched = build_schedule(kind, 10)
        t = int(rng.integers(2, 11))
        z_t = float(rng.normal(0, 2))
        z0 = float(rng.normal(0, 2))
        mu, var = posterior_params(np.array([z_t]), np.array([z0]), t, sched)
        om, ov = _posterior_quadrature(z_t, z0, t, sched)
        assert mu[0] == pytest.approx(om, abs=1e-6)
        assert var == pytest.approx(ov, abs=1e-6)


def test_posterior_rejects_t_below_2():
    sched = build_schedule("linear", 10)
    with pytest.raises(ValidationError):
        posterior_params(np.zeros(2), np.zeros(2), 1, sched)


def test_posterior_variance_positive_and_below_beta():
    for kind in KINDS:
        sched = build_schedule(kind, 50)
        for t in range(2, 51):
            _, var = posterior_params(np.zeros(1), np.zeros(1), t, sched)
            assert 0 < var < sched.beta_at(t) + 1e-15


# ---------------------------------------------------------------------------
# loss-aware timestep sampler

def test_sampler_uniform_until_history_full():
    sampler = TimestepSampler(4, history=3)
    assert not sampler.warmed_up
    assert np.allclose(sampler.probabilities(), 0.2)
    for t in range(5):
        for _ in range(2):
            sampler.update(t, 1.0)
    assert not sampler.warmed_up  # 2 of 3 slots filled
    assert np.allclose(sampler.probabilities(), 0.2)
    for t in range(5):
        sampler.update(t, 1.0)
    assert sampler.warmed_up


def test_sampler_two_bucket_sqrt_ratio():
    """History of 1.0 everywhere vs 4.0 in one bucket: sqrt(mean sq) gives
    weights 1 and 2, so a t_max=1 sampler lands at 1/3 : 2/3."""
    sampler = TimestepSampler(1, history=10)
    for _ in range(10):
        sampler.update(0, 1.0)
        sampler.update(1, 2.0)  # squared: 4.0
    p = sampler.probabilities()
    assert p[0] == pytest.approx(1 / 3)
    assert p[1] == pytest.approx(2 / 3)
    rng = np.random.default_rng(19)
    t, w = sampler.sample(rng, size=100_000)
    freq = np.bincount(t, minlength=2) / t.size
    assert abs(freq[0] - 1 / 3) < 0.02
    assert abs(freq[1] - 2 / 3) < 0.02
    # weights invert the sampling probability against the uniform rule
    assert np.allclose(w[t == 0], 1.0 / (1 * p[0]))
    assert np.allclose(w[t == 1], 1.0 / (1 * p[1]))


def test_sampler_weight_is_reciprocal_t_max_p():
    sampler = TimestepSampler(5, history=2)
    rng = np.random.default_rng(3)
    t, w = sampler.sample(rng, size=64)
    assert np.allclose(w, 1.0 / (5 * (1.0 / 6.0)))


def test_sampler_importance_weights_unbias_a_known_sum():
    """E[w * f(t)] under the skewed sampler equals mean_t f(t): the
    weighted estimator recovers the uniform average."""
    t_max = 5
    sampler = TimestepSampler(t_max, history=1)
    f = np.array([1.0, 4.0, 2.0, 8.0, 0.5, 3.0])
    for t in range(t_max + 1):
        sampler.update(t, f[t])
    assert sampler.warmed_up
    rng = np.random.default_rng(23)
    t, w = sampler.sample(rng, size=200_000)
    est = float((w * f[t]).mean()) * t_max / (t_max + 1)
    # sampler weights 1/(t_max * p) make sum_t p * w * f = sum_t f / t_max;
    # rescale to the (t_max+1)-bucket mean for comparison
    assert est == pytest.approx(f.mean(), rel=0.02)


def test_sampler_update_range_checked():
    sampler = TimestepSampler(3)
    with pytest.raises(ValidationError):
        sampler.update(4, 1.0)
    with pytest.raises(ValidationError):
        sampler.update(-1, 1.0)


@pytest.mark.parametrize("history", [0, -1])
def test_sampler_rejects_history_below_one(history):
    with pytest.raises(ValidationError, match="history must be >= 1"):
        TimestepSampler(3, history=history)


def test_sampler_ring_buffer_keeps_last_history():
    sampler = TimestepSampler(1, history=2)
    for v in (10.0, 10.0, 1.0, 1.0):
        sampler.update(0, v)   # old 10s fully evicted
    for _ in range(2):
        sampler.update(1, 2.0)
    p = sampler.probabilities()
    assert p[0] == pytest.approx(1 / 3)
    assert p[1] == pytest.approx(2 / 3)


# ---------------------------------------------------------------------------
# dump format

def test_dump_schedule_rows_and_endpoints():
    sched = build_schedule("linear", 4)
    buf = io.StringIO()
    dump_schedule(sched, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "t,beta,alpha,alpha_bar"
    assert len(lines) == 5
    first = lines[1].split(",")
    last = lines[4].split(",")
    assert first[0] == "1" and float(first[1]) == 1e-4
    assert last[0] == "4" and float(last[1]) == 0.02


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), t_max=st.integers(min_value=1, max_value=300))
def test_schedule_properties(kind, t_max):
    sched = build_schedule(kind, t_max)
    assert np.all((sched.beta > 0) & (sched.beta < 1))
    assert np.all(sched.alpha_bar > 0)
    assert np.all(np.diff(sched.alpha_bar) < 0) or t_max == 1
    assert sched.alpha_bar[0] == pytest.approx(1.0 - sched.beta[0], rel=1e-15)

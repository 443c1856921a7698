"""Noise schedules, forward noising, reverse posterior, timestep sampling.

A schedule over t = 1..t_max is stored as per-step arrays beta, alpha =
1 - beta, and alpha_bar = cumprod(alpha). Two families:

  beta-form   linear, trunc_linear: beta interpolated between endpoints
              over the step index
  decay-form  sqrt, cosine, trunc_cosine: a signal-retention curve ab(t)
              on t = 0..t_max defines beta_t = 1 - ab(t)/ab(t-1), clipped
              at 0.999 (the curve may cross zero at the far end)

alpha_bar is always recomputed from the betas, so the product identity
alpha_bar_t = prod(alpha) holds to machine precision regardless of family.

beta_zero is the variance of the embedding-side noise applied when a clean
latent is drawn around the embedded sequence; it is the t=0 value of the
decay curve's complement (sqrt: sqrt(s)), or the first beta for beta-form
schedules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .corpus import write_table
from .errors import ValidationError

KINDS = ("linear", "cosine", "sqrt", "trunc_cosine", "trunc_linear")

MAX_BETA = 0.999


def _interp_betas(t_max: int, lo: float, hi: float) -> np.ndarray:
    if t_max == 1:
        return np.array([lo], dtype=np.float64)
    i = np.arange(t_max, dtype=np.float64) / (t_max - 1)
    return lo * (1.0 - i) + hi * i


def decay_curve(kind: str, s: float):
    """Signal-retention curve ab(t/t_max-scaled step) for decay-form kinds."""
    if kind == "sqrt":
        return lambda u: 1.0 - math.sqrt(u + s)
    if kind in ("cosine", "trunc_cosine"):
        return lambda u: math.cos((u + 0.008) / 1.008 * math.pi / 2) ** 2
    raise ValidationError(f"{kind!r} has no decay-curve form")


@dataclass(frozen=True)
class NoiseSchedule:
    kind: str
    t_max: int
    s: float
    beta: np.ndarray       # (t_max,), beta[i] is for step t = i + 1
    alpha: np.ndarray
    alpha_bar: np.ndarray
    beta_zero: float

    def beta_at(self, t: int) -> float:
        self._check_t(t)
        return float(self.beta[t - 1])

    def alpha_at(self, t: int) -> float:
        self._check_t(t)
        return float(self.alpha[t - 1])

    def alpha_bar_at(self, t: int) -> float:
        self._check_t(t)
        return float(self.alpha_bar[t - 1])

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.t_max:
            raise ValidationError(f"step {t} outside 1..{self.t_max}")


@functools.lru_cache(maxsize=16)
def build_schedule(kind: str, t_max: int, s: float = 1e-4) -> NoiseSchedule:
    """Construct a schedule; betas stay in (0, 1) and alpha_bar decreases.

    Built once per (kind, t_max, s) and shared by every caller, so its
    arrays are read-only.
    """
    if kind not in KINDS:
        raise ValidationError(f"unknown schedule kind {kind!r}; expected one of {KINDS}")
    if t_max < 1:
        raise ValidationError(f"t_max must be >= 1, got {t_max}")
    if not 0.0 <= s < 1.0:  # NaN fails too
        raise ValidationError(f"s must be in [0, 1), got {s}")
    if kind == "linear":
        beta = _interp_betas(t_max, 1e-4, 0.02)
        beta_zero = float(beta[0])
    elif kind == "trunc_linear":
        beta = _interp_betas(t_max, 1e-4 + 0.01, 0.02 + 0.01)
        beta_zero = float(beta[0])
    else:
        ab = decay_curve(kind, s)
        if not ab((t_max - 1) / t_max) > 0.0:  # each ratio below needs a positive divisor
            raise ValidationError(f"s = {s} takes the {kind} curve to zero before step {t_max}")
        beta = np.empty(t_max, dtype=np.float64)
        for t in range(1, t_max + 1):
            beta[t - 1] = min(1.0 - ab(t / t_max) / ab((t - 1) / t_max), MAX_BETA)
        beta_zero = 1.0 - ab(0.0)
    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    for arr in (beta, alpha, alpha_bar):
        arr.flags.writeable = False
    return NoiseSchedule(
        kind=kind, t_max=t_max, s=s,
        beta=beta, alpha=alpha, alpha_bar=alpha_bar,
        beta_zero=beta_zero,
    )


def q_sample(z0: np.ndarray, t, eps: np.ndarray, sched: NoiseSchedule,
             target_mask: np.ndarray | None = None) -> np.ndarray:
    """Jump from a clean latent to step t in closed form.

    out = sqrt(alpha_bar_t) * z0 + sqrt(1 - alpha_bar_t) * eps. t may be a
    scalar or a per-row array for batched latents. With a target mask,
    rows of z0 outside the mask pass through untouched (partial noising).
    """
    z0 = np.asarray(z0, dtype=np.float64)
    t_arr = np.asarray(t)
    if np.any(t_arr < 1) or np.any(t_arr > sched.t_max):
        raise ValidationError(f"step {t} outside 1..{sched.t_max}")
    ab = sched.alpha_bar[t_arr - 1]
    # broadcast per-row t over trailing latent axes
    extra = z0.ndim - ab.ndim
    ab = ab.reshape(ab.shape + (1,) * extra)
    out = np.sqrt(ab) * z0 + np.sqrt(1.0 - ab) * np.asarray(eps, dtype=np.float64)
    if target_mask is not None:
        out = np.where(target_mask[..., None], out, z0)
    return out


def posterior_params(z_t: np.ndarray, z0: np.ndarray, t: int,
                     sched: NoiseSchedule) -> tuple[np.ndarray, float]:
    """Mean and variance of the forward-process posterior at step t >= 2.

    mu = [sqrt(alpha_t)(1 - alpha_bar_{t-1}) z_t
          + sqrt(alpha_bar_{t-1})(1 - alpha_t) z0] / (1 - alpha_bar_t)
    var = (1 - alpha_t)(1 - alpha_bar_{t-1}) / (1 - alpha_bar_t)
    """
    if not 2 <= t <= sched.t_max:
        raise ValidationError(f"posterior needs 2 <= t <= {sched.t_max}, got {t}")
    a_t = sched.alpha_at(t)
    ab_t = sched.alpha_bar_at(t)
    ab_prev = sched.alpha_bar_at(t - 1)
    denom = 1.0 - ab_t
    mu = (math.sqrt(a_t) * (1.0 - ab_prev) * np.asarray(z_t, dtype=np.float64)
          + math.sqrt(ab_prev) * (1.0 - a_t) * np.asarray(z0, dtype=np.float64)) / denom
    var = (1.0 - a_t) * (1.0 - ab_prev) / denom
    return mu, var


class TimestepSampler:
    """Loss-aware sampler over steps 0..t_max.

    Keeps a ring buffer of the last `history` squared losses per step;
    once every step has a full buffer, steps are drawn with probability
    proportional to sqrt(mean(squared losses)), else uniformly. The weight
    for an estimate drawn at step t is 1 / (t_max * p(t)).
    """

    def __init__(self, t_max: int, history: int = 10):
        if t_max < 1:
            raise ValidationError(f"t_max must be >= 1, got {t_max}")
        if history < 1:
            raise ValidationError(f"history must be >= 1, got {history}")
        self.t_max = t_max
        self.history = history
        self._sq = np.zeros((t_max + 1, history), dtype=np.float64)
        self._count = np.zeros(t_max + 1, dtype=np.int64)

    @property
    def warmed_up(self) -> bool:
        return bool(np.all(self._count >= self.history))

    def probabilities(self) -> np.ndarray:
        n = self.t_max + 1
        if not self.warmed_up:
            return np.full(n, 1.0 / n)
        w = np.sqrt(self._sq.mean(axis=1))
        total = w.sum()
        if total <= 0.0:
            return np.full(n, 1.0 / n)
        return w / total

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw step(s) and their importance weights."""
        p = self.probabilities()
        t = rng.choice(self.t_max + 1, size=size, p=p)
        weight = 1.0 / (self.t_max * p[t])
        return t, weight

    def update(self, t: int, loss: float) -> None:
        """Record an observed loss for step t (stored squared)."""
        if not 0 <= t <= self.t_max:
            raise ValidationError(f"step {t} outside 0..{self.t_max}")
        slot = self._count[t] % self.history
        self._sq[t, slot] = float(loss) ** 2
        self._count[t] += 1


def dump_schedule(sched: NoiseSchedule, target) -> None:
    """Write t,beta,alpha,alpha_bar rows for t = 1..t_max to a path or open file."""
    write_table(target, ["t", "beta", "alpha", "alpha_bar"],
                zip(range(1, sched.t_max + 1), sched.beta.tolist(),
                    sched.alpha.tolist(), sched.alpha_bar.tolist()))

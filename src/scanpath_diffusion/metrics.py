"""Edit-distance scanpath similarity and correlation statistics.

Edit distances come from one numpy kernel that runs the unit-cost DP for
many pairs at once. The pairs of a block are padded to a common length
(the two sides with different sentinels, so padding never matches) and
the table is filled row by row: row i first takes the cheaper of deletion
and substitution/match from row i-1,

    tmp[:, j] = min(prev[:, j] + 1, prev[:, j-1] + cost[:, j]),

and then the chain of insertions along the row is one cumulative minimum,

    cur = minimum.accumulate(tmp - j, axis=1) + j,

since cur[j] = min over k <= j of tmp[k] + (j - k). A pair's distance is
read at row len(a), column len(b), which padding never reaches. The
arithmetic is integer throughout, so the results are exact and come back
as Python ints.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats as scipy_stats

from .errors import ValidationError

__all__ = ["levenshtein", "levenshtein_many", "nld", "pearson"]

# pairs per DP block: memory is O(_CHUNK * longest sequence in the block)
_CHUNK = 512


def _levenshtein_block(pairs: list[tuple[list, list]]) -> list[int]:
    len_a = np.array([len(a) for a, _ in pairs], dtype=np.int64)
    len_b = np.array([len(b) for _, b in pairs], dtype=np.int64)
    rows, cols = int(len_a.max()), int(len_b.max())
    a_pad = np.full((len(pairs), rows), -1, dtype=np.int64)
    b_pad = np.full((len(pairs), cols), -2, dtype=np.int64)
    for k, (a, b) in enumerate(pairs):
        a_pad[k, :len(a)] = a
        b_pad[k, :len(b)] = b
    j = np.arange(cols + 1, dtype=np.int64)
    prev = np.broadcast_to(j, (len(pairs), cols + 1))
    dist = len_b.copy()  # row 0 answers the pairs with an empty a
    tmp = np.empty((len(pairs), cols + 1), dtype=np.int64)
    for i in range(1, rows + 1):
        cost = a_pad[:, i - 1, None] != b_pad
        tmp[:, 0] = i
        np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=tmp[:, 1:])
        prev = np.minimum.accumulate(tmp - j, axis=1) + j
        done = np.flatnonzero(len_a == i)
        dist[done] = prev[done, len_b[done]]
    return dist.tolist()


def levenshtein_many(pairs) -> list[int]:
    """Unit-cost edit distance of every (a, b) pair of index sequences.

    One vectorised DP over blocks of pairs (see the module docstring);
    distances come back as Python ints, in the order of the pairs. The
    distance is symmetric, so each pair puts its shorter side on the rows:
    the row loop then runs over the fewest steps.
    """
    pairs = [(list(a), list(b)) for a, b in pairs]
    pairs = [(a, b) if len(a) <= len(b) else (b, a) for a, b in pairs]
    out: list[int] = []
    for lo in range(0, len(pairs), _CHUNK):
        out.extend(_levenshtein_block(pairs[lo:lo + _CHUNK]))
    return out


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two index sequences.

    One pair pays the batched kernel's fixed cost per DP row; to score many
    pairs, pass them all to levenshtein_many in one call.
    """
    return levenshtein_many([(a, b)])[0]


def nld(a, b) -> float:
    """Edit distance normalized by the longer length; 0 = identical.

    For many pairs, divide the levenshtein_many distances by the longer
    lengths instead of calling this per pair.
    """
    la, lb = len(list(a)), len(list(b))
    if la == 0 and lb == 0:
        raise ValidationError("nld undefined for two empty sequences")
    return levenshtein(a, b) / max(la, lb)


def pearson(xs, ys) -> tuple[float, float]:
    """Correlation with a two-sided p from the exact t-transform (n-2 df).

    Degenerate inputs (n < 3 or zero variance on either side) return
    (nan, nan) rather than raising; |r| = 1 returns p = 0.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValidationError(f"paired 1-d samples required, got {x.shape} vs {y.shape}")
    n = x.size
    if n < 3:
        return math.nan, math.nan
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc))
    sy = math.sqrt(float(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        return math.nan, math.nan
    r = float(xc @ yc) / (sx * sy)
    r = max(-1.0, min(1.0, r))
    if 1.0 - abs(r) < 4 * np.finfo(np.float64).eps:
        # exactly collinear data lands a few ulps shy of +-1; snap so the
        # trivial cases stay exact (this close, p underflows to 0 anyway)
        r = math.copysign(1.0, r)
    if abs(r) == 1.0:
        return r, 0.0
    t = r * math.sqrt((n - 2) / (1.0 - r * r))
    p = 2.0 * float(scipy_stats.t.sf(abs(t), df=n - 2))
    return r, p

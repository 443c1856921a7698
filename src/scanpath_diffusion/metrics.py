"""Edit-distance scanpath similarity and correlation statistics.

Edit distances come from one numpy kernel: the bit-vector algorithm of
Myers (1999, JACM 46(3)) in Hyyrö's (2001) form for the global distance,
run for a block of pairs at once. Each pair's longer side is the pattern,
of length m; its DP column j is held as vertical deltas, bit i of VP (of
VN) set when D[i+1][j] - D[i][j] is +1 (is -1). Column 0 is VP = all
ones, VN = 0. The shorter side is the text; each of its symbols t_j
moves every pair's column one step with a fixed number of word
operations, where Eq marks the pattern positions that hold t_j:

    X  = Eq | VN
    Xh = (((Eq & VP) + VP) ^ VP) | Eq
    Ph = VN | ~(Xh | VP)          Mh = VP & Xh     (horizontal deltas)
    Ph = (Ph << 1) | 1            Mh = Mh << 1     (row 0 is D[0][j] = j)
    VP = Mh | ~(X | Ph)           VN = Ph & X

A pattern fills ceil(m / 64) uint64 words, lowest bits first. The
addition and both shifts carry from each word into the next, so the
words act as one m-bit integer. Bits from m up hold garbage that never
reaches a lower bit, since only the carries and the shifts move bits,
and they move them up. After the last symbol, D[m][n] = n + (the set
bits of VP) - (the set bits of VN), counted below bit m.

A pair takes one step per text symbol, and a step costs a few operations
per pattern word. So the pattern is the longer side: lengths 20 and 60
take 20 one-word steps, not 60. The texts of a block end on the same
step. Before its first symbol, a pair steps on a symbol that matches no
position of its pattern and shifts in 0 instead of 1; below bit m, that
step leaves VP = all ones and VN = 0 as they are. A block takes its
pairs in order of falling text length, so the pairs that shift in 1 are
a prefix of the block. Each block numbers its symbols afresh
(np.unique), so any int64 values work, and builds its match masks once,
from a table with a row of words per pair and symbol; a block whose
masks would take more than 4 words per pair and position of its longest
side (the row-by-row DP this kernel replaced held 5 int64) is scored in
halves. The arithmetic is integer throughout, so the distances are
exact; they come back as Python ints.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np
from scipy.special import stdtr

from .errors import ValidationError
from .measures import first_non_integer

__all__ = ["levenshtein", "levenshtein_many", "nld", "pearson"]

# pairs per kernel block
_CHUNK = 512

_ONES = ~np.uint64(0)
_ONE = np.uint64(1)
_TOP = np.uint64(63)


def _add(x, y):
    """x + y for rows of words, each word's carry going into the next."""
    total = x + y
    if total.shape[1] > 1:
        carry = total < y
        for w in range(1, total.shape[1]):
            total[:, w] += carry[:, w - 1]
            carry[:, w] |= carry[:, w - 1] & (total[:, w] == 0)
    return total


def _shift_up(x):
    """x << 1 for rows of words, each word's top bit going into the next."""
    out = x << _ONE
    if x.shape[1] > 1:
        out[:, 1:] |= x[:, :-1] >> _TOP
    return out


def _step_masks(pats: list, texts: list, m, n, symbols, words: int) -> np.ndarray:
    """(steps, pairs, words) match masks: at step j, the pattern positions
    that hold the text's symbol there, or none before the text begins (the
    texts end on the last step)."""
    count, widest, steps, rows = len(pats), int(m.max()), int(n[0]), len(symbols) + 1
    pair_rows = np.arange(count)[:, None] * rows
    # table row k * rows + s: bit i set where pattern k holds symbol s at
    # position i; row k * rows + rows - 1 takes the positions past the
    # pattern's end, so it matches no position of the pattern
    row_of_position = np.full((count, widest), rows - 1)
    row_of_position[np.arange(widest) < m[:, None]] = np.searchsorted(
        symbols, np.fromiter(chain.from_iterable(pats), np.int64, int(m.sum())))
    row_of_position += pair_rows
    pos = np.arange(widest)
    table = np.zeros((count * rows, words), np.uint64)
    np.bitwise_or.at(table, (row_of_position, pos >> 6), _ONE << (pos & 63).astype(np.uint64))
    del row_of_position
    # the table row of each pair at each step
    row_of_step = np.full((count, steps), rows - 1)
    row_of_step[np.arange(steps) >= steps - n[:, None]] = np.searchsorted(
        symbols, np.fromiter(chain.from_iterable(texts), np.int64, int(n.sum())))
    row_of_step += pair_rows
    return table[row_of_step.T]


def _levenshtein_block(pats: list, texts: list, budget: int) -> np.ndarray:
    """Distances of the (pattern, text) pairs, len(pattern) >= len(text),
    the texts in order of falling length.

    The match masks take at most `budget` words; a block that would need
    more is scored in halves.
    """
    count = len(pats)
    m = np.fromiter(map(len, pats), np.int64, count)
    n = np.fromiter(map(len, texts), np.int64, count)
    words, steps = max(1, -(-int(m.max()) // 64)), int(n[0])
    symbols = np.unique(np.fromiter(chain(chain.from_iterable(pats), chain.from_iterable(texts)),
                                    np.int64, int(m.sum() + n.sum())))
    if count > 1 and count * (len(symbols) + 1 + steps) * words > budget:
        half = count // 2
        return np.concatenate([_levenshtein_block(pats[:half], texts[:half], budget),
                               _levenshtein_block(pats[half:], texts[half:], budget)])
    step_eq = _step_masks(pats, texts, m, n, symbols, words)
    # the number of pairs whose text has begun at each step: they shift in
    # the 1 of row 0, the others 0
    begun = np.searchsorted(-n, np.arange(-steps, 0), side="right").tolist()

    vp = np.full((count, words), _ONES)
    vn = np.zeros((count, words), np.uint64)
    for eq, c in zip(step_eq, begun):
        x = eq | vn
        xh = (_add(eq & vp, vp) ^ vp) | eq
        ph = _shift_up(vn | ~(xh | vp))
        ph[:c, 0] |= _ONE
        mh = _shift_up(vp & xh)
        vp = mh | ~(x | ph)
        vn = ph & x
    # D[m][n] = D[0][n] + the vertical deltas of the last column below bit m
    bits = np.unpackbits(np.concatenate((vp, vn), axis=1).astype("<u8", copy=False)
                         .view(np.uint8), axis=1, bitorder="little")
    below = np.arange(64 * words) < m[:, None, None]
    up, down = (bits.reshape(count, 2, -1) & below).sum(axis=2, dtype=np.int64).T
    return n + up - down


def levenshtein_many(pairs) -> list[int]:
    """Unit-cost edit distance of every (a, b) pair of integer sequences.

    One bit-vector kernel over blocks of pairs (see the module docstring);
    distances come back as Python ints, in the order of the pairs. The
    distance is symmetric, so each pair puts its longer side in the bit
    vectors and steps over the shorter one; the blocks take the pairs in
    order of falling step count.
    """
    pats, texts = [], []
    for a, b in pairs:
        a, b = tuple(a), tuple(b)
        if len(a) < len(b):
            a, b = b, a
        pats.append(a)
        texts.append(b)
    bad = first_non_integer(pats + texts)
    if bad is not None:
        raise ValidationError(f"index {bad[1]!r} is not an integer")
    order = np.argsort([-len(t) for t in texts], kind="stable").tolist()
    pats = [pats[k] for k in order]
    texts = [texts[k] for k in order]
    dists = np.zeros(len(order), np.int64)
    for lo in range(0, len(order), _CHUNK):
        block = pats[lo:lo + _CHUNK]
        # the match masks take at most 4 words per pair and position of the
        # block's longest side: the row-by-row DP this kernel replaced held 5
        budget = 4 * len(block) * max(1, max(map(len, block)))
        dists[order[lo:lo + _CHUNK]] = _levenshtein_block(block, texts[lo:lo + _CHUNK], budget)
    return dists.tolist()


def levenshtein(a, b) -> int:
    """Unit-cost edit distance between two index sequences.

    One pair pays the batched kernel's setup and its fixed cost per step;
    to score many pairs, pass them all to levenshtein_many in one call.
    """
    return levenshtein_many([(a, b)])[0]


def nld(a, b) -> float:
    """Edit distance normalized by the longer length; 0 = identical.

    For many pairs, divide the levenshtein_many distances by the longer
    lengths instead of calling this per pair.
    """
    a, b = tuple(a), tuple(b)  # an iterator is read once
    if not a and not b:
        raise ValidationError("nld undefined for two empty sequences")
    return levenshtein(a, b) / max(len(a), len(b))


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
    # the t distribution's tail, as scipy.stats.t.sf computes it; scipy.stats
    # itself is not imported, since it holds about 45 MB in every process
    p = 2.0 * float(stdtr(n - 2, -abs(t)))
    return r, p

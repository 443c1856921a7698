"""Probe the BLAS row properties that the denoiser's bit identities rest on.

The denoiser runs every per-token layer as one (N, K) @ (K, N_out)
product over packed rows, x @ w forward and d @ w.T for the input
gradient backward, and three of its promises hold only if the BLAS gives
a row the same bits whichever other rows share its product:

  blocks   `generate_batch` packs the rows of several frames into one
           product. A frame's rows match those of its one-sentence chain
           only when a block of m rows inside a stacked product gets the
           bits of the block alone.
  subsets  The last block runs its query side on the rows its caller
           reads (`denoiser.forward`'s read_mask). A read prediction
           matches the all-rows pass only when x[sel] @ w equals
           (x @ w)[sel] for a gathered subset sel of the rows.
  shards   Training splits a batch into shards of frames
           (`training.frame_shards`), each a whole loss forward and
           backward, run in turn or in forked worker processes. A shard's
           predictions and input gradient match the one-shard pass only
           when its rows get the bits of the stacked product, forward and
           backward.

This script checks all three at the denoiser's three per-token product
shapes, in float32 and float64, at the desk (dim 64, L 32) and paper
(dim 256, L 128) model sizes, with the package's own row and shard
constants; run it with BLAS on the one thread that each of training's
shard processes uses, the package installed or on PYTHONPATH:

  OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src python demos/blas_row_stability.py

Every per-token product has at least 6 rows: a frame gives 6 (one
sentence piece, four markers, one scanpath slot), and a read set of fewer
rows runs the last block on every real row instead. So a block difference
below 6 rows is never reached, and subsets are drawn from 6 rows up. The
backward blocks are reached only in a split batch, and there only from
MIN_SHARD_WORK / dim rows up: the gate splits a batch only when its
smallest shard's read rows, its smallest backward product, times dim
reach MIN_SHARD_WORK. Narrow products give blocks of a dozen or more
rows other bits (up to 18 at dim 64), below the 32 rows the gate asks
for at that width. Blocks the size of half a shard and a whole shard of
full frames are probed too. A reached difference breaks an identity,
and the script exits 1. The time MLP's products, (d, 4d) and (4d, d)
over one row per frame, are blocks as well: a shard holds at least 6
frames, so they fall under the forward check. The other products run one
frame at a time by construction: the sentence
projection is a per-frame matmul of one shape, attention runs the frames
of one real length as one stacked (g, H, n, n) matmul over their packed
rows, which numpy computes as one product per frame and head, of that
frame's own shape and strides (the packed rows stay in batch order, so
no per-token product sees its rows reordered), and the rounding runs one
product per frame, because against the transposed index table small
stacked row blocks do differ.
"""

import sys

import numpy as np

from scanpath_diffusion.denoiser import MIN_PRODUCT_ROWS
from scanpath_diffusion.training import MIN_SHARD_WORK, SHARD_FRAMES

OFFSETS = (0, 5, 37)
SIZES = {"desk": (64, 32), "paper": (256, 128)}  # dim, frame length
SUBSET_FRAMES = 8
SUBSETS = 30


def differing_blocks(x: np.ndarray, m_op: np.ndarray, sizes) -> list[int]:
    """Block sizes m whose rows in a stacked x @ m_op differ from x[s:s+m] @ m_op."""
    full = x @ m_op
    return [m for m in sizes
            if any(not np.array_equal(x[s:s + m] @ m_op, full[s:s + m]) for s in OFFSETS)]


def differing_subsets(w: np.ndarray, n_rows: int, rng: np.random.Generator) -> int:
    """How many of SUBSETS random row subsets sel give x[sel] @ w other bits
    than (x @ w)[sel]."""
    x = rng.standard_normal((n_rows, w.shape[0])).astype(w.dtype)
    full = x @ w
    bad = 0
    for _ in range(SUBSETS):
        # sizes log-uniform over MIN_PRODUCT_ROWS..n_rows, so small read sets are drawn too
        size = int(MIN_PRODUCT_ROWS * (n_rows / MIN_PRODUCT_ROWS) ** rng.random())
        sel = np.sort(rng.choice(n_rows, size=size, replace=False))
        bad += not np.array_equal(x[sel] @ w, full[sel])
    return bad


def main() -> int:
    rng = np.random.default_rng(0)
    broken = False
    for size, (d, max_len) in SIZES.items():
        h = 4 * d
        shard_rows = SHARD_FRAMES * max_len
        sizes = [*range(1, max_len + 1), shard_rows // 2, shard_rows]
        products = [("attention projection", (d, d)), ("feed forward in", (d, h)),
                    ("feed forward out", (h, d))]
        for dtype in (np.float32, np.float64):
            for name, shape in products:
                w = rng.standard_normal(shape).astype(dtype)
                for side, m_op in (("fwd", w), ("bwd", w.T)):
                    x = rng.standard_normal(
                        (max(OFFSETS) + 2 * shard_rows, m_op.shape[0])).astype(dtype)
                    bad = differing_blocks(x, m_op, sizes)
                    # blocks forward reaches always, backward only in a split
                    # batch, from MIN_SHARD_WORK / d rows up
                    reached = [m for m in bad if m >= MIN_PRODUCT_ROWS
                               and (side == "fwd" or m * d >= MIN_SHARD_WORK)]
                    found = [f"blocks differ at rows {bad or '-'}"]
                    subsets = 0
                    if side == "fwd":
                        subsets = differing_subsets(w, SUBSET_FRAMES * max_len, rng)
                        found.append(f"{subsets}/{SUBSETS} subsets differ")
                    broken |= bool(reached or subsets)
                    verdict = "BREAKS bit identity" if reached or subsets else "ok"
                    print(f"{size:5s} {np.dtype(dtype).name:8s} {side} {name:21s} {shape}: "
                          f"{', '.join(found)}: {verdict}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

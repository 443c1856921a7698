"""Probe the BLAS row properties that the denoiser's bit identities rest on.

The denoiser runs every per-token layer as one (N, K) @ (K, N_out)
product over packed rows, x @ w forward and d @ w.T for the input
gradient backward, and three of its promises hold only if the BLAS gives
a row the same bits whichever other rows share its product, and whatever
runs beside it:

  blocks   `generate_batch` packs the rows of several frames into one
           product. A frame's rows match those of its one-sentence chain
           only when a block of m rows inside a stacked product gets the
           bits of the block alone.
  subsets  The last block runs its query side on the rows its caller
           reads (`denoiser.forward`'s read_mask). A read prediction
           matches the all-rows pass only when x[sel] @ w equals
           (x @ w)[sel] for a gathered subset sel of the rows.
  shards   Training splits a large batch into shards of frames
           (`denoiser.frame_shards`) that run on two threads at once. A
           shard's predictions and input gradient match the one-shard
           pass only when its rows get the bits of the stacked product,
           forward and backward, and when a product gets the same bits
           while another runs in a second thread.

This script checks all three at the denoiser's three per-token product
shapes, in float32 and float64, at the desk (dim 64, L 32) and paper
(dim 256, L 128) model sizes; run it with BLAS on the one thread that
training's shard threads each use:

  OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python demos/blas_row_stability.py

Every per-token product has at least 6 rows: a frame gives 6 (one
sentence piece, four markers, one scanpath slot), and a read set of fewer
rows runs the last block on every real row instead. So a block difference
below 6 rows is never reached, and subsets are drawn from 6 rows up. The
backward blocks are reached only where the shard gate can split a batch
(a shard of full frames carries at least MIN_SHARD_WORK); narrow
products give blocks of a dozen or more rows other bits, but the gate
never splits at the desk size. A reached difference breaks an identity,
and the script exits 1. The other products run one frame at a time by
construction: the time code is one row whatever the batch, the sentence
projection is a per-frame matmul of one shape, attention runs the frames
of one real length as one stacked (g, H, n, n) matmul over their packed
rows, which numpy computes as one product per frame and head, of that
frame's own shape and strides (the packed rows stay in batch order, so
no per-token product sees its rows reordered), and the rounding runs one
product per frame, because against the transposed index table small
stacked row blocks do differ.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

MIN_ROWS = 6  # denoiser.MIN_PRODUCT_ROWS
SHARD_FRAMES = 8  # denoiser.SHARD_FRAMES
MIN_SHARD_WORK = 96 * 256 * 256  # denoiser.MIN_SHARD_WORK
OFFSETS = (0, 5, 37)
SIZES = {"desk": (64, 32), "paper": (256, 128)}  # dim, frame length
SUBSET_FRAMES = 8
SUBSETS = 30
ROUNDS = 20  # products each of two threads runs at once


def differing_blocks(x: np.ndarray, m_op: np.ndarray, max_rows: int) -> list[int]:
    """Block sizes m whose rows in a stacked x @ m_op differ from x[s:s+m] @ m_op."""
    full = x @ m_op
    return [m for m in range(1, max_rows + 1)
            if any(not np.array_equal(x[s:s + m] @ m_op, full[s:s + m]) for s in OFFSETS)]


def differing_subsets(w: np.ndarray, n_rows: int, rng: np.random.Generator) -> int:
    """How many of SUBSETS random row subsets sel give x[sel] @ w other bits
    than (x @ w)[sel]."""
    x = rng.standard_normal((n_rows, w.shape[0])).astype(w.dtype)
    full = x @ w
    bad = 0
    for _ in range(SUBSETS):
        # sizes log-uniform over MIN_ROWS..n_rows, so small read sets are drawn too
        size = int(MIN_ROWS * (n_rows / MIN_ROWS) ** rng.random())
        sel = np.sort(rng.choice(n_rows, size=size, replace=False))
        bad += not np.array_equal(x[sel] @ w, full[sel])
    return bad


def differing_concurrent(x: np.ndarray, m_op: np.ndarray) -> int:
    """Two threads each run x's half of the rows @ m_op ROUNDS times, both
    at once; how many results differ from the same product run alone."""
    halves = np.array_split(x, 2)
    alone = [half @ m_op for half in halves]
    start = threading.Barrier(2)

    def run(half):
        got = []
        for _ in range(ROUNDS):
            start.wait()
            got.append(half @ m_op)
        return got

    with ThreadPoolExecutor(2) as pool:
        results = list(pool.map(run, halves))
    return sum(not np.array_equal(out, want)
               for got, want in zip(results, alone) for out in got)


def main() -> int:
    rng = np.random.default_rng(0)
    broken = False
    for size, (d, max_len) in SIZES.items():
        h = 4 * d
        shard_rows = SHARD_FRAMES * max_len
        gate_splits = shard_rows * d * d >= MIN_SHARD_WORK
        products = [("attention projection", (d, d)), ("feed forward in", (d, h)),
                    ("feed forward out", (h, d))]
        for dtype in (np.float32, np.float64):
            for name, shape in products:
                w = rng.standard_normal(shape).astype(dtype)
                for side, m_op in (("fwd", w), ("bwd", w.T)):
                    x = rng.standard_normal(
                        (max(OFFSETS) + 2 * shard_rows, m_op.shape[0])).astype(dtype)
                    bad = differing_blocks(x, m_op, max_len)
                    # blocks forward reaches always, backward only in a split batch
                    reached = [m for m in bad if m >= MIN_ROWS and (side == "fwd" or gate_splits)]
                    found = [f"blocks differ at rows {bad or '-'}"]
                    subsets = 0
                    if side == "fwd":
                        subsets = differing_subsets(w, SUBSET_FRAMES * max_len, rng)
                        found.append(f"{subsets}/{SUBSETS} subsets differ")
                    concurrent = differing_concurrent(x[:2 * shard_rows], m_op)
                    found.append(f"{concurrent}/{2 * ROUNDS} two-thread products differ")
                    broken |= bool(reached or subsets or concurrent)
                    verdict = "BREAKS bit identity" if reached or subsets or concurrent else "ok"
                    print(f"{size:5s} {np.dtype(dtype).name:8s} {side} {name:21s} {shape}: "
                          f"{', '.join(found)}: {verdict}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

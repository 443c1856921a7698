"""Probe the BLAS row properties that the denoiser's bit identities rest on.

The denoiser runs every per-token layer as one (N, K) @ (K, N_out)
product over packed rows, and two of its promises hold only if the BLAS
gives a row the same bits whichever other rows share its product:

  blocks   `generate_batch` packs the rows of several frames into one
           product. A frame's rows match those of its one-sentence chain
           only when a block of m rows inside a stacked product gets the
           bits of the block alone.
  subsets  The last block runs its query side on the rows its caller
           reads (`denoiser.forward`'s read_mask). A read prediction
           matches the all-rows pass only when x[sel] @ w equals
           (x @ w)[sel] for a gathered subset sel of the rows.

This script checks both at the denoiser's three per-token product shapes,
in float32 and float64, at the desk (dim 64, L 32) and paper (dim 256,
L 128) model sizes:

  python demos/blas_row_stability.py

Every per-token product has at least 6 rows: a frame gives 6 (one
sentence piece, four markers, one scanpath slot), and a read set of fewer
rows runs the last block on every real row instead. So a block difference
below 6 rows is never reached, and subsets are drawn from 6 rows up. A
reached difference breaks an identity, and the script exits 1. The other
products run one frame at a time by construction: the time code is one
row whatever the batch, the sentence projection and attention are
per-frame matmuls of one shape, and the rounding runs one product per
frame, because against the transposed index table small stacked row
blocks do differ.
"""

import sys

import numpy as np

MIN_ROWS = 6  # denoiser.MIN_PRODUCT_ROWS
OFFSETS = (0, 5, 37)
SIZES = {"desk": (64, 32), "paper": (256, 128)}  # dim, frame length
SUBSET_FRAMES = 8
SUBSETS = 30


def differing_blocks(w: np.ndarray, max_rows: int, rng: np.random.Generator) -> list[int]:
    """Block sizes m whose rows in a stacked x @ w differ from x[s:s+m] @ w."""
    x = rng.standard_normal((max(OFFSETS) + max_rows, w.shape[0])).astype(w.dtype)
    full = x @ w
    return [m for m in range(1, max_rows + 1)
            if any(not np.array_equal(x[s:s + m] @ w, full[s:s + m]) for s in OFFSETS)]


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


def main() -> int:
    rng = np.random.default_rng(0)
    broken = False
    for size, (d, max_len) in SIZES.items():
        h = 4 * d
        products = [("attention projection", (d, d)), ("feed forward in", (d, h)),
                    ("feed forward out", (h, d))]
        for dtype in (np.float32, np.float64):
            for name, shape in products:
                w = rng.standard_normal(shape).astype(dtype)
                bad = differing_blocks(w, max_len, rng)
                reached = [m for m in bad if m >= MIN_ROWS]
                subsets = differing_subsets(w, SUBSET_FRAMES * max_len, rng)
                broken |= bool(reached) or bool(subsets)
                verdict = "ok" if not (reached or subsets) else "BREAKS bit identity"
                print(f"{size:5s} {np.dtype(dtype).name:8s} {name:21s} {shape}: blocks "
                      f"differ at rows {bad or '-'}, {subsets}/{SUBSETS} subsets differ: "
                      f"{verdict}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())

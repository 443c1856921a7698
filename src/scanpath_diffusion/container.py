"""The float32 container file of checkpoints and frozen tables.

One JSON header line, then the arrays' row-major little-endian float32
payloads back to back. The caller maps the header to the arrays' names and
shapes, and the payload must hold exactly that many floats. A write goes
to a temp file in the target's directory, is fsynced, and only then
replaces the target, so a crash mid-write leaves the previous file intact.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import ValidationError

DTYPE = np.dtype("<f4")


def write_container(path, header: dict, arrays) -> None:
    """Write the header line and the arrays as float32, atomically."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("ascii"))
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype=DTYPE).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_container(path, what: str, layout) -> tuple[dict, dict[str, np.ndarray]]:
    """(header, {name: float32 array}); layout(header) maps names to shapes
    and raises KeyError, TypeError or ValueError on a bad header.

    The arrays are writable views of one buffer holding the payload as
    stored, so reading makes no second copy.
    """
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
            shapes = layout(header)
        except (ValueError, KeyError, TypeError) as exc:
            raise ValidationError(f"{path}: bad {what} header ({exc})") from exc
        counts = [math.prod(shape) for shape in shapes.values()]
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        want = DTYPE.itemsize * sum(counts)
        if min(counts, default=0) < 0 or size != want:
            raise ValidationError(f"{path}: payload is {size} bytes, header implies {want}")
        payload = bytearray(size)
        fh.readinto(payload)
    offsets = np.cumsum([0, *counts]) * DTYPE.itemsize
    return header, {
        name: np.frombuffer(payload, DTYPE, n, int(offset)).reshape(shape)
        for (name, shape), n, offset in zip(shapes.items(), counts, offsets)
    }

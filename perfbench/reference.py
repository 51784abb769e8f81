"""Independent overlap join that checks the program's outputs.

A plain x-sorted window scan in numpy that shares no code with the
program's joins, its engine or its pair helpers.  Two boxes overlap
when they overlap with positive volume: ``lo_a < hi_b`` and
``lo_b < hi_a`` in every dimension.
"""

from __future__ import annotations

import numpy as np

#: Objects whose candidate windows are expanded at once.
CHUNK = 1024


def overlap_keys(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Sorted keys ``i * n + j`` (``i < j``) of every overlapping pair."""
    n = len(lo)
    order = np.argsort(lo[:, 0], kind="stable")
    sorted_lo, sorted_hi = lo[order], hi[order]
    # The candidates of sorted object a are the objects after it whose
    # lower x edge lies below a's upper x edge: exactly the pairs that
    # overlap in x, so only y and z remain to be tested.
    ends = np.searchsorted(sorted_lo[:, 0], sorted_hi[:, 0], side="left")
    keys = [np.empty(0, dtype=np.int64)]
    for start in range(0, n, CHUNK):
        rows = np.arange(start, min(start + CHUNK, n))
        counts = np.maximum(ends[rows] - rows - 1, 0)
        a = np.repeat(rows, counts)
        b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(counts) - counts, counts)
        for axis in (1, 2):
            axis_lo, axis_hi = sorted_lo[:, axis], sorted_hi[:, axis]
            keep = (axis_lo[a] < axis_hi[b]) & (axis_lo[b] < axis_hi[a])
            a, b = a[keep], b[keep]
        i, j = order[a], order[b]
        keys.append(np.minimum(i, j) * np.int64(n) + np.maximum(i, j))
    out = np.concatenate(keys)
    out.sort()
    return out


def boxes(centers: np.ndarray, widths: np.ndarray, distance: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Boxes of the objects, each extent enlarged by ``distance``."""
    half = (widths + distance) / 2.0
    return centers - half, centers + half


def pairs(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(i, j)`` arrays of sorted pair keys."""
    return keys // np.int64(n), keys % np.int64(n)


def adjacency(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-object neighbour lists: ``(offsets, neighbours)``, ascending."""
    i, j = pairs(keys, n)
    sources = np.concatenate([i, j])
    targets = np.concatenate([j, i])
    order = np.lexsort((targets, sources))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
    return offsets, targets[order]

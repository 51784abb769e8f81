"""Cell-identifier packing and neighbour offsets for the P-Grid.

THERMAL-JOIN's primary grid keeps only the *non-empty* cells (Figure 3
of the paper).  Cell identifiers pack the three integer grid coordinates
into a single ``int64`` (21 bits per dimension, biased to allow negative
coordinates), which lets the build phase group all objects with one
vectorised sort instead of millions of Python-level hash insertions —
the moral equivalent of the paper's ``calculateCellID``.  The P-Grid
stores its cells as one sorted id array and finds a cell's neighbours
by binary search for :func:`neighbor_cell_ids`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "COORD_BITS",
    "COORD_BIAS",
    "pack_cell_ids",
    "unpack_cell_ids",
    "neighbor_cell_ids",
    "half_neighborhood_offsets",
]

#: Bits per grid coordinate in the packed cell identifier.
COORD_BITS = 21
#: Bias added to each coordinate so negatives pack cleanly.
COORD_BIAS = 1 << (COORD_BITS - 1)
_COORD_MASK = (1 << COORD_BITS) - 1


def pack_cell_ids(coords: np.ndarray) -> np.ndarray:
    """Pack integer grid coordinates ``(n, 3)`` into ``int64`` cell ids.

    Coordinates must lie in ``[-2^20, 2^20)``; with any practical cell
    width that covers grids far beyond the paper's scales.
    """
    coords = np.asarray(coords, dtype=np.int64)
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise ValueError(f"coords must have shape (n, 3), got {coords.shape}")
    biased = coords + COORD_BIAS
    if coords.size and (biased.min() < 0 or biased.max() > _COORD_MASK):
        raise ValueError(
            "grid coordinates out of packable range; the grid resolution is "
            "too fine for the dataset extent"
        )
    return (
        (biased[:, 0] << (2 * COORD_BITS))
        | (biased[:, 1] << COORD_BITS)
        | biased[:, 2]
    )


def neighbor_cell_ids(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Packed ids of the cells at ``coords + offsets``; -1 off the grid.

    Both arguments hold ``(x, y, z)`` on their last axis and broadcast
    over the others: ``(n, 3)`` cells against ``(k, 1, 3)`` offsets give
    a ``(k, n)`` table whose row ``j`` lists every cell's neighbour at
    offset ``j``.

    A neighbour outside ``[-2^20, 2^20)`` cannot be packed: validation
    would raise and unvalidated packing would carry into the next
    coordinate's bits.  It maps to -1 instead, which equals no packed id
    (those are non-negative), so a lookup simply misses it.
    """
    coords = np.asarray(coords, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    # One broadcast per dimension: no (k, n, 3) block, no reduction
    # over its short last axis.
    x, y, z = (coords[..., d] + (offsets[..., d] + COORD_BIAS) for d in range(3))
    # A biased coordinate is packable iff no bit above its field is set;
    # a negative one has them all set.
    inside = ((x | y | z) >> COORD_BITS) == 0
    return np.where(inside, (x << (2 * COORD_BITS)) | (y << COORD_BITS) | z, -1)


def unpack_cell_ids(cell_ids: np.ndarray) -> np.ndarray:
    """Vectorised inverse of :func:`pack_cell_ids`; returns ``(n, 3)`` coords."""
    cell_ids = np.asarray(cell_ids, dtype=np.int64)
    x = ((cell_ids >> (2 * COORD_BITS)) & _COORD_MASK) - COORD_BIAS
    y = ((cell_ids >> COORD_BITS) & _COORD_MASK) - COORD_BIAS
    z = (cell_ids & _COORD_MASK) - COORD_BIAS
    return np.stack([x, y, z], axis=1)


def half_neighborhood_offsets(layers: int | np.ndarray) -> list[tuple[int, int, int]]:
    """Lexicographically positive neighbour offsets within ``layers``.

    The external join must consider each *pair* of adjacent cells exactly
    once, so only half of the neighbourhood is linked (Section 4.2.1,
    Figure 4): of the ``(2L+1)^3 - 1`` offsets, the half whose first
    non-zero component is positive.  For ``layers == 1`` this yields the
    13 offsets the paper quotes for three dimensions.

    ``layers`` may be a scalar or a per-dimension triple (the T-Grid uses
    per-dimension layer counts because its cell width differs per
    dimension).
    """
    layers = np.broadcast_to(np.asarray(layers, dtype=np.int64), (3,))
    if (layers < 0).any():
        raise ValueError(f"layers must be non-negative, got {layers}")
    offsets = []
    for dx in range(-int(layers[0]), int(layers[0]) + 1):
        for dy in range(-int(layers[1]), int(layers[1]) + 1):
            for dz in range(-int(layers[2]), int(layers[2]) + 1):
                if (dx, dy, dz) > (0, 0, 0):
                    offsets.append((dx, dy, dz))
    return offsets

"""Plane-sweep join primitives over x-sorted box collections.

The forward plane sweep (Preparata & Shamos [29]) is the workhorse
comparison routine of this reproduction: the global plane-sweep baseline
runs it over the whole dataset, PBSM runs it inside each partition, and
THERMAL-JOIN runs it for the external join between a cell and its
half-neighbourhood cells, the paper's hyperlinks (Section 4.2.1).

All routines assume their inputs are sorted ascending by the box's lower
x bound (``lo[:, 0]``) — exactly the order Algorithm 1 establishes for
every cell's object list — and return:

* two ``int64`` arrays with the matching pairs expressed in the caller's
  *global* object indices, and
* the number of pairwise overlap tests performed, defined as the number
  of candidate pairs whose x-intervals overlap and therefore had their
  remaining dimensions evaluated.  This is the machine-independent cost
  metric of the paper's Figure 7(c).

The sweeps are vectorised: candidate windows are located with binary
search over the sorted x bounds and the y/z predicates are evaluated in
bulk.  The candidate set — and hence the test count — is identical to
the classical pointer-walking formulation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sort_by_x",
    "window_pairs",
    "sweep_self",
    "sweep_between",
]


def sort_by_x(lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort boxes (and optional global ids) ascending by lower x bound.

    Returns ``(lo, hi, ids)`` where ``ids`` defaults to positional
    indices.  Every cell in THERMAL-JOIN keeps its object list in this
    order so joins never re-sort.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    ids = (
        np.arange(lo.shape[0], dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    order = np.argsort(lo[:, 0], kind="stable")
    return lo[order], hi[order], ids[order]


def window_pairs(starts: np.ndarray, stops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand per-row candidate windows into flat pair index arrays.

    Given ``starts``/``stops`` (exclusive) window bounds per left-hand
    row, return ``(left, right)`` arrays enumerating every (row, window
    member) combination.  This is the vectorised replacement for the
    nested sweep loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    stops = np.asarray(stops, dtype=np.int64)
    counts = np.maximum(stops - starts, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    left = np.repeat(np.arange(starts.size, dtype=np.int64), counts)
    # Offsets within each window: a global arange minus each window's start
    # position in the flattened output, plus the window's start index.
    ends = np.cumsum(counts)
    right = (
        np.arange(total, dtype=np.int64)
        - np.repeat(ends - counts, counts)
        + np.repeat(starts, counts)
    )
    return left, right


def _filter_yz(
    lo_a: np.ndarray, hi_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray, left: np.ndarray, right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Keep pairs whose y and z intervals strictly overlap."""
    if left.size == 0:
        return left, right
    keep = np.logical_and(
        np.logical_and(lo_a[left, 1] < hi_b[right, 1], lo_b[right, 1] < hi_a[left, 1]),
        np.logical_and(lo_a[left, 2] < hi_b[right, 2], lo_b[right, 2] < hi_a[left, 2]),
    )
    return left[keep], right[keep]


def sweep_self(lo: np.ndarray, hi: np.ndarray, ids: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, int]:
    """Forward plane-sweep self-join of one x-sorted box collection.

    For each box ``i`` the sweep scans forward over boxes ``k > i`` while
    ``lo_k.x < hi_i.x``; every scanned pair x-overlaps by construction
    and is charged one overlap test for its y/z evaluation.

    Returns ``(i_ids, j_ids, tests)`` with pairs in global ids (canonical
    ordering is *not* applied here; positional ``i < k`` holds, which is
    canonical when ``ids`` is sorted, and callers otherwise canonicalise
    via the accumulator).
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    n = lo.shape[0]
    ids = (
        np.arange(n, dtype=np.int64)
        if ids is None
        else np.asarray(ids, dtype=np.int64)
    )
    if n < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0
    xlo = lo[:, 0]
    starts = np.arange(1, n + 1, dtype=np.int64)
    stops = np.searchsorted(xlo, hi[:, 0], side="left").astype(np.int64)
    left, right = window_pairs(starts, stops)
    tests = int(left.size)
    left, right = _filter_yz(lo, hi, lo, hi, left, right)
    return ids[left], ids[right], tests


def sweep_between(
    lo_a: np.ndarray, hi_a: np.ndarray, ids_a: np.ndarray, lo_b: np.ndarray, hi_b: np.ndarray, ids_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Forward plane-sweep join between two disjoint x-sorted collections.

    Each x-overlapping (a, b) pair is scanned exactly once: from the ``a``
    side when ``lo_a.x <= lo_b.x`` and from the ``b`` side when
    ``lo_b.x < lo_a.x`` (ties broken toward the ``a`` side).  The
    collections must not share objects; THERMAL-JOIN guarantees this
    because every object belongs to exactly one P-Grid cell.

    Returns ``(a_ids, b_ids, tests)``.
    """
    lo_a = np.asarray(lo_a, dtype=np.float64)
    hi_a = np.asarray(hi_a, dtype=np.float64)
    lo_b = np.asarray(lo_b, dtype=np.float64)
    hi_b = np.asarray(hi_b, dtype=np.float64)
    ids_a = np.asarray(ids_a, dtype=np.int64)
    ids_b = np.asarray(ids_b, dtype=np.int64)
    if lo_a.shape[0] == 0 or lo_b.shape[0] == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), 0

    xlo_a = lo_a[:, 0]
    xlo_b = lo_b[:, 0]

    # Scan from a over b: b's window is lo_b.x in [lo_a.x, hi_a.x).
    starts_ab = np.searchsorted(xlo_b, xlo_a, side="left").astype(np.int64)
    stops_ab = np.searchsorted(xlo_b, hi_a[:, 0], side="left").astype(np.int64)
    left_ab, right_ab = window_pairs(starts_ab, stops_ab)

    # Scan from b over a: a's window is lo_a.x in (lo_b.x, hi_b.x).
    starts_ba = np.searchsorted(xlo_a, xlo_b, side="right").astype(np.int64)
    stops_ba = np.searchsorted(xlo_a, hi_b[:, 0], side="left").astype(np.int64)
    left_ba, right_ba = window_pairs(starts_ba, stops_ba)

    tests = int(left_ab.size + left_ba.size)
    left_ab, right_ab = _filter_yz(lo_a, hi_a, lo_b, hi_b, left_ab, right_ab)
    left_ba, right_ba = _filter_yz(lo_b, hi_b, lo_a, hi_a, left_ba, right_ba)

    a_ids = np.concatenate([ids_a[left_ab], ids_a[right_ba]])
    b_ids = np.concatenate([ids_b[right_ab], ids_b[left_ba]])
    return a_ids, b_ids, tests

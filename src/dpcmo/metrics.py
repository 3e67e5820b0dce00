"""Front quality indicators: exact hypervolume (2 and 3 objectives) and
inverted generational distance.

Hypervolume is the Lebesgue measure of the region dominated by the front
and bounded above by a reference point (minimization: larger is better).
IGD is the mean distance from reference-front samples to their nearest
obtained point (smaller is better).

Both are plain numpy and reproduce their loop and dense-matrix forms
(``tests/oracles.py``) bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

IGD_EMPTY = float("inf")
HV_REFERENCE = 1.1  # each normalized objective's reference coordinate


@dataclass(frozen=True)
class MetricConfig:
    """Normalization and reference-point convention for hypervolume.

    Objectives are rescaled by the analytic front's per-objective min/max;
    the reference point sits at ``HV_REFERENCE`` per normalized objective.
    Points outside the reference box are discarded, not clamped.
    """

    ideal: np.ndarray
    nadir: np.ndarray
    reference: np.ndarray = field(init=False)

    def __post_init__(self):
        ideal = np.asarray(self.ideal, dtype=float)
        nadir = np.asarray(self.nadir, dtype=float)
        if np.any(nadir <= ideal):
            raise ValueError("nadir must exceed ideal in every objective")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "nadir", nadir)
        object.__setattr__(self, "reference", np.full(ideal.size, HV_REFERENCE))

    @classmethod
    def from_front(cls, front_points: np.ndarray) -> "MetricConfig":
        pts = np.asarray(front_points, dtype=float)
        return cls(ideal=pts.min(axis=0), nadir=pts.max(axis=0))

    def normalize(self, F: np.ndarray) -> np.ndarray:
        return (np.asarray(F, dtype=float) - self.ideal) / (self.nadir - self.ideal)

    def normalized_hypervolume(self, F: np.ndarray) -> float:
        if len(F) == 0:
            return 0.0
        return hypervolume(self.normalize(F), self.reference)


def _hv_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Sweep by ascending f1: each point whose f2 beats every earlier one
    (and the reference) adds the rectangle up to that running minimum."""
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    f1, f2 = pts[:, 0], pts[:, 1]
    best_f2 = np.minimum.accumulate(np.concatenate(([ref[1]], f2[:-1])))
    keep = f2 < best_f2
    # cumsum adds left to right, as the sweep does; np.sum adds pairwise.
    total = np.cumsum((ref[0] - f1[keep]) * (best_f2[keep] - f2[keep]))
    return float(total[-1]) if total.size else 0.0


def _hv_3d(pts: np.ndarray, ref: np.ndarray) -> float:
    levels = np.unique(pts[:, 2])
    heights = np.diff(np.append(levels, ref[2]))
    total = 0.0
    for z, dz in zip(levels, heights):
        if dz <= 0:
            continue
        slab = pts[pts[:, 2] <= z][:, :2]
        total += _hv_2d(slab, ref[:2]) * dz
    return total


def hypervolume(front, ref) -> float:
    """Exact hypervolume of a 2- or 3-objective front w.r.t. ``ref``.

    Points with any coordinate beyond the reference are dropped first.
    The 2-objective case is a sorted sweep over rectangles; the 3-objective
    case slices along the third objective and sweeps each slab.
    """
    ref = np.asarray(ref, dtype=float)
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    if pts.size == 0:
        return 0.0
    m = pts.shape[1]
    if m != ref.size:
        raise ValueError(f"front has {m} objectives but reference has {ref.size}")
    if m not in (2, 3):
        raise ValueError(f"exact hypervolume supports 2 or 3 objectives, got {m}")
    pts = pts[(pts <= ref).all(axis=1)]
    if len(pts) == 0:
        return 0.0
    if m == 2:
        return float(_hv_2d(pts, ref))
    return float(_hv_3d(pts, ref))


def _squared_distances(ref: np.ndarray, pts: np.ndarray, k) -> np.ndarray:
    """Squared distance from each reference point i to front point k[i],
    both stored one objective per row."""
    return (ref[0] - pts[0][k]) ** 2 + (ref[1] - pts[1][k]) ** 2


def _staircase_squared_distances(ref: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Each reference point's squared distance to its nearest front point,
    for a two-objective front sorted by f1 whose f2 never rises: a sweep
    that steps every reference point through its range (see ``igd``)
    together, one row per pass."""
    x, y = pts
    a = x.searchsorted(ref[0])
    b = (-y).searchsorted(-ref[1])
    k = np.maximum(np.minimum(a, b) - 1, 0)
    hi = np.minimum(np.maximum(a, b), len(x) - 1)
    d2 = _squared_distances(ref, pts, k)
    for _ in range((hi - k).max()):
        k = np.minimum(k + 1, hi)
        np.minimum(d2, _squared_distances(ref, pts, k), out=d2)
    return d2


def igd(front, ref_points) -> float:
    """Mean distance from each reference point to its nearest front point.

    An empty front yields the +inf sentinel; a nonempty one must match the
    reference's objective count, and both must be finite. The front must be
    a staircase: two objectives, and f2 never rising once the rows are
    sorted by (f1, f2), as on every nondominated front. Any other front is
    refused, as selection refuses any objective count but two; a row that
    ties another's f1 with a larger f2 is refused whichever comes first.

    For a reference point r, let a count the rows with f1 < r1 and b the
    rows with f2 > r2. Rows from max(a, b) on have f1 >= r1 and f2 <= r2, so
    both gaps grow with the row; rows up to min(a, b) - 1 have f1 < r1 and
    f2 > r2, so both gaps grow going back. Rounded subtraction, squaring and
    addition are monotone, so the floating-point nearest row lies in
    [min(a, b) - 1, max(a, b)] too, clipped to the front's rows.
    """
    ref = np.atleast_2d(np.asarray(ref_points, dtype=float))
    if ref.size == 0:
        raise ValueError("reference set must be nonempty")
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    if pts.size == 0:
        return IGD_EMPTY
    if pts.shape[1] != ref.shape[1]:
        raise ValueError(f"front has {pts.shape[1]} objectives but reference has {ref.shape[1]}")
    if not (np.isfinite(pts).all() and np.isfinite(ref).all()):
        raise ValueError("front and reference must be finite")
    ref = np.ascontiguousarray(ref.T)
    if pts.shape[1] != 2:
        raise ValueError(f"IGD needs a two-objective front, got {pts.shape[1]} objectives")
    pts = pts.T[:, np.lexsort(pts.T[::-1])]
    if (np.diff(pts[1]) > 0).any():
        raise ValueError("IGD needs a staircase front: f2 rises in f1 order, so a row is dominated")
    return float(np.sqrt(_staircase_squared_distances(ref, pts)).mean())

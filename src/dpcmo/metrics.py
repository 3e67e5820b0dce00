"""Front quality indicators: exact hypervolume (2 and 3 objectives) and
inverted generational distance.

Hypervolume is the Lebesgue measure of the region dominated by the front
and bounded above by a reference point (minimization: larger is better).
IGD is the mean distance from reference-front samples to their nearest
obtained point (smaller is better).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

IGD_EMPTY = float("inf")


@dataclass(frozen=True)
class MetricConfig:
    """Normalization and reference-point convention for hypervolume.

    Objectives are rescaled by the analytic front's per-objective min/max;
    the reference point sits at ``reference_offset`` per normalized
    objective. Points outside the reference box are discarded, not clamped.
    """

    ideal: np.ndarray
    nadir: np.ndarray
    reference_offset: float = 1.1
    reference: np.ndarray = field(init=False)

    def __post_init__(self):
        ideal = np.asarray(self.ideal, dtype=float)
        nadir = np.asarray(self.nadir, dtype=float)
        if np.any(nadir <= ideal):
            raise ValueError("nadir must exceed ideal in every objective")
        object.__setattr__(self, "ideal", ideal)
        object.__setattr__(self, "nadir", nadir)
        object.__setattr__(self, "reference", np.full(ideal.size, self.reference_offset))

    @classmethod
    def from_front(cls, front_points: np.ndarray, reference_offset: float = 1.1) -> "MetricConfig":
        pts = np.asarray(front_points, dtype=float)
        return cls(ideal=pts.min(axis=0), nadir=pts.max(axis=0), reference_offset=reference_offset)

    def normalize(self, F: np.ndarray) -> np.ndarray:
        return (np.asarray(F, dtype=float) - self.ideal) / (self.nadir - self.ideal)

    def normalized_hypervolume(self, F: np.ndarray) -> float:
        if len(F) == 0:
            return 0.0
        return hypervolume(self.normalize(F), self.reference)


def _hv_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    pts = pts[order]
    total = 0.0
    best_f2 = ref[1]
    for f1, f2 in pts:
        if f2 < best_f2:
            total += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return total


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


def igd(front, ref_points) -> float:
    """Mean distance from each reference point to its nearest front point.

    An empty front yields the +inf sentinel.
    """
    ref = np.atleast_2d(np.asarray(ref_points, dtype=float))
    if ref.size == 0:
        raise ValueError("reference set must be nonempty")
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    if pts.size == 0:
        return IGD_EMPTY
    distances, _ = cKDTree(pts).query(ref)
    return float(distances.mean())

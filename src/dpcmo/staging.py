"""Exploration-stage convergence detection and classification of how the
constrained front relates to the unconstrained one.

The relationship types:
    1  fronts coincide
    2  fronts partially overlap
    3  fronts completely separated
    4  unclear (reached only through repeated reclassification disagreement)
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import Population
from .selection import unconstrained_nondominated

TYPE_COINCIDENT = 1
TYPE_PARTIAL = 2
TYPE_SEPARATED = 3


class PointHistory:
    """Ring buffer of the (ideal, nadir, average) points of the last gap + 1
    generations, recorded once per generation."""

    def __init__(self, gap: int = 10, delta: float = 1e-7):
        if gap < 1:
            raise ValueError("gap must be at least 1")
        self.gap = gap
        self.delta = delta
        self.entries: deque[tuple[np.ndarray, np.ndarray, np.ndarray]] = deque(maxlen=gap + 1)

    def record(self, pop: Population) -> None:
        F = pop.F
        self.entries.append((F.min(axis=0), F.max(axis=0), F.mean(axis=0)))


def rs_metric(history: PointHistory) -> float:
    """Largest relative movement of the ideal, nadir or average point over
    the configured generation gap. Small values mean the population has
    stopped moving in objective space; 1.0 until gap + 1 generations exist."""
    if len(history.entries) <= history.gap:
        return 1.0
    worst = 0.0
    for p_now, p_then in zip(history.entries[-1], history.entries[0]):
        denom = np.maximum(np.abs(p_then), history.delta)
        worst = max(worst, float((np.abs(p_now - p_then) / denom).max()))
    return worst


def should_switch(rs: float, g: int, strict_only: bool = False) -> bool:
    """Stage-transition trigger: progressively looser movement thresholds as
    generations accumulate, with a hard cap at generation 250.

    ``strict_only`` keeps just the tightest threshold (plus the cap).
    """
    if g > 250:
        return True
    if rs < 0.001 and g > 10:
        return True
    if strict_only:
        return False
    if rs < 0.02 and g > 100:
        return True
    if rs < 0.05 and g > 150:
        return True
    return False


def classify_relationship(pop_aux: Population, coincident_threshold: float = 0.9) -> int:
    """Classify the front relationship from the auxiliary population.

    Looks at the feasible fraction of the auxiliary population's
    unconstrained nondominated set: everything feasible means the fronts
    coincide, nothing feasible means they are separated, and anything in
    between is partial overlap.
    """
    if not len(pop_aux):
        raise ValueError("the auxiliary population must be nonempty")
    nd = unconstrained_nondominated(pop_aux.F)
    phi = float(np.mean(pop_aux.cv[nd] == 0.0))
    if phi >= coincident_threshold:
        return TYPE_COINCIDENT
    if phi == 0.0:
        return TYPE_SEPARATED
    return TYPE_PARTIAL


@dataclass(frozen=True)
class TypeTracker:
    """Current relationship type plus a disagreement counter.

    The counter increments whenever a reclassification disagrees with the
    held type; the type itself only moves once the counter has passed 3.
    The counter is never reset: past 3, every disagreement moves the type.
    """

    type: int
    cnt: int = 0


def track_type(tracker: TypeTracker, ntype: int) -> TypeTracker:
    if ntype == tracker.type:
        return tracker
    cnt = tracker.cnt + 1
    return TypeTracker(type=ntype if cnt > 3 else tracker.type, cnt=cnt)

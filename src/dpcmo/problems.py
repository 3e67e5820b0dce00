"""Analytic benchmark problems, one per relationship between the
unconstrained and the constrained front.

All three are two-objective minimization problems on [0, 1]^D with the
shared tail term g(x) = sum_{i >= 2} x_i^2:

* P1-overlap    constraint inactive at the optimum, the two fronts coincide
* P2-partial    a linear objective-space constraint cuts out the middle of
                the unconstrained front, the feasible front is piecewise
* P3-separated  feasibility requires g >= 0.5, pushing the feasible front
                strictly above the unconstrained one

Each problem carries an exact sampler of its constrained front for metric
computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from .core import Bounds

PROBLEM_IDS = ("P1-overlap", "P2-partial", "P3-separated")
DEFAULT_DIMENSION = 10


@dataclass(frozen=True)
class Problem:
    """Evaluation contract: decisions -> (objectives, inequality values,
    equality values), plus bounds and an analytic front sampler.

    ``evaluate_matrix`` is pure and vectorized: rows are decision vectors.
    """

    id: str
    dimension: int
    bounds: Bounds
    evaluate_matrix: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]] = field(repr=False)
    front_sampler: Callable[[int], np.ndarray] = field(repr=False)


def _tail(X: np.ndarray) -> np.ndarray:
    return (X[:, 1:] ** 2).sum(axis=1)


def _p1_eval(X: np.ndarray):
    g = _tail(X)
    f1 = X[:, 0]
    f2 = 1.0 - np.sqrt(f1) + g
    G = (g - 0.5)[:, None]
    return np.column_stack([f1, f2]), G, np.empty((len(X), 0))


def _p2_eval(X: np.ndarray):
    g = _tail(X)
    f1 = X[:, 0]
    f2 = 1.0 - np.sqrt(f1) + g
    G = (0.8 - f1 - f2)[:, None]
    return np.column_stack([f1, f2]), G, np.empty((len(X), 0))


def _p3_eval(X: np.ndarray):
    g = _tail(X)
    f1 = X[:, 0]
    f2 = 1.0 - f1 + g
    G = (0.5 - g)[:, None]
    return np.column_stack([f1, f2]), G, np.empty((len(X), 0))


def _p1_front(n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 1.0 - np.sqrt(t)])


def _p3_front(n: int) -> np.ndarray:
    t = np.linspace(0.0, 1.0, n)
    return np.column_stack([t, 1.5 - t])


def _p2_infeasible_interval() -> tuple[float, float]:
    # Roots of 1 + t - sqrt(t) = 0.8; between them the curve dips below the
    # line f1 + f2 = 0.8 and the front follows that line instead.
    h = lambda t: 1.0 + t - np.sqrt(t) - 0.8
    lo = brentq(h, 1e-15, 0.25)
    hi = brentq(h, 0.25, 1.0)
    return lo, hi


def _p2_front(n: int) -> np.ndarray:
    """Sample the piecewise front (curve arc, line segment, curve arc) at n
    points equally spaced in arc length, so each piece receives points in
    proportion to its length."""
    lo, hi = _p2_infeasible_interval()

    def curve_speed(t):
        return np.sqrt(1.0 + 1.0 / (4.0 * t))

    # Cumulative arc length as a function of f1, built piecewise.
    grid_a = np.linspace(0.0, lo, 200)
    len_a = np.concatenate([[0.0], np.cumsum([
        quad(curve_speed, max(grid_a[i], 1e-15), grid_a[i + 1], limit=100)[0]
        for i in range(len(grid_a) - 1)
    ])])
    line_len = np.sqrt(2.0) * (hi - lo)
    grid_c = np.linspace(hi, 1.0, 200)
    len_c = np.concatenate([[0.0], np.cumsum([
        quad(curve_speed, grid_c[i], grid_c[i + 1], limit=100)[0]
        for i in range(len(grid_c) - 1)
    ])])

    L1, L2, L3 = len_a[-1], line_len, len_c[-1]
    total = L1 + L2 + L3
    targets = np.linspace(0.0, total, n)

    f1 = np.empty(n)
    for i, s in enumerate(targets):
        if s <= L1:
            f1[i] = np.interp(s, len_a, grid_a)
        elif s <= L1 + L2:
            f1[i] = lo + (s - L1) / L2 * (hi - lo)
        else:
            f1[i] = np.interp(s - L1 - L2, len_c, grid_c)

    f2 = np.where((f1 > lo) & (f1 < hi), 0.8 - f1, 1.0 - np.sqrt(np.maximum(f1, 0.0)))
    return np.column_stack([f1, f2])


_DEFINITIONS = {
    "P1-overlap": (_p1_eval, _p1_front),
    "P2-partial": (_p2_eval, _p2_front),
    "P3-separated": (_p3_eval, _p3_front),
}


def make_problem(problem_id: str, dimension: int = DEFAULT_DIMENSION) -> Problem:
    """Construct one of the three analytic problems with D decision
    variables on [0, 1]^D."""
    if problem_id not in _DEFINITIONS:
        raise ValueError(f"unknown problem id {problem_id!r}; expected one of {PROBLEM_IDS}")
    if dimension < 2:
        raise ValueError(f"dimension must be >= 2, got {dimension}")
    evaluator, sampler = _DEFINITIONS[problem_id]
    bounds = Bounds(np.zeros(dimension), np.ones(dimension))
    return Problem(
        id=problem_id,
        dimension=dimension,
        bounds=bounds,
        evaluate_matrix=evaluator,
        front_sampler=sampler,
    )


def reference_front(problem: Problem, n: int) -> np.ndarray:
    """n exact points on the problem's constrained front, one per row, sorted
    lexicographically and read-only."""
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    pts = np.asarray(problem.front_sampler(n), dtype=float)
    pts = pts[np.lexsort(pts.T[::-1])]
    pts.setflags(write=False)
    return pts

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

from .core import Bounds, ConfigError, is_integer

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


def _p2_arc(u):
    """Arc length of the curve f2 = 1 - sqrt(f1) from f1 = 0 to f1 = u^2."""
    return u * np.sqrt(4.0 * u * u + 1.0) / 2.0 + np.arcsinh(2.0 * u) / 4.0


def _p2_front(n: int) -> np.ndarray:
    """Sample the piecewise front (curve arc, line segment, curve arc) at n
    points equally spaced in arc length, so each piece receives points in
    proportion to its length."""
    # sqrt(f1) at the roots of 1 + f1 - sqrt(f1) = 0.8; between them the curve
    # dips below the line f1 + f2 = 0.8 and the front follows that line instead.
    lo, hi = (1.0 - np.sqrt(0.2)) / 2.0, (1.0 + np.sqrt(0.2)) / 2.0
    u_grid = np.linspace(0.0, 1.0, 4097)
    s_grid = _p2_arc(u_grid)  # dense enough that inverting it is exact to ~1e-8
    first, line = _p2_arc(lo), np.sqrt(2.0) * (hi * hi - lo * lo)
    total = first + line + s_grid[-1] - _p2_arc(hi)
    s = np.linspace(0.0, total, n)
    on_line = (s > first) & (s < first + line)
    u = np.interp(np.where(s <= first, s, s_grid[-1] - (total - s)), s_grid, u_grid)
    f1 = np.where(on_line, lo * lo + (s - first) / np.sqrt(2.0), u * u)
    return np.column_stack([f1, np.where(on_line, 0.8 - f1, 1.0 - u)])


_DEFINITIONS = {
    "P1-overlap": (_p1_eval, _p1_front),
    "P2-partial": (_p2_eval, _p2_front),
    "P3-separated": (_p3_eval, _p3_front),
}


def make_problem(problem_id: str, dimension: int = DEFAULT_DIMENSION) -> Problem:
    """One of the three analytic problems with D decision variables on
    [0, 1]^D; an unknown id or a bad dimension is a ConfigError."""
    if problem_id not in _DEFINITIONS:
        raise ConfigError(f"unknown problem id {problem_id!r}; expected one of {PROBLEM_IDS}")
    if not is_integer(dimension):
        raise ConfigError(f"dimension must be an integer, got {dimension!r}")
    if dimension < 2:
        raise ConfigError(f"dimension must be >= 2, got {dimension}")
    evaluator, sampler = _DEFINITIONS[problem_id]
    bounds = Bounds(np.zeros(dimension), np.ones(dimension))
    return Problem(
        id=problem_id,
        dimension=int(dimension),  # a numpy integer is no JSON number
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

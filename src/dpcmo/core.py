"""Core domain types: populations, bounds, constraint violation and
evaluation accounting.

A population is a set of row-aligned float64 matrices: decisions X (n x D),
objectives F (n x M) and the scalar constraint violation cv (n), one row per
member. Selection and mating pools address members by row index, and every
operator reads and writes decision matrices. Objectives are minimized; a row
is feasible when its violation is zero.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

DEFAULT_EQ_TOLERANCE = 1e-4


def is_integer(value) -> bool:
    """Whether ``value`` is an integer of any kind but bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _readonly(values) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    arr.setflags(write=False)
    return arr


def constraint_violation_batch(G: np.ndarray, H: np.ndarray, delta: float = DEFAULT_EQ_TOLERANCE) -> np.ndarray:
    """Row-wise constraint violation for matrices of constraint values."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    n = G.shape[0] if G.size else H.shape[0]
    cv = np.zeros(n)
    if G.size:
        if not np.isfinite(G).all():
            raise ValueError("non-finite inequality value in batch")
        cv += np.maximum(G, 0.0).sum(axis=1)
    if H.size:
        if not np.isfinite(H).all():
            raise ValueError("non-finite equality value in batch")
        cv += np.maximum(np.abs(H) - delta, 0.0).sum(axis=1)
    return cv


@dataclass(frozen=True)
class Bounds:
    """Box constraints on the decision space: lower[i] < upper[i] for all i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _readonly(self.lower))
        object.__setattr__(self, "upper", _readonly(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors differ in length")
        if not np.all(self.lower < self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, X: np.ndarray) -> bool:
        X = np.asarray(X, dtype=float)
        return bool(np.all(X >= self.lower) and np.all(X <= self.upper))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n uniform points inside the box, one per row."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))


class Population:
    """Row-aligned decisions X, objectives F and violations cv, read-only.

    Selection memoises its work per epsilon: ``ranks`` holds the
    nondomination ranks, ``ranked`` the (ranks, crowding) pair once crowding
    has been read, so each is computed at most once. ``kept_ranks`` holds,
    per (epsilon, n), the ranks of the rows that truncation to n kept.
    """

    def __init__(self, X, F, cv):
        self.X = _readonly(X)
        self.F = _readonly(F)
        self.cv = _readonly(cv)
        if not len(self.X) == len(self.F) == len(self.cv):
            raise ValueError(f"row counts differ: X {len(self.X)}, F {len(self.F)}, "
                             f"cv {len(self.cv)}")
        self.ranks: dict[float, np.ndarray] = {}
        self.ranked: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.kept_ranks: dict[tuple[float, int], np.ndarray] = {}

    @classmethod
    def empty(cls) -> "Population":
        return cls(np.empty((0, 0)), np.empty((0, 0)), np.empty(0))

    @classmethod
    def concat(cls, *parts: "Population") -> "Population":
        """Rows of the parts in argument order; empty parts are skipped."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(np.concatenate([p.X for p in parts]), np.concatenate([p.F for p in parts]),
                   np.concatenate([p.cv for p in parts]))

    def take(self, idx) -> "Population":
        """The rows at ``idx``, in that order; repeats are kept."""
        return Population(self.X[idx], self.F[idx], self.cv[idx])

    def __len__(self) -> int:
        return len(self.X)

    def __iter__(self):
        """Iterates over the decision rows. Only perfbench/tracing.py iterates
        a population, but ``--trace 1`` needs it to."""
        return iter(self.X)

    def feasible_ratio(self) -> float:
        return np.count_nonzero(self.cv == 0.0) / len(self) if len(self) else 0.0


class EvalCounter:
    """Counts objective-function evaluations against a hard budget."""

    __slots__ = ("budget", "count")

    def __init__(self, budget: int):
        if budget < 0:
            raise ValueError("budget must be nonnegative")
        self.budget = int(budget)
        self.count = 0

    @property
    def remaining(self) -> int:
        return self.budget - self.count

    def grant(self, n: int) -> int:
        """Reserve up to n evaluations, returning how many were granted."""
        granted = min(n, self.remaining)
        self.count += granted
        return granted


def evaluate_batch(problem, X: np.ndarray, counter: EvalCounter,
                   delta: float = DEFAULT_EQ_TOLERANCE) -> Population:
    """Evaluate rows of X until either all are done or the budget runs out.

    Returns the population of rows actually evaluated (a prefix of X); each
    row costs one budget unit. Never raises on exhaustion: the truncated
    prefix is the caller's signal.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return Population.empty()
    X = np.atleast_2d(X)
    granted = counter.grant(len(X))
    if granted == 0:
        return Population.empty()
    X = X[:granted]
    F, G, H = problem.evaluate_matrix(X)
    if not np.isfinite(F).all():
        raise ValueError("non-finite objective in batch evaluation")
    return Population(X, F, constraint_violation_batch(G, H, delta))

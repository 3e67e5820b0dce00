"""Core domain types: solutions, populations, bounds, constraint violation,
dominance, and evaluation accounting.

All quantities are plain float64 numpy arrays. Objectives are minimized.
A solution is feasible when its scalar constraint violation is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_EQ_TOLERANCE = 1e-4


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is requested past the configured budget."""


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def constraint_violation(ineq, eq, delta: float = DEFAULT_EQ_TOLERANCE) -> float:
    """Scalar infeasibility of a solution.

    Sums max(0, g) over inequality values g and max(0, |h| - delta) over
    equality values h. Zero exactly when all g <= 0 and all |h| <= delta.
    Each equality term is floored at zero so the result is never negative.

    Raises ValueError on non-finite input, naming the offending index.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    g = np.asarray(ineq, dtype=float)
    h = np.asarray(eq, dtype=float)
    for name, arr in (("ineq", g), ("eq", h)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"non-finite {name} value at index {bad[0]}")
    total = 0.0
    if g.size:
        total += float(np.maximum(g, 0.0).sum())
    if h.size:
        total += float(np.maximum(np.abs(h) - delta, 0.0).sum())
    return total


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


def pareto_dominates(a, b) -> bool:
    """True iff objective vector a is no worse than b everywhere and strictly
    better somewhere (minimization)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"objective length mismatch: {a.shape} vs {b.shape}")
    return bool(np.all(a <= b) and np.any(a < b))


@dataclass(frozen=True)
class Bounds:
    """Box constraints on the decision space: lower[i] < upper[i] for all i."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lower", _frozen(self.lower))
        object.__setattr__(self, "upper", _frozen(self.upper))
        if self.lower.shape != self.upper.shape:
            raise ValueError("bound vectors differ in length")
        if not np.all(self.lower < self.upper):
            raise ValueError("each lower bound must be strictly below its upper bound")

    @property
    def dimension(self) -> int:
        return self.lower.size

    def contains(self, X: np.ndarray, atol: float = 0.0) -> bool:
        X = np.asarray(X, dtype=float)
        return bool(np.all(X >= self.lower - atol) and np.all(X <= self.upper + atol))

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n uniform points inside the box, one per row."""
        return rng.uniform(self.lower, self.upper, size=(n, self.dimension))


def clamp_to_bounds(v: np.ndarray, bounds: Bounds) -> np.ndarray:
    """Componentwise projection onto the box; idempotent."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != bounds.dimension:
        raise ValueError(f"vector length {v.shape[-1]} differs from bound dimension {bounds.dimension}")
    return np.clip(v, bounds.lower, bounds.upper)


@dataclass(frozen=True)
class Solution:
    """One evaluated point: decisions, objectives, raw constraint values and
    the scalar violation derived from them."""

    decisions: np.ndarray
    objectives: np.ndarray
    ineq: np.ndarray
    eq: np.ndarray
    cv: float

    def __post_init__(self):
        for name in ("decisions", "objectives", "ineq", "eq"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))

    @property
    def feasible(self) -> bool:
        return self.cv == 0.0


class Population:
    """Ordered collection of solutions with cached ideal, nadir and average
    objective points (per-objective min, max and mean).

    ``ranked`` maps an epsilon to the (ranks, crowding) pair that selection
    computed for this population, so it is computed at most once.
    """

    __slots__ = ("members", "ideal", "nadir", "average", "ranked")

    def __init__(self, members):
        self.members: tuple[Solution, ...] = tuple(members)
        self.ranked: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        if self.members:
            F = np.array([s.objectives for s in self.members])
            self.ideal = _frozen(F.min(axis=0))
            self.nadir = _frozen(F.max(axis=0))
            self.average = _frozen(F.mean(axis=0))
        else:
            self.ideal = self.nadir = self.average = _frozen([])

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __getitem__(self, i) -> Solution:
        return self.members[i]

    def decisions(self) -> np.ndarray:
        return np.array([s.decisions for s in self.members])

    def objectives(self) -> np.ndarray:
        return np.array([s.objectives for s in self.members])

    def cvs(self) -> np.ndarray:
        return np.array([s.cv for s in self.members])

    def feasible_ratio(self) -> float:
        if not self.members:
            return 0.0
        return float(np.mean([s.cv == 0.0 for s in self.members]))


class RngStream:
    """Deterministic random stream.

    Wraps numpy's PCG64 generator: equal seeds give identical draw sequences
    on every platform. One stream is owned by exactly one run.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.gen = np.random.Generator(np.random.PCG64(self.seed))


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

    def charge(self, n: int = 1) -> None:
        if self.count + n > self.budget:
            raise BudgetExhausted(f"budget {self.budget} exhausted at count {self.count}")
        self.count += n

    def grant(self, n: int) -> int:
        """Reserve up to n evaluations, returning how many were granted."""
        granted = min(n, self.remaining)
        self.count += granted
        return granted


def evaluate(problem, v: np.ndarray, counter: EvalCounter,
             delta: float = DEFAULT_EQ_TOLERANCE) -> Solution:
    """Evaluate one decision vector, consuming exactly one budget unit.

    Raises BudgetExhausted (without evaluating) when the budget is spent,
    so the caller can terminate the run cleanly.
    """
    if counter.remaining <= 0:
        raise BudgetExhausted(f"budget {counter.budget} exhausted")
    v = np.asarray(v, dtype=float)
    objectives, ineq, eq = problem.evaluate_decisions(v)
    objectives = np.asarray(objectives, dtype=float)
    bad = np.flatnonzero(~np.isfinite(objectives))
    if bad.size:
        raise ValueError(f"non-finite objective at index {bad[0]}")
    cv = constraint_violation(ineq, eq, delta)
    counter.charge(1)
    return Solution(v, objectives, ineq, eq, cv)


def evaluate_batch(problem, X: np.ndarray, counter: EvalCounter,
                   delta: float = DEFAULT_EQ_TOLERANCE) -> list[Solution]:
    """Evaluate rows of X until either all are done or the budget runs out.

    Returns the solutions actually evaluated (a prefix of X); each one costs
    one budget unit. Never raises on exhaustion: the truncated prefix is the
    caller's signal.
    """
    X = np.asarray(X, dtype=float)
    if X.size == 0:
        return []
    X = np.atleast_2d(X)
    granted = counter.grant(len(X))
    if granted == 0:
        return []
    X = X[:granted]
    F, G, H = problem.evaluate_matrix(X)
    if not np.isfinite(F).all():
        raise ValueError("non-finite objective in batch evaluation")
    cvs = constraint_violation_batch(G, H, delta)
    return [
        Solution(X[i], F[i], G[i] if G.size else np.empty(0),
                 H[i] if H.size else np.empty(0), float(cvs[i]))
        for i in range(granted)
    ]

"""Mating-pool construction and variation operators.

Operators consume parent solutions and return decision matrices, one row
per offspring; evaluation is the caller's job. All outputs are clamped to
the problem bounds except the coordinate-exchange operator, whose output
coordinates are copied verbatim from in-bounds parents.

Differential-evolution scale factors and crossover rates are drawn per
offspring from small discrete sets rather than held fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Bounds, Solution
from .selection import fitness_order, rank_and_crowd


@dataclass(frozen=True)
class OperatorParams:
    f_choices: tuple[float, ...] = (0.6, 0.8, 1.0)
    cr_choices_de: tuple[float, ...] = (0.1, 0.2, 1.0)
    cr_choices_transfer: tuple[float, ...] = (0.1, 0.2, 0.3)
    eta_crossover: float = 20.0
    crossover_prob: float = 1.0
    mutation_prob: float | None = None  # None -> 1/D at call time
    eta_mutation_stage1: float = 20.0
    eta_mutation_stage2: float = 1.0
    pbest_fraction: float = 0.1

    def __post_init__(self):
        if not (self.f_choices and self.cr_choices_de and self.cr_choices_transfer):
            raise ValueError("operator parameter sets must be nonempty")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise ValueError("crossover_prob must lie in [0, 1]")
        if not 0.0 < self.pbest_fraction <= 1.0:
            raise ValueError("pbest_fraction must lie in (0, 1]")


def tournament_pool(pop, k: int, epsilon: float, rng: np.random.Generator) -> list[Solution]:
    """k parents by binary tournament under the epsilon ordering.

    Each tournament draws two distinct members; lower nondomination rank
    wins, ties go to higher crowding distance, remaining ties to a coin
    flip.
    """
    members = list(pop)
    if not members:
        raise ValueError("empty population")
    n = len(members)
    if n == 1:
        return [members[0]] * k
    ranks, crowd = rank_and_crowd(pop, epsilon)
    out = []
    for _ in range(k):
        i, j = rng.choice(n, size=2, replace=False)
        if ranks[i] != ranks[j]:
            winner = i if ranks[i] < ranks[j] else j
        elif crowd[i] != crowd[j]:
            winner = i if crowd[i] > crowd[j] else j
        else:
            winner = i if rng.random() < 0.5 else j
        out.append(members[winner])
    return out


def random_pool(pop, k: int, rng: np.random.Generator) -> list[Solution]:
    """k uniform draws with replacement."""
    members = list(pop)
    if not members:
        raise ValueError("empty population")
    idx = rng.integers(0, len(members), size=k)
    return [members[i] for i in idx]


def _decisions(pool) -> np.ndarray:
    return np.array([s.decisions for s in pool])


def sbx_crossover(X: np.ndarray, eta: float, prob: float, rng: np.random.Generator) -> np.ndarray:
    """Simulated binary crossover on consecutive row pairs.

    Children are clamped into the per-coordinate interval spanned by their
    parents, so a pair can only produce points inside its own box.
    """
    n, d = X.shape
    if n % 2:
        X = np.vstack([X, X[-1]])
        n += 1
    P1, P2 = X[0::2], X[1::2]
    pairs = n // 2

    u = rng.random((pairs, d))
    beta = np.where(u <= 0.5, (2.0 * u) ** (1.0 / (eta + 1.0)),
                    (2.0 - 2.0 * u) ** (-1.0 / (eta + 1.0)))
    beta *= (-1.0) ** rng.integers(0, 2, size=(pairs, d))
    beta[rng.random((pairs, d)) < 0.5] = 1.0
    beta[rng.random(pairs) > prob, :] = 1.0

    mean = (P1 + P2) / 2.0
    diff = (P1 - P2) / 2.0
    c1 = mean + beta * diff
    c2 = mean - beta * diff
    low = np.minimum(P1, P2)
    high = np.maximum(P1, P2)
    c1 = np.clip(c1, low, high)
    c2 = np.clip(c2, low, high)

    children = np.empty((n, d))
    children[0::2] = c1
    children[1::2] = c2
    return children


def polynomial_mutation(X: np.ndarray, bounds: Bounds, pm: float, eta: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation, probability pm per coordinate."""
    X = X.copy()
    lb, ub = bounds.lower, bounds.upper
    span = ub - lb
    site = rng.random(X.shape) < pm
    mu = rng.random(X.shape)
    if not site.any():
        return X

    d1 = (X - lb) / span
    d2 = (ub - X) / span
    lower_branch = site & (mu <= 0.5)
    upper_branch = site & (mu > 0.5)
    delta = np.zeros_like(X)
    delta[lower_branch] = (
        2.0 * mu[lower_branch]
        + (1.0 - 2.0 * mu[lower_branch]) * (1.0 - d1[lower_branch]) ** (eta + 1.0)
    ) ** (1.0 / (eta + 1.0)) - 1.0
    delta[upper_branch] = 1.0 - (
        2.0 * (1.0 - mu[upper_branch])
        + 2.0 * (mu[upper_branch] - 0.5) * (1.0 - d2[upper_branch]) ** (eta + 1.0)
    ) ** (1.0 / (eta + 1.0))
    X = X + delta * span
    return np.clip(X, lb, ub)


def ga_offspring(pool, params: OperatorParams, stage: int, bounds: Bounds,
                 rng: np.random.Generator) -> np.ndarray:
    """SBX plus polynomial mutation; one child per parent slot.

    Stage 2 lowers the mutation distribution index for a wider local search.
    """
    if stage not in (1, 2):
        raise ValueError(f"stage must be 1 or 2, got {stage}")
    X = _decisions(pool)
    n = len(X)
    children = sbx_crossover(X, params.eta_crossover, params.crossover_prob, rng)
    pm = params.mutation_prob if params.mutation_prob is not None else 1.0 / bounds.dimension
    eta_m = params.eta_mutation_stage1 if stage == 1 else params.eta_mutation_stage2
    children = polynomial_mutation(children, bounds, pm, eta_m, rng)
    return children[:n]


def _distinct_triples(n: int, rng: np.random.Generator, exclude_self: bool = True) -> np.ndarray:
    """(n, 3) index array; each row holds three distinct indices, none equal
    to the row number when exclude_self is set. Requires n >= 4."""
    if n < 4:
        raise ValueError(f"population of size {n} is too small; need at least 4")
    out = np.empty((n, 3), dtype=int)
    for i in range(n):
        forbidden = {i} if exclude_self else set()
        picks = []
        while len(picks) < 3:
            r = int(rng.integers(0, n))
            if r not in forbidden:
                picks.append(r)
                forbidden.add(r)
        out[i] = picks
    return out


def de_rand_1(pool, params: OperatorParams, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """rand/1 mutation with binomial crossover against each target."""
    X = _decisions(pool)
    n, d = X.shape
    idx = _distinct_triples(n, rng)
    F = rng.choice(params.f_choices, size=n)
    CR = rng.choice(params.cr_choices_de, size=n)
    V = X[idx[:, 0]] + F[:, None] * (X[idx[:, 1]] - X[idx[:, 2]])
    forced = rng.integers(0, d, size=n)
    take = rng.random((n, d)) < CR[:, None]
    take[np.arange(n), forced] = True
    U = np.where(take, V, X)
    return np.clip(U, bounds.lower, bounds.upper)


def de_current_to_rand(pool, params: OperatorParams, bounds: Bounds,
                       rng: np.random.Generator) -> np.ndarray:
    """Base-plus-random-rescale mutation; no crossover.

    The base member is additionally scaled by a fresh uniform(0, 1) vector
    per offspring before the difference term is added.
    """
    X = _decisions(pool)
    n, d = X.shape
    idx = _distinct_triples(n, rng)
    F = rng.choice(params.f_choices, size=n)
    R = rng.random((n, d))
    base = X[idx[:, 0]]
    V = base + R * base + F[:, None] * (X[idx[:, 1]] - X[idx[:, 2]])
    return np.clip(V, bounds.lower, bounds.upper)


def de_current_to_pbest(pool_aux, pop_main, params: OperatorParams, bounds: Bounds,
                        rng: np.random.Generator) -> np.ndarray:
    """Pull auxiliary members toward elite members of the main population.

    The elite set is the best ceil(pbest_fraction * |main|) members of the
    main population under the strict feasible-first ordering; each offspring
    draws its attractor uniformly from that set.
    """
    main_members = list(pop_main)
    if not main_members:
        raise ValueError("empty main population")
    A = _decisions(pool_aux)
    n, d = A.shape
    order = fitness_order(pop_main, epsilon=0.0)
    top = max(1, math.ceil(params.pbest_fraction * len(main_members)))
    elite = np.array([main_members[i].decisions for i in order[:top]])

    idx = _distinct_triples(n, rng)
    F = rng.choice(params.f_choices, size=n)
    attractor = elite[rng.integers(0, len(elite), size=n)]
    base = A[idx[:, 0]]
    V = base + F[:, None] * (attractor - base) + F[:, None] * (A[idx[:, 1]] - A[idx[:, 2]])
    return np.clip(V, bounds.lower, bounds.upper)


def de_transfer(pop_main, pop_aux, params: OperatorParams, rng: np.random.Generator,
                count: int | None = None) -> np.ndarray:
    """Coordinate exchange between the two populations.

    For each offspring one index addresses both populations; coordinates
    come from the main member when a per-coordinate draw passes the
    crossover rate (or at one forced coordinate), from the auxiliary member
    otherwise. No clamping is needed.
    """
    main_members = list(pop_main)
    aux_members = list(pop_aux)
    if not main_members or not aux_members:
        raise ValueError("both populations must be nonempty")
    n = count if count is not None else len(aux_members)
    limit = min(len(main_members), len(aux_members))
    d = main_members[0].decisions.size

    r = rng.integers(0, limit, size=n)
    Xm = np.array([main_members[i].decisions for i in r])
    Xa = np.array([aux_members[i].decisions for i in r])
    CR = rng.choice(params.cr_choices_transfer, size=n)
    forced = rng.integers(0, d, size=n)
    take_main = rng.random((n, d)) < CR[:, None]
    take_main[np.arange(n), forced] = True
    return np.where(take_main, Xm, Xa)

"""Environmental selection on array-backed populations.

Two selection mechanisms are provided, both returning row indices into the
union they select from:

* rank-and-crowding truncation under an epsilon-relaxed feasible-first
  ordering (``environmental_select``), and
* reference-vector subregion selection in the angular domain
  (``angle_subregion_select``).

A union is the row concatenation of the incoming population and its
offspring, so an index names the same member as the position in that
concatenation.

The epsilon-relaxed ordering compares rows by max(0, cv - epsilon) first;
ties fall through to Pareto dominance on objectives. epsilon = 0 is strict
feasible-first comparison, epsilon = inf ignores constraints.

Under that ordering every row with a lower adjusted violation dominates every
row with a higher one, so nondominated sorting splits into groups of equal
adjusted violation: a row's rank is the number of fronts in all
lower-violation groups plus its Pareto rank inside its own group. Every
problem has two objectives, so the in-group rank is one sort plus a binary
search per row (Jensen 2003; ENS-BS, Zhang et al. 2015).

Tie-break contract (shared by every consumer, including test oracles):
fronts are filled in rank order; a split front is truncated by descending
crowding distance, ties kept in original index order.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .core import Population

def _sweep_ranks(F: np.ndarray, cv_adj: np.ndarray) -> np.ndarray:
    """Group-and-sweep ranks for two objectives.

    Rows are visited by (cv_adj, f1, f2). Within a group, each front keeps the
    f2 of its last member; those values never decrease from one front to the
    next, and a row joins the first front whose last f2 exceeds its own.
    Exact duplicates share a front, since neither dominates the other.
    """
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(f"need an objective matrix with 2 columns, got shape {F.shape}")
    order = np.lexsort((F[:, 1], F[:, 0], cv_adj))
    c, f1, f2 = cv_adj[order], F[order, 0], F[order, 1]
    new_group = np.concatenate(([True], c[1:] != c[:-1]))
    repeat = np.concatenate(([False], (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1]))) & ~new_group
    sorted_ranks = []
    offset = k = 0
    lasts: list[float] = []  # last f2 of each front of the current group
    for y, new, same in zip(f2.tolist(), new_group.tolist(), repeat.tolist()):
        if new:
            offset += len(lasts)
            lasts = [y]
            k = 0
        elif not same:
            k = bisect_right(lasts, y)
            if k == len(lasts):
                lasts.append(y)
            else:
                lasts[k] = y
        sorted_ranks.append(offset + k)
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = sorted_ranks
    return ranks


def nondominated_ranks(F: np.ndarray, cvs: np.ndarray, epsilon: float) -> np.ndarray:
    """Nondominated sorting under the relaxed order; rank 0 is the best front,
    by the group-and-sweep rule of the module docstring."""
    F = np.asarray(F, dtype=float)
    n = len(F)
    if math.isinf(epsilon):
        cv_adj = np.zeros(n)
    else:
        cv_adj = np.maximum(0.0, np.asarray(cvs, dtype=float) - epsilon)
    return _sweep_ranks(F, cv_adj)


def crowding_distances(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance per front; boundary members get +inf.

    Each objective is sorted once over all fronts, by (rank, value), with ties
    kept in index order. The sorted ranks, and so the fronts' first and last
    positions, are the same for every objective.
    """
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    r = np.sort(ranks)
    change = r[1:] != r[:-1]
    first = np.concatenate(([True], change))
    last = np.concatenate((change, [True]))
    edge = first | last
    sizes = np.diff(np.flatnonzero(first), append=n)
    for j in range(m):
        order = np.lexsort((F[:, j], ranks))
        f = F[order, j]
        span = np.repeat(f[last] - f[first], sizes)
        gaps = np.zeros(n)
        gaps[1:-1] = f[2:] - f[:-2]
        interior = ~edge & (span > 0)
        dist[order[interior]] += gaps[interior] / span[interior]
        dist[order[edge]] = np.inf
    return dist


def ranks_of(pop: Population, epsilon: float) -> np.ndarray:
    """Nondomination ranks of the population's rows, read-only. A Population
    is immutable, so they are computed once per epsilon and kept on it."""
    memo = pop.ranks
    if epsilon not in memo:
        ranks = nondominated_ranks(pop.F, pop.cv, epsilon)
        ranks.setflags(write=False)
        memo[epsilon] = ranks
    return memo[epsilon]


def rank_and_crowd(pop: Population, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Nondomination ranks and crowding distances of the population's rows.

    Crowding is computed the first time it is asked for, once per epsilon,
    and the same read-only pair is returned on every later call.
    """
    memo = pop.ranked
    if epsilon not in memo:
        ranks = ranks_of(pop, epsilon)
        crowd = crowding_distances(pop.F, ranks)
        crowd.setflags(write=False)
        memo[epsilon] = ranks, crowd
    return memo[epsilon]


def fitness_order(pop: Population, epsilon: float) -> np.ndarray:
    """Row indices sorted best-first: rank ascending, crowding descending,
    original position as the final tie-break."""
    ranks, crowd = rank_and_crowd(pop, epsilon)
    return np.lexsort((-crowd, ranks))


def environmental_select(union: Population, n: int, epsilon: float) -> np.ndarray:
    """Indices of the best min(n, |union|) rows under the relaxed ordering.

    Whole fronts are admitted in rank order, members in index order; the
    front that overflows is truncated by descending crowding distance. Only
    that front is crowded: within one front the neighbours, spans and
    index-order ties are those of the whole union, so the distances are too.
    """
    if not len(union):
        raise ValueError("cannot select from an empty union")
    if len(union) <= n:
        return np.arange(len(union))
    ranks = ranks_of(union, epsilon)
    order = np.argsort(ranks, kind="stable")
    split = ranks[order[n - 1]]  # the front that holds the n-th place
    if np.count_nonzero(ranks <= split) > n:
        front = np.flatnonzero(ranks == split)
        crowd = crowding_distances(union.F[front], np.zeros(len(front), dtype=int))
        front = front[np.argsort(-crowd, kind="stable")]
        order = np.concatenate([order[: np.count_nonzero(ranks < split)], front])
    return order[:n]


def das_dennis_vectors(target: int) -> np.ndarray:
    """Two-objective simplex-lattice directions, one per row, unit 2-norm.

    The lattice with H = target - 1 has exactly ``target`` points
    (k, H - k) / H, listed for k = H down to 0.
    """
    if target < 2:
        raise ValueError(f"need target >= 2, got {target}")
    h = target - 1
    k = np.arange(h, -1, -1, dtype=float)
    pts = np.column_stack([k, h - k]) / h
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def unconstrained_nondominated(F: np.ndarray) -> np.ndarray:
    """Indices of the Pareto-nondominated rows of an objective matrix, in
    ascending order."""
    return np.flatnonzero(_sweep_ranks(F, np.zeros(len(F))) == 0)


def angular_distances(normalized: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Angle in radians between each normalized objective vector (rows) and
    each reference vector (columns)."""
    norms = np.maximum(np.linalg.norm(normalized, axis=1, keepdims=True), 1e-12)
    cosine = (normalized @ vectors.T) / norms
    return np.arccos(np.clip(cosine, -1.0, 1.0))


def angle_subregion_select(union: Population, n_aux: int, n_s: int,
                           epsilon: float) -> np.ndarray:
    """Subregion selection in the angular domain; returns row indices of
    ``union``, whose first ``n_aux`` rows are the incoming population.

    The nondominated subset of the union is normalized to [0, 1] per
    objective, and each reference vector picks its angularly nearest
    candidate, the first one on ties. A candidate may be picked by several
    vectors. When the incoming population is smaller than 25, unpicked rows
    top up the pool in index order. The pool is then ranked under the
    epsilon ordering and the best n_s returned.
    """
    if not len(union):
        raise ValueError("cannot select from an empty candidate set")
    F = union.F
    nd = unconstrained_nondominated(F)

    z_min = F[nd].min(axis=0)
    z_max = F[nd].max(axis=0)
    span = np.maximum(z_max - z_min, 1e-12)
    normalized = (F[nd] - z_min) / span

    ang = angular_distances(normalized, das_dennis_vectors(n_s))
    pool = nd[ang.argmin(axis=0)]
    if n_aux < 25:
        unpicked = np.flatnonzero(~np.isin(np.arange(len(union)), pool))
        pool = np.concatenate([pool, unpicked[: 25 - n_aux]])
    return pool[fitness_order(union.take(pool), epsilon)[:n_s]]

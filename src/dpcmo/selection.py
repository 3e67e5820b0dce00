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
lower-violation groups plus its Pareto rank inside its own group. With two
objectives the in-group rank is one sort plus a binary search per row
(Jensen 2003; ENS-BS, Zhang et al. 2015). With three or more objectives the
ranks come from a dense pairwise dominance matrix.

Tie-break contract (shared by every consumer, including test oracles):
fronts are filled in rank order; a split front is truncated by descending
crowding distance, ties kept in original index order.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .core import Population

_VECTOR_PAD_SEED = 987654321


def _dominance_matrix(F: np.ndarray, cv_adj: np.ndarray) -> np.ndarray:
    """dom[i, j] = row i dominates row j under the relaxed order."""
    less_cv = cv_adj[:, None] < cv_adj[None, :]
    eq_cv = cv_adj[:, None] == cv_adj[None, :]
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return less_cv | (eq_cv & le & lt)


def _dense_ranks(F: np.ndarray, cv_adj: np.ndarray) -> np.ndarray:
    """Front peeling over the full dominance matrix; any number of objectives."""
    n = len(F)
    dom = _dominance_matrix(F, cv_adj)
    n_dominators = dom.sum(axis=0)
    ranks = np.full(n, -1, dtype=int)
    current = np.flatnonzero(n_dominators == 0)
    rank = 0
    while current.size:
        ranks[current] = rank
        n_dominators = n_dominators - dom[current].sum(axis=0)
        n_dominators[current] = -1
        current = np.flatnonzero(n_dominators == 0)
        rank += 1
    return ranks


def _sweep_ranks(F: np.ndarray, cv_adj: np.ndarray) -> np.ndarray:
    """Group-and-sweep ranks for two objectives.

    Rows are visited by (cv_adj, f1, f2). Within a group, each front keeps the
    f2 of its last member; those values never decrease from one front to the
    next, and a row joins the first front whose last f2 exceeds its own.
    Exact duplicates share a front, since neither dominates the other.
    """
    order = np.lexsort((F[:, 1], F[:, 0], cv_adj))
    rows = zip(cv_adj[order].tolist(), F[order, 0].tolist(), F[order, 1].tolist())
    sorted_ranks = []
    offset = 0
    lasts: list[float] = []  # last f2 of each front of the current group
    prev = None
    for row in rows:
        if prev is None or row[0] != prev[0]:
            offset += len(lasts)
            lasts = [row[2]]
            k = 0
        elif row != prev:
            k = bisect_right(lasts, row[2])
            if k == len(lasts):
                lasts.append(row[2])
            else:
                lasts[k] = row[2]
        sorted_ranks.append(offset + k)
        prev = row
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = sorted_ranks
    return ranks


def nondominated_ranks(F: np.ndarray, cvs: np.ndarray, epsilon: float) -> np.ndarray:
    """Nondominated sorting under the relaxed order; rank 0 is the best front.

    Two objectives use the group-and-sweep rule of the module docstring;
    three or more fall back to front peeling over the dense dominance matrix.
    """
    F = np.asarray(F, dtype=float)
    n = len(F)
    if math.isinf(epsilon):
        cv_adj = np.zeros(n)
    else:
        cv_adj = np.maximum(0.0, np.asarray(cvs, dtype=float) - epsilon)
    if F.shape[1] == 2:
        return _sweep_ranks(F, cv_adj)
    return _dense_ranks(F, cv_adj)


def crowding_distances(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance per front; boundary members get +inf.

    Each objective is sorted once over all fronts, by (rank, value), with ties
    kept in index order.
    """
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    dist = np.zeros(n)
    if n == 0:
        return dist
    for j in range(m):
        order = np.lexsort((F[:, j], ranks))
        r = ranks[order]
        f = F[order, j]
        change = r[1:] != r[:-1]
        first = np.concatenate(([True], change))
        last = np.concatenate((change, [True]))
        front = np.cumsum(first) - 1
        span = (f[last] - f[first])[front]
        gaps = np.zeros(n)
        gaps[1:-1] = f[2:] - f[:-2]
        interior = ~(first | last) & (span > 0)
        dist[order[interior]] += gaps[interior] / span[interior]
        dist[order[first | last]] = np.inf
    return dist


def rank_and_crowd(pop: Population, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """Nondomination ranks and crowding distances of the population's rows.

    A Population is immutable, so its result is computed once per epsilon and
    kept on the instance, read-only.
    """
    cache = pop.ranked
    if epsilon not in cache:
        ranks = nondominated_ranks(pop.F, pop.cv, epsilon)
        crowd = crowding_distances(pop.F, ranks)
        ranks.setflags(write=False)
        crowd.setflags(write=False)
        cache[epsilon] = ranks, crowd
    return cache[epsilon]


def fitness_order(pop: Population, epsilon: float) -> np.ndarray:
    """Row indices sorted best-first: rank ascending, crowding descending,
    original position as the final tie-break."""
    ranks, crowd = rank_and_crowd(pop, epsilon)
    return np.lexsort((-crowd, ranks))


def environmental_select(union: Population, n: int, epsilon: float) -> np.ndarray:
    """Indices of the best min(n, |union|) rows under the relaxed ordering.

    Whole fronts are admitted in rank order, members in index order; the
    front that overflows is truncated by descending crowding distance.
    """
    if not len(union):
        raise ValueError("cannot select from an empty union")
    if len(union) <= n:
        return np.arange(len(union))
    ranks, crowd = rank_and_crowd(union, epsilon)
    order = np.argsort(ranks, kind="stable")
    split = ranks[order[n - 1]]  # the front that holds the n-th place
    if np.count_nonzero(ranks <= split) > n:
        front = np.flatnonzero(ranks == split)
        front = front[np.argsort(-crowd[front], kind="stable")]
        order = np.concatenate([order[: np.count_nonzero(ranks < split)], front])
    return order[:n]


def _simplex_lattice(m: int, h: int) -> np.ndarray:
    """All compositions of h into m nonnegative parts, first coordinate
    descending, scaled to the unit simplex."""
    if m == 1:
        return np.array([[float(h)]])
    rows = []
    for first in range(h, -1, -1):
        rest = _simplex_lattice(m - 1, h - first)
        rows.append(np.column_stack([np.full(len(rest), float(first)), rest]))
    return np.vstack(rows)


def das_dennis_vectors(m: int, target: int) -> np.ndarray:
    """Simplex-lattice directions in objective space, one per row, unit 2-norm.

    Uses the largest lattice parameter H whose point count does not exceed
    ``target``; any shortfall is padded with seeded uniform simplex points
    so the result always holds exactly ``target`` vectors.
    """
    if m < 2 or target < 2:
        raise ValueError("need m >= 2 and target >= 2")
    h = 1
    while math.comb(h + m, m - 1) <= target:
        h += 1
    pts = _simplex_lattice(m, h) / h
    if len(pts) > target:
        pts = pts[:target]
    if len(pts) < target:
        rng = np.random.Generator(np.random.PCG64(_VECTOR_PAD_SEED + 1000 * m + target))
        extra = rng.dirichlet(np.ones(m), size=target - len(pts))
        pts = np.vstack([pts, extra])
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def unconstrained_nondominated(F: np.ndarray) -> np.ndarray:
    """Indices of the Pareto-nondominated rows of an objective matrix, in
    ascending order."""
    if F.shape[1] == 2:
        return np.flatnonzero(_sweep_ranks(F, np.zeros(len(F))) == 0)
    return np.flatnonzero(~_dominance_matrix(F, np.zeros(len(F))).any(axis=0))


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

    ang = angular_distances(normalized, das_dennis_vectors(F.shape[1], n_s))
    pool = nd[ang.argmin(axis=0)]
    if n_aux < 25:
        unpicked = np.flatnonzero(~np.isin(np.arange(len(union)), pool))
        pool = np.concatenate([pool, unpicked[: 25 - n_aux]])
    return pool[fitness_order(union.take(pool), epsilon)[:n_s]]

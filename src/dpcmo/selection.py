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
problem has two objectives, so one sort by (violation, f1, f2) lets each
group be peeled front by front in numpy: a front is the rows whose f2 is a
strict new prefix minimum (NSGA-II front peeling, Deb et al. 2002, on the
sorted rows). A full ranking peels every front; truncation reads no rank
past the front it splits, so it peels fronts only up to that one.

Tie-break contract (shared by every consumer, including test oracles):
fronts are filled in rank order; a split front is truncated by descending
crowding distance, ties kept in original index order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Population


def _peel_ranks(F: np.ndarray, cv_adj: np.ndarray, n: int) -> np.ndarray:
    """Nondomination ranks of the fronts that hold the n best rows; every
    later row gets one rank past the last front peeled, so n = len(F) ranks
    every row exactly.

    Rows are visited by (cv_adj, f1, f2). A group of equal cv_adj is peeled
    front by front: a front is the rows whose f2 is a strict new prefix
    minimum, each with the exact repeats that follow it. A one-row group is
    one front.
    """
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(f"need an objective matrix with 2 columns, got shape {F.shape}")
    order = np.lexsort((F[:, 1], F[:, 0], cv_adj))
    c, f1, f2 = cv_adj[order], F[order, 0], F[order, 1]
    new_group = np.concatenate(([True], c[1:] != c[:-1]))[: len(c)]
    repeat = np.concatenate(([False], (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1]))) & ~new_group
    bounds = np.flatnonzero(np.append(new_group, True)).tolist()
    sorted_ranks = np.empty(len(order), dtype=int)
    rank = done = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if done >= n:
            sorted_ranks[start:] = rank
            break
        if stop - start == 1:
            sorted_ranks[start] = rank
            rank += 1
            done += 1
            continue
        rows = np.arange(start, stop)
        while rows.size and done < n:
            y = f2[rows]
            strict = np.concatenate(([True], y[1:] < np.minimum.accumulate(y)[:-1]))
            head = np.maximum.accumulate(np.where(repeat[rows], 0, np.arange(rows.size)))
            member = strict[head]
            sorted_ranks[rows[member]] = rank
            done += np.count_nonzero(member)
            rank += 1
            rows = rows[~member]
        sorted_ranks[rows] = rank  # rows of this group past the split front
    ranks = np.empty(len(order), dtype=int)
    ranks[order] = sorted_ranks
    return ranks


def _adjusted_cv(cvs: np.ndarray, epsilon: float) -> np.ndarray:
    """max(0, cv - epsilon) per row; all zero at epsilon = inf."""
    if math.isinf(epsilon):
        return np.zeros(len(cvs))
    return np.maximum(0.0, np.asarray(cvs, dtype=float) - epsilon)


def nondominated_ranks(F: np.ndarray, cvs: np.ndarray, epsilon: float) -> np.ndarray:
    """Nondominated sorting under the relaxed order; rank 0 is the best front,
    every front peeled as the module docstring describes."""
    F = np.asarray(F, dtype=float)
    return _peel_ranks(F, _adjusted_cv(cvs, epsilon), len(F))


def front_crowding(F: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance of the rows of one front; each objective's
    two extreme rows, and every row of a front of at most two, get +inf.

    Each objective is sorted once, ties kept in index order; a zero span
    adds nothing to the interior rows.
    """
    k = len(F)
    if k <= 2:
        return np.full(k, np.inf)
    dist = np.zeros(k)
    for f in F.T:
        order = np.argsort(f, kind="stable")
        f = f[order]
        span = f[-1] - f[0]
        if span > 0:
            dist[order[1:-1]] += (f[2:] - f[:-2]) / span
        dist[order[[0, -1]]] = np.inf
    return dist


def crowding_distances(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance per front (``front_crowding``); members of
    fronts of at most two rows get +inf."""
    F = np.asarray(F, dtype=float)
    dist = np.full(len(F), np.inf)
    order = np.argsort(ranks, kind="stable")
    r = ranks[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1], [True])))
    for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if stop - start > 2:
            front = order[start:stop]
            dist[front] = front_crowding(F[front])
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

    Fronts are peeled only up to the split one. The kept rows' ranks, which
    are exact, go to ``union.kept_ranks[(epsilon, n)]``; partial ranks never
    enter ``union.ranks``.
    """
    if not len(union):
        raise ValueError("cannot select from an empty union")
    if len(union) <= n:
        return np.arange(len(union))
    ranks = _peel_ranks(union.F, _adjusted_cv(union.cv, epsilon), n)
    order = np.argsort(ranks, kind="stable")
    split = ranks[order[n - 1]]  # the front that holds the n-th place
    if np.count_nonzero(ranks <= split) > n:
        front = np.flatnonzero(ranks == split)
        front = front[np.argsort(-front_crowding(union.F[front]), kind="stable")]
        order = np.concatenate([order[: np.count_nonzero(ranks < split)], front])
    idx = order[:n]
    kept = ranks[idx]
    kept.setflags(write=False)
    union.kept_ranks[(epsilon, n)] = kept
    return idx


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
    return np.flatnonzero(_peel_ranks(F, np.zeros(len(F)), 1) == 0)


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

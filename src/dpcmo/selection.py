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
sorted rows). A full ranking peels every front; truncation and the angular
pool read no rank past the front that holds their n-th row, so they peel
fronts only up to that one.

Selection then works in the order that one sort produced. Whole fronts are
admitted with their members in index order, by sorting each front's row
indices. Within a front f1 ascends and f2 descends, so the sorted
neighbours are both objectives' crowding neighbours (the sort-based view
of Jensen 2003): the split front is crowded from sorted order, with no sort
per objective.

Tie-break contract (shared by every consumer, including test oracles):
fronts are filled in rank order; a split front is truncated by descending
crowding distance, ties kept in original index order.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Population


def _peel(F: np.ndarray, cv_adj: np.ndarray | None, n: int) -> tuple[np.ndarray, list]:
    """Sort the rows by (cv_adj, f1, f2) and peel fronts until they hold at
    least n rows; n = len(F) peels every front.

    Returns the sort order and the fronts in rank order, each as the
    ascending positions of its rows in that order. A group of equal cv_adj
    is peeled front by front: a front is the rows whose f2 is a strict new
    prefix minimum, each with the exact repeats that follow it, so within a
    front f1 ascends, f2 descends and repeats stay in index order. A one-row
    group is one front. cv_adj None stands for all zero: one group, and the
    sort drops the violation key.
    """
    if F.ndim != 2 or F.shape[1] != 2:
        raise ValueError(f"need an objective matrix with 2 columns, got shape {F.shape}")
    if cv_adj is None:
        order = np.lexsort((F[:, 1], F[:, 0]))
    else:
        order = np.lexsort((F[:, 1], F[:, 0], cv_adj))
    G = F.take(order, 0)
    f1, f2 = G[:, 0], G[:, 1]
    repeat = np.zeros(len(F), dtype=bool)
    repeat[1:] = (f1[1:] == f1[:-1]) & (f2[1:] == f2[:-1])
    if cv_adj is None:
        bounds = [0, len(F)]
    else:
        c = cv_adj[order]
        same = c[1:] == c[:-1]
        repeat[1:] &= same
        bounds = [0, *(np.flatnonzero(~same) + 1).tolist(), len(F)]
    positions = np.arange(len(F))
    fronts = []
    done = 0
    for start, stop in zip(bounds[:-1], bounds[1:]):
        rows = positions[start:stop]
        repeats = repeat[start:stop].any()
        while rows.size and done < n:
            if rows.size == 1:
                fronts.append(rows)
                done += 1
                break
            y = f2[rows]
            member = np.empty(rows.size, dtype=bool)
            member[0] = True
            np.less(y[1:], np.minimum.accumulate(y)[:-1], out=member[1:])
            if repeats:
                member = member[np.maximum.accumulate(
                    np.where(repeat[rows], 0, np.arange(rows.size)))]
            fronts.append(rows[member])
            done += len(fronts[-1])
            rows = rows[~member]
        if done >= n:
            break
    return order, fronts


def _adjusted_cv(cvs: np.ndarray, epsilon: float) -> np.ndarray | None:
    """max(0, cv - epsilon) per row; None (all zero) at epsilon = inf."""
    if math.isinf(epsilon):
        return None
    return np.maximum(0.0, np.asarray(cvs, dtype=float) - epsilon)


def nondominated_ranks(F: np.ndarray, cvs: np.ndarray, epsilon: float) -> np.ndarray:
    """Nondominated sorting under the relaxed order; rank 0 is the best front,
    every front peeled as the module docstring describes."""
    F = np.asarray(F, dtype=float)
    order, fronts = _peel(F, _adjusted_cv(cvs, epsilon), len(F))
    ranks = np.empty(len(F), dtype=int)
    for rank, front in enumerate(fronts):
        ranks[order[front]] = rank
    return ranks


def _staircase_crowding(G: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance of one front's rows, given as they are
    peeled: f1 ascending, f2 descending, exact repeats in index order. Each
    objective's two extreme rows, and every row of a front of at most two,
    get +inf; an all-repeat front adds nothing to its interior rows.

    Sorted order holds both objectives' neighbours. Sorting f1 stably gives
    this order, and sorting f2 stably gives it with the runs of repeats
    reversed but not the rows inside a run, so a run's first row takes the
    f2 gap of its last position and its last row that of its first.
    """
    k = len(G)
    if k <= 2:
        return np.full(k, np.inf)
    g1, g2 = G[:, 0], G[:, 1]
    dist = np.zeros(k)
    if g1[-1] > g1[0]:
        dist[1:-1] = (g1[2:] - g1[:-2]) / (g1[-1] - g1[0])
        gap2 = np.empty(k)
        gap2[1:-1] = (g2[:-2] - g2[2:]) / (g2[0] - g2[-1])
        gap2[0] = gap2[-1] = np.inf
        run = np.zeros(k + 1, dtype=bool)
        run[1:k] = (g1[1:] == g1[:-1]) & (g2[1:] == g2[:-1])
        if run.any():
            ends = np.flatnonzero(run[1:] != run[:-1])
            first, last = ends[::2], ends[1::2]
            gap2[first], gap2[last] = gap2[last], gap2[first]
        dist += gap2
    dist[0] = dist[-1] = np.inf
    return dist


def crowding_distances(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance per front of the nondomination ``ranks``;
    members of fronts of at most two rows get +inf. One sort by (rank, f1,
    f2) puts every front in the order ``_staircase_crowding`` reads."""
    F = np.asarray(F, dtype=float)
    dist = np.full(len(F), np.inf)
    order = np.lexsort((F[:, 1], F[:, 0], ranks))
    r = ranks[order]
    starts = np.flatnonzero(np.concatenate(([True], r[1:] != r[:-1], [True])))
    for start, stop in zip(starts[:-1].tolist(), starts[1:].tolist()):
        if stop - start > 2:
            front = order[start:stop]
            dist[front] = _staircase_crowding(F[front])
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
    that front is crowded, straight from the peel's sort order.

    Fronts are peeled only up to the split one. The kept rows' ranks, which
    are exact, go to ``union.kept_ranks[(epsilon, n)]``; partial ranks never
    enter ``union.ranks``.
    """
    if not len(union):
        raise ValueError("cannot select from an empty union")
    if len(union) <= n:
        return np.arange(len(union))
    order, fronts = _peel(union.F, _adjusted_cv(union.cv, epsilon), n)
    sizes = [len(front) for front in fronts]
    parts = [np.sort(order[front]) for front in fronts[:-1]]
    last = order[fronts[-1]]
    if sum(sizes) > n:
        parts.append(last[np.lexsort((last, -_staircase_crowding(union.F.take(last, 0))))])
    else:
        parts.append(np.sort(last))
    idx = np.concatenate(parts)[:n]
    kept = np.repeat(np.arange(len(fronts)), sizes)[:n]
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
    order, fronts = _peel(F, None, 1)
    return np.sort(order[fronts[0]]) if fronts else order


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
    top up the pool in index order. The best n_s rows of the pool under the
    epsilon ordering are returned best-first: rank ascending, crowding
    descending, index last. Fronts are peeled only until they hold n_s rows.
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
    G = F.take(pool, 0)
    order, fronts = _peel(G, _adjusted_cv(union.cv[pool], epsilon), n_s)
    rows = order[np.concatenate(fronts)]
    crowd = np.concatenate([_staircase_crowding(G.take(order[front], 0)) for front in fronts])
    rank = np.repeat(np.arange(len(fronts)), [len(front) for front in fronts])
    return pool[rows[np.lexsort((rows, -crowd, rank))[:n_s]]]

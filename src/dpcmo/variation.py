"""Mating-pool construction and variation operators.

Pools are arrays of row indices into a population. Operators consume parent
decision matrices (one row per pool slot) and return decision matrices, one
row per offspring; evaluation is the caller's job. All outputs are clamped to
the problem bounds except the coordinate-exchange operator, whose output
coordinates are copied verbatim from in-bounds parents.

Differential-evolution scale factors and crossover rates are drawn per
offspring from small discrete sets rather than held fixed: ``F_CHOICES`` for
every DE operator, ``CR_CHOICES_DE`` for rand/1 and ``CR_CHOICES_TRANSFER`` for
the coordinate exchange. SBX uses ``ETA_CROSSOVER`` with crossover probability
1; polynomial mutation changes each coordinate with probability 1/D, with
distribution index ``ETA_MUTATION[stage]``.

Tournament pools and DE index triples take their draws in whole-array calls
that use the generator's stream exactly as one call per draw would: same
values, same order, same state afterwards. The GA (SBX plus mutation) is
split the same way: ``ga_draws`` takes one parent block's random numbers in
stream order, and ``ga_offspring``, the one GA kernel, breeds any number of
blocks from their draws, so both stage-1 populations breed in a single pass.
"""

from __future__ import annotations

import math

import numpy as np

from .core import Bounds, Population
from .selection import fitness_order, rank_and_crowd


F_CHOICES = (0.6, 0.8, 1.0)
CR_CHOICES_DE = (0.1, 0.2, 1.0)
CR_CHOICES_TRANSFER = (0.1, 0.2, 0.3)
ETA_CROSSOVER = 20.0
# Stage 2 lowers the mutation distribution index for a wider local search.
ETA_MUTATION = {1: 20.0, 2: 1.0}


def tournament_pool(pop: Population, k: int, epsilon: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Row indices of k parents by binary tournament under the epsilon
    ordering.

    Each tournament draws two distinct members; lower nondomination rank
    wins, ties go to higher crowding distance, remaining ties to a coin
    flip.
    """
    n = len(pop)
    if not n:
        raise ValueError("empty population")
    if n == 1:
        return np.zeros(k, dtype=int)
    ranks, crowd = rank_and_crowd(pop, epsilon)
    highs = [n - 1, n, 2]
    out = np.empty(k, dtype=int)
    start = 0
    while start < k:
        state = rng.bit_generator.state
        # Row t equals rng.choice(n, 2, replace=False) while that is Floyd's algorithm plus a swap.
        a, b, c = rng.integers(0, highs, size=(k - start, 3)).T
        b[b == a] = n - 1
        i, j = np.where(c == 0, b, a), np.where(c == 0, a, b)
        ri, rj, ci, cj = ranks[i], ranks[j], crowd[i], crowd[j]
        win = np.where(ri != rj, np.where(ri < rj, i, j), np.where(ci > cj, i, j))
        ties = np.flatnonzero((ri == rj) & (ci == cj))
        if not ties.size:
            out[start:] = win
            break
        # A coin flip takes a 64-bit draw: rewind, redraw up to the tie, flip, go on.
        s = ties[0]
        out[start:start + s] = win[:s]
        rng.bit_generator.state = state
        rng.integers(0, highs, size=(s + 1, 3))
        out[start + s] = i[s] if rng.random() < 0.5 else j[s]
        start += s + 1
    return out


def random_pool(pop: Population, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of k uniform draws with replacement."""
    if not len(pop):
        raise ValueError("empty population")
    return rng.integers(0, len(pop), size=k)


def ga_draws(n: int, d: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """The random numbers SBX and polynomial mutation take for n parent rows
    of d coordinates, in stream order; an odd n is padded by one row.

    Per pair and coordinate: the spread factor's uniform, its sign and the
    swap draw that pins it at 1. Then one per-pair draw that, with crossover
    probability 1, masks no pair but keeps later draws in place. Then, per
    child and coordinate, the mutation-site draw and mutation's uniform.
    """
    pairs = (n + 1) // 2
    u = rng.random((pairs, d))
    sign = rng.integers(0, 2, size=(pairs, d))
    swap = rng.random((pairs, d))
    rng.random(pairs)
    return u, sign, swap, rng.random((2 * pairs, d)), rng.random((2 * pairs, d))


def ga_offspring(blocks: list[np.ndarray], draws: list[tuple[np.ndarray, ...]],
                 eta_m: float, bounds: Bounds) -> np.ndarray:
    """SBX plus polynomial mutation (index ``eta_m``) of each parent block
    under its ``ga_draws``, in one pass: one child per parent row, the
    blocks' children stacked in block order.

    Each odd block is padded by repeating its last row, so a pair never
    straddles two blocks, and the pad row's child is dropped. Children are
    clamped into the per-coordinate interval spanned by their parents; a
    mutated coordinate (probability 1/D) is then clamped to the bounds, and
    every other one is the crossover child's own.
    """
    rows, pads = [], []
    for B in blocks:
        rows.append(B)
        if len(B) % 2:
            pads.append(sum(map(len, rows)))
            rows.append(B[-1:])
    X = np.concatenate(rows)
    u, sign, swap, site, mu = (np.concatenate(parts) for parts in zip(*draws))

    e = 1.0 / (ETA_CROSSOVER + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** e, (2.0 - 2.0 * u) ** -e)
    beta *= 1.0 - 2.0 * sign
    beta[swap < 0.5] = 1.0
    P1, P2 = X[0::2], X[1::2]
    mean = (P1 + P2) / 2.0
    spread = beta * ((P1 - P2) / 2.0)
    low = np.minimum(P1, P2)
    high = np.maximum(P1, P2)
    children = np.empty(X.shape)
    np.clip(mean + spread, low, high, out=children[0::2])
    np.clip(mean - spread, low, high, out=children[1::2])

    # Mutation touches its drawn sites only. Adding 0.0 * span and clipping
    # elsewhere would be the identity: rows lie in bounds and hold no -0.0.
    flat = np.flatnonzero(site < 1.0 / bounds.dimension)
    x, m = children.reshape(-1)[flat], mu.reshape(-1)[flat]
    col = flat % bounds.dimension
    lb, ub = bounds.lower[col], bounds.upper[col]
    span = ub - lb
    e = eta_m + 1.0
    lower = (2.0 * m + (1.0 - 2.0 * m) * (1.0 - (x - lb) / span) ** e) ** (1.0 / e) - 1.0
    upper = 1.0 - (2.0 * (1.0 - m) + 2.0 * (m - 0.5) * (1.0 - (ub - x) / span) ** e) ** (1.0 / e)
    children.reshape(-1)[flat] = np.clip(x + np.where(m <= 0.5, lower, upper) * span, lb, ub)
    return np.delete(children, pads, axis=0) if pads else children


def _distinct_triples(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) index array; each row holds three distinct indices, none equal
    to the row number. Requires n >= 4. A draw adds at most one pick, so
    drawing as many as are missing never overruns the one-at-a-time stream."""
    if n < 4:
        raise ValueError(f"population of size {n} is too small; need at least 4")
    picks = []
    append = picks.append
    i, a, b = 0, -1, -1  # the row being filled and its first two picks (-1: none yet)
    while i < n:
        for r in rng.integers(0, n, size=3 * n - len(picks)).tolist():
            if r != i and r != a and r != b:
                append(r)
                if a < 0:
                    a = r
                elif b < 0:
                    b = r
                else:
                    i, a, b = i + 1, -1, -1
    return np.array(picks).reshape(n, 3)


def de_rand_1(X: np.ndarray, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """rand/1 mutation with binomial crossover against each target row."""
    n, d = X.shape
    idx = _distinct_triples(n, rng)
    F = rng.choice(F_CHOICES, size=n)
    CR = rng.choice(CR_CHOICES_DE, size=n)
    V = X[idx[:, 0]] + F[:, None] * (X[idx[:, 1]] - X[idx[:, 2]])
    forced = rng.integers(0, d, size=n)
    take = rng.random((n, d)) < CR[:, None]
    take[np.arange(n), forced] = True
    U = np.where(take, V, X)
    return np.clip(U, bounds.lower, bounds.upper)


def de_current_to_rand(X: np.ndarray, bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Base-plus-random-rescale mutation; no crossover.

    The base member is additionally scaled by a fresh uniform(0, 1) vector
    per offspring before the difference term is added.
    """
    n, d = X.shape
    idx = _distinct_triples(n, rng)
    F = rng.choice(F_CHOICES, size=n)
    R = rng.random((n, d))
    base = X[idx[:, 0]]
    V = base + R * base + F[:, None] * (X[idx[:, 1]] - X[idx[:, 2]])
    return np.clip(V, bounds.lower, bounds.upper)


def de_current_to_pbest(A: np.ndarray, pop_main: Population, pbest_fraction: float,
                        bounds: Bounds, rng: np.random.Generator) -> np.ndarray:
    """Pull auxiliary decision rows toward elite members of the main
    population.

    The elite set is the best ceil(pbest_fraction * |main|) members of the
    main population under the strict feasible-first ordering; each offspring
    draws its attractor uniformly from that set.
    """
    if not len(pop_main):
        raise ValueError("empty main population")
    n, d = A.shape
    top = max(1, math.ceil(pbest_fraction * len(pop_main)))
    elite = pop_main.X[fitness_order(pop_main, epsilon=0.0)[:top]]

    idx = _distinct_triples(n, rng)
    F = rng.choice(F_CHOICES, size=n)
    attractor = elite[rng.integers(0, len(elite), size=n)]
    base = A[idx[:, 0]]
    V = base + F[:, None] * (attractor - base) + F[:, None] * (A[idx[:, 1]] - A[idx[:, 2]])
    return np.clip(V, bounds.lower, bounds.upper)


def de_transfer(X_main: np.ndarray, X_aux: np.ndarray, count: int,
                rng: np.random.Generator) -> np.ndarray:
    """Coordinate exchange between the decision rows of the two populations.

    For each offspring one index addresses both matrices; coordinates come
    from the main row when a per-coordinate draw passes the crossover rate
    (or at one forced coordinate), from the auxiliary row otherwise. No
    clamping is needed.
    """
    if not len(X_main) or not len(X_aux):
        raise ValueError("both populations must be nonempty")
    limit = min(len(X_main), len(X_aux))
    d = X_main.shape[1]

    r = rng.integers(0, limit, size=count)
    CR = rng.choice(CR_CHOICES_TRANSFER, size=count)
    forced = rng.integers(0, d, size=count)
    take_main = rng.random((count, d)) < CR[:, None]
    take_main[np.arange(count), forced] = True
    return np.where(take_main, X_main[r], X_aux[r])

"""Independent reference implementations used to cross-check the package.

Most of it is written as plain loops over plain floats, on purpose: these
are the oracles the fast vectorized implementations are compared against,
so they must not share code with them. The rest are simpler whole-array
forms the package once used, kept as bit-level references. The tie-break
contract (rank ascending, crowding descending, original position last) is
the same documented contract the package implements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.stats import norm

from dpcmo.core import DEFAULT_EQ_TOLERANCE, Bounds


# ---------------------------------------------------------------------------
# Scalar evaluation: one decision vector at a time


class BudgetExhausted(RuntimeError):
    """Raised when an evaluation is requested past the configured budget."""


def _frozen(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


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


def constraint_violation(ineq, eq, delta: float = DEFAULT_EQ_TOLERANCE) -> float:
    """Scalar infeasibility of one solution.

    Sums max(0, g) over inequality values g and max(0, |h| - delta) over
    equality values h. Zero exactly when all g <= 0 and all |h| <= delta.
    Raises ValueError on non-finite input, naming the offending index.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    g = [float(v) for v in ineq]
    h = [float(v) for v in eq]
    for name, values in (("ineq", g), ("eq", h)):
        for i, v in enumerate(values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite {name} value at index {i}")
    return sum((max(0.0, v) for v in g), 0.0) + sum((max(0.0, abs(v) - delta) for v in h), 0.0)


def evaluate_decisions(problem, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(objectives, inequality values, equality values) of one vector."""
    F, G, H = problem.evaluate_matrix(np.asarray(x, dtype=float)[None, :])
    return F[0], G[0] if G.size else np.empty(0), H[0] if H.size else np.empty(0)


def evaluate(problem, v, counter, delta: float = DEFAULT_EQ_TOLERANCE) -> Solution:
    """Evaluate one decision vector, consuming exactly one budget unit.

    Raises BudgetExhausted (without evaluating) when the budget is spent.
    """
    if counter.remaining <= 0:
        raise BudgetExhausted(f"budget {counter.budget} exhausted")
    objectives, ineq, eq = evaluate_decisions(problem, v)
    for i, f in enumerate(objectives):
        if not math.isfinite(f):
            raise ValueError(f"non-finite objective at index {i}")
    cv = constraint_violation(ineq, eq, delta)
    counter.count += 1
    return Solution(v, objectives, ineq, eq, cv)


def pareto_dominates(a, b) -> bool:
    """True iff objective vector a is no worse than b everywhere and strictly
    better somewhere (minimization)."""
    if len(a) != len(b):
        raise ValueError(f"objective length mismatch: {len(a)} vs {len(b)}")
    return _dominates(a, b)


def clamp_to_bounds(v, bounds) -> np.ndarray:
    """Componentwise projection onto the box; idempotent."""
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != bounds.dimension:
        raise ValueError(f"vector length {v.shape[-1]} differs from bound dimension {bounds.dimension}")
    return np.clip(v, bounds.lower, bounds.upper)


def adjusted_cv(cv: float, epsilon: float) -> float:
    """Violation remaining after the epsilon allowance."""
    if math.isinf(epsilon):
        return 0.0
    return max(0.0, cv - epsilon)


def epsilon_cdp_compare(a: Solution, b: Solution, epsilon: float) -> int:
    """-1 if a is better, 1 if b is better, 0 if incomparable.

    Lower adjusted violation wins outright; at equal adjusted violation the
    comparison falls back to Pareto dominance on objectives.
    """
    ca = adjusted_cv(a.cv, epsilon)
    cb = adjusted_cv(b.cv, epsilon)
    if ca < cb:
        return -1
    if cb < ca:
        return 1
    if _dominates(a.objectives, b.objectives):
        return -1
    if _dominates(b.objectives, a.objectives):
        return 1
    return 0


# ---------------------------------------------------------------------------
# Brute-force unconstrained rank-and-crowding selection


def _dominates(fa, fb) -> bool:
    not_worse = all(a <= b for a, b in zip(fa, fb))
    better = any(a < b for a, b in zip(fa, fb))
    return not_worse and better


def _naive_fronts(objs: list[tuple]) -> list[list[int]]:
    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            if not any(_dominates(objs[j], objs[i]) for j in remaining if j != i):
                front.append(i)
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def _naive_crowding(front: list[int], objs: list[tuple]) -> dict[int, float]:
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: math.inf for i in front}
    m = len(objs[0])
    for j in range(m):
        ordered = sorted(front, key=lambda i: objs[i][j])
        dist[ordered[0]] = math.inf
        dist[ordered[-1]] = math.inf
        span = objs[ordered[-1]][j] - objs[ordered[0]][j]
        if span <= 0:
            continue
        for pos in range(1, len(ordered) - 1):
            if dist[ordered[pos]] == math.inf:
                continue
            gap = objs[ordered[pos + 1]][j] - objs[ordered[pos - 1]][j]
            dist[ordered[pos]] += gap / span
    return dist


def nsga2_select_bruteforce(objs: list[tuple], n: int) -> list[int]:
    """Indices kept by unconstrained rank-and-crowding selection."""
    if len(objs) <= n:
        return list(range(len(objs)))
    chosen: list[int] = []
    for front in _naive_fronts(objs):
        if len(chosen) + len(front) <= n:
            chosen.extend(front)
        else:
            crowd = _naive_crowding(front, objs)
            front_sorted = sorted(front, key=lambda i: (-crowd[i], i))
            chosen.extend(front_sorted[: n - len(chosen)])
            break
    return sorted(chosen)


# ---------------------------------------------------------------------------
# Literal transcription of the angular subregion selection


def _two_objective_directions(n_s: int) -> list[tuple[float, float]]:
    # Lattice of n_s directions on the 2-simplex, unit 2-norm.
    h = n_s - 1
    out = []
    for first in range(h, -1, -1):
        x, y = first / h, (h - first) / h
        norm = math.sqrt(x * x + y * y)
        out.append((x / norm, y / norm))
    return out


def _angle(vec, w) -> float:
    norm_v = math.sqrt(sum(c * c for c in vec))
    norm_v = max(norm_v, 1e-12)
    cos = sum(a * b for a, b in zip(vec, w)) / norm_v
    cos = min(1.0, max(-1.0, cos))
    return math.acos(cos)


def _epsilon_fronts(objs, cvs, epsilon) -> list[list[int]]:
    def adj(cv):
        if math.isinf(epsilon):
            return 0.0
        return max(0.0, cv - epsilon)

    def better(i, j):
        ci, cj = adj(cvs[i]), adj(cvs[j])
        if ci < cj:
            return True
        if ci > cj:
            return False
        return _dominates(objs[i], objs[j])

    remaining = list(range(len(objs)))
    fronts = []
    while remaining:
        front = [i for i in remaining
                 if not any(better(j, i) for j in remaining if j != i)]
        fronts.append(front)
        remaining = [i for i in remaining if i not in front]
    return fronts


def angle_select_literal(aux_objs, aux_cvs, off_objs, off_cvs, n_s: int,
                         epsilon: float) -> list[int]:
    """Step-by-step transcription of the subregion selection pseudocode.

    Returns the indices (into aux + off concatenated, duplicates allowed)
    of the selected members, in final ranked order. Two objectives only.
    """
    objs = [tuple(o) for o in list(aux_objs) + list(off_objs)]
    cvs = list(aux_cvs) + list(off_cvs)
    n_aux = len(list(aux_objs))

    # Nondominated subset S of the union, on objectives alone.
    S = [i for i in range(len(objs))
         if not any(_dominates(objs[j], objs[i]) for j in range(len(objs)) if j != i)]

    z_min = [min(objs[i][j] for i in S) for j in range(2)]
    z_max = [max(objs[i][j] for i in S) for j in range(2)]
    span = [max(z_max[j] - z_min[j], 1e-12) for j in range(2)]
    normed = {i: tuple((objs[i][j] - z_min[j]) / span[j] for j in range(2)) for i in S}

    W = _two_objective_directions(n_s)
    angles = {(i, k): _angle(normed[i], W[k]) for i in S for k in range(n_s)}
    h = min(angles.values())

    picks = []
    for k in range(n_s):
        a1 = [i for i in S if angles[(i, k)] < h]
        if not a1:
            best = None
            for i in S:
                if best is None or angles[(i, k)] < angles[(best, k)]:
                    best = i
            picks.append(best)
            continue
        fa = [i for i in a1 if cvs[i] == 0.0]
        if fa:
            best = fa[0]
            for i in fa[1:]:
                if cvs[i] + angles[(i, k)] < cvs[best] + angles[(best, k)]:
                    best = i
        else:
            best = a1[0]
            for i in a1[1:]:
                if angles[(i, k)] < angles[(best, k)]:
                    best = i
        picks.append(best)

    selected = list(picks)
    chosen = set(picks)
    remainder = [i for i in range(len(objs)) if i not in chosen]
    pool_idx = list(selected)
    if n_aux < 25:
        pool_idx.extend(remainder[: 25 - n_aux])

    pool_objs = [objs[i] for i in pool_idx]
    pool_cvs = [cvs[i] for i in pool_idx]
    fronts = _epsilon_fronts(pool_objs, pool_cvs, epsilon)
    ranks = {}
    crowd = {}
    for r, front in enumerate(fronts):
        dist = _naive_crowding(front, pool_objs)
        for i in front:
            ranks[i] = r
            crowd[i] = dist[i]
    order = sorted(range(len(pool_idx)), key=lambda i: (ranks[i], -crowd[i], i))
    return [pool_idx[i] for i in order[:n_s]]


# ---------------------------------------------------------------------------
# Hypervolume: a Monte-Carlo estimate and the loop sweep


def mc_hypervolume(points: np.ndarray, ref: np.ndarray, n_samples: int,
                   seed: int) -> tuple[float, float]:
    """Hypervolume estimate and its standard error by uniform sampling of
    the box between the front's componentwise minimum and the reference."""
    points = np.asarray(points, dtype=float)
    ref = np.asarray(ref, dtype=float)
    lo = points.min(axis=0)
    volume = float(np.prod(ref - lo))
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 100_000
    done = 0
    while done < n_samples:
        size = min(chunk, n_samples - done)
        samples = rng.uniform(lo, ref, size=(size, len(ref)))
        dominated = np.zeros(size, dtype=bool)
        for p in points:
            dominated |= (samples >= p).all(axis=1)
        hits += int(dominated.sum())
        done += size
    p_hat = hits / n_samples
    estimate = p_hat * volume
    stderr = math.sqrt(p_hat * (1 - p_hat) / n_samples) * volume
    return estimate, stderr


def hv_2d_loop(pts, ref) -> float:
    """Two-objective hypervolume by a sweep in ascending (f1, f2) order: each
    point below the running f2 minimum adds one rectangle, left to right."""
    pts = np.asarray(pts, dtype=float)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]
    total = 0.0
    best_f2 = ref[1]
    for f1, f2 in pts:
        if f2 < best_f2:
            total += (ref[0] - f1) * (best_f2 - f2)
            best_f2 = f2
    return total


def hypervolume_loop(front, ref) -> float:
    """Exact 2- or 3-objective hypervolume: points beyond the reference are
    dropped, and three objectives are cut into slabs at each distinct f3,
    each slab's area coming from ``hv_2d_loop``."""
    ref = np.asarray(ref, dtype=float)
    pts = np.asarray(front, dtype=float)
    pts = pts[(pts <= ref).all(axis=1)]
    if len(pts) == 0:
        return 0.0
    if len(ref) == 2:
        return float(hv_2d_loop(pts, ref))
    levels = np.unique(pts[:, 2])
    total = 0.0
    for z, dz in zip(levels, np.diff(np.append(levels, ref[2]))):
        if dz > 0:
            total += hv_2d_loop(pts[pts[:, 2] <= z][:, :2], ref[:2]) * dz
    return float(total)


# ---------------------------------------------------------------------------
# Dense nondominated sorting: front peeling over the full pairwise dominance
# matrix, for any number of objectives. The package ranks two objectives by
# one sort and prefix-minimum peeling; a problem with more objectives would
# need this back.


def dense_ranks(F, cvs, epsilon: float) -> np.ndarray:
    """Front index of each row under the epsilon-relaxed order."""
    F = np.asarray(F, dtype=float)
    n = len(F)
    cv_adj = np.zeros(n) if math.isinf(epsilon) else np.maximum(0.0, np.asarray(cvs) - epsilon)
    # dom[i, j]: row i dominates row j
    less_cv = cv_adj[:, None] < cv_adj[None, :]
    eq_cv = cv_adj[:, None] == cv_adj[None, :]
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    dom = less_cv | (eq_cv & le & lt)
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


# ---------------------------------------------------------------------------
# Loop forms of the vectorized selection and IGD steps. They keep the
# arithmetic order of the vectorized code, so results must match with ==.


def epsilon_ranks(objs, cvs, epsilon) -> list[int]:
    """Front index of each solution under the epsilon-relaxed ordering."""
    ranks = [0] * len(objs)
    for r, front in enumerate(_epsilon_fronts([tuple(o) for o in objs], list(cvs), epsilon)):
        for i in front:
            ranks[i] = r
    return ranks


def crowding_per_front(F: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """Cuboid crowding distance, one front and one objective at a time."""
    F = np.asarray(F, dtype=float)
    n, m = F.shape
    dist = np.zeros(n)
    for r in np.unique(ranks):
        idx = np.flatnonzero(ranks == r)
        if idx.size <= 2:
            dist[idx] = np.inf
            continue
        for j in range(m):
            order = idx[np.argsort(F[idx, j], kind="stable")]
            dist[order[0]] = np.inf
            dist[order[-1]] = np.inf
            span = F[order[-1], j] - F[order[0], j]
            if span <= 0:
                continue
            dist[order[1:-1]] += (F[order[2:], j] - F[order[:-2], j]) / span
    return dist


def truncation_scan(ranks, crowd, n: int) -> list[int]:
    """Indices kept by rank-and-crowding truncation, in admission order:
    whole fronts in rank order, the overflowing front by (-crowd, index)."""
    chosen: list[int] = []
    for r in range(int(max(ranks)) + 1):
        front = [i for i in range(len(ranks)) if ranks[i] == r]
        if len(chosen) + len(front) <= n:
            chosen.extend(front)
            if len(chosen) == n:
                break
        else:
            front.sort(key=lambda i: (-crowd[i], i))
            chosen.extend(front[: n - len(chosen)])
            break
    return chosen


def igd_dense(front, ref) -> float:
    """IGD from the full reference-by-front distance matrix."""
    ref = np.atleast_2d(np.asarray(ref, dtype=float))
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    d2 = ((ref[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.min(axis=1)).mean())


# ---------------------------------------------------------------------------
# Mating draws one scalar generator call at a time. The vectorized pools and
# triples must consume the generator's stream exactly as these loops do.


def tournament_pool_reference(ranks, crowd, k: int, rng: np.random.Generator) -> np.ndarray:
    """Row indices of k binary-tournament winners under the given ranks and
    crowding: lower rank, then higher crowding, then a coin flip."""
    n = len(ranks)
    if n == 1:
        return np.zeros(k, dtype=int)
    ranks, crowd = list(ranks), list(crowd)
    out = np.empty(k, dtype=int)
    for t in range(k):
        i, j = rng.choice(n, size=2, replace=False).tolist()
        if ranks[i] != ranks[j]:
            out[t] = i if ranks[i] < ranks[j] else j
        elif crowd[i] != crowd[j]:
            out[t] = i if crowd[i] > crowd[j] else j
        else:
            out[t] = i if rng.random() < 0.5 else j
    return out


def distinct_triples_reference(n: int, rng: np.random.Generator) -> np.ndarray:
    """(n, 3) rows of three distinct indices, none equal to the row number,
    by rejection of one draw at a time."""
    out = np.empty((n, 3), dtype=int)
    for i in range(n):
        forbidden = {i}
        picks = []
        while len(picks) < 3:
            r = int(rng.integers(0, n))
            if r not in forbidden:
                picks.append(r)
                forbidden.add(r)
        out[i] = picks
    return out


# ---------------------------------------------------------------------------
# Whole-array SBX and polynomial mutation, one call per operator and
# population. The package takes the same draws with ``ga_draws`` and breeds
# every block of a generation in one ``ga_offspring`` pass; its children and
# generator state must match these bit for bit.


def sbx_crossover(X: np.ndarray, eta: float, rng: np.random.Generator) -> np.ndarray:
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
    beta *= 1.0 - 2.0 * rng.integers(0, 2, size=(pairs, d))
    beta[rng.random((pairs, d)) < 0.5] = 1.0
    # The per-pair crossover draw: with crossover probability 1 it masks no
    # pair, but it stays so that later draws keep their place in the stream.
    rng.random(pairs)

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


def polynomial_mutation(X: np.ndarray, bounds: Bounds, eta: float,
                        rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation, probability 1/D per coordinate."""
    X = X.copy()
    lb, ub = bounds.lower, bounds.upper
    span = ub - lb
    site = rng.random(X.shape) < 1.0 / bounds.dimension
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


# ---------------------------------------------------------------------------
# Rank tests: midranks, exhaustive null enumeration and the normal
# approximation with tie and continuity corrections, written out by hand.


def midranks(values) -> np.ndarray:
    """Ranks starting at 1; tied values share the mean of their positions."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values))
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def _two_sided_from_tails(p_low: float, p_high: float) -> float:
    return min(1.0, 2.0 * min(p_low, p_high))


def _normal_two_sided(diff: float, var: float) -> float:
    if var <= 0:
        return 1.0
    z = (diff - math.copysign(0.5, diff)) / math.sqrt(var) if abs(diff) > 0.5 else 0.0
    return min(1.0, 2.0 * float(norm.sf(abs(z))))


def exact_ranksum_p(ranks: np.ndarray, n_a: int, observed: float) -> float:
    """Two-sided p of the rank sum of the first n_a rows over every split."""
    n = len(ranks)
    total = math.comb(n, n_a)
    count_le = 0
    count_ge = 0
    for combo in combinations(range(n), n_a):
        w = ranks[list(combo)].sum()
        if w <= observed + 1e-12:
            count_le += 1
        if w >= observed - 1e-12:
            count_ge += 1
    return _two_sided_from_tails(count_le / total, count_ge / total)


def approx_ranksum_p(ranks: np.ndarray, n_a: int, observed: float) -> float:
    n = len(ranks)
    n_b = n - n_a
    mu = n_a * (n + 1) / 2.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    tie_term = float(((tie_counts ** 3 - tie_counts)).sum()) / (n * (n - 1))
    var = n_a * n_b / 12.0 * ((n + 1) - tie_term)
    return _normal_two_sided(observed - mu, var)


def exact_signedrank_p(ranks: np.ndarray, observed_rplus: float) -> float:
    """Two-sided p of R+ over every assignment of signs to the ranks."""
    n = len(ranks)
    count_le = 0
    count_ge = 0
    for mask in range(1 << n):
        rplus = sum(ranks[i] for i in range(n) if mask >> i & 1)
        if rplus <= observed_rplus + 1e-12:
            count_le += 1
        if rplus >= observed_rplus - 1e-12:
            count_ge += 1
    total = float(1 << n)
    return _two_sided_from_tails(count_le / total, count_ge / total)


def approx_signedrank_p(ranks: np.ndarray, observed_rplus: float) -> float:
    n = len(ranks)
    mu = n * (n + 1) / 4.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float((tie_counts ** 3 - tie_counts).sum()) / 48.0
    return _normal_two_sided(observed_rplus - mu, var)


def ranksum_reference(a, b, alpha: float = 0.05, larger_is_better: bool = False
                      ) -> tuple[float, float, str]:
    """(W, p, verdict) of the two-sided rank-sum test of a against b; exact
    for at most 16 observations in all."""
    a = np.asarray(a, dtype=float)
    ranks = midranks(np.concatenate([a, np.asarray(b, dtype=float)]))
    n_a = len(a)
    w = float(ranks[:n_a].sum())
    p = (exact_ranksum_p if len(ranks) <= 16 else approx_ranksum_p)(ranks, n_a, w)
    if p >= alpha:
        return w, p, "equal"
    a_is_high = w / n_a > float(ranks[n_a:].sum()) / (len(ranks) - n_a)
    return w, p, "better" if a_is_high == larger_is_better else "worse"


def signed_rank_reference(deltas, alpha: float = 0.05) -> tuple[float, float, str, dict]:
    """(R+, p, verdict, extras) of the two-sided signed-rank test of nonzero
    deltas; exact for at most 12 of them."""
    deltas = np.asarray(deltas, dtype=float)
    nonzero = deltas[deltas != 0.0]
    ranks = midranks(np.abs(nonzero))
    r_plus = float(ranks[nonzero > 0].sum())
    r_minus = float(ranks[nonzero < 0].sum())
    p = (exact_signedrank_p if len(ranks) <= 12 else approx_signedrank_p)(ranks, r_plus)
    verdict = "equal" if p >= alpha else ("better" if r_plus > r_minus else "worse")
    return r_plus, p, verdict, {"r_plus": r_plus, "r_minus": r_minus, "n": len(ranks)}

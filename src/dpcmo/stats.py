"""Two-sample rank-sum test and multi-problem signed-rank test.

Both tests are two-sided and rank with midranks for ties. Small samples get
the exact null distribution of the midrank statistic, counted here: doubled
midranks are integers, so one subset-sum table counts every split of the
ranks (rank-sum) or every sign assignment (signed-rank) by its doubled rank
sum. Larger samples get the normal approximation with tie and continuity
corrections, computed here from the same doubled midranks (the formulas of
``scipy.stats.mannwhitneyu`` and ``wilcoxon``, which are not imported).
NaN samples are rejected; infinite values rank like any other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EXACT_RANKSUM_LIMIT = 16  # combined sample size for exact enumeration
EXACT_SIGNEDRANK_LIMIT = 12  # nonzero-delta count for exact enumeration


@dataclass(frozen=True)
class TestReport:
    statistic: float
    p_value: float
    verdict: str  # "better" | "worse" | "equal"
    extras: dict | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p-value {self.p_value} outside [0, 1]")


def _doubled_midranks(values: np.ndarray) -> np.ndarray:
    """Twice the 1-based midranks of ``values``, as integers.

    Tied values share the mean of their positions, so a midrank is a whole
    or half integer and its double is exact.
    """
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)]
    doubled = np.empty(len(values), dtype=np.int64)
    doubled[order] = np.repeat(starts + ends + 1, ends - starts)
    return doubled


def _subset_sum_counts(doubled: np.ndarray) -> np.ndarray:
    """counts[k, s]: how many k-element subsets of ``doubled`` sum to s."""
    total = int(doubled.sum())
    counts = np.zeros((len(doubled) + 1, total + 1), dtype=np.int64)
    counts[0, 0] = 1
    for d in doubled:
        counts[1:, d:] = counts[1:, d:] + counts[:-1, :total + 1 - d]
    return counts


def _two_sided_p(counts: np.ndarray, observed: int) -> float:
    """Twice the smaller tail count at ``observed`` over all arrangements,
    capped at 1; the rule ``scipy.stats.permutation_test`` applies when it
    enumerates, so the p-values agree bit for bit."""
    tail = min(int(counts[:observed + 1].sum()), int(counts[observed:].sum()))
    return min(1.0, 2 * tail / int(counts.sum()))


def _tie_sum(doubled: np.ndarray) -> float:
    """Sum of t^3 - t over the groups of t tied values; tied values share a
    doubled midrank, distinct values never do."""
    _, t = np.unique(doubled, return_counts=True)
    return float((t ** 3 - t).sum())


def _normal_two_sided(diff: float, var: float) -> float:
    """Two-sided normal tail of a statistic ``diff`` away from its mean, with
    a continuity correction of 1/2; 1 when |diff| <= 1/2 or var <= 0."""
    if abs(diff) <= 0.5 or var <= 0:
        return 1.0
    z = (abs(diff) - 0.5) / math.sqrt(var)
    return min(1.0, math.erfc(z / math.sqrt(2.0)))


def ranksum_test(a, b, alpha: float = 0.05, larger_is_better: bool = False) -> TestReport:
    """Two-sided rank-sum comparison of two independent samples.

    The verdict says how sample ``a`` compares to sample ``b`` at level
    alpha, oriented by ``larger_is_better``. The p-value is exact when the
    combined size is at most 16.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("samples must not contain NaN")
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    doubled = _doubled_midranks(np.concatenate([a, b]))
    ranks = doubled / 2.0
    ranks_a, ranks_b = ranks[: len(a)], ranks[len(a):]
    w = float(ranks_a.sum())

    if len(ranks) <= EXACT_RANKSUM_LIMIT:
        p = _two_sided_p(_subset_sum_counts(doubled)[len(a)], int(2 * w))
    else:
        n, n_a, n_b = len(ranks), len(a), len(b)
        var = n_a * n_b / 12.0 * (n + 1 - _tie_sum(doubled) / (n * (n - 1)))
        p = _normal_two_sided(w - n_a * (n + 1) / 2.0, var)

    if p >= alpha:
        verdict = "equal"
    else:
        a_is_high = w / len(a) > float(ranks_b.sum()) / len(b)
        verdict = "better" if a_is_high == larger_is_better else "worse"
    return TestReport(statistic=w, p_value=p, verdict=verdict)


def signed_rank_multiproblem(deltas, alpha: float = 0.05) -> TestReport:
    """Paired signed-rank test over per-problem differences.

    Zero differences are dropped before ranking. The report's extras carry
    the positive and negative rank sums (R+ and R-); the verdict orients on
    the sign convention that positive deltas favor the first method.
    The p-value is exact for at most 12 nonzero differences.
    """
    deltas = np.asarray(deltas, dtype=float)
    if np.isnan(deltas).any():
        raise ValueError("a per-problem delta is NaN")
    nonzero = deltas[deltas != 0.0]
    if nonzero.size == 0:
        return TestReport(statistic=0.0, p_value=1.0, verdict="equal",
                          extras={"r_plus": 0.0, "r_minus": 0.0, "n": 0})
    if nonzero.size < 5:
        raise ValueError("needs >= 5 nonzero per-problem deltas")
    doubled = _doubled_midranks(np.abs(nonzero))
    ranks = doubled / 2.0
    r_plus = float(ranks[nonzero > 0].sum())
    r_minus = float(ranks[nonzero < 0].sum())

    if nonzero.size <= EXACT_SIGNEDRANK_LIMIT:
        # Every sign assignment, whatever its number of positive ranks.
        counts = _subset_sum_counts(doubled).sum(axis=0)
        p = _two_sided_p(counts, int(2 * r_plus))
    else:
        n = nonzero.size
        var = n * (n + 1) * (2 * n + 1) / 24.0 - _tie_sum(doubled) / 48.0
        p = _normal_two_sided(r_plus - n * (n + 1) / 4.0, var)

    if p >= alpha:
        verdict = "equal"
    else:
        verdict = "better" if r_plus > r_minus else "worse"
    return TestReport(statistic=r_plus, p_value=p, verdict=verdict,
                      extras={"r_plus": r_plus, "r_minus": r_minus, "n": int(nonzero.size)})

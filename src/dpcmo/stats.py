"""Two-sample rank-sum test and multi-problem signed-rank test.

Both tests are two-sided and rank with midranks for ties. Small samples get
the exact null distribution of the midrank statistic, enumerated by
``scipy.stats.permutation_test``; larger ones get scipy's normal
approximation with tie and continuity corrections. Only the size limits,
the error cases and the verdicts are decided here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import mannwhitneyu, permutation_test, rankdata, wilcoxon

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


def _first_rank_sum(x, _y, axis):
    return x.sum(axis=axis)


def _positive_rank_sum(x, axis):
    return np.maximum(x, 0).sum(axis=axis)


def _exact_p(data, statistic, permutation_type: str) -> float:
    return float(permutation_test(data, statistic, permutation_type=permutation_type,
                                  vectorized=True, n_resamples=np.inf).pvalue)


def ranksum_test(a, b, alpha: float = 0.05, larger_is_better: bool = False) -> TestReport:
    """Two-sided rank-sum comparison of two independent samples.

    The verdict says how sample ``a`` compares to sample ``b`` at level
    alpha, oriented by ``larger_is_better``. Exact enumeration is used when
    the combined size is at most 16.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    ranks = rankdata(np.concatenate([a, b]))
    ranks_a, ranks_b = ranks[: len(a)], ranks[len(a):]
    w = float(ranks_a.sum())

    if len(ranks) <= EXACT_RANKSUM_LIMIT:
        p = _exact_p((ranks_a, ranks_b), _first_rank_sum, "independent")
    else:
        p = float(mannwhitneyu(a, b, method="asymptotic").pvalue)

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
    Exact enumeration is used for at most 12 nonzero differences.
    """
    deltas = np.asarray(deltas, dtype=float)
    nonzero = deltas[deltas != 0.0]
    if nonzero.size == 0:
        return TestReport(statistic=0.0, p_value=1.0, verdict="equal",
                          extras={"r_plus": 0.0, "r_minus": 0.0, "n": 0})
    if nonzero.size < 5:
        raise ValueError("need at least 5 nonzero differences")
    ranks = rankdata(np.abs(nonzero))
    r_plus = float(ranks[nonzero > 0].sum())
    r_minus = float(ranks[nonzero < 0].sum())

    if nonzero.size <= EXACT_SIGNEDRANK_LIMIT:
        p = _exact_p((np.sign(nonzero) * ranks,), _positive_rank_sum, "samples")
    else:
        p = float(wilcoxon(nonzero, correction=True, method="approx").pvalue)

    if p >= alpha:
        verdict = "equal"
    else:
        verdict = "better" if r_plus > r_minus else "worse"
    return TestReport(statistic=r_plus, p_value=p, verdict=verdict,
                      extras={"r_plus": r_plus, "r_minus": r_minus, "n": int(nonzero.size)})

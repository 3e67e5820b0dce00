"""Dual-population two-stage evolutionary engine for constrained
multi-objective optimization, with an analytic benchmark suite, quality
indicators and a reproducible experiment harness."""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    Bounds,
    EvalCounter,
    Population,
    evaluate_batch,
)
from .engine import RunConfig, RunResult, apply_ablation, run  # noqa: F401
from .metrics import MetricConfig, hypervolume, igd  # noqa: F401
from .problems import PROBLEM_IDS, Problem, make_problem, reference_front  # noqa: F401
from .stats import ranksum_test, signed_rank_multiproblem  # noqa: F401

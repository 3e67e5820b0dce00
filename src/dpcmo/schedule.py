"""Feasibility-relaxation schedules, offspring-volume allocation and
auxiliary-population sizing.

The relaxation value epsilon starts at EPS0 when the run enters its second
stage and decays to 1e-8 at the evaluation budget through three phases:
a logarithmic shoulder, a damped oscillation around a falling baseline
(period and shape depending on the front-relationship type), and a final
exponential tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

DRA_FLOOR = 0.25 + 1e-6
EPS0 = 0.2  # epsilon at the switch
CURVATURE = 15.0  # of the phase-1 logarithmic shoulder
EPS_TERMINAL = 1e-8


@dataclass(frozen=True)
class EpsilonSchedule:
    switch_fe: int
    max_fe: int

    def __post_init__(self):
        if self.max_fe <= self.switch_fe:
            raise ValueError("max_fe must exceed switch_fe")

    @property
    def t1(self) -> float:
        return self.switch_fe + 0.2 * (self.max_fe - self.switch_fe)

    @property
    def t2(self) -> float:
        return self.t1 + 0.3 * (self.max_fe - self.switch_fe)

    @property
    def k(self) -> float:
        return math.log(0.005 * EPS0 / EPS_TERMINAL)


def epsilon_initial(sched: EpsilonSchedule, fe: float) -> float:
    """Plain exponential decay from EPS0; the single-phase alternative."""
    span = sched.max_fe - sched.switch_fe
    return EPS0 * math.exp(-20.0 * (fe - sched.switch_fe) / span)


def phase2_baseline(rel_type: int, t: float) -> float:
    if rel_type == 3:
        return 0.05 * EPS0 - 0.045 * EPS0 * t
    return 0.9 * EPS0 - 0.895 * EPS0 * t


def phase2_amplitude(rel_type: int, t: float) -> float:
    if rel_type == 3:
        return 0.005 * EPS0 * math.exp(-8.0 * t)
    return 0.04 * EPS0 * math.exp(-5.0 * t)


def epsilon_final(sched: EpsilonSchedule, fe: float, rel_type: int) -> float:
    """Three-phase relaxation value at evaluation count fe.

    Phase 1 (fe <= t1): logarithmic shoulder ending at 0.9 * EPS0.
    Phase 2 (t1 < fe <= t2): sinusoid around a falling baseline; separated
    fronts get a lower baseline and a slower oscillation (period 200 versus
    150 evaluations).
    Phase 3 (fe > t2): exponential decay reaching 1e-8 at the budget.
    """
    a = CURVATURE
    if fe <= sched.t1:
        return EPS0 * (0.9 + 0.1 * math.log(1.0 + a * (1.0 - fe / sched.t1)) / math.log(1.0 + a))
    if fe <= sched.t2:
        t = (fe - sched.t1) / (sched.t2 - sched.t1)
        period = 200.0 if rel_type == 3 else 150.0
        return phase2_baseline(rel_type, t) + phase2_amplitude(rel_type, t) * math.sin(
            2.0 * math.pi * fe / period)
    return 0.005 * EPS0 * math.exp(-sched.k * (fe - sched.t2) / (sched.max_fe - sched.t2))


@dataclass(frozen=True)
class DraState:
    """Offspring intensity factors for the main (f1) and auxiliary (f2)
    populations. Both are floored at 0.25 + 1e-6 after every update."""

    f1: float = 1.0
    f2: float = 1.0


def dra_allocate(state: DraState, rel_type: int, ll: float, fr1: float, fr2: float,
                 cnt: int) -> DraState:
    """One allocation update from the feasible ratios of both populations.

    A nonnegative progress signal ll enlarges the shared budget S above its
    neutral value of 2; negative signals are ignored. Separated-front runs
    route the budget through the auxiliary factor, with a tighter variant
    once the classification has become unstable (cnt > 3).
    """
    if not (0.0 <= fr1 <= 1.0 and 0.0 <= fr2 <= 1.0):
        raise ValueError("feasible ratios must lie in [0, 1]")
    denom = state.f1 + state.f2 + 1.0
    positive_ll = max(0.0, ll)
    corr = (fr2 / denom) * positive_ll
    s = 2.0 + corr
    r1 = fr1 / denom
    r2 = fr2 / denom
    r = r2
    if rel_type == 3 and cnt > 3:
        f2 = 0.25 + r * (s - 1.25) / 3.0
        f1 = (s - 3.0 * f2) / 2.0
    elif rel_type == 3:
        f2 = 0.25 + r * (s - 1.0) / 3.0
        f1 = s - 3.0 * f2
    else:
        f1 = 0.25 + r1 * (s - 1.0) / 2.0
        f2 = 0.25 + r2 * (s - 1.0) / 2.0
    return replace(state, f1=max(f1, DRA_FLOOR), f2=max(f2, DRA_FLOOR))


def no_dra_factors(count1: int, count2: int) -> tuple[float, float]:
    """Static factors solving f1 * count1 + f2 * count2 = 2 with f1 = f2;
    used when dynamic allocation is disabled."""
    if count1 < 1 or count2 < 1:
        raise ValueError("operator counts must be at least 1")
    f = 2.0 / (count1 + count2)
    return f, f


def aux_size(fr2: float, n: int) -> int:
    """Auxiliary population target size: shrinks as its feasible ratio
    grows, never below 25, and never below n when n is under 25."""
    if not 0.0 <= fr2 <= 1.0:
        raise ValueError("fr2 must lie in [0, 1]")
    return max(min(n, 25), math.ceil((1.0 - fr2) * n))

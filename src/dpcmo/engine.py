"""The dual-population two-stage optimization loop.

Stage 1 evolves both populations with crossover-and-mutation offspring: the
main population under strict feasible-first selection, the auxiliary one
ignoring constraints. Once the auxiliary population stops moving in
objective space, the run switches to stage 2: the front relationship is
classified, a relaxation schedule starts, and per-type hybrid operator
plans generate offspring whose volume is balanced by the resource
allocator. The auxiliary population is then steered through three phases
(re-exploration, angular subregion selection, exploitation) keyed on the
relaxation value.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .core import (
    DEFAULT_EQ_TOLERANCE,
    Bounds,
    EvalCounter,
    Population,
    evaluate_batch,
)
from .metrics import MetricConfig, igd
from .problems import Problem, reference_front
from .schedule import (
    DraState,
    EpsilonSchedule,
    aux_size,
    dra_allocate,
    epsilon_final,
    epsilon_initial,
    no_dra_factors,
)
# The engine no longer calls unconstrained_nondominated; perfbench/tracing.py
# wraps it under this module's name.
from .selection import (  # noqa: F401
    angle_subregion_select,
    environmental_select,
    ranks_of,
    unconstrained_nondominated,
)
from .staging import (
    PointHistory,
    TypeTracker,
    classify_relationship,
    rs_metric,
    should_switch,
    track_type,
)
from .variation import (
    de_current_to_pbest,
    de_current_to_rand,
    de_rand_1,
    de_transfer,
    ga_offspring,
    random_pool,
    tournament_pool,
)

# Each ablation variant and the component it removes or pins.
ABLATIONS = {
    "WoRR": "tightest stage-switch threshold only",
    "WoS1C": "stage-1 main selection without auxiliary offspring",
    "WoOP": "no opposition offspring",
    "Wo3P": "angular selection in every stage-2 generation",
    "Eps1": "single-phase exponential relaxation",
    "HOps-T1": "operator plan 1 in every stage-2 generation",
    "HOps-T2": "operator plan 2 in every stage-2 generation",
    "HOps-T3": "operator plan 3 in every stage-2 generation",
    "HOps-T4": "operator plan 4 in every stage-2 generation",
    "WoDRA": "static offspring allocation",
}
ABLATION_VARIANTS = tuple(ABLATIONS)


@dataclass(frozen=True)
class RunConfig:
    pop_size: int = 100
    max_fe: int = 50_000
    eps0: float = 0.2
    curvature: float = 15.0
    phase1_eps: float = 0.195
    phase3_eps: float = 0.005
    opposition_eps: float = 0.0005
    delta: float = DEFAULT_EQ_TOLERANCE
    history_gap: int = 10
    history_delta: float = 1e-7
    pbest_fraction: float = 0.1
    coincident_threshold: float = 0.9
    igd_points: int = 1000
    hv_offset: float = 1.1
    variant: str = "full"  # "full" or one of ABLATION_VARIANTS

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.pop_size < 5:
            raise ValueError(f"population size must be at least 5, got {self.pop_size}")
        if self.max_fe < 2 * self.pop_size:
            raise ValueError("maxFE must be at least twice the population size, got "
                             f"max_fe={self.max_fe}, pop_size={self.pop_size}")
        if not self.eps0 > 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not self.curvature > 0:
            raise ValueError(f"curvature must be positive, got {self.curvature}")
        if not 0 < self.pbest_fraction <= 1:
            raise ValueError(f"pbest_fraction must lie in (0, 1], got {self.pbest_fraction}")
        if not 0 < self.coincident_threshold <= 1:  # compared with a feasible fraction
            raise ValueError(f"coincident_threshold must lie in (0, 1], got {self.coincident_threshold}")
        if self.igd_points < 2:
            raise ValueError(f"igd_points must be at least 2, got {self.igd_points}")
        if not 0 <= self.phase3_eps < self.phase1_eps:
            raise ValueError("need 0 <= phase3_eps < phase1_eps, got "
                             f"phase3_eps={self.phase3_eps}, phase1_eps={self.phase1_eps}")
        if self.history_gap < 1:
            raise ValueError(f"history_gap must be at least 1, got {self.history_gap}")
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if self.variant != "full" and self.variant not in ABLATIONS:
            raise ValueError(f"unknown variant {self.variant!r}; expected 'full' or one of {ABLATION_VARIANTS}")


def apply_ablation(config: RunConfig, variant: str) -> RunConfig:
    """Return a config with one algorithm component removed or pinned."""
    return config if config.variant == variant else replace(config, variant=variant)


@dataclass(frozen=True)
class HopsPlan:
    """Operator lists and mating-pool kinds for one relationship type."""

    main_ops: tuple[str, ...]
    main_pools: tuple[str, ...]
    aux_ops: tuple[str, ...]
    aux_pools: tuple[str, ...]


HOPS_PLANS = {
    1: HopsPlan(("de", "ga"), ("T", "T"), ("transfer", "pbest"), ("T", "T")),
    2: HopsPlan(("ga", "de"), ("T", "R"), ("transfer", "pbest"), ("T", "R")),
    3: HopsPlan(("cur_rand",), ("T",), ("cur_rand", "pbest", "de"), ("T", "R", "R")),
    4: HopsPlan(("ga", "de"), ("T", "R"), ("transfer", "cur_rand", "pbest"), ("T", "R", "R")),
}
# The plan each HOps-Tk variant pins.
_PINNED_PLANS = {"HOps-T1": 1, "HOps-T2": 2, "HOps-T3": 3, "HOps-T4": 4}


class RunState:
    """Everything one run owns: both populations, counters, schedule and
    trackers. Never shared across runs."""

    def __init__(self, problem: Problem, config: RunConfig, seed: int):
        self.problem = problem
        self.config = config
        self.seed = int(seed)
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.counter = EvalCounter(config.max_fe)
        self.pop_main = Population.empty()
        self.pop_aux = Population.empty()
        self.g = 1
        self.switch_generation: int | None = None
        self.type_at_switch: int | None = None
        self.schedule: EpsilonSchedule | None = None  # None until the switch
        self.epsilon = config.eps0
        self.tracker = TypeTracker(type=0)
        self.dra = DraState()
        self.history = PointHistory(gap=config.history_gap, delta=config.history_delta)
        self.phase = 0
        self.log: list[dict] = []

        self.ref_points = reference_front(problem, config.igd_points)
        self.metric_cfg = MetricConfig.from_front(self.ref_points, reference_offset=config.hv_offset)

    @property
    def fe(self) -> int:
        return self.counter.count


@dataclass
class RunResult:
    """Per-generation log plus the final feasible nondominated front."""

    problem_id: str
    dimension: int
    seed: int
    log: list[dict]
    front_decisions: np.ndarray
    front_objectives: np.ndarray
    front_cv: np.ndarray
    final_igd: float
    final_hv: float
    switch_generation: int | None
    type_at_switch: int | None
    evaluations: int
    wall_time: float
    fingerprint: str


def _fingerprint(problem: Problem, config: RunConfig, seed: int) -> str:
    payload = {
        "problem": problem.id,
        "dimension": problem.dimension,
        "seed": seed,
        "config": asdict(config),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def initialize(problem: Problem, config: RunConfig, seed: int) -> RunState:
    """Two independent uniform populations, evaluated; 2N budget units."""
    state = RunState(problem, config, seed)
    n = config.pop_size
    X_main = problem.bounds.sample(n, state.rng)
    X_aux = problem.bounds.sample(n, state.rng)
    state.pop_main = evaluate_batch(problem, X_main, state.counter, config.delta)
    state.pop_aux = evaluate_batch(problem, X_aux, state.counter, config.delta)
    state.history.record(state.pop_aux)
    _append_log(state, generation=0, stage=0)
    return state


def feasible_front(pop: Population) -> Population:
    """The feasible nondominated members of ``pop`` (may be empty), in row
    order. At epsilon = 0 the feasible rows form the lowest violation group,
    so their nondominated ones are exactly its rank-0 rows."""
    return pop.take((ranks_of(pop, 0.0) == 0) & (pop.cv == 0.0))


def _append_log(state: RunState, generation: int, stage: int) -> None:
    F = feasible_front(state.pop_main).F
    state.log.append({
        "g": generation,
        "fe": state.fe,
        "stage": stage,
        "phase": state.phase,
        "eps": state.epsilon,
        "type": state.tracker.type,
        "cnt": state.tracker.cnt,
        "f1": state.dra.f1,
        "f2": state.dra.f2,
        "aux": len(state.pop_aux),
        "fr_main": state.pop_main.feasible_ratio(),
        "fr_aux": state.pop_aux.feasible_ratio(),
        "igd": igd(F, state.ref_points),
        "hv": state.metric_cfg.normalized_hypervolume(F),
    })


def try_switch(state: RunState) -> None:
    """Check the stage-transition condition; on trigger, classify the front
    relationship and freeze the relaxation schedule."""
    if state.schedule is not None:
        raise RuntimeError("switch already happened")
    if should_switch(rs_metric(state.history), state.g, strict_only=state.config.variant == "WoRR"):
        state.switch_generation = state.g
        seed_type = classify_relationship(state.pop_aux, state.config.coincident_threshold)
        state.type_at_switch = seed_type
        state.tracker = TypeTracker(type=seed_type)
        state.schedule = EpsilonSchedule(
            switch_fe=state.fe,
            max_fe=state.config.max_fe,
            eps0=state.config.eps0,
            curvature=state.config.curvature,
        )


def stage1_step(state: RunState) -> None:
    """One co-evolution generation before the switch.

    Both populations breed by crossover and mutation; the auxiliary
    offspring also join the main population's selection pool unless the
    isolated-main ablation is active.
    """
    cfg = state.config
    n = cfg.pop_size
    rng = state.rng

    pool_main = random_pool(state.pop_main, n, rng)
    X1 = ga_offspring(state.pop_main.X[pool_main], 1, state.problem.bounds, rng)
    pool_aux = random_pool(state.pop_aux, n, rng)
    X2 = ga_offspring(state.pop_aux.X[pool_aux], 1, state.problem.bounds, rng)
    off1, off2 = _evaluate_split(state, X1, X2)

    if cfg.variant == "WoS1C":
        main_union = Population.concat(state.pop_main, off1)
    else:
        main_union = Population.concat(state.pop_main, off1, off2)
    state.pop_main = _survivors(main_union, n, 0.0)
    state.pop_aux = _survivors(Population.concat(state.pop_aux, off2), n, math.inf)

    state.history.record(state.pop_aux)
    _append_log(state, generation=state.g, stage=0)
    state.g += 1


def opposition_offspring(pop_aux: Population, bounds: Bounds) -> np.ndarray:
    """Mirror each member through a tanh-scaled midpoint of the bounds."""
    if not len(pop_aux):
        raise ValueError("empty population")
    tc = math.tanh(math.log(len(pop_aux)) * 0.8)
    mirrored = (bounds.lower + bounds.upper) * tc - pop_aux.X
    return np.clip(mirrored, bounds.lower, bounds.upper)


def _survivors(union: Population, n: int, epsilon: float) -> Population:
    """The rows ``environmental_select`` keeps, with the union's ranks at
    ``epsilon``: fronts below the split one survive whole, so every dominator
    of a survivor survives too and no rank changes."""
    idx = environmental_select(union, n, epsilon)
    survivors = union.take(idx)
    if epsilon in union.ranks:
        ranks = union.ranks[epsilon][idx]
        ranks.setflags(write=False)
        survivors.ranks[epsilon] = ranks
    return survivors


def _evaluate_split(state: RunState, *parts: np.ndarray) -> list[Population]:
    """Evaluate the rows of all parts in one batch; one population per part.
    The budget grants the prefix that a call per part, in order, would."""
    off = evaluate_batch(state.problem, np.concatenate(parts), state.counter,
                         state.config.delta)
    ends = np.cumsum([len(X) for X in parts])
    return [off.take(slice(end - len(X), end)) for X, end in zip(parts, ends)]


_DE_FAMILY = {"de", "cur_rand", "pbest"}


def _run_operator(state: RunState, op: str, kind: str, k: int, source: str) -> np.ndarray:
    """Apply one plan operator, returning exactly k offspring rows."""
    rng = state.rng
    bounds = state.problem.bounds
    if op == "transfer":
        return de_transfer(state.pop_main.X, state.pop_aux.X, k, rng)

    pop = state.pop_main if source == "main" else state.pop_aux
    pool_eps = 0.0 if source == "main" else math.inf
    draw = max(k, 4) if op in _DE_FAMILY else k
    if kind == "T":
        pool = pop.X[tournament_pool(pop, draw, pool_eps, rng)]
    else:
        pool = pop.X[random_pool(pop, draw, rng)]
    if op == "ga":
        X = ga_offspring(pool, 2, bounds, rng)
    elif op == "de":
        X = de_rand_1(pool, bounds, rng)
    elif op == "cur_rand":
        X = de_current_to_rand(pool, bounds, rng)
    elif op == "pbest":
        X = de_current_to_pbest(pool, state.pop_main, state.config.pbest_fraction, bounds, rng)
    else:
        raise ValueError(f"unknown operator {op!r}")
    return X[:k]


def hops_generate(state: RunState, eff_type: int, f1: float, f2: float
                  ) -> tuple[Population, Population]:
    """Generate evaluated offspring batches per the type's operator plan.

    Pool sizes are round(f * N) per operator; a pool that rounds to zero
    makes its operator emit nothing. Main-population tournaments use the
    strict ordering, auxiliary ones the unconstrained ordering. Every
    operator's rows are drawn first, in plan order, and then evaluated in
    one batch.
    """
    plan = HOPS_PLANS[eff_type]
    n = state.config.pop_size
    sides = []
    for ops, kinds, factor, source in (
        (plan.main_ops, plan.main_pools, f1, "main"),
        (plan.aux_ops, plan.aux_pools, f2, "aux"),
    ):
        k = round(factor * n)
        rows = [_run_operator(state, op, kind, k, source)
                for op, kind in zip(ops, kinds)] if k > 0 else []
        sides.append(np.concatenate(rows) if rows else np.empty((0, state.problem.dimension)))
    return tuple(_evaluate_split(state, *sides))


def stage2_step(state: RunState) -> None:
    """One generation of the second stage.

    Computes the relaxation value for this generation, optionally emits
    opposition offspring against deceptive constraints, allocates offspring
    volume, runs the hybrid operator plan, and routes the auxiliary
    population through the phase logic.
    """
    cfg = state.config
    n = cfg.pop_size
    fr_main = state.pop_main.feasible_ratio()
    fr_aux = state.pop_aux.feasible_ratio()
    n_s = aux_size(fr_aux, n)

    if cfg.variant == "Eps1":
        eps = epsilon_initial(state.schedule, state.fe)
    else:
        eps = epsilon_final(state.schedule, state.fe, state.tracker.type)
    state.epsilon = eps

    off3 = Population.empty()
    if (cfg.variant != "WoOP" and (fr_main == 1.0 or fr_main == 0.0)
            and fr_aux == 0.0 and eps > cfg.opposition_eps):
        X3 = opposition_offspring(state.pop_aux, state.problem.bounds)
        off3 = evaluate_batch(state.problem, X3, state.counter, cfg.delta)

    eff_type = _PINNED_PLANS.get(cfg.variant) or (
        4 if state.tracker.cnt > 3 else state.tracker.type)
    plan = HOPS_PLANS[eff_type]
    if cfg.variant == "WoDRA":
        f1, f2 = no_dra_factors(len(plan.main_ops), len(plan.aux_ops))
        state.dra = DraState(f1=f1, f2=f2)
    else:
        state.dra = dra_allocate(state.dra, state.tracker.type, 0.0, fr_main, fr_aux,
                                 state.tracker.cnt)

    off1, off2 = hops_generate(state, eff_type, state.dra.f1, state.dra.f2)
    off = Population.concat(off1, off2, off3)

    state.pop_main = _survivors(Population.concat(state.pop_main, off), n, 0.0)

    if cfg.variant == "Wo3P":
        state.phase = 2
    elif eps >= cfg.phase1_eps:
        state.phase = 1
    elif eps <= cfg.phase3_eps or state.tracker.type in (1, 2):
        state.phase = 3
    else:
        state.phase = 2

    aux_union = Population.concat(state.pop_aux, off)
    if state.phase == 1:
        state.pop_aux = _survivors(aux_union, n_s, math.inf)
        ntype = classify_relationship(state.pop_aux, cfg.coincident_threshold)
        state.tracker = track_type(state.tracker, ntype)
    elif state.phase == 3:
        sel_eps = 0.0 if state.tracker.type == 1 else eps
        state.pop_aux = _survivors(aux_union, n_s, sel_eps)
    else:
        picks = angle_subregion_select(aux_union, len(state.pop_aux), n_s, eps)
        state.pop_aux = aux_union.take(picks)

    _append_log(state, generation=state.g, stage=1)
    state.g += 1


def run(problem: Problem, config: RunConfig | None = None, seed: int = 0) -> RunResult:
    """Execute a full run and return its log and final front."""
    config = config or RunConfig()
    started = time.perf_counter()
    state = initialize(problem, config, seed)

    while state.fe < config.max_fe:
        if state.schedule is None:
            try_switch(state)
            stage1_step(state)
        else:
            stage2_step(state)
    assert state.fe <= config.max_fe

    front = feasible_front(state.pop_main)
    last = state.log[-1]
    return RunResult(
        problem_id=problem.id,
        dimension=problem.dimension,
        seed=state.seed,
        log=state.log,
        front_decisions=front.X,
        front_objectives=front.F,
        front_cv=front.cv,
        final_igd=last["igd"],
        final_hv=last["hv"],
        switch_generation=state.switch_generation,
        type_at_switch=state.type_at_switch,
        evaluations=state.fe,
        wall_time=time.perf_counter() - started,
        fingerprint=_fingerprint(problem, config, seed),
    )

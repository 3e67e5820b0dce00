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

import copy
import hashlib
import json
import math
import numbers
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import (
    DEFAULT_EQ_TOLERANCE,
    Bounds,
    ConfigError,
    Population,
    evaluate_batch,
    is_integer,
)
from .metrics import MetricConfig, igd
from .problems import Problem, reference_front
from .schedule import (
    DraState,
    EPS0,
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
    ETA_MUTATION,
    PBEST_FRACTION,
    de_current_to_pbest,
    de_current_to_rand,
    de_rand_1,
    de_transfer,
    ga_draws,
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
PHASE1_EPS = 0.195  # stage 2 re-explores (phase 1) while epsilon is at least this
IGD_POINTS = 1000  # reference-front samples for IGD and the hypervolume normalisation


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, checked when built: an invalid value is a ConfigError."""
    pop_size: int = 100
    max_fe: int = 50_000
    phase3_eps: float = 0.005
    opposition_eps: float = 0.0005
    delta: float = DEFAULT_EQ_TOLERANCE
    coincident_threshold: float = 0.9
    variant: str = "full"  # "full" or one of ABLATION_VARIANTS

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is int and not is_integer(value):
                raise ConfigError(f"{f.name} must be an integer, got {value!r}")
            if kind is float and not (isinstance(value, numbers.Real) and not isinstance(value, bool)
                                      and math.isfinite(value)):
                raise ConfigError(f"{f.name} must be a finite number, got {value!r}")
            if kind is str and not isinstance(value, str):
                raise ConfigError(f"{f.name} must be a string, got {value!r}")
            if type(value) not in (int, float, str):  # numpy numbers become plain ones for JSON
                object.__setattr__(self, f.name, kind(value))
        if self.pop_size < 5:
            raise ConfigError(f"population size must be at least 5, got {self.pop_size}")
        if self.max_fe < 2 * self.pop_size:
            raise ConfigError("maxFE must be at least twice the population size, got "
                              f"max_fe={self.max_fe}, pop_size={self.pop_size}")
        if not self.delta > 0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
        if not 0 < self.coincident_threshold <= 1:  # compared with a feasible fraction
            raise ConfigError(f"coincident_threshold must lie in (0, 1], got {self.coincident_threshold}")
        if not 0 <= self.phase3_eps < PHASE1_EPS:
            raise ConfigError(f"need 0 <= phase3_eps < {PHASE1_EPS}, got phase3_eps={self.phase3_eps}")
        if self.variant != "full" and self.variant not in ABLATIONS:
            raise ConfigError(f"unknown variant {self.variant!r}; expected 'full' or one of {ABLATION_VARIANTS}")


# Each relationship type's HOps plan: the main and the auxiliary population's
# (operator, mating pool) pairs, in stream order. A pool is "T" (tournament)
# or "R" (uniform draws); transfer draws no pool.
HOPS_PLANS = {
    1: ((("de", "T"), ("ga", "T")), (("transfer", None), ("pbest", "T"))),
    2: ((("ga", "T"), ("de", "R")), (("transfer", None), ("pbest", "R"))),
    3: ((("cur_rand", "T"),), (("cur_rand", "T"), ("pbest", "R"), ("de", "R"))),
    4: ((("ga", "T"), ("de", "R")), (("transfer", None), ("cur_rand", "R"), ("pbest", "R"))),
}
# The plan each HOps-Tk variant pins.
_PINNED_PLANS = {"HOps-T1": 1, "HOps-T2": 2, "HOps-T3": 3, "HOps-T4": 4}


class RunState:
    """Everything one run owns: both populations, counters, schedule and
    trackers. A prefix (an ``initialize`` state, possibly advanced by
    ``advance``) seeds other runs only through forks (``fork``); no run
    advances another's state."""

    def __init__(self, problem: Problem, config: RunConfig, seed: int):
        if not is_integer(seed):
            raise ValueError(f"seed must be an integer, got {seed!r}")
        self.problem = problem
        self.config = config
        self.seed = int(seed)
        self.rng = np.random.Generator(np.random.PCG64(self.seed))
        self.fe = 0  # evaluations granted so far
        self.pop_main = Population.empty()
        self.pop_aux = Population.empty()
        self.g = 1
        self.switch_generation: int | None = None
        self.type_at_switch: int | None = None
        self.schedule: EpsilonSchedule | None = None  # None until the switch
        self.epsilon = EPS0
        self.tracker = TypeTracker(type=0)
        self.dra = DraState()
        self.history = PointHistory()
        self.rs = 1.0  # rs_metric(history), taken once per record for every variant
        self.phase = 0
        self.log: list[dict] = []
        self.seconds = 0.0  # wall seconds spent reaching this state

        self.ref_points = reference_front(problem, IGD_POINTS)
        self.metric_cfg = MetricConfig.from_front(self.ref_points)


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
    """Two independent uniform populations: one batch of 2N rows, main first."""
    started = time.perf_counter()
    state = RunState(problem, config, seed)
    n = config.pop_size
    pop = evaluate_batch(problem, _grant(state, problem.bounds.sample(2 * n, state.rng)), config.delta)
    state.pop_main, state.pop_aux = pop.take(slice(None, n)), pop.take(slice(n, None))
    state.history.record(state.pop_aux)
    state.rs = rs_metric(state.history)
    _append_log(state, generation=0, stage=0)
    state.seconds = time.perf_counter() - started
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


def stage1_decide(state: RunState, config: RunConfig) -> tuple[bool, bool]:
    """What ``config``'s variant does in ``state``'s next stage-1 generation.

    Every choice that reads the variant is made here, and nothing is drawn
    or changed. The record is ``(switch, shared)``: whether the stage
    transition triggers at this generation, and whether the auxiliary
    offspring join the main population's selection pool. Equal states with
    equal records give equal next states.
    """
    switch = should_switch(state.rs, state.g, strict_only=config.variant == "WoRR")
    return switch, config.variant != "WoS1C"


def stage1_apply(state: RunState, decision: tuple[bool, bool]) -> None:
    """Run one co-evolution generation as ``decision`` (a ``stage1_decide``
    record) says; the variant is not read.

    A switch first classifies the front relationship and freezes the
    relaxation schedule. Both populations breed by crossover and mutation,
    each from its own pool and GA draws in stream order, in one kernel
    pass evaluated as one batch. The main population selects from all the
    offspring if the auxiliary ones are shared (the first N if not), the
    auxiliary population from the last N.
    """
    switch, shared = decision
    cfg = state.config
    n = cfg.pop_size
    rng = state.rng
    if switch:
        state.switch_generation = state.g
        seed_type = classify_relationship(state.pop_aux, cfg.coincident_threshold)
        state.type_at_switch = seed_type
        state.tracker = TypeTracker(type=seed_type)
        state.schedule = EpsilonSchedule(switch_fe=state.fe, max_fe=cfg.max_fe)

    d = state.problem.dimension
    X1 = state.pop_main.X[random_pool(state.pop_main, n, rng)]
    draws1 = ga_draws(n, d, rng)
    X2 = state.pop_aux.X[random_pool(state.pop_aux, n, rng)]
    draws2 = ga_draws(n, d, rng)
    X = ga_offspring([X1, X2], [draws1, draws2], ETA_MUTATION[1], state.problem.bounds)
    off = evaluate_batch(state.problem, _grant(state, X), cfg.delta)

    main_union = Population.concat(state.pop_main, off if shared else off.take(slice(None, n)))
    state.pop_main = _survivors(main_union, n, 0.0)
    state.pop_aux = _survivors(Population.concat(state.pop_aux, off.take(slice(n, None))), n, math.inf)

    state.history.record(state.pop_aux)
    state.rs = rs_metric(state.history)
    _append_log(state, generation=state.g, stage=0)
    state.g += 1


def stage1_step(state: RunState) -> None:
    """One generation of the first stage under the state's own variant."""
    stage1_apply(state, stage1_decide(state, state.config))


def opposition_offspring(pop_aux: Population, bounds: Bounds) -> np.ndarray:
    """Mirror each member through a tanh-scaled midpoint of the bounds."""
    if not len(pop_aux):
        raise ValueError("empty population")
    tc = math.tanh(math.log(len(pop_aux)) * 0.8)
    mirrored = (bounds.lower + bounds.upper) * tc - pop_aux.X
    return np.clip(mirrored, bounds.lower, bounds.upper)


def _survivors(union: Population, n: int, epsilon: float) -> Population:
    """The rows ``environmental_select`` keeps, with their ranks in the
    union at ``epsilon``: fronts below the split one survive whole, so every
    dominator of a survivor survives too and no rank changes. A union of at
    most n rows survives whole, with its own memoised ranks if it has them."""
    idx = environmental_select(union, n, epsilon)
    survivors = union.take(idx)
    ranks = union.kept_ranks.get((epsilon, n), union.ranks.get(epsilon))
    if ranks is not None:
        survivors.ranks[epsilon] = ranks
    return survivors


def _grant(state: RunState, X: np.ndarray) -> np.ndarray:
    """The first rows of X that the budget grants; ``state.fe`` counts them."""
    X = X[:state.config.max_fe - state.fe]
    state.fe += len(X)
    return X


def _run_operator(state: RunState, op: str, kind: str | None, k: int, pop: Population,
                  pool_eps: float) -> np.ndarray:
    """Apply one plan operator to ``pop``, whose tournaments rank at
    ``pool_eps``, returning exactly k offspring rows."""
    rng = state.rng
    bounds = state.problem.bounds
    if op == "transfer":
        return de_transfer(state.pop_main.X, state.pop_aux.X, k, rng)

    draw = k if op == "ga" else max(k, 4)  # DE draws distinct triples: 4 rows at least
    if kind == "T":
        pool = pop.X[tournament_pool(pop, draw, pool_eps, rng)]
    else:
        pool = pop.X[random_pool(pop, draw, rng)]
    if op == "ga":
        X = ga_offspring([pool], [ga_draws(len(pool), pool.shape[1], rng)], ETA_MUTATION[2], bounds)
    elif op == "de":
        X = de_rand_1(pool, bounds, rng)
    elif op == "cur_rand":
        X = de_current_to_rand(pool, bounds, rng)
    elif op == "pbest":
        X = de_current_to_pbest(pool, state.pop_main, PBEST_FRACTION, bounds, rng)
    else:
        raise ValueError(f"unknown operator {op!r}")
    return X[:k]


def hops_generate(state: RunState, eff_type: int, f1: float, f2: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Draw the main and auxiliary offspring rows of the type's operator
    plan, unevaluated; each block holds its operators' rows in plan order.

    Pool sizes are round(f * N) per operator; a pool that rounds to zero
    makes its operator emit nothing. Main-population tournaments use the
    strict ordering, auxiliary ones the unconstrained ordering.
    """
    n = state.config.pop_size
    sides = []
    for plan, factor, pop, pool_eps in zip(HOPS_PLANS[eff_type], (f1, f2),
                                           (state.pop_main, state.pop_aux), (0.0, math.inf)):
        k = round(factor * n)
        rows = [_run_operator(state, op, kind, k, pop, pool_eps) for op, kind in plan] if k > 0 else []
        sides.append(np.concatenate(rows) if rows else np.empty((0, state.problem.dimension)))
    return tuple(sides)


def stage2_decide(state: RunState, config: RunConfig) -> tuple:
    """What ``config``'s variant does in ``state``'s next stage-2 generation.

    Every choice that reads the variant is made here, and nothing is drawn
    or changed. The record is a plain tuple
    ``(eps, opposition, plan, dra, phase, aux_eps, n_s)``: the relaxation
    value, whether opposition offspring are emitted, the HOps plan, the
    offspring allocation (a ``DraState``), the auxiliary phase, the
    auxiliary truncation epsilon (inf in phase 1, None in phase 2, 0 or
    ``eps`` in phase 3) and the auxiliary target size. Equal states with
    equal records give equal next states.
    """
    fr_main = state.pop_main.feasible_ratio()
    fr_aux = state.pop_aux.feasible_ratio()
    n_s = aux_size(fr_aux, config.pop_size)
    variant, tracker = config.variant, state.tracker

    if variant == "Eps1":
        eps = epsilon_initial(state.schedule, state.fe)
    else:
        eps = epsilon_final(state.schedule, state.fe, tracker.type)
    opposition = (variant != "WoOP" and (fr_main == 1.0 or fr_main == 0.0)
                  and fr_aux == 0.0 and eps > config.opposition_eps)

    plan = _PINNED_PLANS.get(variant) or (4 if tracker.cnt > 3 else tracker.type)
    if variant == "WoDRA":
        dra = DraState(*no_dra_factors(*map(len, HOPS_PLANS[plan])))
    else:
        dra = dra_allocate(state.dra, tracker.type, 0.0, fr_main, fr_aux, tracker.cnt)

    if variant == "Wo3P":
        phase, aux_eps = 2, None
    elif eps >= PHASE1_EPS:
        phase, aux_eps = 1, math.inf
    elif eps <= config.phase3_eps or tracker.type in (1, 2):
        phase, aux_eps = 3, (0.0 if tracker.type == 1 else eps)
    else:
        phase, aux_eps = 2, None
    return eps, opposition, plan, dra, phase, aux_eps, n_s


def stage2_apply(state: RunState, decision: tuple) -> None:
    """Run one stage-2 generation as ``decision`` (a ``stage2_decide``
    record) says; the variant is not read.

    Emits the opposition offspring if they fire and runs the operator plan
    at the allocated volume. The budget grants the opposition, main and
    auxiliary rows in that order; the granted opposition rows move to the
    end, and the rows are evaluated in one batch. Then it selects the main
    population and cuts the auxiliary population to its target size:
    truncation at ``aux_eps`` in phases 1 and 3, angular subregion selection
    in phase 2 (``aux_eps`` None). Phase 1 then reclassifies the front
    relationship.
    """
    eps, opposition, plan, dra, phase, aux_eps, n_s = decision
    cfg = state.config
    n = cfg.pop_size
    state.epsilon = eps

    X3 = (opposition_offspring(state.pop_aux, state.problem.bounds) if opposition
          else np.empty((0, state.problem.dimension)))

    state.dra = dra
    X1, X2 = hops_generate(state, plan, dra.f1, dra.f2)
    X = _grant(state, np.concatenate([X3, X1, X2]))
    off = evaluate_batch(state.problem, np.roll(X, -min(len(X3), len(X)), axis=0), cfg.delta)

    state.pop_main = _survivors(Population.concat(state.pop_main, off), n, 0.0)

    state.phase = phase
    aux_union = Population.concat(state.pop_aux, off)
    if aux_eps is None:
        picks = angle_subregion_select(aux_union, len(state.pop_aux), n_s, eps)
        state.pop_aux = aux_union.take(picks)
    else:
        state.pop_aux = _survivors(aux_union, n_s, aux_eps)
    if phase == 1:
        ntype = classify_relationship(state.pop_aux, cfg.coincident_threshold)
        state.tracker = track_type(state.tracker, ntype)

    _append_log(state, generation=state.g, stage=1)
    state.g += 1


def stage2_step(state: RunState) -> None:
    """One generation of the second stage under the state's own variant."""
    stage2_apply(state, stage2_decide(state, state.config))


def fork(prefix: RunState, config: RunConfig) -> RunState:
    """A copy of ``prefix`` under ``config``: what a generation changes in
    place (the generator, the log list and the point history) is copied;
    populations, reference front and metric config, whose memos hold only
    values computed from their own rows, are shared."""
    state = copy.copy(prefix)
    state.config = config
    state.rng = copy.deepcopy(prefix.rng)
    state.log = list(prefix.log)
    state.history = copy.deepcopy(prefix.history)
    return state


def advance(state: RunState, configs: dict[str, RunConfig]) -> dict:
    """Run ``state``'s generations, in either stage, while the member
    variants (the keys of ``configs``) decide alike; return the members
    grouped by decision at the first disagreement, whose generation is not
    run, or ``{None: members}`` once the budget is spent. A generation runs
    as ``stage1_step`` or ``stage2_step``, which decide under
    ``state.config``, so that must be a member's: ``configs[variant]`` for
    its variant. ``state.seconds`` grows by the wall seconds spent here."""
    if configs.get(state.config.variant) != state.config:
        raise ValueError(f"the state decides as {state.config.variant}, not as one of {', '.join(configs)}")
    members = list(configs)
    started = time.perf_counter()
    while state.fe < state.config.max_fe:
        stage1 = state.schedule is None
        if len(members) > 1:
            decide = stage1_decide if stage1 else stage2_decide
            parts: dict = {}
            for variant in members:
                parts.setdefault(decide(state, configs[variant]), []).append(variant)
            if len(parts) > 1:
                break
        (stage1_step if stage1 else stage2_step)(state)
    else:
        parts = {None: members}
    state.seconds += time.perf_counter() - started
    return parts


def share(problem: Problem, seed: int, configs: dict[str, RunConfig]
          ) -> tuple[dict[str, RunState | Exception], dict[str, int | None]]:
    """Run once (``advance``) each generation on which the variants of
    ``configs`` decide alike, from a state initialised under the first one's
    config; at a disagreement, two or more that still agree go on together
    on a fork under a member's config. Return, by variant, a fork of the
    last state it shared under its own config, for ``run(..., prefix=)``,
    or what its shared generation raised; and, if full is a variant, the
    generation at which each other one first decided otherwise, or None."""
    variants = list(configs)
    diverged = dict.fromkeys(v for v in variants if v != "full") if "full" in configs else {}
    states: dict = {}
    # Depth first, so a shared state is dropped once its variants have left it.
    clusters = [(initialize(problem, configs[variants[0]], seed), variants)]
    while clusters:
        state, members = clusters.pop()
        try:
            parts = advance(state, {variant: configs[variant] for variant in members})
        except Exception as exc:  # recorded, not fatal
            states.update(dict.fromkeys(members, exc))
            continue
        for decision, part in parts.items():
            if decision is not None and "full" in members and "full" not in part:
                diverged.update(dict.fromkeys(part, state.g))
            if decision is not None and len(part) > 1:
                clusters.append((fork(state, configs[part[0]]), part))
            else:
                states.update((variant, fork(state, configs[variant])) for variant in part)
    return states, diverged


def run(problem: Problem, config: RunConfig | None = None, seed: int = 0,
        prefix: RunState | None = None) -> RunResult:
    """Execute a full run and return its log and final front.

    ``prefix``, a state of this problem, dimension, seed and config (as
    ``fork`` and ``share`` make), skips the generations it ran. The run
    continues a fork of it, never the prefix in place, so one prefix can
    seed any number of runs. The result equals a run without it, bar the
    wall time, which includes the seconds spent reaching the prefix.
    """
    config = config or RunConfig()
    if prefix is None:
        state = initialize(problem, config, seed)
    elif ((prefix.problem.id, prefix.problem.dimension, prefix.seed, prefix.config)
          != (problem.id, problem.dimension, seed, config)):
        raise ValueError("prefix belongs to another problem, seed or config")
    else:
        state = fork(prefix, config)

    advance(state, {config.variant: config})
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
        wall_time=state.seconds,
        fingerprint=_fingerprint(problem, config, state.seed),
    )

import json
import math
import time
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpcmo import engine
from dpcmo.core import Bounds, Population, evaluate_batch
from dpcmo.engine import (
    ABLATION_VARIANTS,
    HOPS_PLANS,
    PHASE1_EPS,
    RunConfig,
    RunState,
    _fingerprint,
    _grant,
    _run_operator,
    advance,
    feasible_front,
    fork,
    hops_generate,
    initialize,
    opposition_offspring,
    run,
    share,
    stage1_apply,
    stage1_decide,
    stage1_step,
    stage2_decide,
    stage2_step,
)
from dpcmo.problems import PROBLEM_IDS, Problem, make_problem
from dpcmo.schedule import EpsilonSchedule
from dpcmo.selection import environmental_select
from dpcmo.staging import TypeTracker


def constant_problem(dimension=6):
    """Every point maps to the same feasible objectives; the auxiliary
    population is stationary from the first generation."""

    def ev(X):
        n = len(X)
        F = np.tile([1.0, 2.0], (n, 1))
        G = np.full((n, 1), -1.0)
        return F, G, np.empty((n, 0))

    def sampler(n):
        t = np.linspace(0.0, 1.0, n)
        return np.column_stack([1.0 + t, 2.0 - t])

    return Problem(id="constant", dimension=dimension,
                   bounds=Bounds(np.zeros(dimension), np.ones(dimension)),
                   evaluate_matrix=ev, front_sampler=sampler)


def stage2_state(problem_id="P1-overlap", n=100, max_fe=200_000, seed=3,
                 rel_type=1, cnt=0, schedule=None, **config_kwargs):
    """A run state forced into stage 2 with a chosen type and schedule."""
    config = RunConfig(pop_size=n, max_fe=max_fe, **config_kwargs)
    state = initialize(make_problem(problem_id, 10), config, seed)
    state.tracker = TypeTracker(type=rel_type, cnt=cnt)
    state.schedule = schedule or EpsilonSchedule(switch_fe=state.fe, max_fe=max_fe)
    return state


def hops_rows(plan_type, f1, f2, n) -> int:
    """The offspring rows plan ``plan_type`` draws at factors f1 and f2."""
    main, aux = HOPS_PLANS[plan_type]
    return len(main) * round(f1 * n) + len(aux) * round(f2 * n)


def budget_state(problem, remaining, max_fe=200):
    """A fresh state of ``problem`` with ``remaining`` of ``max_fe``
    evaluations left."""
    state = RunState(problem, RunConfig(pop_size=5, max_fe=max_fe), 0)
    state.fe = max_fe - remaining
    return state


def count_evaluate_calls(monkeypatch) -> list:
    """Record the row count of each engine call to ``evaluate_batch``."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return evaluate_batch(*args, **kwargs)

    monkeypatch.setattr("dpcmo.engine.evaluate_batch", counted)
    return calls


class TestInitialize:
    def test_counts_and_sizes(self):
        state = initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=50), 1)
        assert state.fe == 100
        assert len(state.pop_main) == 50
        assert len(state.pop_aux) == 50
        assert state.schedule is None and state.g == 1
        assert state.epsilon == 0.2
        assert state.dra.f1 == state.dra.f2 == 1.0

    def test_determinism(self):
        p = make_problem("P1-overlap", 10)
        a = initialize(p, RunConfig(pop_size=30), 7)
        b = initialize(p, RunConfig(pop_size=30), 7)
        assert np.array_equal(a.pop_main.X, b.pop_main.X)
        assert np.array_equal(a.pop_aux.X, b.pop_aux.X)

    def test_members_within_bounds(self):
        state = initialize(make_problem("P2-partial", 10), RunConfig(pop_size=200), 2)
        for pop in (state.pop_main, state.pop_aux):
            X = pop.X
            assert np.all(X >= 0.0) and np.all(X <= 1.0)

    def test_small_budget_rejected(self):
        with pytest.raises(ValueError):
            initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=100, max_fe=150), 0)

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError):
            initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=4), 0)


class TestRunConfigBounds:
    @pytest.mark.parametrize("field,value", [
        ("phase3_eps", -0.001),
        ("phase3_eps", 0.195),
        ("delta", 0.0),
        ("delta", -1.0),
        ("delta", math.inf),
        ("opposition_eps", math.nan),
        ("coincident_threshold", -math.inf),
        ("coincident_threshold", 0.0),
        ("coincident_threshold", -0.1),
        ("coincident_threshold", 5.0),
        ("variant", "WoXYZ"),
        ("max_fe", 1000.5),
        ("pop_size", 30.5),
        ("pop_size", True),
        ("phase3_eps", True),
        ("opposition_eps", "0.1"),
        ("delta", None),
        ("variant", ["full"]),
    ])
    def test_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})

    def test_edge_values_accepted(self):
        RunConfig(pop_size=5, max_fe=10, phase3_eps=0.0, coincident_threshold=1.0)

    def test_numpy_integers_are_stored_as_ints(self):
        config = RunConfig(pop_size=np.int64(30), max_fe=np.int64(1000))
        assert type(config.pop_size) is int and type(config.max_fe) is int
        assert config == RunConfig(pop_size=30, max_fe=1000)

    def test_numpy_reals_are_stored_as_floats(self):
        config = RunConfig(phase3_eps=np.float32(0.125), opposition_eps=np.int64(0), delta=np.float64(1e-3))
        assert type(config.phase3_eps) is type(config.opposition_eps) is type(config.delta) is float
        plain = RunConfig(phase3_eps=0.125, opposition_eps=0.0, delta=1e-3)
        problem = make_problem("P1-overlap", 10)
        assert config == plain and _fingerprint(problem, config, 1) == _fingerprint(problem, plain, 1)
        # A Python int stays an int, so its fingerprint does not move.
        assert type(RunConfig(opposition_eps=0).opposition_eps) is int

    def test_default_fingerprint_is_pinned(self):
        assert _fingerprint(make_problem("P1-overlap", 10), RunConfig(), 1) == "9c9ac9247360a3ea"


@st.composite
def small_configs(draw):
    """Any constructible small config: N in [5, 12], a budget from the two
    initial populations up to past the generation-250 switch cap, free
    relaxation thresholds, and any variant."""
    n = draw(st.integers(5, 12))
    return RunConfig(
        pop_size=n,
        max_fe=draw(st.integers(2 * n, 2 * n * 260)),
        phase3_eps=draw(st.floats(0.0, PHASE1_EPS, exclude_max=True)),
        opposition_eps=draw(st.floats(0.0, 1.0)),
        variant=draw(st.sampled_from(("full",) + ABLATION_VARIANTS)),
    )


@settings(max_examples=30, deadline=None)
@given(small_configs(), st.sampled_from(PROBLEM_IDS), st.integers(2, 10), st.integers(0, 2**16))
def test_constructed_config_runs_to_budget(config, problem_id, dimension, seed):
    result = run(make_problem(problem_id, dimension), config, seed)
    assert result.evaluations == config.max_fe


class TestStage1:
    def test_consumes_two_batches(self):
        state = initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=40), 1)
        before = state.fe
        stage1_step(state)
        assert state.fe == before + 80
        assert len(state.pop_main) == 40
        assert len(state.pop_aux) == 40
        assert state.g == 2

    def test_identical_populations_stay_fixed(self):
        state = initialize(constant_problem(), RunConfig(pop_size=30, max_fe=10_000), 5)
        stage1_step(state)
        assert np.all(state.pop_main.F == [1.0, 2.0])
        assert np.all(state.pop_aux.F == [1.0, 2.0])

    def test_best_member_survives_or_is_superseded(self):
        # elitism: the leading member only ever loses its seat to a
        # strictly better one
        state = initialize(make_problem("P3-separated", 10), RunConfig(pop_size=40), 7)
        from dpcmo.selection import fitness_order
        from oracles import Solution, epsilon_cdp_compare

        def members(pop):
            return [Solution(x, f, [], [], c) for x, f, c in zip(pop.X, pop.F, pop.cv)]

        best = members(state.pop_main)[fitness_order(state.pop_main, 0.0)[0]]
        stage1_step(state)
        after = members(state.pop_main)
        survives = any(np.array_equal(s.decisions, best.decisions) for s in after)
        superseded = any(epsilon_cdp_compare(s, best, 0.0) == -1 for s in after)
        assert survives or superseded

    def test_isolated_main_ablation_changes_outcome(self):
        p = make_problem("P3-separated", 10)
        full = initialize(p, RunConfig(pop_size=40), 9)
        isolated = initialize(p, RunConfig(pop_size=40, variant="WoS1C"), 9)
        for _ in range(3):
            stage1_step(full)
            stage1_step(isolated)
        assert full.fe == isolated.fe
        assert not np.array_equal(full.pop_main.X, isolated.pop_main.X)
        # auxiliary side is untouched by the ablation
        assert np.array_equal(full.pop_aux.X, isolated.pop_aux.X)


class TestSwitch:
    def test_generation_cap(self):
        state = initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=20), 1)
        state.g = 251
        fe = state.fe
        for variant in ("full", "WoRR"):
            assert stage1_decide(state, replace(state.config, variant=variant)) == (True, True)
        stage1_apply(state, (True, True))
        assert state.schedule is not None
        assert state.schedule.switch_fe == fe
        assert state.switch_generation == 251 and state.g == 252
        assert state.type_at_switch in (1, 2, 3)

    def test_no_switch_early(self):
        state = initialize(make_problem("P1-overlap", 10), RunConfig(pop_size=20), 1)
        stage1_step(state)
        assert stage1_decide(state, state.config) == (False, True)
        stage1_apply(state, (False, True))
        assert state.schedule is None and state.switch_generation is None

    def test_stationary_population_switches_quickly(self):
        result = run(constant_problem(), RunConfig(pop_size=20, max_fe=2000), seed=4)
        assert result.switch_generation is not None
        assert result.switch_generation <= 12

    def test_switch_happens_once(self):
        result = run(make_problem("P1-overlap", 10), RunConfig(pop_size=30, max_fe=4000), 2)
        stages = [r["stage"] for r in result.log]
        flips = sum(1 for a, b in zip(stages, stages[1:]) if a != b)
        assert flips <= 1
        assert stages == sorted(stages)


class TestOpposition:
    def test_mirror_with_symmetric_bounds(self):
        # lb + ub = 0, so the mirror is plain negation before clamping
        p = make_problem("P1-overlap", 10)
        pop = evaluate_batch(p, np.random.default_rng(0).random((100, 10)))
        X = pop.X
        out = opposition_offspring(pop, Bounds(np.full(10, -1.0), np.full(10, 1.0)))
        assert out == pytest.approx(np.clip(-X, -1.0, 1.0))

    def test_half_point_coefficient(self):
        p = constant_problem(4)
        pop = evaluate_batch(p, np.full((100, 4), 0.5))
        out = opposition_offspring(pop, p.bounds)
        tc = math.tanh(math.log(100) * 0.8)
        assert tc == pytest.approx(0.99875, abs=1e-4)
        assert out == pytest.approx(np.full((100, 4), tc - 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            opposition_offspring(Population.empty(), Bounds([0.0], [1.0]))


class TestHops:
    @pytest.mark.parametrize("rel_type,f1,f2,want1,want2", [
        (1, 0.5, 0.5, 100, 100),   # 2 ops x 50 each side
        (2, 0.4, 0.3, 80, 60),
        (3, 0.25, 0.5, 25, 150),   # single main op, three aux ops
        (4, 0.5, 0.25, 100, 75),
    ])
    def test_offspring_counts(self, rel_type, f1, f2, want1, want2):
        state = stage2_state(rel_type=rel_type)
        off1, off2 = hops_generate(state, rel_type, f1, f2)
        assert len(off1) == want1
        assert len(off2) == want2

    def test_zero_pool_emits_nothing(self):
        state = stage2_state()
        off1, off2 = hops_generate(state, 1, 0.001, 0.5)
        assert len(off1) == 0
        assert len(off2) == 100

    def test_budget_truncation(self):
        state = stage2_state(max_fe=200_000)
        state.fe = state.config.max_fe - 30
        X = np.concatenate(hops_generate(state, 1, 0.5, 0.5))
        off = evaluate_batch(state.problem, _grant(state, X))
        assert len(X) > 30
        np.testing.assert_array_equal(off.X, X[:30])
        assert state.fe == state.config.max_fe

    def test_plans_cover_all_types(self):
        assert set(HOPS_PLANS) == {1, 2, 3, 4}

    def test_plan_table_pairs_handled_operators_with_pools(self):
        state = stage2_state(n=30)
        for main, aux in HOPS_PLANS.values():
            for side, pop, pool_eps in ((main, state.pop_main, 0.0), (aux, state.pop_aux, math.inf)):
                assert side, "each side holds at least one operator"
                for op, kind in side:
                    assert kind is None if op == "transfer" else kind in ("T", "R")
                    assert len(_run_operator(state, op, kind, 7, pop, pool_eps)) == 7


class TestGrant:
    """The engine owns the budget: a grant evaluates the rows the budget
    leaves, in order, and counts them in ``state.fe``."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(10, 300), st.data())
    def test_grant_evaluates_the_first_rows_the_budget_leaves(self, max_fe, data):
        fe = data.draw(st.integers(0, max_fe), label="fe")
        rows = data.draw(st.integers(0, 400), label="rows")
        problem = make_problem("P2-partial", 4)
        state = budget_state(problem, max_fe - fe, max_fe)
        X = problem.bounds.sample(rows, np.random.default_rng(rows))
        off = evaluate_batch(state.problem, _grant(state, X))
        granted = min(rows, max_fe - fe)
        assert len(off) == granted and state.fe == fe + granted <= max_fe
        if granted:
            np.testing.assert_array_equal(off.X, X[:granted])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(20, 200), st.data())
    def test_a_generation_on_a_fork_leaves_the_prefix_budget(self, max_fe, data):
        config = RunConfig(pop_size=5, max_fe=max_fe)
        prefix = initialize(make_problem("P1-overlap", 4), config, 1)
        prefix.fe = fe = data.draw(st.integers(0, max_fe), label="fe")
        state = fork(prefix, config)
        stage1_step(state)
        assert prefix.fe == fe and state.fe == min(fe + 10, max_fe)


class TestBatchedEvaluation:
    """Offspring are granted and evaluated in one batch per generation, with
    the rows, values and budget grants that a call per operator would give:
    a batch sliced at its parts' boundaries equals one grant and one
    evaluation per part."""

    @staticmethod
    def _assert_same_rows(got, want):
        assert len(got) == len(want)
        if len(want):
            for a, b in ((got.X, want.X), (got.F, want.F), (got.cv, want.cv)):
                np.testing.assert_array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PROBLEM_IDS), st.lists(st.integers(0, 40), min_size=1, max_size=4),
           st.integers(0, 170), st.integers(0, 2**32 - 1))
    def test_one_batch_equals_a_call_per_part(self, pid, sizes, remaining, seed):
        problem = make_problem(pid, 10)
        rng = np.random.default_rng(seed)
        parts = [problem.bounds.sample(k, rng) for k in sizes]
        batched, separate = budget_state(problem, remaining), budget_state(problem, remaining)
        got = evaluate_batch(batched.problem, _grant(batched, np.concatenate(parts)))
        end = 0
        for part in parts:
            end += len(part)
            self._assert_same_rows(got.take(slice(end - len(part), end)),
                                   evaluate_batch(separate.problem, _grant(separate, part)))
        assert batched.fe == separate.fe

    @pytest.mark.parametrize("rel_type", [1, 2, 3, 4])
    @pytest.mark.parametrize("remaining", [0, 30, 75, 1_000])
    def test_hops_batch_equals_a_call_per_operator(self, rel_type, remaining):
        batched, separate = stage2_state(rel_type=rel_type), stage2_state(rel_type=rel_type)
        for state in (batched, separate):
            state.fe = state.config.max_fe - remaining
        X1, X2 = hops_generate(batched, rel_type, 0.5, 0.25)
        off = evaluate_batch(batched.problem, _grant(batched, np.concatenate([X1, X2])))
        got = off.take(slice(None, len(X1))), off.take(slice(len(X1), None))
        for plan, factor, pop, pool_eps, side in zip(
                HOPS_PLANS[rel_type], (0.5, 0.25), (separate.pop_main, separate.pop_aux),
                (0.0, math.inf), got):
            want = Population.concat(*[
                evaluate_batch(separate.problem, _grant(separate, _run_operator(
                    separate, op, kind, round(factor * 100), pop, pool_eps)))
                for op, kind in plan])
            self._assert_same_rows(side, want)
        assert batched.fe == separate.fe
        assert batched.rng.bit_generator.state == separate.rng.bit_generator.state

    def test_one_call_per_stage1_generation(self, monkeypatch):
        calls = count_evaluate_calls(monkeypatch)
        state = initialize(make_problem("P3-separated", 10), RunConfig(pop_size=30), 1)
        assert calls == [60]
        for _ in range(5):
            del calls[:]
            stage1_step(state)
            assert calls == [60]

    def test_one_call_per_stage2_generation(self, monkeypatch):
        calls = count_evaluate_calls(monkeypatch)
        state = stage2_state(problem_id="P2-partial", n=30)
        for _ in range(20):
            del calls[:]
            fe = state.fe
            stage2_step(state)
            assert calls == [state.fe - fe]


class TestStage2Dispatch:
    def test_phase1_runs_reclassification(self):
        # fresh switch on a long budget keeps the relaxation near its start
        state = stage2_state(n=30, max_fe=500_000, rel_type=1, opposition_eps=1.0)
        stage2_step(state)
        rec = state.log[-1]
        assert rec["phase"] == 1
        assert rec["eps"] >= 0.195

    def test_phase2_angle_selection_for_separated(self):
        state = stage2_state(n=30, rel_type=3, opposition_eps=1.0)
        fe = state.fe
        state.schedule = EpsilonSchedule(switch_fe=fe - 100, max_fe=fe + 300)
        stage2_step(state)
        rec = state.log[-1]
        assert rec["phase"] == 2
        assert 0.005 < rec["eps"] < 0.195

    def test_phase3_for_coincident_type(self):
        state = stage2_state(n=30, rel_type=1, opposition_eps=1.0)
        fe = state.fe
        state.schedule = EpsilonSchedule(switch_fe=fe - 100, max_fe=fe + 300)
        stage2_step(state)
        rec = state.log[-1]
        assert rec["phase"] == 3
        assert rec["eps"] < 0.195

    def test_phase3_when_relaxation_exhausted(self):
        state = stage2_state(n=30, rel_type=3, opposition_eps=1.0)
        fe = state.fe
        state.schedule = EpsilonSchedule(switch_fe=fe - 400, max_fe=fe + 10)
        stage2_step(state)
        rec = state.log[-1]
        assert rec["phase"] == 3
        assert rec["eps"] <= 0.005

    def test_aux_size_tracks_feasible_ratio(self):
        state = stage2_state(n=100, rel_type=1, opposition_eps=1.0)
        fr = state.pop_aux.feasible_ratio()
        stage2_step(state)
        want = max(25, math.ceil((1 - fr) * 100))
        assert state.log[-1]["aux"] == want


class TestOppositionTrigger:
    def _infeasible_state(self, **kwargs):
        # P3 with tiny decisions: every member has g < 0.5, hence infeasible
        state = stage2_state(problem_id="P3-separated", n=30, rel_type=3, **kwargs)
        X = np.random.default_rng(0).random((30, 10)) * 0.05
        state.pop_main = evaluate_batch(state.problem, _grant(state, X))
        state.pop_aux = evaluate_batch(state.problem, _grant(state, X + 0.01))
        assert state.pop_main.feasible_ratio() == 0.0
        assert state.pop_aux.feasible_ratio() == 0.0
        return state

    def test_opposition_fires_on_fully_infeasible_populations(self):
        state = self._infeasible_state()
        fe = state.fe
        stage2_step(state)
        hops_count = hops_rows(3, state.dra.f1, state.dra.f2, 30)
        assert state.fe - fe == hops_count + 30  # 30 mirrored offspring

    def test_opposition_rows_lead_the_one_batch(self, monkeypatch):
        # The budget grants the 30 mirrored rows first, then the main and
        # auxiliary rows; the one evaluated batch holds the granted main and
        # auxiliary rows, then the mirrored ones.
        batches = []

        def captured(*args, **kwargs):
            batches.append(evaluate_batch(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr("dpcmo.engine.evaluate_batch", captured)
        for remaining in (None, 40):  # 40 rows: the mirrored rows and 10 main rows
            state = self._infeasible_state()
            if remaining is not None:
                state.config = replace(state.config, max_fe=state.fe + remaining)
            _, opposition, plan, dra, *_ = stage2_decide(state, state.config)
            assert opposition
            X1, X2 = hops_generate(fork(state, state.config), plan, dra.f1, dra.f2)
            hops = np.concatenate([X1, X2])
            if remaining is not None:
                assert len(X1) >= remaining - 30
                hops = hops[:remaining - 30]
            mirrored = opposition_offspring(state.pop_aux, state.problem.bounds)
            del batches[:]
            stage2_step(state)
            assert len(batches) == 1
            np.testing.assert_array_equal(batches[0].X, np.concatenate([hops, mirrored]))

    @pytest.mark.parametrize("block", ["opposition", "main", "aux"])
    def test_budget_ending_inside_a_block(self, monkeypatch, block):
        # The batch holds the opposition, main and auxiliary rows in that
        # order; the main union takes the granted main, auxiliary and
        # opposition rows, in that order, whichever block the budget ends in.
        state = self._infeasible_state()
        _, opposition, plan, dra, *_ = stage2_decide(state, state.config)
        assert opposition
        X3 = opposition_offspring(state.pop_aux, state.problem.bounds)
        X1, X2 = hops_generate(fork(state, state.config), plan, dra.f1, dra.f2)
        remaining = {"opposition": 10, "main": 35, "aux": 30 + len(X1) + 5}[block]
        ends = np.cumsum([0, len(X3), len(X1), len(X2)])
        i = ["opposition", "main", "aux"].index(block)
        assert ends[i] < remaining < ends[i + 1]
        state.config = replace(state.config, max_fe=state.fe + remaining)
        g3 = min(len(X3), remaining)
        g1 = min(len(X1), remaining - g3)
        want = np.concatenate([state.pop_main.X, X1[:g1], X2[:remaining - g3 - g1], X3[:g3]])
        unions = []

        def captured(union, *args):
            unions.append(union)
            return environmental_select(union, *args)

        monkeypatch.setattr("dpcmo.engine.environmental_select", captured)
        stage2_step(state)
        assert state.fe == state.config.max_fe
        np.testing.assert_array_equal(unions[0].X, want)

    def test_opposition_disabled_by_ablation(self):
        state = self._infeasible_state(variant="WoOP")
        fe = state.fe
        stage2_step(state)
        hops_count = hops_rows(3, state.dra.f1, state.dra.f2, 30)
        assert state.fe - fe == hops_count

    def test_opposition_skipped_when_aux_partially_feasible(self):
        state = stage2_state(problem_id="P3-separated", n=30, rel_type=3)
        assert state.pop_aux.feasible_ratio() > 0.0
        fe = state.fe
        stage2_step(state)
        hops_count = hops_rows(3, state.dra.f1, state.dra.f2, 30)
        assert state.fe - fe == hops_count


class TestAblations:
    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            RunConfig(variant="WoXYZ")

    @pytest.mark.parametrize("variant", ABLATION_VARIANTS)
    def test_variant_is_the_only_changed_field(self, variant):
        changed = asdict(replace(RunConfig(), variant=variant))
        assert changed == {**asdict(RunConfig()), "variant": variant}

    def test_forced_plan_overrides_tracker(self):
        state = stage2_state(rel_type=1, opposition_eps=1.0, variant="HOps-T3")
        fe = state.fe
        stage2_step(state)
        want = hops_rows(3, state.dra.f1, state.dra.f2, 100)
        assert state.fe - fe == want

    def test_unstable_counter_selects_fallback_plan(self):
        state = stage2_state(rel_type=1, cnt=4, opposition_eps=1.0)
        fe = state.fe
        stage2_step(state)
        want = hops_rows(4, state.dra.f1, state.dra.f2, 100)
        assert state.fe - fe == want

    def test_static_allocation(self):
        state = stage2_state(rel_type=1, opposition_eps=1.0, variant="WoDRA")
        stage2_step(state)
        assert state.dra.f1 == 0.5
        assert state.dra.f2 == 0.5

    def test_single_phase_relaxation(self):
        state = stage2_state(n=30, rel_type=3, opposition_eps=1.0, variant="Eps1")
        stage2_step(state)
        assert state.log[-1]["eps"] == pytest.approx(0.2, abs=0.01)

    def test_forced_angle_selection_every_generation(self):
        # the constant problem switches within a dozen generations
        result = run(constant_problem(),
                     RunConfig(pop_size=30, max_fe=2400, variant="Wo3P"), 3)
        stage2 = [r for r in result.log if r["stage"] == 1]
        assert stage2
        assert all(r["phase"] == 2 for r in stage2)


class TestRun:
    def test_budget_respected_with_odd_budget(self):
        result = run(make_problem("P1-overlap", 10), RunConfig(pop_size=30, max_fe=1997), 1)
        assert result.evaluations == 1997
        fes = [r["fe"] for r in result.log]
        assert fes == sorted(fes)
        assert fes[-1] == 1997

    def test_fractional_seed_rejected_before_any_generation(self, monkeypatch):
        monkeypatch.setattr("dpcmo.engine.stage1_step", lambda state: pytest.fail("a generation ran"))
        with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
            run(make_problem("P1-overlap", 10), RunConfig(pop_size=30, max_fe=1000), seed=1.5)

    def test_numpy_integer_seed_runs_as_its_int(self):
        problem, config = make_problem("P1-overlap", 10), RunConfig(pop_size=10, max_fe=100)
        assert run(problem, config, seed=np.int64(3)).fingerprint == run(problem, config, seed=3).fingerprint

    def test_numpy_integer_dimension_runs_as_its_int(self):
        config = RunConfig(pop_size=10, max_fe=100)
        plain = run(make_problem("P1-overlap", 10), config, 3)
        assert run(make_problem("P1-overlap", np.int64(10)), config, 3).fingerprint == plain.fingerprint

    def test_degenerate_budget_returns_initial_front(self):
        result = run(make_problem("P3-separated", 10), RunConfig(pop_size=50, max_fe=100), 1)
        assert result.evaluations == 100
        assert len(result.log) == 1
        assert result.switch_generation is None
        assert len(result.front_objectives) > 0

    def test_deterministic_logs(self):
        p = make_problem("P2-partial", 10)
        cfg = RunConfig(pop_size=30, max_fe=3000)
        a = run(p, cfg, seed=11)
        b = run(p, cfg, seed=11)
        assert json.dumps(a.log) == json.dumps(b.log)
        assert np.array_equal(a.front_objectives, b.front_objectives)
        c = run(p, cfg, seed=12)
        assert json.dumps(a.log) != json.dumps(c.log)
        assert a.fingerprint == b.fingerprint != c.fingerprint

    def test_front_members_feasible_and_nondominated(self):
        result = run(make_problem("P1-overlap", 10), RunConfig(pop_size=40, max_fe=6000), 5)
        assert np.all(result.front_cv == 0.0)
        F = result.front_objectives
        for i in range(len(F)):
            for j in range(len(F)):
                if i != j:
                    assert not (np.all(F[j] <= F[i]) and np.any(F[j] < F[i]))

    def test_quality_improves_over_run(self):
        result = run(make_problem("P1-overlap", 10), RunConfig(pop_size=50, max_fe=10_000), 8)
        hv = [r["hv"] for r in result.log if r["hv"] > 0]
        assert hv[-1] >= hv[0]
        igd_first = next(r["igd"] for r in result.log if math.isfinite(r["igd"]))
        assert result.final_igd < igd_first

    def test_feasible_front_helper(self):
        state = initialize(make_problem("P3-separated", 10), RunConfig(pop_size=30), 2)
        front = feasible_front(state.pop_main)
        assert len(front) > 0
        assert np.all(front.cv == 0.0)
        cvs = state.pop_main.cv
        assert len(front) <= (cvs == 0).sum()
        empty = feasible_front(state.pop_main.take(cvs > 0))
        assert empty.X.shape == (0, 10) and empty.F.shape == (0, 2) and empty.cv.shape == (0,)

    def test_final_metrics_are_last_log_record(self):
        result = run(make_problem("P2-partial", 10), RunConfig(pop_size=30, max_fe=1500), 4)
        assert result.final_igd == result.log[-1]["igd"]
        assert result.final_hv == result.log[-1]["hv"]


# maxFE >= 2 * N * 252, so the g > 250 switch cap ends stage 1 in every run.
SHARED = RunConfig(pop_size=30, max_fe=15_200)
ALL_VARIANTS = ("full",) + ABLATION_VARIANTS
# full and the eight variants that change only stage 2.
FULL_CLASS = tuple(v for v in ALL_VARIANTS if v not in ("WoRR", "WoS1C"))


def log_bytes(log) -> bytes:
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in log).encode()


def result_view(result) -> tuple:
    """Everything a run returns but its wall time, as comparable values."""
    front = b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in (
        result.front_decisions, result.front_objectives, result.front_cv))
    return (log_bytes(result.log), front, result.final_igd, result.final_hv,
            result.switch_generation, result.type_at_switch, result.evaluations,
            result.fingerprint)


@pytest.fixture(scope="module")
def full_stage1():
    """Per problem, full's seed-1 stage 1: every variant's ``stage1_decide``
    at each of its states, and the state after its switch generation."""
    out = {}
    for pid in PROBLEM_IDS:
        state = initialize(make_problem(pid, 10), SHARED, 1)
        decisions = []
        while state.schedule is None:
            decisions.append({v: stage1_decide(state, replace(SHARED, variant=v)) for v in ALL_VARIANTS})
            stage1_step(state)
        out[pid] = decisions, state
    return out


class TestSharedStage1:
    def test_stage1_variants_are_exactly_those_that_move_stage1(self, full_stage1):
        for pid, (decisions, _) in full_stage1.items():
            followers = tuple(v for v in ALL_VARIANTS if all(d[v] == d["full"] for d in decisions))
            assert followers == FULL_CLASS, pid
        for variant in ("WoRR", "WoS1C"):
            assert any(d[variant] != d["full"] for decisions, _ in full_stage1.values()
                       for d in decisions), variant
        assert all(state.switch_generation is not None for _, state in full_stage1.values())

    def test_continued_runs_equal_fresh_runs(self, full_stage1):
        # The golden "variants" grid pins the other problems' continued runs.
        problem = make_problem("P3-separated", 10)
        prefix = initialize(problem, SHARED, 1)
        parts = advance(prefix, {v: replace(SHARED, variant=v) for v in FULL_CLASS})
        # The stage-2 variants share all of stage 1; WoOP leaves at the
        # first stage-2 generation, which is not run.
        assert len(parts) > 1 and None not in parts and prefix.config == SHARED
        assert prefix.g == full_stage1["P3-separated"][1].g
        fe, generations = prefix.fe, len(prefix.log)
        fresh = {v: result_view(run(problem, replace(SHARED, variant=v), 1)) for v in FULL_CLASS}
        for order in (FULL_CLASS, FULL_CLASS[::-1]):
            for variant in order:
                config = replace(SHARED, variant=variant)
                continued = run(problem, config, 1, prefix=fork(prefix, config))
                assert result_view(continued) == fresh[variant], variant
        assert (prefix.fe, len(prefix.log)) == (fe, generations)

    def test_prefix_from_another_key_is_refused(self):
        problem = make_problem("P1-overlap", 10)
        prefix = initialize(problem, SHARED, 1)
        # WoRR decides as full up to full's switch, but the prefix holds
        # full's config: WoRR continues it through a fork under its own.
        advance(prefix, {"full": SHARED, "WoRR": replace(SHARED, variant="WoRR")})
        for other in ((problem, SHARED, 2), (make_problem("P1-overlap", 12), SHARED, 1),
                      (problem, replace(SHARED, phase3_eps=0.001), 1), (problem, replace(SHARED, variant="WoRR"), 1),
                      (problem, replace(SHARED, variant="WoS1C"), 1)):
            with pytest.raises(ValueError, match="prefix belongs to another problem, seed or config"):
                run(*other, prefix=prefix)
        worr = replace(SHARED, variant="WoRR")
        continued = run(problem, worr, 1, prefix=fork(prefix, worr))
        assert result_view(continued) == result_view(run(problem, worr, 1))

    def test_advance_refuses_a_state_under_a_non_members_config(self):
        problem = make_problem("P1-overlap", 10)
        config = RunConfig(pop_size=30, max_fe=3000)
        state = initialize(problem, replace(config, variant="WoS1C"), 1)
        with pytest.raises(ValueError, match="the state decides as WoS1C, not as one of full, WoRR"):
            advance(state, {"full": config, "WoRR": replace(config, variant="WoRR")})
        # A member's config must be the state's whole config, not only its variant.
        with pytest.raises(ValueError, match="the state decides as WoS1C"):
            advance(state, {"WoS1C": replace(state.config, phase3_eps=0.001)})
        assert state.fe == 2 * config.pop_size and len(state.log) == 1

    def test_prefix_under_another_variants_config_is_refused(self):
        problem = make_problem("P1-overlap", 10)
        config = RunConfig(pop_size=30, max_fe=3000)
        wos1c = replace(config, variant="WoS1C")
        prefix = fork(initialize(problem, wos1c, 1), wos1c)
        with pytest.raises(ValueError, match="prefix belongs to another problem, seed or config"):
            run(problem, config, 1, prefix=prefix)

    def test_prefix_that_spent_the_budget_continues_to_the_fresh_result(self):
        problem = make_problem("P2-partial", 10)
        config = RunConfig(pop_size=30, max_fe=1500)
        prefix = initialize(problem, config, 1)
        assert advance(prefix, {"full": config}) == {None: ["full"]}
        assert prefix.schedule is None and prefix.fe == config.max_fe
        fresh = result_view(run(problem, config, 1))
        assert result_view(run(problem, config, 1, prefix=prefix)) == fresh
        states, _ = share(problem, 1, {"full": config})
        assert states["full"].fe == config.max_fe
        assert result_view(run(problem, config, 1, prefix=states["full"])) == fresh

    def test_stage2_prefix_continues_only_under_the_variants_it_followed(self, full_stage1):
        # The fork runs under Wo3P's config, and its shared generations
        # decide under it: Wo3P decides as full while full is in phase 2.
        problem = make_problem("P3-separated", 10)
        configs = {v: replace(SHARED, variant=v) for v in ("Wo3P", "full")}
        switched = full_stage1["P3-separated"][1]
        state = fork(switched, configs["Wo3P"])
        assert state.config.variant == "Wo3P" and state.problem is switched.problem
        parts = advance(state, configs)
        assert [sorted(part) for part in parts.values()] == [["Wo3P"], ["full"]]
        assert state.config == configs["Wo3P"] and state.g > switched.g + 1
        # Only Wo3P continues the state itself; full continues a fork under
        # its own config, and a non-member's config is refused.
        for variant in ("full", "WoOP"):
            with pytest.raises(ValueError, match="prefix belongs to another problem, seed or config"):
                run(problem, replace(SHARED, variant=variant), 1, prefix=state)
        with pytest.raises(ValueError, match="the state decides as Wo3P, not as one of WoOP, full"):
            advance(state, {v: replace(SHARED, variant=v) for v in ("WoOP", "full")})
        for variant, config in configs.items():
            continued = run(problem, config, 1, prefix=fork(state, config))
            assert result_view(continued) == result_view(run(problem, config, 1)), variant

    def test_continued_wall_time_adds_the_prefix_seconds(self):
        problem = make_problem("P1-overlap", 10)
        config = RunConfig(pop_size=30, max_fe=3000)
        prefix = initialize(problem, config, 1)
        assert prefix.seconds > 0.0
        prefix.seconds = 1000.0
        started = time.perf_counter()
        result = run(problem, config, 1, prefix=prefix)
        assert 1000.0 < result.wall_time < 1000.0 + time.perf_counter() - started
        assert prefix.seconds == 1000.0


# The CI shared grid: WoS1C leaves at generation 1, WoRR at full's switch,
# Wo3P at the first stage-2 generation, and full and WoOP share the rest.
CI_GRID = ("full", "WoRR", "WoS1C", "WoOP", "Wo3P")


class TestShare:
    def test_each_variant_continues_its_own_state_to_its_solo_run(self):
        problem = make_problem("P1-overlap", 10)
        configs = {v: replace(SHARED, variant=v) for v in CI_GRID}
        states, diverged = share(problem, 1, configs)
        assert sorted(states) == sorted(CI_GRID)
        assert len({id(state) for state in states.values()}) == len(CI_GRID)
        assert all(states[v].config is configs[v] for v in CI_GRID)
        assert diverged["WoS1C"] == 1 and diverged["WoOP"] is None and sorted(diverged) == sorted(CI_GRID[1:])
        for variant, config in configs.items():
            continued = run(problem, config, 1, prefix=states[variant])
            assert result_view(continued) == result_view(run(problem, config, 1)), variant

    def test_failed_shared_generation_fails_only_the_variants_that_shared_it(self, monkeypatch):
        problem = make_problem("P1-overlap", 10)
        configs = {v: replace(SHARED, variant=v) for v in CI_GRID}
        solo = {v: result_view(run(problem, configs[v], 1)) for v in ("WoRR", "WoS1C")}
        inner = engine.stage1_apply

        def flaky(state, decision):
            # full, WoOP and Wo3P switch together on a fork under full's config.
            if decision[0] and state.config.variant == "full":
                raise RuntimeError("switch boom")
            inner(state, decision)

        monkeypatch.setattr(engine, "stage1_apply", flaky)
        states, _ = share(problem, 1, configs)
        for variant in ("full", "WoOP", "Wo3P"):
            assert isinstance(states[variant], RuntimeError) and str(states[variant]) == "switch boom"
        for variant, view in solo.items():
            assert result_view(run(problem, configs[variant], 1, prefix=states[variant])) == view


class TestDecideApply:
    def test_decide_draws_and_changes_nothing(self, full_stage1):
        stage1_state = initialize(make_problem("P3-separated", 10), SHARED, 1)
        for _ in range(12):  # past the history gap, so the switch metric reads the history
            stage1_step(stage1_state)

        def view(state):
            return (state.rng.bit_generator.state, state.fe, log_bytes(state.log),
                    state.pop_main, state.pop_aux, state.dra, state.tracker, state.epsilon,
                    state.phase, state.g, state.schedule, id(state.history.entries[-1]))

        for state, decide in ((stage1_state, stage1_decide),
                              (full_stage1["P3-separated"][1], stage2_decide)):
            before = view(state)
            for variant in ALL_VARIANTS:
                config = replace(SHARED, variant=variant)
                assert decide(state, config) == decide(state, config), variant
            assert view(state) == before

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dpcmo.core import (
    Bounds,
    EvalCounter,
    Population,
    constraint_violation_batch,
    evaluate_batch,
)
from dpcmo.problems import PROBLEM_IDS, make_problem
from dpcmo.staging import PointHistory

from oracles import (
    BudgetExhausted,
    clamp_to_bounds,
    constraint_violation,
    evaluate,
    pareto_dominates,
)


class TestConstraintViolation:
    def test_inequality_only(self):
        assert constraint_violation([-1.0, 2.0], [], 1e-4) == 2.0

    def test_equality_at_tolerance(self):
        assert constraint_violation([], [1e-4], 1e-4) == 0.0

    def test_mixed(self):
        got = constraint_violation([0.3, -0.1], [0.2], 1e-4)
        assert got == pytest.approx(0.4999, abs=1e-15)

    def test_zero_iff_feasible(self):
        assert constraint_violation([-0.5, 0.0], [5e-5, -9e-5], 1e-4) == 0.0
        assert constraint_violation([1e-9], [], 1e-4) > 0.0
        assert constraint_violation([], [1.1e-4], 1e-4) > 0.0

    def test_rejects_nonfinite_with_index(self):
        with pytest.raises(ValueError, match="index 1"):
            constraint_violation([0.0, np.nan], [], 1e-4)
        with pytest.raises(ValueError, match="eq"):
            constraint_violation([], [np.inf], 1e-4)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            constraint_violation([1.0], [], 0.0)

    @given(
        st.lists(st.floats(-10, 10), min_size=1, max_size=5),
        st.integers(0, 4),
        st.floats(0.01, 5.0),
    )
    def test_monotone_in_each_term(self, g, idx, bump):
        idx = idx % len(g)
        base = constraint_violation(g, [], 1e-4)
        raised = list(g)
        raised[idx] += bump
        assert constraint_violation(raised, [], 1e-4) >= base


class TestDominance:
    def test_examples(self):
        assert pareto_dominates((1, 2), (2, 3))
        assert not pareto_dominates((1, 2), (1, 2))
        assert not pareto_dominates((1, 3), (2, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pareto_dominates((1, 2), (1, 2, 3))

    def test_irreflexive_and_transitive(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a, b, c = rng.integers(0, 3, size=(3, 3)).astype(float)
            assert not pareto_dominates(a, a)
            if pareto_dominates(a, b) and pareto_dominates(b, c):
                assert pareto_dominates(a, c)


class TestClamp:
    def test_examples(self):
        b1 = Bounds([0.0], [1.0])
        assert clamp_to_bounds(np.array([1.5]), b1).tolist() == [1.0]
        assert clamp_to_bounds(np.array([0.5]), b1).tolist() == [0.5]
        b3 = Bounds([0.0] * 3, [1.0] * 3)
        assert clamp_to_bounds(np.array([-2.0, 0.3, 9.0]), b3).tolist() == [0.0, 0.3, 1.0]

    def test_idempotent(self):
        b = Bounds([-1.0, 0.0], [1.0, 2.0])
        rng = np.random.default_rng(3)
        X = rng.uniform(-5, 5, size=(100, 2))
        once = clamp_to_bounds(X, b)
        assert np.array_equal(clamp_to_bounds(once, b), once)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            Bounds([0.0, 1.0], [1.0, 1.0])


class TestEvaluate:
    def test_p1_example(self):
        p = make_problem("P1-overlap", 10)
        counter = EvalCounter(10)
        x = np.array([0.25] + [0.0] * 9)
        s = evaluate(p, x, counter)
        assert s.objectives == pytest.approx([0.25, 0.5])
        assert s.cv == 0.0
        assert counter.count == 1

    def test_p3_example(self):
        p = make_problem("P3-separated", 10)
        s = evaluate(p, np.zeros(10), EvalCounter(1))
        assert s.ineq == pytest.approx([0.5])
        assert s.cv == pytest.approx(0.5)

    def test_budget_exhausted(self):
        p = make_problem("P1-overlap", 10)
        counter = EvalCounter(1)
        evaluate(p, np.zeros(10), counter)
        with pytest.raises(BudgetExhausted):
            evaluate(p, np.zeros(10), counter)

    def test_batch_truncates_at_budget(self):
        p = make_problem("P1-overlap", 10)
        counter = EvalCounter(5)
        X = np.zeros((8, 10))
        out = evaluate_batch(p, X, counter)
        assert len(out) == 5
        assert counter.count == 5
        assert np.array_equal(out.X, X[:5])
        assert len(evaluate_batch(p, X, counter)) == 0

    def test_batch_matches_single(self):
        p = make_problem("P2-partial", 10)
        rng = np.random.default_rng(11)
        X = rng.random((20, 10))
        batch = evaluate_batch(p, X, EvalCounter(20))
        for i in range(len(batch)):
            single = evaluate(p, X[i], EvalCounter(1))
            assert np.array_equal(batch.F[i], single.objectives)
            assert batch.cv[i] == single.cv

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(PROBLEM_IDS), st.integers(2, 12), st.data())
    def test_batch_matches_scalar_reference_row_by_row(self, pid, dimension, data):
        p = make_problem(pid, dimension)
        X = data.draw(hnp.arrays(float, (data.draw(st.integers(1, 30)), dimension),
                                 elements=st.floats(0, 1, allow_subnormal=False)))
        budget = data.draw(st.integers(0, len(X) + 3))
        batch = evaluate_batch(p, X, EvalCounter(budget))
        assert len(batch) == min(budget, len(X))
        counter = EvalCounter(len(X))
        for i in range(len(batch)):
            ref = evaluate(p, X[i], counter)
            assert np.array_equal(batch.X[i], ref.decisions)
            assert np.array_equal(batch.F[i], ref.objectives)
            assert batch.cv[i] == pytest.approx(ref.cv, rel=1e-12, abs=1e-15)
            assert (batch.cv[i] == 0.0) == (ref.cv == 0.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 6), st.integers(0, 6), st.data())
    def test_violation_batch_matches_scalar_reference(self, n, n_ineq, n_eq, data):
        values = st.floats(-10, 10, allow_subnormal=False)
        G = data.draw(hnp.arrays(float, (n, n_ineq), elements=values))
        H = data.draw(hnp.arrays(float, (n, n_eq), elements=values))
        delta = data.draw(st.sampled_from([1e-4, 0.5]))
        cv = constraint_violation_batch(G, H, delta)
        for i in range(n):
            ref = constraint_violation(G[i], H[i], delta)
            assert cv[i] == pytest.approx(ref, rel=1e-12, abs=1e-15)
            assert (cv[i] == 0.0) == (ref == 0.0)


class TestPopulation:
    def test_cached_points_match_recomputation(self):
        # The ideal, nadir and average points of a population are taken
        # once per generation, when the switch metric's history records it.
        rng = np.random.default_rng(5)
        F = rng.random((40, 3))
        pop = Population(np.zeros((40, 2)), F, np.zeros(40))
        hist = PointHistory(gap=1)
        hist.record(pop)
        ideal, nadir, average = hist.entries[-1]
        assert ideal == pytest.approx(F.min(axis=0))
        assert nadir == pytest.approx(F.max(axis=0))
        assert average == pytest.approx(F.mean(axis=0))
        assert np.all(ideal <= average)
        assert np.all(average <= nadir)

    def test_feasible_ratio(self):
        pop = Population(np.zeros((4, 2)), np.ones((4, 2)), [1.0, 0.0, 0.0, 0.0])
        assert pop.feasible_ratio() == 0.75
        assert Population.empty().feasible_ratio() == 0.0

    def test_arrays_are_read_only_and_row_aligned(self):
        pop = Population(np.zeros((3, 2)), np.ones((3, 2)), np.zeros(3))
        with pytest.raises(ValueError):
            pop.F[0, 0] = 5.0
        with pytest.raises(ValueError, match="row counts"):
            Population(np.zeros((3, 2)), np.ones((2, 2)), np.zeros(3))

    def test_concat_and_take_keep_row_order(self):
        a = Population(np.arange(4.0).reshape(2, 2), [[0.0, 1.0], [1.0, 0.0]], [0.0, 0.5])
        b = Population(np.full((1, 2), 9.0), [[2.0, 2.0]], [0.0])
        union = Population.concat(a, Population.empty(), b)
        assert union.F.tolist() == [[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]]
        assert union.cv.tolist() == [0.0, 0.5, 0.0]
        assert union.F.flags.c_contiguous
        picked = union.take(np.array([2, 0, 2]))
        assert picked.X[:, 0].tolist() == [9.0, 0.0, 9.0]
        assert Population.concat(a) is a
        assert len(Population.concat()) == 0

import math

import numpy as np
import pytest

from dpcmo.core import Population
from dpcmo.selection import (
    _staircase_crowding,
    angle_subregion_select,
    das_dennis_vectors,
    environmental_select,
    fitness_order,
    nondominated_ranks,
    unconstrained_nondominated,
)

from oracles import (
    Solution,
    _two_objective_directions,
    adjusted_cv,
    angle_select_literal,
    epsilon_cdp_compare,
    nsga2_select_bruteforce,
    pareto_dominates,
)


def sol(objectives, cv=0.0):
    objectives = np.asarray(objectives, dtype=float)
    return Solution(objectives, objectives, np.empty(0), np.empty(0), float(cv))


def population(F, cv=None):
    """Decisions equal the objectives; every row feasible unless cv is given."""
    F = np.asarray(F, dtype=float).reshape(len(F), -1)
    return Population(F, F, np.zeros(len(F)) if cv is None else cv)


def random_population(n, m, seed, infeasible_share=0.0):
    rng = np.random.default_rng(seed)
    F, cv = [], []
    for _ in range(n):
        cv.append(float(rng.uniform(0.1, 2.0)) if rng.random() < infeasible_share else 0.0)
        F.append(rng.random(m))
    return population(F, cv)


class TestCompare:
    def test_feasible_first(self):
        a = sol([9.0, 9.0], cv=0.0)
        b = sol([0.0, 0.0], cv=1.0)
        assert epsilon_cdp_compare(a, b, 0.0) == -1

    def test_both_within_allowance(self):
        a = sol([1.0, 2.0], cv=0.5)
        b = sol([2.0, 3.0], cv=0.5)
        assert epsilon_cdp_compare(a, b, 1.0) == -1

    def test_partial_relaxation(self):
        a = sol([5.0, 5.0], cv=0.2)
        b = sol([0.0, 0.0], cv=0.9)
        assert epsilon_cdp_compare(a, b, 0.5) == -1  # 0 vs 0.4 after allowance

    def test_infinite_epsilon_matches_pareto(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            a = sol(rng.random(3), rng.uniform(0, 2))
            b = sol(rng.random(3), rng.uniform(0, 2))
            got = epsilon_cdp_compare(a, b, math.inf)
            want = -1 if pareto_dominates(a.objectives, b.objectives) else (
                1 if pareto_dominates(b.objectives, a.objectives) else 0)
            assert got == want

    def test_zero_epsilon_never_prefers_infeasible(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            feas = sol(rng.random(2), 0.0)
            infeas = sol(rng.random(2), rng.uniform(1e-9, 3))
            assert epsilon_cdp_compare(infeas, feas, 0.0) != -1

    def test_adjusted_cv(self):
        assert adjusted_cv(0.9, 0.5) == pytest.approx(0.4)
        assert adjusted_cv(0.2, 0.5) == 0.0
        assert adjusted_cv(123.0, math.inf) == 0.0


class TestEnvironmentalSelect:
    def test_small_union_returned_whole(self):
        pop = random_population(5, 2, seed=2)
        assert environmental_select(pop, 10, 0.0).tolist() == [0, 1, 2, 3, 4]

    def test_single_feasible_survives(self):
        union = population([[0.0, 0.0]] * 9 + [[5.0, 5.0]], [1.0 + i for i in range(9)] + [0.0])
        assert environmental_select(union, 1, 0.0).tolist() == [9]

    def test_matches_bruteforce_unconstrained(self):
        rng = np.random.default_rng(3)
        for trial in range(60):
            n = int(rng.integers(3, 13))
            keep = int(rng.integers(1, n + 1))
            rows = [(rng.random(2), rng.uniform(0, 2)) for _ in range(n)]
            union = population([f for f, _ in rows], [c for _, c in rows])
            got_idx = sorted(environmental_select(union, keep, math.inf).tolist())
            want_idx = nsga2_select_bruteforce([tuple(f) for f in union.F], keep)
            assert got_idx == want_idx, f"trial {trial}"

    def test_rank_one_always_kept(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            rows = [(rng.random(2), float(rng.random() < 0.4) * rng.random())
                    for _ in range(20)]
            union = population([f for f, _ in rows], [c for _, c in rows])
            F, cvs = union.F, union.cv
            adj = np.maximum(0.0, cvs - 0.1)
            rank1 = [i for i in range(20)
                     if not any((adj[j] < adj[i]) or (adj[j] == adj[i]
                                and pareto_dominates(F[j], F[i])) for j in range(20))]
            kept = set(environmental_select(union, max(len(rank1), 10), 0.1).tolist())
            assert all(i in kept for i in rank1)

    def test_output_size_exact(self):
        pop = random_population(30, 2, seed=5, infeasible_share=0.3)
        for n in (1, 7, 29, 30, 31):
            assert len(environmental_select(pop, n, 0.0)) == min(n, 30)

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError):
            environmental_select(Population.empty(), 5, 0.0)


class TestFrontCrowding:
    """The crowding kernel, on fronts given in peel order: f1 ascending,
    f2 descending."""

    @pytest.mark.parametrize("rows", [1, 2])
    def test_fronts_of_one_and_two_rows_are_all_boundary(self, rows):
        F = np.array([[0.0, 1.0], [1.0, 0.0]])[:rows]
        assert _staircase_crowding(F).tolist() == [math.inf] * rows

    def test_all_duplicate_front_has_zero_interior(self):
        assert _staircase_crowding(np.ones((4, 2))).tolist() == [math.inf, 0.0, 0.0, math.inf]

    def test_interior_sums_normalized_gaps(self):
        F = np.array([[0.0, 4.0], [1.0, 2.0], [3.0, 1.0], [4.0, 0.0]])
        assert _staircase_crowding(F).tolist() == [math.inf, 3 / 4 + 3 / 4, 3 / 4 + 2 / 4,
                                                   math.inf]


class TestReferenceVectors:
    def test_two_objective_three_targets(self):
        vecs = das_dennis_vectors(3)
        want = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        want = want / np.linalg.norm(want, axis=1, keepdims=True)
        assert vecs == pytest.approx(want)

    def test_two_objective_two_targets(self):
        vecs = das_dennis_vectors(2)
        assert vecs == pytest.approx(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_axes_present_for_two_objectives(self):
        for target in (2, 5, 11, 40):
            vecs = das_dennis_vectors(target)
            assert any(np.allclose(v, [1, 0]) for v in vecs)
            assert any(np.allclose(v, [0, 1]) for v in vecs)

    def test_deterministic(self):
        assert np.array_equal(das_dennis_vectors(9), das_dennis_vectors(9))

    def test_equals_literal_lattice_bit_for_bit(self):
        for target in range(2, 401):
            assert das_dennis_vectors(target).tolist() == [
                list(v) for v in _two_objective_directions(target)], f"target {target}"

    def test_fewer_than_two_targets_rejected(self):
        with pytest.raises(ValueError):
            das_dennis_vectors(1)


class TestAngleSubregionSelect:
    def test_one_feasible_point_per_subregion_is_identity(self):
        pts = [(1.0, 0.0), (0.75, 0.25), (0.5, 0.5), (0.25, 0.75), (0.0, 1.0)]
        out = angle_subregion_select(population(pts), 5, 5, 0.0)
        assert sorted(out.tolist()) == [0, 1, 2, 3, 4]

    def test_all_identical_members(self):
        union = population([[0.4, 0.6]] * 30)
        out = angle_subregion_select(union, 30, 5, 0.0)
        assert len(out) == 5
        for f in union.F[out]:
            assert tuple(f) == (0.4, 0.6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            angle_subregion_select(Population.empty(), 0, 5, 0.0)

    def test_matches_literal_transcription(self):
        rng = np.random.default_rng(6)
        for trial in range(40):
            rows = [(rng.random(2), float(rng.random() < 0.5) * rng.uniform(0, 1))
                    for _ in range(20)]
            F = [f for f, _ in rows]
            cv = [c for _, c in rows]
            eps = float(rng.choice([0.0, 0.05, 0.2]))
            got_idx = angle_subregion_select(population(F, cv), 10, 5, eps).tolist()
            want_idx = angle_select_literal(F[:10], cv[:10], F[10:], cv[10:], 5, eps)
            assert got_idx == want_idx, f"trial {trial}"

        # (n_aux, n_off, n_s, duplicated rows): n_aux >= 25 skips the top-up;
        # n_s above the nondominated count makes vectors share a candidate;
        # exact duplicate rows tie on angle.
        for n_aux, n_off, n_s, n_dup in ((30, 20, 8, 0), (12, 8, 15, 0), (10, 10, 6, 8),
                                         (26, 14, 20, 12)):
            n = n_aux + n_off
            for trial in range(15):
                F = rng.random((n, 2))
                cv = (rng.random(n) < 0.5) * rng.uniform(0, 1, n)
                dst = rng.choice(n, n_dup, replace=False)
                F[dst] = F[rng.integers(0, n, n_dup)]
                eps = float(rng.choice([0.0, 0.05, 0.2]))
                got_idx = angle_subregion_select(population(F, cv), n_aux, n_s, eps).tolist()
                want_idx = angle_select_literal(F[:n_aux], cv[:n_aux], F[n_aux:], cv[n_aux:],
                                                n_s, eps)
                assert got_idx == want_idx, f"case {(n_aux, n_off, n_s, n_dup)}, trial {trial}"

    def test_output_size_and_determinism(self):
        union = Population.concat(random_population(30, 2, seed=7, infeasible_share=0.5),
                                  random_population(40, 2, seed=8, infeasible_share=0.5))
        a = angle_subregion_select(union, 30, 12, 0.01)
        b = angle_subregion_select(union, 30, 12, 0.01)
        assert len(a) == 12
        assert a.tolist() == b.tolist()


class TestHelpers:
    def test_unconstrained_nondominated(self):
        F = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        assert unconstrained_nondominated(F).tolist() == [0, 1, 2]

    @pytest.mark.parametrize("m", [1, 3])
    def test_other_objective_counts_rejected(self, m):
        F = np.random.default_rng(9).random((6, m))
        with pytest.raises(ValueError, match="2 columns"):
            nondominated_ranks(F, np.zeros(6), 0.0)
        with pytest.raises(ValueError, match="2 columns"):
            unconstrained_nondominated(F)

    def test_fitness_order_prefers_feasible_rank(self):
        order = fitness_order(population([[0.2, 0.2], [0.5, 0.5]], [1.0, 0.0]), 0.0)
        assert order[0] == 1

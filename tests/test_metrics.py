import numpy as np
import pytest

from dpcmo import metrics
from dpcmo.metrics import IGD_EMPTY, MetricConfig, hypervolume, igd

from oracles import igd_dense, mc_hypervolume


def random_front(rng, k, m=2):
    """k mutually nondominated points inside the unit box."""
    if m == 2:
        x = np.sort(rng.uniform(0.05, 0.95, k))
        y = np.sort(rng.uniform(0.05, 0.95, k))[::-1]
        return np.column_stack([x, y])
    # 3 objectives: points on a randomly scaled simplex shell
    w = rng.dirichlet(np.ones(3), size=k)
    scale = rng.uniform(0.4, 0.9, size=(k, 1))
    return w * scale


class TestHypervolume:
    def test_single_point(self):
        assert hypervolume([[0.5, 0.5]], [1.0, 1.0]) == pytest.approx(0.25)

    def test_two_point_sweep(self):
        got = hypervolume([[0.2, 0.8], [0.8, 0.2]], [1.0, 1.0])
        assert got == pytest.approx(0.2 * 0.8 + 0.6 * 0.2)

    def test_boundary_touching_adds_nothing(self):
        assert hypervolume([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0]) == 0.0

    def test_points_beyond_reference_dropped(self):
        got = hypervolume([[0.5, 0.5], [1.5, 0.1], [0.1, 2.0]], [1.0, 1.0])
        assert got == pytest.approx(0.25)

    def test_empty(self):
        assert hypervolume(np.empty((0, 2)), [1.0, 1.0]) == 0.0
        assert hypervolume([[2.0, 2.0]], [1.0, 1.0]) == 0.0

    def test_dominated_points_do_not_change_result(self):
        front = [[0.2, 0.8], [0.8, 0.2]]
        with_dup = front + [[0.9, 0.9], [0.8, 0.2]]
        assert hypervolume(with_dup, [1, 1]) == hypervolume(front, [1, 1])

    def test_monotone_under_new_nondominated_point(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            front = random_front(rng, 6)
            base = hypervolume(front, [1, 1])
            extra = np.array([[rng.uniform(0, 0.04), rng.uniform(0, 0.04)]])
            assert hypervolume(np.vstack([front, extra]), [1, 1]) >= base

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        front = random_front(rng, 9)
        shuffled = front[rng.permutation(len(front))]
        assert hypervolume(shuffled, [1, 1]) == pytest.approx(hypervolume(front, [1, 1]))

    def test_3d_slicer_on_degenerate_third_axis(self):
        rng = np.random.default_rng(2)
        front2 = random_front(rng, 7)
        front3 = np.column_stack([front2, np.full(len(front2), 0.1)])
        hv2 = hypervolume(front2, [1.0, 1.0])
        hv3 = hypervolume(front3, [1.0, 1.0, 1.1])
        assert hv3 == pytest.approx(hv2 * 1.0)

    def test_3d_exact_cube(self):
        # one point dominating a cube corner
        assert hypervolume([[0.5, 0.5, 0.5]], [1, 1, 1]) == pytest.approx(0.125)
        # two stacked boxes
        got = hypervolume([[0.5, 0.5, 0.0], [0.0, 0.0, 0.5]], [1, 1, 1])
        assert got == pytest.approx(0.25 * 0.5 + 1.0 * 0.5)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(3)
        for m in (2, 3):
            for trial in range(4):
                front = random_front(rng, int(rng.integers(3, 12)), m)
                ref = np.ones(m)
                exact = hypervolume(front, ref)
                est, se = mc_hypervolume(front, ref, 200_000, seed=trial)
                assert abs(exact - est) <= 3 * se + 1e-9

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            hypervolume([[1, 2, 3, 4]], [5, 5, 5, 5])
        with pytest.raises(ValueError):
            hypervolume([[1, 2]], [1, 1, 1])


class TestIgd:
    def test_identity(self):
        front = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]])
        assert igd(front, front) == 0.0

    def test_unit_distances(self):
        assert igd([[0.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_adding_points_never_increases(self):
        rng = np.random.default_rng(4)
        ref = random_front(rng, 50)
        x = rng.uniform(0.05, 0.95, 10)
        curve = np.column_stack([x, (1 - x) ** 2])  # f2 falls as f1 grows: nondominated
        base = igd(curve[:5], ref)
        grown = igd(curve, ref)
        assert grown <= base + 1e-15

    @pytest.mark.parametrize("front, staircase", [
        ([[0.0, 1.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]], True),
        ([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]], True),
        ([[0.3, 0.3]], True),
        ([[0.0, 1.0], [0.5, 0.5], [0.6, 0.6]], False),
        ([[0.5, 0.4], [0.5, 0.6]], False),
        ([[0.5, 0.6], [0.5, 0.4]], False),
        ([[0.5, 0.4], [0.2, 0.9], [0.5, 0.4]], True),
        ([[0.0, 1.0, 0.5], [1.0, 0.0, 0.5]], False),
    ])
    def test_staircase_search_taken_only_where_f2_never_rises(self, monkeypatch, front, staircase):
        """Any other front (a dominated row, an f1 tie with unequal f2 in
        either order, a third objective) is refused, naming what it lacks;
        exact repeats are measured."""
        calls = []
        search = metrics._staircase_squared_distances
        monkeypatch.setattr(metrics, "_staircase_squared_distances",
                            lambda ref, pts: calls.append(1) or search(ref, pts))
        ref = np.full((3, len(front[0])), 0.25)
        if staircase:
            assert igd(front, ref) == igd_dense(front, ref)
        else:
            reason = "got 3 objectives" if len(front[0]) == 3 else "f2 rises in f1 order"
            with pytest.raises(ValueError, match=reason):
                igd(front, ref)
        assert len(calls) == staircase

    def test_empty_front_sentinel(self):
        assert igd(np.empty((0, 2)), [[0.0, 1.0]]) == IGD_EMPTY

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            igd([[0.0, 0.0]], np.empty((0, 2)))

    @pytest.mark.parametrize("front, ref", [
        (np.zeros((1, 2)), np.zeros((2, 1))),
        (np.zeros((2, 1)), np.zeros((1, 2))),
        ([[0.0, 0.0]], [[0.0, 0.0, 0.0]]),
    ])
    def test_objective_count_mismatch_rejected(self, front, ref):
        with pytest.raises(ValueError):
            igd(front, ref)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("side", ["front", "reference"])
    def test_non_finite_rejected(self, bad, side):
        pts = [[0.0, 1.0], [bad, 0.0]]
        with pytest.raises(ValueError):
            igd(pts, [[0.5, 0.5]]) if side == "front" else igd([[0.5, 0.5]], pts)


class TestMetricConfig:
    def test_normalization_and_reference(self):
        cfg = MetricConfig(ideal=[0.0, 1.0], nadir=[2.0, 3.0])
        assert cfg.normalize([[1.0, 2.0]]) == pytest.approx(np.array([[0.5, 0.5]]))
        assert cfg.reference.tolist() == [1.1, 1.1]

    def test_from_front(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.4]])
        cfg = MetricConfig.from_front(pts)
        assert cfg.ideal.tolist() == [0.0, 0.0]
        assert cfg.nadir.tolist() == [1.0, 1.0]

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            MetricConfig(ideal=[0.0, 0.0], nadir=[1.0, 0.0])

    def test_normalized_hypervolume(self):
        cfg = MetricConfig(ideal=[0.0, 0.0], nadir=[1.0, 1.0])
        assert cfg.normalized_hypervolume(np.array([[0.55, 0.55]])) == pytest.approx(0.55 ** 2)
        assert cfg.normalized_hypervolume(np.empty((0, 2))) == 0.0

import numpy as np
import pytest
from scipy.integrate import quad

from dpcmo.core import EvalCounter
from dpcmo.problems import PROBLEM_IDS, _p2_arc, make_problem, reference_front
from dpcmo.selection import unconstrained_nondominated

from oracles import constraint_violation, evaluate


def _eval(problem, x):
    return evaluate(problem, np.asarray(x, dtype=float), EvalCounter(1))


class TestDefinitions:
    def test_p1_midpoint(self):
        s = _eval(make_problem("P1-overlap", 10), [0.25] + [0.0] * 9)
        assert s.objectives == pytest.approx([0.25, 0.5])
        assert s.cv == 0.0

    def test_p2_midpoint_infeasible(self):
        s = _eval(make_problem("P2-partial", 10), [0.25] + [0.0] * 9)
        assert s.objectives == pytest.approx([0.25, 0.5])
        assert s.ineq == pytest.approx([0.05])
        assert s.cv == pytest.approx(0.05)

    def test_p3_front_point(self):
        # tail chosen so the squared sum is exactly 0.5
        x = [0.0, np.sqrt(0.5)] + [0.0] * 8
        s = _eval(make_problem("P3-separated", 10), x)
        assert s.objectives == pytest.approx([0.0, 1.5])
        assert s.cv == 0.0

    def test_unknown_id_and_bad_dimension(self):
        with pytest.raises(ValueError, match="unknown problem id"):
            make_problem("P9-nope", 10)
        with pytest.raises(ValueError, match="dimension"):
            make_problem("P1-overlap", 1)
        with pytest.raises(ValueError, match="dimension must be an integer, got 10.5"):
            make_problem("P1-overlap", 10.5)
        # A numpy integer is accepted and stored as a plain int.
        assert type(make_problem("P1-overlap", np.int64(10)).dimension) is int

    def test_p1_constraint_inactive_on_front(self):
        p = make_problem("P1-overlap", 10)
        for t in np.linspace(0, 1, 7):
            s = _eval(p, [t] + [0.0] * 9)
            assert s.ineq == pytest.approx([-0.5])

    def test_p3_unconstrained_front_is_uniformly_infeasible(self):
        p = make_problem("P3-separated", 10)
        for t in np.linspace(0, 1, 7):
            s = _eval(p, [t] + [0.0] * 9)
            assert s.cv == pytest.approx(0.5)


class TestReferenceFront:
    def test_p1_endpoints(self):
        front = reference_front(make_problem("P1-overlap", 10), 2)
        assert front == pytest.approx(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_p3_three_points(self):
        front = reference_front(make_problem("P3-separated", 10), 3)
        assert front == pytest.approx(
            np.array([[0.0, 1.5], [0.5, 1.0], [1.0, 0.5]]))

    def test_p2_points_respect_constraint(self):
        front = reference_front(make_problem("P2-partial", 10), 1000)
        sums = front.sum(axis=1)
        assert np.all(sums >= 0.8 - 1e-12)

    def test_p2_samples_evenly_spaced(self):
        # Equal arc-length steps: only a chord across a corner between the
        # curve and the line falls (about 1 %) short of the median step.
        front = reference_front(make_problem("P2-partial", 10), 1000)
        step = np.linalg.norm(np.diff(front, axis=0), axis=1)
        assert np.all(np.abs(step / np.median(step) - 1.0) <= 0.02)

    @pytest.mark.parametrize("f1", [1e-6, 0.01, 0.0764, 0.25, 0.5236, 0.9, 1.0])
    def test_p2_arc_length_matches_quadrature(self, f1):
        speed = lambda t: np.sqrt(1.0 + 1.0 / (4.0 * t))  # |d(f1, f2)/d f1| on the curve
        assert _p2_arc(np.sqrt(f1)) == pytest.approx(quad(speed, 0.0, f1, limit=200)[0],
                                                      rel=0, abs=1e-12)

    def test_p2_line_segment_present(self):
        front = reference_front(make_problem("P2-partial", 10), 1000)
        on_line = np.isclose(front.sum(axis=1), 0.8, atol=1e-12)
        # the segment carries a substantial share of the total arc length
        assert 0.25 < on_line.mean() < 0.6

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_nondominated_and_sorted(self, pid):
        front = reference_front(make_problem(pid, 10), 400)
        keep = unconstrained_nondominated(front)
        assert len(keep) == len(front)
        assert np.all(np.diff(front[:, 0]) >= 0)
        assert not front.flags.writeable

    @pytest.mark.parametrize("pid", PROBLEM_IDS)
    def test_front_points_have_feasible_preimages(self, pid):
        # every sampled front point can be realized by a feasible decision
        problem = make_problem(pid, 10)
        front = reference_front(problem, 50)
        for f1, f2 in front:
            if pid == "P1-overlap":
                g_needed = f2 - (1.0 - np.sqrt(f1))
            elif pid == "P2-partial":
                g_needed = f2 - (1.0 - np.sqrt(f1))
            else:
                g_needed = f2 - (1.0 - f1)
            assert g_needed >= -1e-12
            g_needed = max(g_needed, 0.0)
            x = np.zeros(10)
            x[0] = f1
            x[1] = np.sqrt(g_needed)
            F, G, H = problem.evaluate_matrix(x[None, :])
            assert F[0] == pytest.approx([f1, f2], abs=1e-9)
            assert constraint_violation(G[0], H[0]) <= 1e-12

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            reference_front(make_problem("P1-overlap", 10), 1)

    def test_deterministic(self):
        p = make_problem("P2-partial", 10)
        assert np.array_equal(reference_front(p, 257), reference_front(p, 257))

import numpy as np
import pytest

from dpcmo.core import Population
from dpcmo.staging import (
    TYPE_COINCIDENT,
    TYPE_PARTIAL,
    TYPE_SEPARATED,
    PointHistory,
    TypeTracker,
    classify_relationship,
    rs_metric,
    should_switch,
    track_type,
)


def population(F, cv=None):
    """Decisions equal the objectives; every row feasible unless cv is given."""
    F = np.asarray(F, dtype=float)
    return Population(F, F, np.zeros(len(F)) if cv is None else cv)


def history_with(then, now, gap=10, delta=1e-7):
    """A full history whose oldest record is ``then`` and newest ``now``."""
    hist = PointHistory(gap=gap, delta=delta)
    for F in [then] * gap + [now]:
        hist.record(population(F))
    return hist


class TestRsMetric:
    # Rows are chosen so that their per-objective min, max and mean are the
    # ideal, nadir and average points the movement metric compares.

    def test_stationary_population_scores_zero(self):
        F = [[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]]
        assert rs_metric(history_with(F, F)) == 0.0

    def test_single_moving_ideal_coordinate(self):
        hist = history_with(
            [[1.0, 1.0], [3.0, 3.0], [2.0, 2.0]],
            [[1.1, 1.0], [3.0, 3.0], [1.9, 2.0]],  # same nadir and average
        )
        assert rs_metric(hist) == pytest.approx(0.1)

    def test_denominator_guard(self):
        hist = history_with([[0.0, 0.0], [1.0, 1.0]], [[1e-8, 0.0], [1.0, 1.0]])
        assert rs_metric(hist) == pytest.approx(1e-8 / 1e-7)

    def test_scale_invariance_above_guard(self):
        then = np.array([[1.0, 2.0], [3.0, 4.0], [2.0, 3.0]])
        now = np.array([[1.2, 2.0], [3.5, 4.0], [1.9, 3.0]])
        assert rs_metric(history_with(then, now)) == pytest.approx(
            rs_metric(history_with(then * 7.5, now * 7.5)))

    def test_not_ready(self):
        # Until gap + 1 generations are recorded the metric reports full
        # movement, however far the recorded points lie apart.
        hist = PointHistory(gap=3)
        for g in range(3):
            hist.record(population([[10.0 ** g]]))
            assert rs_metric(hist) == 1.0
        hist.record(population([[1.0]]))
        assert rs_metric(hist) == 0.0

    def test_ring_buffer_evicts_old_entries(self):
        # Only the last gap + 1 records count: generation 6 against 9.
        hist = PointHistory(gap=3)
        for g in range(10):
            hist.record(population([[float(g + 1)]]))
        assert len(hist.entries) == 4
        assert rs_metric(hist) == pytest.approx((10.0 - 7.0) / 7.0)

    def test_record_from_population(self):
        pop = population([[1.0, 4.0], [3.0, 2.0]])
        hist = PointHistory(gap=1)
        hist.record(pop)
        z, n, a = hist.entries[-1]
        assert z.tolist() == [1.0, 2.0]
        assert n.tolist() == [3.0, 4.0]
        assert a.tolist() == [2.0, 3.0]


class TestShouldSwitch:
    @pytest.mark.parametrize("rs,g,want", [
        (0.0005, 11, True),
        (0.9, 251, True),
        (0.03, 120, False),
        (0.0005, 10, False),
        (0.019, 101, True),
        (0.049, 151, True),
        (0.049, 149, False),
    ])
    def test_table(self, rs, g, want):
        assert should_switch(rs, g) is want

    def test_generation_cap_ignores_metric(self):
        for rs in (0.0, 0.5, 1.0, 100.0):
            assert should_switch(rs, 251)

    def test_monotone_in_generation(self):
        for rs in (0.0005, 0.01, 0.03, 0.5):
            fired = False
            for g in range(1, 300):
                now = should_switch(rs, g)
                if fired:
                    assert now
                fired = fired or now

    def test_strict_only_variant(self):
        assert should_switch(0.01, 120, strict_only=False)
        assert not should_switch(0.01, 120, strict_only=True)
        assert should_switch(0.0005, 11, strict_only=True)
        assert should_switch(0.9, 251, strict_only=True)


class TestClassify:
    LINE = [[i / 4, 1 - i / 4] for i in range(5)]

    def test_all_feasible_nondominated(self):
        assert classify_relationship(population(self.LINE, [0.0] * 5)) == TYPE_COINCIDENT

    def test_none_feasible(self):
        assert classify_relationship(population(self.LINE, [0.5] * 5)) == TYPE_SEPARATED

    def test_partial_fraction(self):
        # 2 of 5 nondominated members feasible -> partial overlap
        aux = population(self.LINE, [0.0, 0.0, 0.3, 0.3, 0.3])
        assert classify_relationship(aux) == TYPE_PARTIAL

    def test_dominated_members_ignored(self):
        # feasible but dominated members do not count toward the fraction
        aux = population([[0.1, 0.9], [0.9, 0.1], [5.0, 5.0]], [0.4, 0.4, 0.0])
        assert classify_relationship(aux) == TYPE_SEPARATED

    def test_threshold_applies_to_feasible_fraction(self):
        aux = population(self.LINE, [0.0, 0.0, 0.0, 0.0, 0.3])
        assert classify_relationship(aux) == TYPE_PARTIAL
        assert classify_relationship(aux, coincident_threshold=0.8) == TYPE_COINCIDENT

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            classify_relationship(Population.empty())


class TestTrackType:
    def test_agreement_keeps_everything(self):
        t = TypeTracker(type=1, cnt=2)
        assert track_type(t, 1) == t

    def test_update_after_threshold(self):
        t = TypeTracker(type=1, cnt=3)
        got = track_type(t, 2)
        assert got.type == 2
        assert got.cnt == 4

    def test_below_threshold_only_counts(self):
        t = TypeTracker(type=1, cnt=0)
        got = track_type(t, 2)
        assert got.type == 1
        assert got.cnt == 1

    def test_type_frozen_while_cnt_low(self):
        t = TypeTracker(type=3, cnt=0)
        for _ in range(3):
            t = track_type(t, 1)
            assert t.type == 3
        assert t.cnt == 3

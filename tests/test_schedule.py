import math

import numpy as np
import pytest

from dpcmo.schedule import (
    DRA_FLOOR,
    EPS0,
    DraState,
    EpsilonSchedule,
    aux_size,
    dra_allocate,
    epsilon_final,
    epsilon_initial,
    no_dra_factors,
    phase2_baseline,
)


def sched(switch=10_000, max_fe=50_000):
    return EpsilonSchedule(switch_fe=switch, max_fe=max_fe)


class TestEpsilonInitial:
    def test_at_switch(self):
        assert epsilon_initial(sched(), 10_000) == pytest.approx(0.2)

    def test_at_budget(self):
        assert epsilon_initial(sched(), 50_000) == pytest.approx(0.2 * math.exp(-20))

    def test_halfway(self):
        assert epsilon_initial(sched(), 30_000) == pytest.approx(0.2 * math.exp(-10))

    def test_strictly_decreasing(self):
        s = sched()
        fes = np.linspace(10_000, 50_000, 500)
        vals = [epsilon_initial(s, fe) for fe in fes]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_degenerate_schedule_rejected(self):
        with pytest.raises(ValueError):
            EpsilonSchedule(switch_fe=100, max_fe=100)


class TestEpsilonFinal:
    def test_phase1_endpoint(self):
        s = sched()
        assert epsilon_final(s, s.t1, 1) == pytest.approx(0.18, abs=1e-15)
        assert epsilon_final(s, s.t1, 3) == pytest.approx(0.18, abs=1e-15)

    def test_phase2_baseline_endpoints(self):
        for rel_type in (1, 2, 3):
            assert phase2_baseline(rel_type, 1.0) == pytest.approx(0.005 * EPS0)
        assert phase2_baseline(1, 0.0) == pytest.approx(0.18)
        assert phase2_baseline(3, 0.0) == pytest.approx(0.01)

    def test_terminal_value(self):
        s = sched()
        for rel_type in (1, 2, 3):
            assert epsilon_final(s, s.max_fe, rel_type) == pytest.approx(1e-8, rel=1e-12)

    def test_phase3_start_matches_baseline(self):
        s = sched()
        just_after = math.nextafter(s.t2, s.max_fe)
        for rel_type in (1, 3):
            assert epsilon_final(s, just_after, rel_type) == pytest.approx(0.005 * EPS0, rel=1e-6)

    def test_positive_everywhere(self):
        for switch, max_fe in ((500, 20_000), (10_000, 50_000), (40_000, 50_001)):
            s = sched(switch, max_fe)
            for rel_type in (1, 2, 3):
                for fe in np.linspace(switch, max_fe, 2000):
                    assert epsilon_final(s, fe, rel_type) > 0.0

    def test_type3_baseline_lower_than_others(self):
        s = sched()
        mid = (s.t1 + s.t2) / 2
        assert epsilon_final(s, mid, 3) < epsilon_final(s, mid, 1)

    def test_boundaries_ordered(self):
        for switch, max_fe in ((100, 1000), (5, 2000), (999, 1001)):
            s = sched(switch, max_fe)
            assert switch < s.t1 <= s.t2 < max_fe
            assert s.k > 0


class TestDra:
    def test_zero_ratios_hit_floor(self):
        got = dra_allocate(DraState(1.0, 1.0), 1, 0.0, 0.0, 0.0, cnt=0)
        assert got.f1 == pytest.approx(DRA_FLOOR)
        assert got.f2 == pytest.approx(DRA_FLOOR)

    def test_balanced_full_ratios(self):
        got = dra_allocate(DraState(1.0, 1.0), 2, 0.0, 1.0, 1.0, cnt=0)
        assert got.f1 == pytest.approx(0.25 + 1.0 / 6.0)
        assert got.f2 == pytest.approx(0.25 + 1.0 / 6.0)

    def test_negative_signal_equals_zero_signal(self):
        for ll in (-0.5, -10.0):
            a = dra_allocate(DraState(0.7, 0.9), 3, ll, 0.4, 0.6, cnt=2)
            b = dra_allocate(DraState(0.7, 0.9), 3, 0.0, 0.4, 0.6, cnt=2)
            assert (a.f1, a.f2) == (b.f1, b.f2)

    def test_separated_branches_differ_on_cnt(self):
        calm = dra_allocate(DraState(1.0, 1.0), 3, 0.0, 0.5, 0.5, cnt=0)
        unstable = dra_allocate(DraState(1.0, 1.0), 3, 0.0, 0.5, 0.5, cnt=4)
        assert (calm.f1, calm.f2) != (unstable.f1, unstable.f2)

    def test_floor_fuzz(self):
        rng = np.random.default_rng(0)
        state = DraState()
        for _ in range(3000):
            state = dra_allocate(
                state,
                int(rng.integers(1, 4)),
                float(rng.uniform(-2, 2)),
                float(rng.random()),
                float(rng.random()),
                int(rng.integers(0, 8)),
            )
            assert state.f1 >= DRA_FLOOR
            assert state.f2 >= DRA_FLOOR

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            dra_allocate(DraState(), 1, 0.0, 1.5, 0.0, 0)


class TestSizes:
    def test_aux_size_examples(self):
        assert aux_size(0.5, 100) == 50
        assert aux_size(1.0, 100) == 25
        assert aux_size(0.0, 100) == 100

    def test_aux_size_range(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            n = int(rng.integers(25, 400))
            fr = float(rng.random())
            got = aux_size(fr, n)
            assert 25 <= got <= n

    def test_no_dra_examples(self):
        assert no_dra_factors(2, 2) == (0.5, 0.5)
        assert no_dra_factors(1, 3) == (0.5, 0.5)
        assert no_dra_factors(1, 1) == (1.0, 1.0)

    def test_aux_size_matches_two_way_rule(self):
        # reference rule: n itself below 25 members, the floored size from 25 on
        for n in range(5, 400):
            for fr in np.arange(1001) / 1000:
                want = n if n < 25 else math.ceil(max(25.0, (1.0 - fr) * n))
                assert aux_size(fr, n) == want

    def test_validation(self):
        assert aux_size(0.5, 10) == 10
        with pytest.raises(ValueError):
            aux_size(1.5, 100)
        with pytest.raises(ValueError):
            no_dra_factors(0, 2)

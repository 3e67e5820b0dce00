"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (visible with ``pytest -s`` or on failure).

The convergence criteria (6..8) share three 10-seed batches computed once
per session.
"""

import json
import math
import statistics
import time

import numpy as np
import pytest

from dpcmo.cli import main as cli_main
from dpcmo.core import Population
from dpcmo.engine import RunConfig, apply_ablation, run
from dpcmo.metrics import hypervolume
from dpcmo.problems import make_problem, reference_front
from dpcmo.schedule import DRA_FLOOR, DraState, EpsilonSchedule, dra_allocate, \
    epsilon_final, phase2_baseline
from dpcmo.selection import angle_subregion_select, environmental_select
from dpcmo.staging import should_switch
from dpcmo.stats import ranksum_test, signed_rank_multiproblem

from oracles import angle_select_literal, mc_hypervolume, nsga2_select_bruteforce
from test_engine import constant_problem


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:2d}] PASS: {text}")


def population(rows):
    """Population from (objectives, cv) pairs; decisions equal the objectives."""
    F = np.array([f for f, _ in rows], dtype=float)
    return Population(F, F, [cv for _, cv in rows])


@pytest.fixture(scope="session")
def convergence_batches():
    """Ten-seed batches: full algorithm on P1 and P3, and the
    always-angular-selection ablation on P3."""
    config = RunConfig(pop_size=100, max_fe=50_000)
    seeds = range(1, 11)
    batches = {}
    batches["p1_full"] = [run(make_problem("P1-overlap", 10), config, s) for s in seeds]
    batches["p3_full"] = [run(make_problem("P3-separated", 10), config, s) for s in seeds]
    wo3p = apply_ablation(config, "Wo3P")
    batches["p3_wo3p"] = [run(make_problem("P3-separated", 10), wo3p, s) for s in seeds]
    return batches


def test_criterion_1_selection_oracle_equivalence():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(3, 13))
        keep = int(rng.integers(1, n + 1))
        union = population([(rng.random(2), float(rng.uniform(0, 2))) for _ in range(n)])
        got_idx = sorted(environmental_select(union, keep, math.inf).tolist())
        want_idx = nsga2_select_bruteforce([tuple(f) for f in union.F], keep)
        assert got_idx == want_idx, f"instance {trial}: {got_idx} != {want_idx}"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(1, f"200/200 instances match brute force in {elapsed:.2f}s")


def test_criterion_2_angular_selection_oracle_equivalence():
    rng = np.random.default_rng(202)
    for trial in range(100):
        rows = [(rng.random(2), float(rng.random() < 0.5) * float(rng.uniform(0, 1)))
                for _ in range(20)]
        eps = float(rng.choice([0.0, 0.05, 0.5]))
        union = population(rows)
        got_idx = angle_subregion_select(union, 10, 5, eps).tolist()
        want_idx = angle_select_literal(
            union.F[:10], union.cv[:10], union.F[10:], union.cv[10:], 5, eps)
        assert got_idx == want_idx, f"instance {trial}: {got_idx} != {want_idx}"
    report(2, "100/100 instances match the literal pseudocode transcription")


def test_criterion_3_hypervolume_monte_carlo():
    rng = np.random.default_rng(303)
    started = time.perf_counter()
    worst_sigma = 0.0
    for trial in range(20):
        m = 2 if trial % 2 == 0 else 3
        k = int(rng.integers(3, 15))
        if m == 2:
            x = np.sort(rng.uniform(0.05, 0.95, k))
            front = np.column_stack([x, np.sort(rng.uniform(0.05, 0.95, k))[::-1]])
        else:
            front = rng.dirichlet(np.ones(3), size=k) * rng.uniform(0.4, 0.9, (k, 1))
        ref = np.ones(m)
        exact = hypervolume(front, ref)
        estimate, se = mc_hypervolume(front, ref, 1_000_000, seed=5000 + trial)
        sigmas = abs(exact - estimate) / max(se, 1e-12)
        worst_sigma = max(worst_sigma, sigmas)
        assert sigmas <= 3.0, f"front {trial}: {sigmas:.2f} standard errors"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report(3, f"20/20 fronts within 3 SE (worst {worst_sigma:.2f}) in {elapsed:.1f}s")


def test_criterion_4_relaxation_schedule_anchors():
    rng = np.random.default_rng(404)
    for _ in range(50):
        max_fe = int(rng.integers(5_000, 400_000))
        switch = int(rng.integers(100, max_fe - 1000))
        s = EpsilonSchedule(switch_fe=switch, max_fe=max_fe)
        assert epsilon_final(s, s.t1, 1) == pytest.approx(0.18, rel=1e-12)
        assert epsilon_final(s, s.t1, 3) == pytest.approx(0.18, rel=1e-12)
        for rel_type in (1, 2, 3):
            assert phase2_baseline(s, rel_type, 1.0) == pytest.approx(1e-3, rel=1e-12)
            assert epsilon_final(s, max_fe, rel_type) == pytest.approx(1e-8, rel=1e-12)
    report(4, "50/50 schedules hit 0.18 / 1e-3 / 1e-8 within 1e-12 relative")


def test_criterion_5_switch_guarantee():
    for rs in (0.0, 1e-6, 0.5, 1.0, 7.3, float("inf")):
        assert should_switch(rs, 251)
    result = run(constant_problem(), RunConfig(pop_size=25, max_fe=3000), seed=202)
    assert result.switch_generation is not None
    assert result.switch_generation <= 12  # stationary from generation 0, gap 10
    report(5, f"switch certain at g=251; stationary run switched at "
              f"g={result.switch_generation} (limit 12)")


def test_criterion_6_type1_convergence(convergence_batches):
    results = convergence_batches["p1_full"]
    front = reference_front(make_problem("P1-overlap", 10), 1000)
    igds = [r.final_igd for r in results]
    assert len(front) == 1000
    median = statistics.median(igds)
    total_time = sum(r.wall_time for r in results)
    assert median <= 0.01, f"median IGD {median:.5f} > 0.01"
    assert total_time <= 120.0, f"{total_time:.0f}s > 120s"
    report(6, f"P1 median IGD {median:.5f} <= 0.01 over 10 seeds in {total_time:.0f}s")


def test_criterion_7_type3_convergence_and_classification(convergence_batches):
    results = convergence_batches["p3_full"]
    median = statistics.median(r.final_igd for r in results)
    separated = sum(r.type_at_switch == 3 for r in results)
    assert median <= 0.02, f"median IGD {median:.5f} > 0.02"
    assert separated >= 8, f"type 3 at switch in only {separated}/10 seeds"
    report(7, f"P3 median IGD {median:.5f} <= 0.02; type-3 classification "
              f"{separated}/10 seeds")


def test_criterion_8_ablation_direction(convergence_batches):
    full = statistics.median(r.final_igd for r in convergence_batches["p3_full"])
    ablated = statistics.median(r.final_igd for r in convergence_batches["p3_wo3p"])
    assert ablated >= full, f"Wo3P median {ablated:.5f} < full {full:.5f}"
    report(8, f"Wo3P median IGD {ablated:.5f} >= full {full:.5f} on P3")


def test_criterion_9_statistics():
    rank = ranksum_test([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert rank.p_value == 0.1

    signs = np.ones(61)
    signs[47] = -1.0
    signs[60] = -1.0
    deltas = signs * np.arange(1, 62, dtype=float)
    sr = signed_rank_multiproblem(deltas)
    assert sr.extras["r_plus"] == 1782.0
    assert sr.extras["r_minus"] == 109.0
    assert 1e-9 <= sr.p_value <= 4e-9
    report(9, f"exact rank-sum p = {rank.p_value}; signed-rank R+=1782 R-=109 "
              f"p = {sr.p_value:.3g} in [1e-9, 4e-9]")


def test_criterion_10_bench_determinism(tmp_path):
    args = ["bench", "--seeds", "2", "--max-fe", "1000", "--pop-size", "25",
            "--problems", "P1-overlap", "P3-separated"]
    assert cli_main(args + ["--outdir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--outdir", str(tmp_path / "b")]) == 0
    sa = (tmp_path / "a" / "summary.csv").read_bytes()
    sb = (tmp_path / "b" / "summary.csv").read_bytes()
    assert sa == sb
    logs_a = sorted((tmp_path / "a" / "logs").glob("*.jsonl"))
    logs_b = sorted((tmp_path / "b" / "logs").glob("*.jsonl"))
    assert [p.name for p in logs_a] == [p.name for p in logs_b]
    assert logs_a, "no logs written"
    for a, b in zip(logs_a, logs_b):
        assert a.read_bytes() == b.read_bytes()
    report(10, f"two bench invocations byte-identical "
               f"({len(logs_a)} logs + summary)")


def test_criterion_11_allocation_floor():
    rng = np.random.default_rng(1111)
    state = DraState()
    for i in range(100_000):
        rel_type = int(rng.integers(1, 4))
        ll = float(rng.uniform(-3, 3))
        fr1 = float(rng.random())
        fr2 = float(rng.random())
        cnt = int(rng.integers(0, 9))
        state = dra_allocate(state, rel_type, ll, fr1, fr2, cnt)
        assert state.f1 >= DRA_FLOOR and state.f2 >= DRA_FLOOR
        if ll < 0:
            mirrored = dra_allocate(state, rel_type, 0.0, fr1, fr2, cnt)
            negated = dra_allocate(state, rel_type, ll, fr1, fr2, cnt)
            assert (mirrored.f1, mirrored.f2) == (negated.f1, negated.f2)
    report(11, "100000 allocations respect the 0.25 + 1e-6 floor; "
               "negative progress equals zero progress")

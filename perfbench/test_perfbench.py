"""Self-test of the benchmark on small operating points.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json

import numpy as np
import pytest

import run

run.bootstrap()

import workloads  # noqa: E402  (needs the bootstrap above)
from dpcmo import make_problem  # noqa: E402
from dpcmo.engine import RunConfig  # noqa: E402
from dpcmo.engine import run as dpcmo_run  # noqa: E402

SMALL = {
    "paper-runs": dataclasses.replace(workloads.PAPER_RUNS, pop_size=12, max_fe=1_200),
    "ablation-grid": dataclasses.replace(workloads.ABLATION_GRID, pop_size=12, max_fe=600),
}
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "SPECS", SMALL)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_pass_restores_names_and_keeps_digests(small, workload):
    values, info = run.traced(workload, seed=3)
    assert info["detail"]["originals_restored"]
    assert info["detail"]["digests_match"]
    plain, with_trace = info["passes"]
    assert plain.failed == with_trace.failed == 0
    assert {m["name"] for m in DECLARED["per_layer"]} <= set(values)
    assert values["core.evaluations"] == plain.evaluations

    # An untraced pass after the traced one sees the original functions.
    after = run.one_pass(workload, seed=3 * run.MAX_PASSES)
    assert after.digests() == plain.digests()
    assert not list(small.glob("grid-*")), "grid workdir left behind"


def test_untraced_reports_every_end_to_end_metric(small):
    values, info = run.untraced("ablation-grid", seed=2, seconds=3)
    assert {m["name"] for m in DECLARED["end_to_end"]} <= set(values)
    assert len(info["detail"]["setup_samples_s"]) == run.SETUP_PROBES
    assert sum(p.failed for p in info["passes"]) == 0
    # Each pass runs the grid with its own seed.
    seeds = [{r.name.split("__")[1] for r in p.runs} for p in info["passes"]]
    assert len(seeds) >= 2
    for k, pass_seeds in enumerate(seeds):
        grid = workloads.grid_seeds(2 * run.MAX_PASSES + k, workloads.SPECS["ablation-grid"])
        assert pass_seeds == {f"s{s}" for s in grid}


def test_front_check_rejects_bad_output():
    result = dpcmo_run(make_problem("P1-overlap"), RunConfig(pop_size=12, max_fe=1_200), 5)
    assert workloads.front_error(result, 1_200, 1e-4) is None
    assert "evaluations" in workloads.front_error(result, 1_000, 1e-4)

    problem = make_problem("P1-overlap")

    def with_front(X):
        F, _, _ = problem.evaluate_matrix(X)
        return dataclasses.replace(result, front_decisions=X, front_objectives=F,
                                   front_cv=np.zeros(len(X)))

    x = result.front_decisions[:1]
    nudged = x.copy()
    nudged[0, 1] += 0.01
    far = x.copy()
    far[0, 1:] = 0.5
    stale = dataclasses.replace(with_front(x), front_objectives=x[:, :2] + 0.1)
    assert "dominated" in workloads.front_error(with_front(np.vstack([x, nudged])), 1_200, 1e-4)
    assert "infeasible" in workloads.front_error(with_front(far), 1_200, 1e-4)
    assert "bounds" in workloads.front_error(with_front(x + 2.0), 1_200, 1e-4)
    assert "differ" in workloads.front_error(stale, 1_200, 1e-4)

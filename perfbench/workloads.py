"""The benchmark's workloads: one pass of each, with its output check.

* ``paper-runs``    one ``dpcmo.run`` per problem at the paper's operating
                    point (N = 100, maxFE = 50,000, D = 10).
* ``ablation-grid`` the CLI path in-process: ``dpcmo run`` on a generated
                    config (3 problems x {full, Wo3P} x 2 seeds, N = 30,
                    maxFE = 15,200), then ``dpcmo stats`` and ``dpcmo plotdata``
                    on its results.

A pass runs every run of the workload once for one workload seed.

Every run's result is checked independently of dpcmo's own bookkeeping, and
its per-generation log and final front are reduced to sha256 digests, so two
passes of one seed can be compared bit for bit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from dpcmo import cli, harness
from dpcmo.engine import RunConfig, run
from dpcmo.problems import PROBLEM_IDS, make_problem

IGD_TARGET = 0.01


@dataclass(frozen=True)
class Spec:
    """Operating point of a workload."""

    pop_size: int
    max_fe: int
    dimension: int = 10
    variants: tuple[str, ...] = ("full",)
    seeds_per_cell: int = 1


PAPER_RUNS = Spec(pop_size=100, max_fe=50_000)
# maxFE >= 2 * N * 252, so the g > 250 switch cap puts every run in stage 2.
ABLATION_GRID = Spec(pop_size=30, max_fe=15_200, variants=("full", "Wo3P"), seeds_per_cell=2)
SPECS = {"paper-runs": PAPER_RUNS, "ablation-grid": ABLATION_GRID}
# The module a user of each workload imports first.
ENTRY_MODULES = {"paper-runs": "dpcmo", "ablation-grid": "dpcmo.cli"}


@dataclass
class RunOutcome:
    """One run as the benchmark saw it; ``error`` is None when it passed."""

    name: str
    error: str | None
    log_sha256: str = ""
    front_sha256: str = ""
    final_igd: float = float("nan")
    final_hv: float = float("nan")
    fe_to_target: int = 0
    switch_generation: int | None = None
    wall_s: float = 0.0


@dataclass
class Pass:
    """One timed pass of a workload."""

    wall_s: float
    cpu_s: float
    evaluations: int
    runs: list[RunOutcome]
    artifacts: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(r.error is not None for r in self.runs)

    def digests(self) -> dict[str, tuple[str, str]]:
        return {r.name: (r.log_sha256, r.front_sha256) for r in self.runs}


def grid_seeds(seed: int, spec: Spec) -> list[int]:
    return [spec.seeds_per_cell * seed + k for k in range(spec.seeds_per_cell)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dominated_rows(F: np.ndarray) -> np.ndarray:
    le = (F[:, None, :] <= F[None, :, :]).all(axis=2)
    lt = (F[:, None, :] < F[None, :, :]).any(axis=2)
    return (le & lt).any(axis=0)


def front_error(result, max_fe: int, delta: float) -> str | None:
    """Why a run's output is wrong, or None. Re-evaluates the front rows
    on a freshly built problem rather than trusting stored values."""
    if result.evaluations != max_fe:
        return f"evaluations {result.evaluations} != maxFE {max_fe}"
    if not np.isfinite(result.final_igd):
        return f"final IGD {result.final_igd} is not finite"
    problem = make_problem(result.problem_id, result.dimension)
    X = result.front_decisions
    if not problem.bounds.contains(X):
        return "a front row lies outside the bounds"
    F, G, H = problem.evaluate_matrix(X)
    if not np.allclose(F, result.front_objectives, rtol=1e-12, atol=1e-12):
        return "front objectives differ from re-evaluated decisions"
    if (G > 0).any() or (np.abs(H) > delta).any() or (result.front_cv != 0).any():
        return "a front row is infeasible"
    if _dominated_rows(F).any():
        return "a front row is dominated by another row"
    return None


def judge(name: str, result, max_fe: int) -> RunOutcome:
    """Check one run's output and reduce it to digests and quality numbers."""
    log_bytes = "".join(json.dumps(r, sort_keys=True) + "\n" for r in result.log).encode()
    front_bytes = b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in (
        result.front_decisions, result.front_objectives, result.front_cv))
    fe_to_target = next((r["fe"] for r in result.log if r["igd"] <= IGD_TARGET), max_fe)
    return RunOutcome(
        name=name,
        error=front_error(result, max_fe, RunConfig().delta),
        log_sha256=_sha256(log_bytes),
        front_sha256=_sha256(front_bytes),
        final_igd=float(result.final_igd),
        final_hv=float(result.final_hv),
        fe_to_target=int(fe_to_target),
        switch_generation=result.switch_generation,
        wall_s=result.wall_time,
    )


def _failure(name: str, exc: BaseException) -> RunOutcome:
    return RunOutcome(name=name, error="".join(traceback.format_exception(exc)).strip())


def paper_runs(seed: int, spec: Spec, tracer=None) -> Pass:
    """One run per problem through the public ``dpcmo.run``."""
    config = RunConfig(pop_size=spec.pop_size, max_fe=spec.max_fe)
    run_fn = tracer.engine_run(run) if tracer else run
    outcomes: list = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for pid in PROBLEM_IDS:
        problem = make_problem(pid, spec.dimension)
        if tracer:
            problem = tracer.wrap_problem(problem)
        try:
            outcomes.append(run_fn(problem, config, seed))
        except Exception as exc:  # a failed run is counted, not fatal
            outcomes.append(exc)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    runs = []
    for pid, outcome in zip(PROBLEM_IDS, outcomes):
        name = f"{pid}__full__s{seed}"
        runs.append(_failure(name, outcome) if isinstance(outcome, Exception)
                    else judge(name, outcome, spec.max_fe))
    evaluations = sum(o.evaluations for o in outcomes if not isinstance(o, Exception))
    return Pass(wall_s=wall, cpu_s=cpu, evaluations=evaluations, runs=runs)


def grid_config_text(seed: int, spec: Spec, outdir: Path) -> str:
    return "\n".join([
        "# generated by perfbench",
        f"problems = {', '.join(f'{pid}:{spec.dimension}' for pid in PROBLEM_IDS)}",
        f"seeds = {', '.join(map(str, grid_seeds(seed, spec)))}",
        f"variants = {', '.join(spec.variants)}",
        f"N = {spec.pop_size}",
        f"maxFE = {spec.max_fe}",
        f"outdir = {outdir}",
        "",
    ])


@contextlib.contextmanager
def captured_runs():
    """Keep every RunResult that the harness's ``run`` returns."""
    inner = harness.run
    results = []

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        results.append(result)
        return result

    harness.run = capture
    try:
        yield results
    finally:
        harness.run = inner


def ablation_grid(seed: int, spec: Spec, scratch: Path, tracer=None) -> Pass:
    """``dpcmo run``, ``stats`` and ``plotdata`` in-process on a fresh grid.

    The config and results live in a temporary directory under ``scratch``
    that is removed when the pass ends.
    """
    cells = len(PROBLEM_IDS) * len(spec.variants) * spec.seeds_per_cell
    with tempfile.TemporaryDirectory(dir=scratch, prefix="grid-") as tmp:
        workdir = Path(tmp)
        outdir = workdir / "results"
        config_path = workdir / "grid.cfg"
        config_path.write_text(grid_config_text(seed, spec, outdir))
        argvs = [["run", str(config_path)],
                 ["stats", str(outdir / "summary.csv")],
                 ["plotdata", str(outdir)]]
        main = tracer.timed("cli.main", cli.main) if tracer else cli.main

        with captured_runs() as results, contextlib.redirect_stdout(io.StringIO()):
            wall0, cpu0 = time.perf_counter(), time.process_time()
            try:
                codes = [main(argv) for argv in argvs]
            except Exception as exc:  # counted against every cell below
                codes = [f"{type(exc).__name__}: {exc}"]
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

        summary = outdir / "summary.csv"
        rows = list(csv.DictReader(summary.read_text().splitlines())) if summary.exists() else []
        files = [p for p in outdir.rglob("*") if p.is_file()]
        artifacts = {"files": len(files), "bytes": sum(p.stat().st_size for p in files)}

    runs = [judge(f"{r.problem_id}__s{r.seed}__{r.fingerprint}", r, spec.max_fe)
            for r in results]
    grid_error = None
    if any(codes):
        grid_error = f"CLI exit codes {codes}"
    elif len(rows) != cells or len(runs) != cells:
        grid_error = f"{len(rows)} summary rows and {len(runs)} runs for {cells} cells"
    if grid_error:
        runs = [RunOutcome(name=r.name, error=r.error or grid_error) for r in runs]
        runs += [RunOutcome(name=f"missing-{k}", error=grid_error)
                 for k in range(cells - len(runs))]
    return Pass(wall_s=wall, cpu_s=cpu, evaluations=sum(r.evaluations for r in results), runs=runs,
                artifacts=artifacts)

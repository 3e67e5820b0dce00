"""Span tracing of dpcmo from outside the program.

The tracer replaces the public functions that each dpcmo layer calls in the
layer below with thin wrappers. A wrapper records one span per call (name,
start, end, parent span, run id) in memory, plus a few work counts read from
the call's arguments and result. ``restore`` puts every original object back.

Self time of a span is its duration minus the durations of its direct child
spans; summing self time by layer partitions the traced wall time.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

import numpy as np
from dpcmo import cli, engine, harness, metrics, selection, variation

# Span name -> per-layer metric that receives the span's self time.
LAYER_OF_SPAN = {
    "engine.run": "engine.self_s",
    "engine.stage1_step": "engine.self_s",
    "engine.stage2_step": "engine.self_s",
    "core.evaluate_batch": "core.evaluate_s",
    "problems.evaluate_matrix": "problems.evaluate_s",
    "problems.reference_front": "problems.front_s",
    "metrics.igd": "metrics.igd_s",
    "metrics.normalized_hypervolume": "metrics.hv_s",
    "selection.environmental_select": "selection.env_select_s",
    "selection.angle_subregion_select": "selection.angular_s",
    "selection.nondominated_ranks": "selection.rank_s",
    "selection.crowding_distances": "selection.crowd_s",
    "selection.unconstrained_nondominated": "selection.nd_s",
    "selection.pool_sort": "selection.pool_sort_s",
    "variation.ga_offspring": "variation.self_s",
    "variation.de_rand_1": "variation.self_s",
    "variation.de_current_to_rand": "variation.self_s",
    "variation.de_current_to_pbest": "variation.self_s",
    "variation.de_transfer": "variation.self_s",
    "variation.random_pool": "variation.self_s",
    "variation.tournament_pool": "variation.self_s",
    "staging.classify_relationship": "staging.s",
    "staging.rs_metric": "staging.s",
    "staging.should_switch": "staging.s",
    "staging.track_type": "staging.s",
    "schedule.dra_allocate": "schedule.s",
    "schedule.epsilon_final": "schedule.s",
    "schedule.epsilon_initial": "schedule.s",
    "schedule.aux_size": "schedule.s",
    "schedule.no_dra_factors": "schedule.s",
    "cli.main": "cli.self_s",
    "cli.load_config": "cli.load_config_s",
    "harness.run_experiment": "harness.self_s",
    "harness.read_summary": "harness.self_s",
    "harness.emit_plot_data": "harness.plotdata_s",
    "stats.ranksum_test": "stats.s",
    "stats.signed_rank_multiproblem": "stats.s",
}
SELF_TIME_METRICS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))

# Operator spans whose inclusive time is reported per operator family.
GA_SPANS = ("variation.ga_offspring",)
DE_SPANS = ("variation.de_rand_1", "variation.de_current_to_rand",
            "variation.de_current_to_pbest", "variation.de_transfer")
OPERATOR_SPANS = GA_SPANS + DE_SPANS

# engine-module names, grouped by the span prefix of the layer they belong to.
_ENGINE_IMPORTS = {
    "core": ("evaluate_batch",),
    "metrics": ("igd",),
    "problems": ("reference_front",),
    "schedule": ("dra_allocate", "epsilon_final", "epsilon_initial", "aux_size",
                 "no_dra_factors"),
    "selection": ("angle_subregion_select", "environmental_select",
                  "unconstrained_nondominated"),
    "staging": ("classify_relationship", "rs_metric", "should_switch", "track_type"),
    "variation": ("de_current_to_pbest", "de_current_to_rand", "de_rand_1", "de_transfer",
                  "ga_offspring", "random_pool", "tournament_pool"),
}


class Tracer:
    """In-memory span recorder that patches and restores dpcmo names."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.run_id = -1
        self.counts: Counter = Counter()
        self.step_ms: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._step_offspring: list = []

    # -- recording -------------------------------------------------------

    def timed(self, name: str, fn, on_result=None):
        """Return ``fn`` wrapped so each call records a span named ``name``.

        ``on_result(args, result)`` runs after the span closes, so the
        bookkeeping it does is charged to the caller, not to ``name``.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def engine_run(self, run):
        """Wrap ``dpcmo.run`` so each call opens a new run id."""
        timed = self.timed("engine.run", run)

        def wrapper(*args, **kwargs):
            self.run_id += 1
            return timed(*args, **kwargs)

        wrapper.__wrapped__ = run
        return wrapper

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every traced name; return (owner, attr, original) triples."""
        for layer, names in _ENGINE_IMPORTS.items():
            for attr in names:
                hook = None
                if attr == "evaluate_batch":
                    hook = self._count_evaluations
                elif attr == "igd":
                    hook = self._count_igd
                elif f"{layer}.{attr}" in OPERATOR_SPANS:
                    hook = self._count_offspring
                self.patch(engine, attr, self.timed(f"{layer}.{attr}", getattr(engine, attr), hook))
        for stage in ("stage1", "stage2"):
            attr = f"{stage}_step"
            self.patch(engine, attr, self._step_wrapper(stage, getattr(engine, attr)))
        self.patch(metrics.MetricConfig, "normalized_hypervolume",
                   self.timed("metrics.normalized_hypervolume",
                              metrics.MetricConfig.normalized_hypervolume))

        # Sorting inside selection, wherever it is called from.
        self.patch(selection, "nondominated_ranks",
                   self.timed("selection.nondominated_ranks", selection.nondominated_ranks,
                              self._count_sort))
        self.patch(selection, "crowding_distances",
                   self.timed("selection.crowding_distances", selection.crowding_distances))
        self.patch(selection, "unconstrained_nondominated",
                   self.timed("selection.unconstrained_nondominated",
                              selection.unconstrained_nondominated))
        # Ranking that the mating pools ask of selection.
        for attr in ("rank_and_crowd", "fitness_order"):
            self.patch(variation, attr, self.timed("selection.pool_sort", getattr(variation, attr),
                                                   self._count_pool_sort))

        self.patch(harness, "run", self.engine_run(harness.run))
        self.patch(harness, "make_problem", self._problem_factory(harness.make_problem))
        for attr, span in (("load_config", "cli.load_config"),
                           ("run_experiment", "harness.run_experiment"),
                           ("read_summary", "harness.read_summary"),
                           ("emit_plot_data", "harness.emit_plot_data"),
                           ("ranksum_test", "stats.ranksum_test"),
                           ("signed_rank_multiproblem", "stats.signed_rank_multiproblem")):
            self.patch(cli, attr, self.timed(span, getattr(cli, attr)))
        return list(self._patched)

    def wrap_problem(self, problem):
        """A copy of ``problem`` whose evaluate_matrix records spans."""
        return dataclasses.replace(problem, evaluate_matrix=self.timed(
            "problems.evaluate_matrix", problem.evaluate_matrix))

    def _problem_factory(self, make_problem):
        def factory(*args, **kwargs):
            return self.wrap_problem(make_problem(*args, **kwargs))
        factory.__wrapped__ = make_problem
        return factory

    def _step_wrapper(self, stage: str, step):
        """Time one generation, then read phase and survivors from ``state``."""
        timed = self.timed(f"engine.{stage}_step", step)

        def wrapper(state):
            self._step_offspring = []
            index = len(self.spans)
            timed(state)
            _name, start, end, _parent, _run = self.spans[index]
            self.step_ms[stage].append((end - start) * 1e3)
            self.counts["engine.generations"] += 1
            if stage == "stage2":
                self.counts[f"engine.phase{state.phase}_gens"] += 1
            born = self._step_offspring
            main_ids = {id(s) for s in state.pop_main}
            aux_ids = {id(s) for s in state.pop_aux}
            self.counts["selection.offspring_seen"] += len(born)
            self.counts["selection.main_survivors"] += sum(id(s) in main_ids for s in born)
            self.counts["selection.aux_survivors"] += sum(id(s) in aux_ids for s in born)

        wrapper.__wrapped__ = step
        return wrapper

    # -- counters --------------------------------------------------------

    def _count_evaluations(self, _args, result) -> None:
        self.counts["core.evaluations"] += len(result)
        self._step_offspring.extend(result)

    def _count_igd(self, args, _result) -> None:
        front, ref = args[0], args[1]
        self.counts["metrics.igd_calls"] += 1
        self.counts["metrics.igd_pairs"] += len(ref) * len(front)

    def _count_offspring(self, _args, result) -> None:
        self.counts["variation.offspring"] += len(result)

    def _count_sort(self, args, ranks) -> None:
        self.counts["selection.sort_calls"] += 1
        self.counts["selection.sort_rows"] += len(args[0])
        self.counts["selection.fronts"] += int(ranks.max()) + 1 if len(ranks) else 0

    def _count_pool_sort(self, _args, _result) -> None:
        self.counts["selection.pool_sort_calls"] += 1

    # -- reduction -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _run), inner in zip(self.spans, child_time):
            totals[name] += end - start - inner
        return dict(totals)

    def inclusive_time(self, names) -> float:
        wanted = set(names)
        return sum(end - start for name, start, end, _p, _r in self.spans if name in wanted)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts."""
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for name, seconds in self.self_times().items():
            out[LAYER_OF_SPAN[name]] += seconds
        c = self.counts
        sorts = c["selection.sort_calls"]
        born = c["selection.offspring_seen"]
        out.update({
            "selection.sort_calls": sorts,
            "selection.sort_rows_mean": c["selection.sort_rows"] / sorts if sorts else 0.0,
            "selection.fronts_per_sort_mean": c["selection.fronts"] / sorts if sorts else 0.0,
            "selection.pool_sort_calls": c["selection.pool_sort_calls"],
            "selection.main_survival": c["selection.main_survivors"] / born if born else 0.0,
            "selection.aux_survival": c["selection.aux_survivors"] / born if born else 0.0,
            "metrics.igd_calls": c["metrics.igd_calls"],
            "metrics.igd_pairs": c["metrics.igd_pairs"],
            "variation.ga_s": self.inclusive_time(GA_SPANS),
            "variation.de_s": self.inclusive_time(DE_SPANS),
            "variation.offspring": c["variation.offspring"],
            "core.evaluations": c["core.evaluations"],
            "engine.generations": c["engine.generations"],
            "engine.phase1_gens": c["engine.phase1_gens"],
            "engine.phase2_gens": c["engine.phase2_gens"],
            "engine.phase3_gens": c["engine.phase3_gens"],
            "trace.spans": len(self.spans),
        })
        for stage in ("stage1", "stage2"):
            ms = self.step_ms.get(stage, [])
            out[f"engine.{stage}_gen_ms_p50"] = float(np.percentile(ms, 50)) if ms else 0.0
            out[f"engine.{stage}_gen_ms_p98"] = float(np.percentile(ms, 98)) if ms else 0.0
            out[f"engine.{stage}_gen_samples"] = len(ms)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{run}\n")

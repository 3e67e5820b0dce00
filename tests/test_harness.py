import itertools
import json
import re
from concurrent.futures import Future
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from dpcmo import engine, harness
from dpcmo.cli import _grid_config, build_parser, main
from dpcmo.harness import (
    ConfigError,
    ExperimentConfig,
    RunConfig,
    emit_plot_data,
    load_config,
    read_summary,
    run_experiment,
)


def write_config(tmp_path, text):
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    return path


# One line per run key of a config file, with the RunConfig field it sets and
# the parsed value.
RUN_KEY_CASES = [
    ("N = 50", "pop_size", 50),
    ("maxFE = 900", "max_fe", 900),
    ("phase3_eps = 0.004", "phase3_eps", 0.004),
    ("opposition_eps = 0.001", "opposition_eps", 0.001),
    ("delta = 0.001", "delta", 0.001),
    ("coincident_threshold = 0.8", "coincident_threshold", 0.8),
]


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "problems = P1-overlap\n"))
        assert cfg.problems == (("P1-overlap", 10),)
        assert cfg.run.pop_size == 100
        assert cfg.run.max_fe == 50_000
        assert cfg.seeds == tuple(range(1, 31))
        assert cfg.variants == ("full",)

    def test_full_file(self, tmp_path):
        cfg = load_config(write_config(tmp_path, """
# experiment
problems = P1-overlap:12, P3-separated
N = 60
maxFE = 9000
seeds = 3, 1, 2
variants = full, WoOP
outdir = out
parallel = 2
phase3_eps = 0.003
coincident_threshold = 0.7
"""))
        assert cfg.problems == (("P1-overlap", 12), ("P3-separated", 10))
        assert cfg.run.pop_size == 60
        assert cfg.run.max_fe == 9000
        assert cfg.seeds == (3, 1, 2)
        assert cfg.variants == ("full", "WoOP")
        assert cfg.run.phase3_eps == 0.003
        assert cfg.run.coincident_threshold == 0.7
        assert cfg.parallel == 2

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nseeds = 1, 1\n"))

    @pytest.mark.parametrize("text", [
        "problems = P1-overlap, P1-overlap\n",
        "problems = P1-overlap:10, P1-overlap:20\n",  # one cell name for both
        "variants = full, WoOP, full\n",
    ])
    def test_duplicate_problems_or_variants_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="distinct"):
            load_config(write_config(tmp_path, text))
        cfg = write_config(tmp_path, text + f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_suggests_fix(self, tmp_path):
        with pytest.raises(ConfigError, match="opposition_eps"):
            load_config(write_config(tmp_path, "opositon_eps = 0.2\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nnonsense line\n"))

    def test_unknown_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown problem"):
            load_config(write_config(tmp_path, "problems = P7-weird\n"))

    def test_problem_dimension_below_two(self, tmp_path):
        with pytest.raises(ConfigError, match="dimension must be >= 2, got 1"):
            load_config(write_config(tmp_path, "problems = P1-overlap:1\n"))

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="variant"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nvariants = Full\n"))

    def test_budget_invariant(self, tmp_path):
        with pytest.raises(ConfigError, match="maxFE"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nN = 100\nmaxFE = 120\n"))

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.cfg"
        with pytest.raises(ConfigError, match=f"^cannot read config file {path}: "):
            load_config(path)

    @pytest.mark.parametrize("line", [
        "delta = 0", "delta = -0.001", "phase3_eps = 0.3", "phase3_eps = -0.1",
        "delta = inf", "opposition_eps = nan",
        "coincident_threshold = 0.0", "coincident_threshold = -0.1", "coincident_threshold = 5.0",
        "seeds = 3, -1",
    ])
    def test_out_of_range_run_value_rejected(self, tmp_path, line):
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, f"problems = P1-overlap\n{line}\n"))

    def test_tiny_population_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="population size"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nN = 4\n"))

    @pytest.mark.parametrize("line,attr,value", RUN_KEY_CASES)
    def test_run_key_parses_to_field(self, tmp_path, line, attr, value):
        cfg = load_config(write_config(tmp_path, f"problems = P1-overlap\n{line}\n"))
        parsed = getattr(cfg.run, attr)
        assert parsed == value and type(parsed) is type(value)

    def test_run_key_set(self):
        assert set(harness._RUN_KEYS) == {line.split()[0] for line, _, _ in RUN_KEY_CASES}

    @pytest.mark.parametrize("line", [
        "pop_size = 50", "max_fe = 900", "disable_dra = true", "fixed_aux_size = 1",
        "reset_cnt_on_update = yes", "variant = Wo3P",
        # RunConfig fields that became module constants
        "eps0 = 0.2", "curvature = 15", "phase1_eps = 0.195", "history_gap = 10",
        "history_delta = 1e-7", "pbest_fraction = 0.1", "igd_points = 1000", "hv_offset = 1.1",
    ])
    def test_field_names_without_a_key_are_unknown(self, tmp_path, line):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, f"problems = P1-overlap\n{line}\n"))

    @pytest.mark.parametrize("line,suggestion", [("problem = P1-overlap", "problems"),
                                                 ("n_seeds = 5", "seeds")])
    def test_alias_keys_are_unknown(self, tmp_path, capsys, line, suggestion):
        key = line.split()[0]
        cfg = write_config(tmp_path, f"{line}\noutdir = {tmp_path / 'out'}\n")
        with pytest.raises(ConfigError, match=rf"^line 1: unknown key '{key}'; did you mean '{suggestion}'\?$"):
            load_config(cfg)
        assert main(["run", str(cfg)]) == 2
        assert f"unknown key '{key}'; did you mean '{suggestion}'?" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_key_suggests_the_closest(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: unknown key 'seed'; did you mean 'seeds'"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nseed = 1\n"))

    @pytest.mark.parametrize("line", [
        "problems = P1-overlap, ", "problems = P1-overlap,,P2-partial",
        "variants = full, ", "variants = full,,Wo3P", "seeds = 1, ",
    ])
    def test_empty_list_item_names_line_and_key(self, tmp_path, line):
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=f"^line 2: key '{key}' has an empty item$"):
            load_config(write_config(tmp_path, f"parallel = 1\n{line}\n"))

    def test_unknown_ablation_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown variant 'WoXYZ'"):
            load_config(write_config(tmp_path, "problems = P1-overlap\nvariants = full, WoXYZ\n"))

    @pytest.mark.parametrize("first,second", [
        ("N = 10", "N = 20"),
        ("seeds = 1", "seeds = 2"),
        ("variants = full", "variants = WoOP"),
        ("problems = P1-overlap", "problems = P2-partial"),
        ("delta = 0.1", "delta = 0.2"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, first, second):
        text = f"parallel = 1\n{first}\n# comment\n{second}\n"
        with pytest.raises(ConfigError, match=r"line 4: .* from line 2$"):
            load_config(write_config(tmp_path, text))

    @pytest.mark.parametrize("key", ["outdir", "variants", "problems"])
    def test_empty_value_names_line_and_key(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"line 2: key '{key}' has no value"):
            load_config(write_config(tmp_path, f"problems = P1-overlap\n{key} =\n"))


# Each invalid grid field value, with the ConfigError message it raises.
INVALID_GRID_FIELDS = [
    ("problems", ["P1-overlap"], "problems must hold (id, dimension) pairs"),
    ("problems", [("P9", 3)], "unknown problem id 'P9'"),
    ("problems", [("P1-overlap", 10.5)], "dimension must be an integer, got 10.5"),
    ("problems", [("P1-overlap", True)], "dimension must be an integer, got True"),
    ("problems", [("P1-overlap", 1)], "dimension must be >= 2, got 1"),
    ("problems", [("P1-overlap", 10), ("P1-overlap", 20)], "problems must be distinct"),
    ("problems", [], "at least one problem is required"),
    ("seeds", 3, "seeds must be a list, got 3"),
    ("seeds", [1.5], "seeds must be integers, got 1.5"),
    ("seeds", [2, True], "seeds must be integers, got 2, True"),
    ("seeds", [3, -1], "seeds must be non-negative, got -1"),
    ("seeds", [1, 1], "seeds must be distinct, got 1, 1"),
    ("seeds", [], "at least one seed is required"),
    ("variants", "full", "variants must be a list, got 'full'"),
    ("variants", ["full", "nope"], "unknown variant 'nope'"),
    ("variants", ["full", "WoOP", "full"], "variants must be distinct, got full, WoOP, full"),
    ("variants", [], "at least one variant is required"),
    ("parallel", 1.5, "parallel must be an integer >= 1, got 1.5"),
    ("parallel", 0, "parallel must be an integer >= 1, got 0"),
]


class TestExperimentConfig:
    @pytest.mark.parametrize("field,value,message", INVALID_GRID_FIELDS,
                             ids=[f"{field}={value!r}" for field, value, _ in INVALID_GRID_FIELDS])
    def test_refused_when_built(self, tmp_path, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            ExperimentConfig(outdir=tmp_path / "e", **{field: value})
        valid = ExperimentConfig(outdir=tmp_path / "e")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
            replace(valid, **{field: value})
        assert not (tmp_path / "e").exists()

    def test_fields_are_frozen_plain_values(self):
        cfg = ExperimentConfig(problems=[["P1-overlap", np.int64(12)]], seeds=[np.int64(0), 1, 2],
                               variants=["full", "WoOP"], outdir="out", parallel=np.int64(2))
        assert cfg == ExperimentConfig(problems=(("P1-overlap", 12),), seeds=(0, 1, 2),
                                       variants=("full", "WoOP"), outdir=Path("out"), parallel=2)
        assert type(cfg.seeds[0]) is int and type(cfg.problems[0][1]) is int and type(cfg.parallel) is int
        with pytest.raises(FrozenInstanceError):
            cfg.seeds = (-1,)


def tiny_experiment(outdir, seeds=(1, 2, 3), variants=("full",), parallel=1):
    return ExperimentConfig(
        problems=[("P3-separated", 10)],
        seeds=list(seeds),
        variants=list(variants),
        outdir=Path(outdir),
        parallel=parallel,
        run=RunConfig(pop_size=30, max_fe=1500),
    )


class TestRunExperiment:
    def test_artifacts_written(self, tmp_path):
        report = run_experiment(tiny_experiment(tmp_path / "r"))
        assert report.exit_code == 0
        assert report.completed == 3
        rows = read_summary(report.summary_path)
        assert len(rows) == 3
        assert {r["seed"] for r in rows} == {1, 2, 3}
        logs = sorted((tmp_path / "r" / "logs").glob("*.jsonl"))
        assert len(logs) == 3
        records = [json.loads(line) for line in logs[0].read_text().splitlines()]
        assert all(a["fe"] <= b["fe"] for a, b in zip(records, records[1:]))
        meta = json.loads((tmp_path / "r" / "metadata.json").read_text())
        assert meta["generator"] == "PCG64"
        assert meta["failures"] == []

    def test_rerun_binary_identical(self, tmp_path):
        r1 = run_experiment(tiny_experiment(tmp_path / "a"))
        r2 = run_experiment(tiny_experiment(tmp_path / "b"))
        assert r1.summary_path.read_bytes() == r2.summary_path.read_bytes()
        logs_a = sorted((tmp_path / "a" / "logs").glob("*.jsonl"))
        logs_b = sorted((tmp_path / "b" / "logs").glob("*.jsonl"))
        for a, b in zip(logs_a, logs_b):
            assert a.read_bytes() == b.read_bytes()

    def test_parallel_matches_serial(self, tmp_path):
        # Groups of one cell, each on the shared path, in a pool of three.
        run_experiment(tiny_experiment(tmp_path / "s", parallel=1))
        run_experiment(tiny_experiment(tmp_path / "p", parallel=3))
        assert artifact_bytes(tmp_path / "p") == artifact_bytes(tmp_path / "s")

    def test_grid_shape(self, tmp_path):
        cfg = replace(tiny_experiment(tmp_path / "g", seeds=(1, 2), variants=("full", "WoOP")),
                      problems=[("P1-overlap", 10), ("P3-separated", 10)])
        report = run_experiment(cfg)
        rows = read_summary(report.summary_path)
        assert len(rows) == 8  # 2 problems x 2 variants x 2 seeds

    def test_full_grid_rows_have_finite_or_sentinel_metrics(self, tmp_path):
        import math
        cfg = ExperimentConfig(
            problems=[(pid, 10) for pid in ("P1-overlap", "P2-partial", "P3-separated")],
            seeds=list(range(1, 11)),
            variants=["full", "WoOP"],
            outdir=tmp_path / "big",
            run=RunConfig(pop_size=25, max_fe=150),
        )
        rows = read_summary(run_experiment(cfg).summary_path)
        assert len(rows) == 60  # 3 problems x 2 variants x 10 seeds
        for row in rows:
            assert math.isfinite(row["final_hv"])
            assert math.isfinite(row["final_igd"]) or row["final_igd"] == math.inf

    def test_partial_failure_recorded(self, tmp_path, monkeypatch):
        original = harness.run

        def flaky(problem, config, seed, prefix=None):
            if seed == 2:
                raise RuntimeError("boom")
            return original(problem, config, seed, prefix=prefix)

        monkeypatch.setattr(harness, "run", flaky)
        report = run_experiment(tiny_experiment(tmp_path / "f"))
        assert report.exit_code == 2
        assert report.completed == 2
        assert len(report.failed) == 1
        assert "boom" in report.failed[0][1]
        rows = read_summary(report.summary_path)
        assert {r["seed"] for r in rows} == {1, 3}

    @pytest.mark.parametrize("seeds,parallel,message", [
        ((1.5,), 1, "seeds must be integers, got 1.5"),
        ((2, True), 1, "seeds must be integers, got 2, True"),
        ((1,), 1.5, "parallel must be an integer >= 1, got 1.5"),
    ])
    def test_fractional_seed_or_parallel_is_config_error(self, tmp_path, seeds, parallel, message):
        with pytest.raises(ConfigError, match=message):
            run_experiment(tiny_experiment(tmp_path / "e", seeds=seeds, parallel=parallel))
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("dimension", [10.5, True])
    def test_fractional_dimension_is_config_error(self, tmp_path, dimension):
        cfg = tiny_experiment(tmp_path / "e")
        with pytest.raises(ConfigError, match=f"dimension must be an integer, got {dimension}"):
            run_experiment(replace(cfg, problems=[("P1-overlap", dimension)]))
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("problems", ["P1-overlap"], "problems must hold"),
        ("seeds", 3, "seeds must be a list, got 3"),
        ("variants", "full", "variants must be a list, got 'full'"),
    ])
    def test_misshapen_grid_field_is_config_error(self, tmp_path, field, value, message):
        cfg = tiny_experiment(tmp_path / "e")
        with pytest.raises(ConfigError, match=message):
            run_experiment(replace(cfg, **{field: value}))
        assert not (tmp_path / "e").exists()

    def test_numpy_numbers_echo_as_plain_ints(self, tmp_path):
        echoes = []
        for number in (int, np.int64):
            cfg = replace(tiny_experiment(tmp_path / "e", seeds=[number(1)], parallel=number(1)),
                          problems=[("P1-overlap", number(10))], run=RunConfig(pop_size=10, max_fe=100))
            run_experiment(cfg)
            echoes.append(json.loads((tmp_path / "e" / "metadata.json").read_text())["config"])
        assert echoes[0] == echoes[1]
        assert echoes[0]["seeds"] == [1] and echoes[0]["problems"] == [["P1-overlap", 10]]

    def test_no_variants_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one variant"):
            run_experiment(tiny_experiment(tmp_path / "e", variants=()))
        assert not (tmp_path / "e" / "summary.csv").exists()


def shared_grid(outdir, parallel=1):
    """P3 x seeds {1, 2} x {full, WoOP, WoRR}: each seed's cells share stage 1
    until full switches where WoRR does not (generations 160 and 111), and
    full and WoOP share it to the switch."""
    return replace(tiny_experiment(outdir, seeds=(1, 2), variants=("full", "WoOP", "WoRR"),
                                   parallel=parallel),
                   run=RunConfig(pop_size=30, max_fe=15_200))


def stage1_generations(outdir, name) -> int:
    records = [json.loads(line) for line in (outdir / "logs" / f"{name}.jsonl").open()]
    return sum(r["stage"] == 0 and r["g"] > 0 for r in records)


def artifact_bytes(outdir) -> dict:
    return {p.relative_to(outdir): p.read_bytes()
            for p in sorted(outdir.rglob("*")) if p.is_file() and p.name != "metadata.json"}


class TestSharedStage1:
    def test_each_group_runs_stage1_once(self, tmp_path, monkeypatch):
        applied, switch_metrics = [], []
        inner, inner_rs = engine.stage1_apply, engine.rs_metric

        def counted(state, decision):
            applied.append(state.g)
            inner(state, decision)

        # Shared generations and a cell's own both run in engine.advance.
        monkeypatch.setattr(engine, "stage1_apply", counted)
        monkeypatch.setattr(engine, "rs_metric",
                            lambda history: switch_metrics.append(1) or inner_rs(history))
        outdir = tmp_path / "g"
        report = run_experiment(shared_grid(outdir))
        assert report.exit_code == 0 and report.completed == 6
        per_cell = {(v, s): stage1_generations(outdir, f"P3-separated__{v}__s{s}")
                    for v in ("full", "WoOP", "WoRR") for s in (1, 2)}
        diverged = diverged_from_full(outdir)
        for s, switch in ((1, 160), (2, 111)):
            assert per_cell["full", s] == per_cell["WoOP", s] == switch < per_cell["WoRR", s]
            assert diverged[f"P3-separated__WoRR__s{s}"] == switch
        # WoRR shares full's generations before the one it does not switch at.
        shared = sum(per_cell[v, s] for v in ("full", "WoRR") for s in (1, 2)) - (159 + 110)
        assert len(applied) == shared < sum(per_cell.values())
        # One switch metric per executed stage-1 generation and per initial
        # state (one per seed), however many cells decide on it.
        assert len(switch_metrics) == len(applied) + 2

    def test_parallel_grid_writes_the_serial_bytes(self, tmp_path):
        run_experiment(shared_grid(tmp_path / "s"))
        run_experiment(shared_grid(tmp_path / "p", parallel=2))
        serial = artifact_bytes(tmp_path / "s")
        assert len(serial) == 13  # summary, 6 logs, 6 fronts
        assert artifact_bytes(tmp_path / "p") == serial

    def test_failed_stage1_fails_its_groups_cells(self, tmp_path, monkeypatch):
        inner = engine.initialize

        def flaky(problem, config, seed):
            if seed == 2:
                raise RuntimeError("initialize boom")
            return inner(problem, config, seed)

        monkeypatch.setattr(engine, "initialize", flaky)
        report = run_experiment(shared_grid(tmp_path / "f"))
        assert report.completed == 3
        assert sorted(name for name, _ in report.failed) == [
            f"P3-separated__{v}__s2" for v in ("WoOP", "WoRR", "full")]
        assert all(msg == "RuntimeError: initialize boom" for _, msg in report.failed)
        assert {r["seed"] for r in read_summary(report.summary_path)} == {1}

    def test_failed_shared_generation_fails_only_the_cells_that_shared_it(self, tmp_path, monkeypatch):
        inner = engine.stage1_apply

        def flaky(state, decision):
            switch, _ = decision
            # full and WoOP's shared switch, not WoRR's own later one
            if state.seed == 2 and switch and state.config.variant != "WoRR":
                raise RuntimeError("switch boom")
            inner(state, decision)

        monkeypatch.setattr(engine, "stage1_apply", flaky)
        report = run_experiment(shared_grid(tmp_path / "f"))
        assert report.completed == 4
        assert sorted(report.failed) == [
            (f"P3-separated__{v}__s2", "RuntimeError: switch boom") for v in ("WoOP", "full")]

    def test_pool_never_outnumbers_the_groups(self, tmp_path, monkeypatch):
        workers = []

        class InlinePool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        serial = run_experiment(tiny_experiment(tmp_path / "s", variants=("full", "WoOP")))
        # run_experiment imports the pool class only when it starts a pool.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        pooled = run_experiment(tiny_experiment(tmp_path / "p", variants=("full", "WoOP"),
                                                parallel=64))
        assert workers == [3]  # 6 cells, one group per seed
        assert pooled.summary_path.read_bytes() == serial.summary_path.read_bytes()


def stage2_grid(outdir, problem, variants, parallel=1):
    return ExperimentConfig(problems=[(problem, 10)], seeds=[1], variants=list(variants),
                            outdir=Path(outdir), parallel=parallel,
                            run=RunConfig(pop_size=30, max_fe=15_200))


def solo_artifacts(cfg) -> dict:
    """The log and front bytes of each cell of ``cfg`` as a solo ``run``."""
    out = {}
    for (pid, dim), variant, seed in itertools.product(cfg.problems, cfg.variants, cfg.seeds):
        result = engine.run(harness.make_problem(pid, dim),
                            replace(cfg.run, variant=variant), seed)
        name = f"{pid}__{variant}__s{seed}"
        out[Path("logs", f"{name}.jsonl")] = "".join(
            json.dumps(r, sort_keys=True) + "\n" for r in result.log).encode()
        out[Path("fronts", f"{name}.csv")] = ("\n".join(["f1,f2"] + [
            ",".join(repr(float(v)) for v in row) for row in result.front_objectives]) + "\n").encode()
    return out


def first_stage2_generation(outdir, name) -> int:
    return next(r["g"] for r in map(json.loads, (outdir / "logs" / f"{name}.jsonl").open())
                if r["stage"] == 1)


def diverged_from_full(outdir) -> dict:
    return json.loads((outdir / "metadata.json").read_text())["diverged_from_full"]


class TestSharedStage2:
    # P3: Wo3P makes full's decisions through phase 2, then forks, and WoOP
    # leaves at the first stage-2 generation. P1: Wo3P leaves at once, and
    # full, WoOP and HOps-T1 go on together on a fork to the budget. The
    # stage-1 variants leave in stage 1: WoS1C at once, WoRR where full
    # switches and it does not. A group starts under its first variant's
    # config; when that variant leaves first, as Wo3P does on P1, the fork
    # that full and WoOP share must run under one of theirs.
    @pytest.mark.parametrize("problem,variants,never,late", [
        ("P3-separated", ("full", "Wo3P", "WoOP"), (), ("Wo3P",)),
        ("P1-overlap", ("full", "WoOP", "HOps-T1", "Wo3P"), ("WoOP", "HOps-T1"), ()),
        ("P3-separated", ("full", "WoRR", "WoS1C", "Wo3P"), (), ("Wo3P",)),
        ("P1-overlap", ("Wo3P", "full", "WoOP"), ("WoOP",), ()),
        ("P3-separated", ("full",), (), ()),  # a group of one cell
    ])
    def test_shared_cells_write_their_solo_bytes(self, tmp_path, problem, variants, never, late):
        serial = stage2_grid(tmp_path / "s", problem, variants)
        solo = solo_artifacts(serial)
        run_experiment(serial)
        run_experiment(stage2_grid(tmp_path / "p", problem, variants, parallel=2))
        for outdir in (tmp_path / "s", tmp_path / "p"):
            written = artifact_bytes(outdir)
            assert {k: v for k, v in written.items() if k.name != "summary.csv"} == solo
        diverged = diverged_from_full(tmp_path / "s")
        assert len(diverged) == len(variants) - 1
        for variant in (v for v in variants if v != "full"):
            name = f"{problem}__{variant}__s1"
            g, first = diverged[name], first_stage2_generation(tmp_path / "s", name)
            if variant == "WoS1C":
                assert g == 1
            elif variant == "WoRR":
                assert 1 < g < first
            else:
                assert g is None if variant in never else (g > first if variant in late else g == first)

    def test_shared_generations_run_once(self, tmp_path, monkeypatch):
        applied = []
        inner = engine.stage2_apply

        def counted(state, decision):
            applied.append(state.g)
            inner(state, decision)

        monkeypatch.setattr(engine, "stage2_apply", counted)
        variants = ("full", "WoOP", "HOps-T1", "Wo3P")
        run_experiment(stage2_grid(tmp_path, "P1-overlap", variants))
        per_cell = {v: sum(json.loads(line)["stage"] == 1
                           for line in (tmp_path / "logs" / f"P1-overlap__{v}__s1.jsonl").open())
                    for v in variants}
        assert per_cell["full"] == per_cell["WoOP"] == per_cell["HOps-T1"] > 0
        assert len(applied) == per_cell["full"] + per_cell["Wo3P"] < sum(per_cell.values())

    def test_shared_state_continues_only_under_its_cells_variants(self):
        problem = harness.make_problem("P3-separated", 10)
        configs = {v: replace(RunConfig(pop_size=30, max_fe=15_200), variant=v)
                   for v in ("full", "Wo3P", "WoOP")}
        states, diverged = engine.share(problem, 1, {v: configs[v] for v in ("full", "Wo3P")})
        assert diverged["Wo3P"] == states["full"].g == states["Wo3P"].g
        for variant, state in states.items():
            assert state.config == configs[variant]
            assert state.switch_generation is not None and state.g > state.switch_generation + 1
            for other in configs.keys() - {variant}:
                with pytest.raises(ValueError, match="prefix belongs to another problem, seed or config"):
                    engine.run(problem, configs[other], 1, prefix=state)
            shared = engine.run(problem, configs[variant], 1, prefix=state)
            assert shared.log == engine.run(problem, configs[variant], 1).log

    def test_divergence_is_recorded_only_against_full(self, tmp_path):
        run_experiment(shared_grid(tmp_path))
        expected = {f"P3-separated__WoOP__s{s}": first_stage2_generation(tmp_path, f"P3-separated__WoOP__s{s}")
                    for s in (1, 2)}
        expected.update({"P3-separated__WoRR__s1": 160, "P3-separated__WoRR__s2": 111})
        assert diverged_from_full(tmp_path) == expected
        run_experiment(tiny_experiment(tmp_path / "nofull", variants=("WoOP", "WoRR")))
        assert diverged_from_full(tmp_path / "nofull") == {}

    def test_golden_grid_reports_where_wo3p_left_full(self, tmp_path):
        from test_golden import GRIDS

        run_experiment(ExperimentConfig(outdir=tmp_path, **GRIDS["grid"]))
        diverged = diverged_from_full(tmp_path)
        assert sorted(diverged) == sorted(f"{pid}__Wo3P__s{s}" for pid, _ in GRIDS["grid"]["problems"]
                                          for s in (1, 2))
        for name, g in diverged.items():
            first = first_stage2_generation(tmp_path, name)
            assert g == first if not name.startswith("P3") else g > first


class TestPlotData:
    def test_series_and_fronts(self, tmp_path):
        report = run_experiment(tiny_experiment(tmp_path / "r"))
        written = emit_plot_data(report.outdir)
        names = {p.name for p in written}
        assert "igd__P3-separated__full.csv" in names
        assert "front__P3-separated__full.csv" in names
        series = (report.outdir / "plots" / "igd__P3-separated__full.csv").read_text().splitlines()
        n_gens = min(len(list((report.outdir / "logs").glob("*.jsonl"))) and
                     len(p.read_text().splitlines())
                     for p in (report.outdir / "logs").glob("*.jsonl"))
        assert len(series) - 1 == n_gens

    @staticmethod
    def _constructed_results(outdir, logs):
        """A results directory with one P/v cell per seed and the given
        (fe, igd) records as each seed's log."""
        (outdir / "logs").mkdir(parents=True)
        (outdir / "fronts").mkdir()
        (outdir / "summary.csv").write_text(
            "problem,variant,seed,final_hv,final_igd,evaluations,generations\n"
            + "".join(f"P,v,{seed},0.5,0.1,10,{len(log)}\n" for seed, log in logs.items()))
        for seed, log in logs.items():
            (outdir / "logs" / f"P__v__s{seed}.jsonl").write_text("".join(
                json.dumps({"g": g, "fe": fe, "igd": igd}) + "\n" for g, (fe, igd) in enumerate(log)))
        return outdir

    def test_median_of_constructed_logs(self, tmp_path):
        igds = {1: [0.5, 0.1], 2: [0.6, 0.2], 3: [0.7, 0.9]}
        outdir = self._constructed_results(
            tmp_path / "r", {seed: [(10, a), (20, b)] for seed, (a, b) in igds.items()})
        emit_plot_data(outdir)
        lines = (outdir / "plots" / "igd__P__v.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "0.6"
        assert lines[2].split(",")[2] == "0.2"
        # Every field is a per-generation np.median: also for an even seed
        # count (the middle pair's mean), for logs of unequal length (cut to
        # the shortest) and with inf, an empty front's IGD.
        rng = np.random.default_rng(1)
        for n_seeds in (3, 4):
            logs = {seed: [(int(fe), float(igd)) for fe, igd in zip(
                        rng.integers(0, 10**6, size=9 + seed), rng.random(9 + seed) ** 3)]
                    for seed in range(1, n_seeds + 1)}
            logs[1][2] = (logs[1][2][0], float("inf"))
            logs[2][4] = (logs[2][4][0], float("inf"))
            outdir = self._constructed_results(tmp_path / f"n{n_seeds}", logs)
            emit_plot_data(outdir)
            lines = (outdir / "plots" / "igd__P__v.csv").read_text().splitlines()
            assert len(lines) - 1 == 10
            for g, line in enumerate(lines[1:]):
                expected = [repr(float(np.median([log[g][k] for log in logs.values()]))) for k in (0, 1)]
                assert line.split(",") == [str(g), *expected]

    def test_missing_log_yields_partial_emission(self, tmp_path, capsys):
        report = run_experiment(tiny_experiment(tmp_path / "r"))
        victim = sorted((report.outdir / "logs").glob("*.jsonl"))[0]
        victim.unlink()
        written = emit_plot_data(report.outdir)
        assert "warning" in capsys.readouterr().out
        assert any(p.name.startswith("igd__") for p in written)

    @staticmethod
    def _two_seed_results(tmp_path):
        outdir = tmp_path / "r"
        (outdir / "logs").mkdir(parents=True)
        (outdir / "summary.csv").write_text(
            "problem,variant,seed,final_hv,final_igd,evaluations,generations\n"
            "P,v,1,0.5,0.1,20,2\nP,v,2,0.5,0.2,20,2\n")
        for seed in (1, 2):
            (outdir / "logs" / f"P__v__s{seed}.jsonl").write_text(
                json.dumps({"g": 0, "fe": 10, "igd": 0.5}) + "\n"
                + json.dumps({"g": 1, "fe": 20, "igd": 0.1}) + "\n")
        return outdir

    def test_empty_log_is_a_config_error(self, tmp_path, capsys):
        outdir = self._two_seed_results(tmp_path)
        (outdir / "logs" / "P__v__s2.jsonl").write_text("")
        assert main(["plotdata", str(outdir)]) == 2
        assert "P__v__s2.jsonl: empty log" in capsys.readouterr().err
        assert not (outdir / "plots").exists()

    @pytest.mark.parametrize("last_line", ['{"g": 1, "fe": 20, "ig', '{"g": 1, "fe": 20}', "[1, 20]"],
                             ids=["truncated", "without-igd", "not-an-object"])
    def test_broken_log_line_is_a_config_error(self, tmp_path, capsys, last_line):
        outdir = self._two_seed_results(tmp_path)
        log = outdir / "logs" / "P__v__s1.jsonl"
        log.write_text(log.read_text().splitlines()[0] + "\n" + last_line)
        assert main(["plotdata", str(outdir)]) == 2
        assert "P__v__s1.jsonl, line 2: not a log record" in capsys.readouterr().err
        assert not (outdir / "plots").exists()

    @pytest.mark.parametrize("key", ["fe", "igd"])
    @pytest.mark.parametrize("value", ['"x"', "null", "true", "NaN"])
    def test_non_numeric_log_value_is_a_config_error(self, tmp_path, capsys, key, value):
        outdir = self._two_seed_results(tmp_path)
        log = outdir / "logs" / "P__v__s2.jsonl"
        fields = {"fe": "20", "igd": "0.1", key: value}
        last_line = f'{{"g": 1, "fe": {fields["fe"]}, "igd": {fields["igd"]}}}'
        log.write_text(log.read_text().splitlines()[0] + "\n" + last_line + "\n")
        assert main(["plotdata", str(outdir)]) == 2
        assert f"P__v__s2.jsonl, line 2: {key} is {value}, expected a number" in capsys.readouterr().err
        assert not (outdir / "plots").exists()

    def test_infinite_igd_is_kept(self, tmp_path):
        # An int past float range reads as inf, as json reads 1e400.
        outdir = self._two_seed_results(tmp_path)
        for seed, inf in ((1, "Infinity"), (2, "1" + "0" * 400)):
            log = outdir / "logs" / f"P__v__s{seed}.jsonl"
            log.write_text(log.read_text().replace('"igd": 0.5', f'"igd": {inf}'))
        emit_plot_data(outdir)
        lines = (outdir / "plots" / "igd__P__v.csv").read_text().splitlines()
        assert lines[1:] == ["0,10.0,inf", "1,20.0,0.1"]

    def test_empty_directory_warns(self, tmp_path, capsys):
        assert emit_plot_data(tmp_path) == []
        assert "warning" in capsys.readouterr().out


class TestCli:
    def test_grid_defaults_are_the_experiment_defaults(self):
        assert _grid_config(build_parser().parse_args(["bench"]), ["full"]) == ExperimentConfig()

    def test_bench_and_stats_and_plotdata(self, tmp_path, capsys):
        outdir = tmp_path / "bench"
        code = main(["bench", "--outdir", str(outdir), "--seeds", "2",
                     "--max-fe", "800", "--pop-size", "25",
                     "--problems", "P1-overlap"])
        assert code == 0
        assert (outdir / "summary.csv").exists()

        code = main(["ablate", "WoOP", "--outdir", str(tmp_path / "ab"), "--seeds", "2",
                     "--max-fe", "800", "--pop-size", "25", "--problems", "P1-overlap"])
        assert code == 0
        code = main(["stats", str(tmp_path / "ab" / "summary.csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "WoOP" in out

        assert main(["plotdata", str(outdir)]) == 0

    def test_run_subcommand(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problems = P3-separated\nN = 25\nmaxFE = 600\nseeds = 1\n"
                       f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_invalid_run_value_stops_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problems = P1-overlap\ndelta = 0\noutdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "delta must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("outdir", ["afile", "afile/sub"])
    def test_outdir_under_a_file_stops_before_any_cell(self, tmp_path, capsys, monkeypatch, outdir):
        monkeypatch.setattr(harness, "_run_group", lambda *args: pytest.fail("a cell ran"))
        (tmp_path / "afile").write_text("")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"problems = P1-overlap\nN = 10\nmaxFE = 100\nseeds = 1\noutdir = {tmp_path / outdir}\n")
        assert main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot create directory {tmp_path / outdir / 'logs'}" in err

    def test_plotdata_into_a_file_is_a_config_error(self, tmp_path, capsys):
        outdir = tmp_path / "res"
        assert main(["bench", "--outdir", str(outdir), "--seeds", "1", "--max-fe", "100",
                     "--pop-size", "10", "--problems", "P1-overlap"]) == 0
        (outdir / "plots").write_text("")
        assert main(["plotdata", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot create directory {outdir / 'plots'}" in err

    def test_config_path_that_is_a_directory_is_a_config_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot read config file {tmp_path}" in err

    @pytest.mark.parametrize("artifact", ["summary.csv", "metadata.json",
                                          "logs/P1-overlap__full__s1.jsonl", "fronts/P1-overlap__full__s1.csv"])
    def test_bench_artifact_that_is_a_directory_stops_before_any_cell(self, tmp_path, capsys,
                                                                      monkeypatch, artifact):
        outdir = tmp_path / "out"
        (outdir / artifact).mkdir(parents=True)
        argv = ["bench", "--outdir", str(outdir), "--seeds", "1", "--max-fe", "100",
                "--pop-size", "10", "--problems", "P1-overlap"]
        with monkeypatch.context() as patched:
            patched.setattr(harness, "_run_group", lambda *args: pytest.fail("a cell ran"))
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot write {outdir / artifact}: not a regular file" in err
        assert not [p for p in outdir.rglob("*") if p.is_file()]
        # Unpatched, the same grid stops there too, having written nothing.
        assert main(argv) == 2
        assert not [p for p in outdir.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("kind,artifact", [("log", "logs/P1-overlap__full__s1.jsonl"),
                                               ("front", "fronts/P1-overlap__full__s1.csv")])
    def test_plotdata_with_a_directory_for_a_listed_file_is_a_config_error(self, tmp_path, capsys,
                                                                          kind, artifact):
        outdir = tmp_path / "res"
        assert main(["bench", "--outdir", str(outdir), "--seeds", "1", "--max-fe", "100",
                     "--pop-size", "10", "--problems", "P1-overlap"]) == 0
        (outdir / artifact).unlink()
        (outdir / artifact).mkdir()
        assert main(["plotdata", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot read {kind} {outdir / artifact}" in err
        assert not (outdir / "plots").exists()

    @pytest.mark.parametrize("plot", ["igd__P1-overlap__full.csv", "front__P1-overlap__full.csv"],
                             ids=["igd", "front"])
    def test_plotdata_into_a_directory_is_a_config_error(self, tmp_path, capsys, plot):
        outdir = tmp_path / "res"
        assert main(["bench", "--outdir", str(outdir), "--seeds", "1", "--max-fe", "100",
                     "--pop-size", "10", "--problems", "P1-overlap"]) == 0
        (outdir / "plots" / plot).mkdir(parents=True)
        assert main(["plotdata", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"cannot write {outdir / 'plots' / plot}: not a regular file" in err
        assert not [p for p in (outdir / "plots").rglob("*") if p.is_file()]

    @pytest.mark.parametrize("flags", [["--pop-size", "4"],
                                       ["--pop-size", "100", "--max-fe", "150"]])
    def test_bad_grid_bounds_are_config_errors(self, tmp_path, capsys, flags):
        outdir = tmp_path / "out"
        code = main(["bench", "--outdir", str(outdir), "--seeds", "1",
                     "--problems", "P1-overlap", *flags])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not outdir.exists()

    def test_stats_names_the_problems_where_a_variant_never_left_full(self, tmp_path, capsys):
        outdir = tmp_path / "r"
        run_experiment(ExperimentConfig(problems=[("P1-overlap", 10)], seeds=[1, 2],
                                        variants=["full", "WoOP"], outdir=outdir,
                                        run=RunConfig(pop_size=30, max_fe=15_200)))
        assert diverged_from_full(outdir) == dict.fromkeys(
            ["P1-overlap__WoOP__s1", "P1-overlap__WoOP__s2"])

        def woop_lines():
            assert main(["stats", str(outdir / "summary.csv")]) == 0
            return [line for line in capsys.readouterr().out.splitlines() if "WoOP" in line]

        counted = woop_lines()
        assert len(counted) == 2
        assert all(line.startswith("  WoOP         0/0/0  ")
                   and line.endswith("  identical to full in every run: P1-overlap") for line in counted)
        (outdir / "metadata.json").unlink()  # without metadata, a rank-sum verdict as before
        assert woop_lines() == [line.replace(" 0/0/0 ", " 0/0/1 ").split("  identical")[0]
                                for line in counted]
        (outdir / "metadata.json").write_text("[]")
        assert main(["stats", str(outdir / "summary.csv")]) == 2
        assert str(outdir / "metadata.json") in capsys.readouterr().err

    def test_stats_missing_summary(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert main(["stats", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_stats_empty_summary(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text("")
        assert main(["stats", str(path)]) == 2
        assert str(path) in capsys.readouterr().err

    def test_stats_summary_without_metric_columns(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        path.write_text("problem,variant,seed\nP1-overlap,full,1\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "final_hv" in err and "final_igd" in err

    def test_stats_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        header = "problem,variant,seed,final_hv,final_igd,evaluations,generations\n"
        for row in ("P1-overlap,full,1,0.8\n", "P1-overlap,full,one,0.8,0.01,800,8\n",
                    "P1-overlap,full,1,nan,0.01,800,8\n", "P1-overlap,full,1,0.8,nan,800,8\n"):
            path.write_text(header + row)
            assert main(["stats", str(path)]) == 2
            err = capsys.readouterr().err
            assert "config error:" in err and f"{path}, line 2" in err

    def test_stats_infinite_igd_accepted(self, tmp_path, capsys):
        """An empty final front has IGD inf, and the harness writes it."""
        path = tmp_path / "summary.csv"
        path.write_text("problem,variant,seed,final_hv,final_igd\n" + "".join(
            f"P1-overlap,{variant},{seed},0.{seed}{k},{'inf' if seed == 1 else '0.05'}\n"
            for k, variant in enumerate(("full", "WoOP")) for seed in (1, 2)))
        assert main(["stats", str(path), "--metric", "igd"]) == 0
        assert "WoOP" in capsys.readouterr().out

    def test_stats_infinite_igd_in_both_arms_counts_as_a_zero_delta(self, tmp_path, capsys):
        # Both arms' mean IGD on Q0 is inf: equal means, so a zero delta,
        # which the signed-rank test drops as it drops any other (inf - inf
        # would be NaN, and the test would refuse it).
        def signed_rank_text(problems):
            path = tmp_path / f"summary{len(problems)}.csv"
            path.write_text("problem,variant,seed,final_hv,final_igd\n" + "".join(
                f"Q{q},{variant},{seed},0.{q}{k}{seed},{'inf' if (q, seed) == (0, 1) else f'0.0{q}{k}{seed}'}\n"
                for q in problems for k, variant in enumerate(("full", "WoOP")) for seed in (1, 2)))
            assert main(["stats", str(path), "--metric", "igd"]) == 0
            return capsys.readouterr().out.splitlines()[-1].split(maxsplit=2)[2]

        with_inf = signed_rank_text(range(6))
        assert with_inf.startswith("R+=") and " p=" in with_inf
        assert with_inf == signed_rank_text(range(1, 6))

    def test_stats_repeated_cell_names_both_lines(self, tmp_path, capsys):
        path = tmp_path / "summary.csv"
        rows = [f"P1-overlap,{variant},{seed},0.{seed}{k},0.0{seed}{k}\n"
                for k, variant in enumerate(("full", "WoOP")) for seed in (1, 2)]
        path.write_text("problem,variant,seed,final_hv,final_igd\n" + "".join(rows + rows[:1]))
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and f"{path}, line 6" in err and "line 2" in err

    def test_negative_seed_stops_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problems = P1-overlap\nseeds = 3, -1\noutdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("alpha,code", [("1.5", 2), ("0", 2), ("-1", 2), ("nan", 2),
                                            ("0.05", 0)])
    def test_stats_alpha_must_lie_in_unit_interval(self, tmp_path, capsys, alpha, code):
        path = tmp_path / "summary.csv"
        path.write_text("problem,variant,seed,final_hv,final_igd\n" + "".join(
            f"P1-overlap,{variant},{seed},0.{seed}{k},0.0{seed}{k}\n"
            for k, variant in enumerate(("full", "WoOP")) for seed in (1, 2, 3)))
        assert main(["stats", str(path), f"--alpha={alpha}"]) == code
        captured = capsys.readouterr()
        assert ("config error:" in captured.err) == (code == 2)
        assert ("WoOP" in captured.out) == (code == 0)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("phase3_esp = 0.1\n")
        assert main(["run", str(cfg)]) == 2
        assert "did you mean 'phase3_eps'" in capsys.readouterr().err

import json
from pathlib import Path

import pytest

from dpcmo import harness
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
    ("eps0 = 0.25", "eps0", 0.25),
    ("curvature = 12", "curvature", 12.0),
    ("phase1_eps = 0.19", "phase1_eps", 0.19),
    ("phase3_eps = 0.004", "phase3_eps", 0.004),
    ("opposition_eps = 0.001", "opposition_eps", 0.001),
    ("delta = 0.001", "delta", 0.001),
    ("history_gap = 7", "history_gap", 7),
    ("history_delta = 1e-6", "history_delta", 1e-6),
    ("pbest_fraction = 0.2", "pbest_fraction", 0.2),
    ("coincident_threshold = 0.8", "coincident_threshold", 0.8),
    ("igd_points = 500", "igd_points", 500),
    ("hv_offset = 1.2", "hv_offset", 1.2),
]


class TestLoadConfig:
    def test_minimal_fills_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "problem = P1-overlap\n"))
        assert cfg.problems == [("P1-overlap", 10)]
        assert cfg.run.pop_size == 100
        assert cfg.run.max_fe == 50_000
        assert cfg.seeds == list(range(1, 31))
        assert cfg.variants == ["full"]

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
eps0 = 0.3
history_gap = 7
"""))
        assert cfg.problems == [("P1-overlap", 12), ("P3-separated", 10)]
        assert cfg.run.pop_size == 60
        assert cfg.run.max_fe == 9000
        assert cfg.seeds == [3, 1, 2]
        assert cfg.variants == ["full", "WoOP"]
        assert cfg.run.eps0 == 0.3
        assert cfg.run.history_gap == 7
        assert cfg.parallel == 2

    def test_duplicate_seeds_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="distinct"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nseeds = 1, 1\n"))

    @pytest.mark.parametrize("text", [
        "problems = P1-overlap, P1-overlap\n",
        "problems = P1-overlap:10, P1-overlap:20\n",  # one cell name for both
        "problem = P1-overlap\nvariants = full, WoOP, full\n",
    ])
    def test_duplicate_problems_or_variants_rejected(self, tmp_path, text):
        with pytest.raises(ConfigError, match="distinct"):
            load_config(write_config(tmp_path, text))
        cfg = write_config(tmp_path, text + f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_suggests_fix(self, tmp_path):
        with pytest.raises(ConfigError, match="eps0"):
            load_config(write_config(tmp_path, "epslion0 = 0.2\n"))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nnonsense line\n"))

    def test_unknown_problem(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown problem"):
            load_config(write_config(tmp_path, "problem = P7-weird\n"))

    def test_unknown_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="variant"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nvariants = Full\n"))

    def test_budget_invariant(self, tmp_path):
        with pytest.raises(ConfigError, match="maxFE"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nN = 100\nmaxFE = 120\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("line", [
        "eps0 = 0", "curvature = 0", "pbest_fraction = 0",
        "igd_points = 1", "phase3_eps = 0.3", "history_gap = 0",
        "eps0 = inf", "curvature = inf", "history_delta = nan", "hv_offset = nan",
        "coincident_threshold = 0.0", "coincident_threshold = -0.1", "coincident_threshold = 5.0",
        "seeds = 3, -1",
    ])
    def test_out_of_range_run_value_rejected(self, tmp_path, line):
        key = line.split(" ")[0]
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, f"problem = P1-overlap\n{line}\n"))

    def test_tiny_population_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="population size"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nN = 4\n"))

    @pytest.mark.parametrize("line,attr,value", RUN_KEY_CASES)
    def test_run_key_parses_to_field(self, tmp_path, line, attr, value):
        cfg = load_config(write_config(tmp_path, f"problem = P1-overlap\n{line}\n"))
        parsed = getattr(cfg.run, attr)
        assert parsed == value and type(parsed) is type(value)

    def test_run_key_set(self):
        assert set(harness._RUN_KEYS) == {line.split()[0] for line, _, _ in RUN_KEY_CASES}

    @pytest.mark.parametrize("line", ["pop_size = 50", "max_fe = 900", "disable_dra = true",
                                      "fixed_aux_size = 1", "reset_cnt_on_update = yes",
                                      "variant = Wo3P"])
    def test_field_names_without_a_key_are_unknown(self, tmp_path, line):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, f"problem = P1-overlap\n{line}\n"))

    def test_unknown_ablation_variant(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown variant 'WoXYZ'"):
            load_config(write_config(tmp_path, "problem = P1-overlap\nvariants = full, WoXYZ\n"))

    def test_n_seeds_shortcut(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "problem = P1-overlap\nn_seeds = 5\n"))
        assert cfg.seeds == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("first,second", [
        ("seeds = 1, 2", "n_seeds = 5"),
        ("n_seeds = 5", "seeds = 1, 2"),
        ("N = 10", "N = 20"),
        ("seeds = 1", "seeds = 2"),
        ("variants = full", "variants = WoOP"),
        ("problems = P1-overlap", "problems = P2-partial"),
        ("eps0 = 0.2", "eps0 = 0.3"),
    ])
    def test_repeated_key_names_both_lines(self, tmp_path, first, second):
        text = f"problem = P1-overlap\n{first}\n# comment\n{second}\n"
        with pytest.raises(ConfigError, match=r"line 4: .* from line 2$"):
            load_config(write_config(tmp_path, text))

    def test_problem_key_may_repeat(self, tmp_path):
        cfg = load_config(write_config(tmp_path, "problem = P1-overlap\nproblem = P3-separated\n"))
        assert cfg.problems == [("P1-overlap", 10), ("P3-separated", 10)]


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
        serial = run_experiment(tiny_experiment(tmp_path / "s", parallel=1))
        par = run_experiment(tiny_experiment(tmp_path / "p", parallel=3))
        assert serial.summary_path.read_bytes() == par.summary_path.read_bytes()

    def test_grid_shape(self, tmp_path):
        cfg = tiny_experiment(tmp_path / "g", seeds=(1, 2), variants=("full", "WoOP"))
        cfg.problems = [("P1-overlap", 10), ("P3-separated", 10)]
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
        original = harness._run_cell

        def flaky(args):
            if args[3] == 2:  # seed 2 fails
                raise RuntimeError("boom")
            return original(args)

        monkeypatch.setattr(harness, "_run_cell", flaky)
        report = run_experiment(tiny_experiment(tmp_path / "f"))
        assert report.exit_code == 2
        assert report.completed == 2
        assert len(report.failed) == 1
        assert "boom" in report.failed[0][1]
        rows = read_summary(report.summary_path)
        assert {r["seed"] for r in rows} == {1, 3}


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

    def test_median_of_constructed_logs(self, tmp_path):
        outdir = tmp_path / "r"
        (outdir / "logs").mkdir(parents=True)
        (outdir / "fronts").mkdir()
        (outdir / "summary.csv").write_text(
            "problem,variant,seed,final_hv,final_igd,evaluations,generations\n"
            "P,v,1,0.5,0.1,10,2\nP,v,2,0.5,0.2,10,2\nP,v,3,0.5,0.3,10,2\n")
        igds = {1: [0.5, 0.1], 2: [0.6, 0.2], 3: [0.7, 0.9]}
        for seed, (a, b) in igds.items():
            (outdir / "logs" / f"P__v__s{seed}.jsonl").write_text(
                json.dumps({"g": 0, "fe": 10, "igd": a}) + "\n"
                + json.dumps({"g": 1, "fe": 20, "igd": b}) + "\n")
        emit_plot_data(outdir)
        lines = (outdir / "plots" / "igd__P__v.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "0.6"
        assert lines[2].split(",")[2] == "0.2"

    def test_missing_log_yields_partial_emission(self, tmp_path, capsys):
        report = run_experiment(tiny_experiment(tmp_path / "r"))
        victim = sorted((report.outdir / "logs").glob("*.jsonl"))[0]
        victim.unlink()
        written = emit_plot_data(report.outdir)
        assert "warning" in capsys.readouterr().out
        assert any(p.name.startswith("igd__") for p in written)

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
        cfg.write_text("problem = P3-separated\nN = 25\nmaxFE = 600\nseeds = 1\n"
                       f"outdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_invalid_run_value_stops_before_any_cell(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem = P1-overlap\ncurvature = 0\noutdir = {tmp_path / 'out'}\n")
        assert main(["run", str(cfg)]) == 2
        assert "curvature" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--pop-size", "4"],
                                       ["--pop-size", "100", "--max-fe", "150"]])
    def test_bad_grid_bounds_are_config_errors(self, tmp_path, capsys, flags):
        outdir = tmp_path / "out"
        code = main(["bench", "--outdir", str(outdir), "--seeds", "1",
                     "--problems", "P1-overlap", *flags])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not outdir.exists()

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
        cfg.write_text(f"problem = P1-overlap\nseeds = 3, -1\noutdir = {tmp_path / 'out'}\n")
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
        cfg.write_text("epslion0 = 0.1\n")
        assert main(["run", str(cfg)]) == 2
        assert "eps0" in capsys.readouterr().err

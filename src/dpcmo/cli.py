"""Command-line interface.

Subcommands:
    run       execute an experiment described by a config file
    bench     execute the built-in default grid
    ablate    run one or more ablation variants next to the full algorithm
    stats     statistical comparison tables from a summary.csv
    plotdata  emit plot-ready CSV series from stored results

Exit code 0 on full success, 2 when some grid cells failed or an input is invalid.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .engine import ABLATION_VARIANTS
from .harness import (
    DEFAULT_SEED_COUNT,
    ConfigError,
    ExperimentConfig,
    RunConfig,
    emit_plot_data,
    identical_to_full,
    load_config,
    read_summary,
    run_experiment,
)
from .problems import DEFAULT_DIMENSION
from .stats import ranksum_test, signed_rank_multiproblem


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    grid = ExperimentConfig()
    parser.add_argument("--outdir", type=Path, default=grid.outdir)
    parser.add_argument("--seeds", type=int, default=DEFAULT_SEED_COUNT, help="number of seeds (1..K)")
    parser.add_argument("--max-fe", type=int, default=grid.run.max_fe)
    parser.add_argument("--pop-size", type=int, default=grid.run.pop_size)
    parser.add_argument("--problems", nargs="*", default=[pid for pid, _ in grid.problems])
    parser.add_argument("--parallel", type=int, default=grid.parallel)


def _grid_config(args, variants: list[str]) -> ExperimentConfig:
    try:
        run_config = RunConfig(pop_size=args.pop_size, max_fe=args.max_fe)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return ExperimentConfig(
        problems=[(pid, DEFAULT_DIMENSION) for pid in args.problems],
        seeds=list(range(1, args.seeds + 1)),
        variants=variants,
        outdir=args.outdir,
        parallel=args.parallel,
        run=run_config,
    )


def _execute(config: ExperimentConfig) -> int:
    report = run_experiment(config)
    print(f"completed {report.completed} runs -> {report.summary_path}")
    for name, err in report.failed:
        print(f"FAILED {name}: {err}")
    return report.exit_code


def _cmd_run(args) -> int:
    return _execute(load_config(args.config))


def _cmd_bench(args) -> int:
    return _execute(_grid_config(args, ["full"]))


def _cmd_ablate(args) -> int:
    variants = ["full"] + [v for v in args.variants if v != "full"]
    return _execute(_grid_config(args, variants))


def _metric_samples(rows, problem, variant, metric):
    return [r[metric] for r in rows
            if r["problem"] == problem and r["variant"] == variant]


def _cmd_stats(args) -> int:
    if not 0 < args.alpha < 1:
        raise ConfigError(f"--alpha must lie in (0, 1), got {args.alpha}")
    rows = read_summary(args.summary)
    problems = sorted({r["problem"] for r in rows})
    variants = [v for v in dict.fromkeys(r["variant"] for r in rows) if v != args.baseline]
    if not any(r["variant"] == args.baseline for r in rows):
        print(f"baseline variant {args.baseline!r} not present in summary")
        return 2

    # Runs that made full's every decision are full's runs: no test is needed.
    identical = identical_to_full(args.summary, rows) if args.baseline == "full" else set()
    metrics = ["final_hv", "final_igd"] if args.metric == "both" else [f"final_{args.metric}"]
    for metric in metrics:
        larger_better = metric == "final_hv"
        print(f"\n[{metric}]  {args.baseline} vs. variant  (+ / - / = from the baseline's side)")
        for variant in variants:
            plus = minus = eq = 0
            deltas = []
            same = []
            for pid in problems:
                base = _metric_samples(rows, pid, args.baseline, metric)
                other = _metric_samples(rows, pid, variant, metric)
                if len(base) < 2 or len(other) < 2:
                    continue
                if (pid, variant) in identical:
                    same.append(pid)
                else:
                    report = ranksum_test(base, other, alpha=args.alpha,
                                          larger_is_better=larger_better)
                    plus += report.verdict == "better"
                    minus += report.verdict == "worse"
                    eq += report.verdict == "equal"
                mean_base, mean_other = float(np.mean(base)), float(np.mean(other))
                diff = 0.0 if mean_base == mean_other else mean_base - mean_other  # inf - inf is NaN
                deltas.append(diff if larger_better else -diff)
            try:
                sr = signed_rank_multiproblem(deltas, alpha=args.alpha)
                sr_text = (f"R+={sr.extras['r_plus']:.1f} R-={sr.extras['r_minus']:.1f} "
                           f"p={sr.p_value:.3g}")
            except ValueError as exc:
                sr_text = f"signed-rank n/a ({exc})"
            same_text = f"  identical to full in every run: {', '.join(same)}" if same else ""
            print(f"  {variant:12s} {plus}/{minus}/{eq}  {sr_text}{same_text}")
    return 0


def _cmd_plotdata(args) -> int:
    for path in emit_plot_data(args.results_dir):
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpcmo", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("config", type=Path)
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run the built-in benchmark grid")
    _add_grid_options(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_ablate = sub.add_parser("ablate", help="run ablation variants plus the full algorithm")
    p_ablate.add_argument("variants", nargs="+", choices=list(ABLATION_VARIANTS))
    _add_grid_options(p_ablate)
    p_ablate.set_defaults(func=_cmd_ablate)

    p_stats = sub.add_parser("stats", help="statistical comparison from a summary.csv")
    p_stats.add_argument("summary", type=Path)
    p_stats.add_argument("--metric", choices=["hv", "igd", "both"], default="both")
    p_stats.add_argument("--baseline", default="full")
    p_stats.add_argument("--alpha", type=float, default=0.05)
    p_stats.set_defaults(func=_cmd_stats)

    p_plot = sub.add_parser("plotdata", help="emit plot-ready CSV files")
    p_plot.add_argument("results_dir", type=Path)
    p_plot.set_defaults(func=_cmd_plotdata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

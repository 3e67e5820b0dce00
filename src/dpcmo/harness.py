"""Experiment orchestration: config files, grid execution, persistence and
plot-data emission.

Config files are plain text, one ``key = value`` per line, ``#`` comments,
list values comma-separated; no key may repeat. Example::

    # minimal experiment
    problems = P1-overlap
    seeds = 1, 2, 3
    variants = full, WoOP

Outputs under the configured directory:

* ``summary.csv``        one row per completed run (deterministic bytes)
* ``logs/*.jsonl``       per-run convergence logs, one record per generation
* ``fronts/*.csv``       final feasible fronts, one file per run
* ``metadata.json``      config echo, version, timing and where each
                         ablated cell's decisions left full's (excluded
                         from byte-for-byte reproducibility)
"""

from __future__ import annotations

import itertools
import json
import numbers
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .core import is_integer
from .engine import RunConfig, RunResult, run, share
from .problems import DEFAULT_DIMENSION, PROBLEM_IDS, make_problem

DEFAULT_SEED_COUNT = 30


class ConfigError(ValueError):
    """Malformed or invalid experiment input: a config file, grid options,
    an output directory or a summary.csv."""


@dataclass(frozen=True)
class ExperimentConfig:
    """A (problem x variant x seed) grid, checked when built (and by
    ``dataclasses.replace``): an invalid field is a ConfigError. The grid
    fields are stored as tuples of plain values, so a built config stays
    valid and echoes into metadata.json as JSON numbers."""
    problems: tuple[tuple[str, int], ...] = tuple((pid, DEFAULT_DIMENSION) for pid in PROBLEM_IDS)
    seeds: tuple[int, ...] = tuple(range(1, DEFAULT_SEED_COUNT + 1))
    variants: tuple[str, ...] = ("full",)
    outdir: Path = Path("results")
    parallel: int = 1
    run: RunConfig = field(default_factory=RunConfig)

    def __post_init__(self) -> None:
        for kind in ("problems", "seeds", "variants"):
            if isinstance(getattr(self, kind), (str, numbers.Number)):
                raise ConfigError(f"{kind} must be a list, got {getattr(self, kind)!r}")
        if not all(isinstance(p, (tuple, list)) and len(p) == 2 for p in self.problems):
            raise ConfigError(f"problems must hold (id, dimension) pairs, got {self.problems!r}")
        if not self.problems:
            raise ConfigError("at least one problem is required")
        # Cells are named problem__variant__seed, so a repeat would share
        # (and overwrite) another cell's log and front.
        for kind, values in (("problems", [pid for pid, _ in self.problems]),
                             ("seeds", self.seeds), ("variants", self.variants)):
            if len(set(values)) != len(values):
                raise ConfigError(f"{kind} must be distinct, got {', '.join(map(str, values))}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if not all(map(is_integer, self.seeds)):
            raise ConfigError(f"seeds must be integers, got {', '.join(map(str, self.seeds))}")
        if min(self.seeds) < 0:  # PCG64 takes only non-negative seeds
            raise ConfigError(f"seeds must be non-negative, got {min(self.seeds)}")
        if not self.variants:
            raise ConfigError("at least one variant is required")
        # The problem factory and the run config know the valid names.
        try:
            for pid, dim in self.problems:
                make_problem(pid, dim)
            for v in self.variants:
                replace(self.run, variant=v)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not is_integer(self.parallel) or self.parallel < 1:
            raise ConfigError(f"parallel must be an integer >= 1, got {self.parallel!r}")
        for name, value in (("problems", tuple((pid, int(dim)) for pid, dim in self.problems)),
                            ("seeds", tuple(map(int, self.seeds))),
                            ("variants", tuple(map(str, self.variants))),
                            ("outdir", Path(self.outdir)), ("parallel", int(self.parallel))):
            object.__setattr__(self, name, value)


def _parse_problem_token(token: str, line_no: int) -> tuple[str, int]:
    if ":" in token:
        pid, _, dim = token.partition(":")
        try:
            return pid.strip(), int(dim)
        except ValueError:
            raise ConfigError(f"line {line_no}: bad dimension in problem spec {token!r}")
    return token, DEFAULT_DIMENSION


def _parse_scalar(key: str, raw: str, kind, line_no: int):
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: key {key!r} expects {kind.__name__}, got {raw!r}")


# Every RunConfig field but variant is a config key, parsed as the type of its
# default; the grid's variants come from the ``variants`` key.
_KEY_ALIASES = {"pop_size": "N", "max_fe": "maxFE"}
_RUN_KEYS = {
    _KEY_ALIASES.get(f.name, f.name): (f.name, type(f.default))
    for f in fields(RunConfig) if f.name != "variant"
}
_TOP_KEYS = ("problems", "seeds", "variants", "outdir", "parallel")
_ALL_KEYS = tuple(_RUN_KEYS) + _TOP_KEYS


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config file. An unknown key is
    rejected with a closest-match suggestion, a repeated one with both lines."""
    path = Path(path)
    top: dict = {}
    run_kwargs: dict = {}
    first_lines: dict[str, int] = {}

    for line_no, raw_line in enumerate(_read_lines(path, "config file"), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}, col {len(raw_line) - len(raw_line.lstrip()) + 1}: "
                              f"expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            import difflib  # only a mistyped key pays for it

            hint = difflib.get_close_matches(key, _ALL_KEYS, n=1)
            suffix = f"; did you mean {hint[0]!r}?" if hint else ""
            raise ConfigError(f"line {line_no}: unknown key {key!r}{suffix}")
        if not value:  # Path("") would be the working directory
            raise ConfigError(f"line {line_no}: key {key!r} has no value")
        first_no = first_lines.setdefault(key, line_no)
        if first_no != line_no:
            raise ConfigError(f"line {line_no}: key {key!r} repeats {key!r} from line {first_no}")
        if key in ("problems", "seeds", "variants"):
            items = [t.strip() for t in value.split(",")]
            if not all(items):
                raise ConfigError(f"line {line_no}: key {key!r} has an empty item")
        if key == "problems":
            top[key] = [_parse_problem_token(t, line_no) for t in items]
        elif key == "seeds":
            top[key] = [_parse_scalar(key, t, int, line_no) for t in items]
        elif key == "variants":
            top[key] = items
        elif key == "outdir":
            top[key] = value
        elif key == "parallel":
            top[key] = _parse_scalar(key, value, int, line_no)
        else:
            attr, kind = _RUN_KEYS[key]
            run_kwargs[attr] = _parse_scalar(key, value, kind, line_no)

    try:
        run_config = RunConfig(**run_kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return ExperimentConfig(run=run_config, **top)


def _read_lines(path: Path, what: str) -> list[str]:
    """The lines of the file ``path``; one that cannot be read (a directory,
    say) is a ConfigError naming it."""
    try:
        return path.read_text().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None


def _make_dir(path: Path) -> None:
    """Create the output directory ``path`` and its parents; a path that
    cannot be a directory is a ConfigError naming it."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create directory {path}: {exc.strerror}") from None


def _refuse_non_files(paths) -> None:
    """Refuse, as a ConfigError naming it, an output path that exists and is
    not a regular file (a directory, say): its write would fail only after
    the work it records was done."""
    for path in paths:
        if path.exists() and not path.is_file():
            raise ConfigError(f"cannot write {path}: not a regular file")


def _cell_name(pid: str, variant: str, seed: int) -> str:
    return f"{pid}__{variant}__s{seed}"


def _run_group(pid: str, dim: int, seed: int, variants: list[str], run_config: RunConfig
               ) -> tuple[dict[str, RunResult | Exception], dict[str, int | None]]:
    """Run the cells of one problem, dimension and seed, one per variant,
    through ``run`` from the states ``engine.share`` leaves them; return
    each variant's result or exception, and ``diverged_from_full``. A failed
    initialisation fails the group, a failed shared generation its cells."""
    configs = {variant: replace(run_config, variant=variant) for variant in variants}
    try:
        problem = make_problem(pid, dim)
        outcomes, diverged = share(problem, seed, configs)
    except Exception as exc:  # recorded, not fatal
        return dict.fromkeys(variants, exc), {}
    for variant, state in outcomes.items():  # a state becomes its cell's result or exception
        if not isinstance(state, Exception):
            try:
                outcomes[variant] = run(problem, configs[variant], seed, prefix=state)
            except Exception as exc:
                outcomes[variant] = exc
    return outcomes, diverged


@dataclass
class ExperimentReport:
    outdir: Path
    summary_path: Path
    completed: int
    failed: list[tuple[str, str]]

    @property
    def exit_code(self) -> int:
        return 2 if self.failed else 0


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Execute the (problem x variant x seed) grid and persist artifacts.

    Cells of one problem, dimension and seed form a group that shares every
    generation whose decisions agree (``_run_group``);
    ``parallel`` runs one group per job, in at most as many processes as
    there are groups. Cell failures are recorded in the metadata and do not
    abort the grid. Summary and log bytes are reproducible for identical
    configs; wall times (each including the shared seconds it took part in),
    timestamps and ``diverged_from_full`` live only in the metadata file.
    """
    outdir = config.outdir
    _make_dir(outdir / "logs")
    _make_dir(outdir / "fronts")
    _refuse_non_files([outdir / "summary.csv", outdir / "metadata.json"] + [
        outdir / sub / f"{_cell_name(pid, variant, seed)}.{ext}"
        for (pid, _), variant, seed in itertools.product(config.problems, config.variants, config.seeds)
        for sub, ext in (("logs", "jsonl"), ("fronts", "csv"))])

    jobs = [(pid, dim, seed) for pid, dim in config.problems for seed in config.seeds]
    started = time.time()
    workers = min(config.parallel, len(jobs))  # a pool starts all its workers at once
    if workers > 1:
        # Imported here: multiprocessing's imports cost a serial run about 10 ms.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_group, *job, config.variants, config.run) for job in jobs]
            outcomes = []
            for fut in futures:
                try:
                    outcomes.append(fut.result())
                except Exception as exc:  # a worker that died fails its group
                    outcomes.append((dict.fromkeys(config.variants, exc), {}))
    else:
        outcomes = [_run_group(*job, config.variants, config.run) for job in jobs]
    by_job = dict(zip(jobs, outcomes))

    rows = []
    failed: list[tuple[str, str]] = []
    wall_times = {}
    diverged_from_full = {}
    for (pid, dim), variant, seed in itertools.product(config.problems, config.variants, config.seeds):
        results, diverged = by_job[pid, dim, seed]
        outcome = results[variant]
        name = _cell_name(pid, variant, seed)
        if isinstance(outcome, Exception):
            failed.append((name, f"{type(outcome).__name__}: {outcome}"))
            continue
        log_path = outdir / "logs" / f"{name}.jsonl"
        log_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in outcome.log))
        front_path = outdir / "fronts" / f"{name}.csv"
        lines = ["f1,f2"] + [",".join(repr(float(v)) for v in row)
                             for row in outcome.front_objectives]
        front_path.write_text("\n".join(lines) + "\n")
        rows.append((pid, variant, seed, outcome.final_hv, outcome.final_igd,
                     outcome.evaluations, len(outcome.log)))
        wall_times[name] = outcome.wall_time
        if variant in diverged:
            diverged_from_full[name] = diverged[variant]

    summary_path = outdir / "summary.csv"
    with summary_path.open("w") as fh:
        fh.write("problem,variant,seed,final_hv,final_igd,evaluations,generations\n")
        for pid, variant, seed, hv, igd_val, fe, gens in rows:
            fh.write(f"{pid},{variant},{seed},{float(hv)!r},{float(igd_val)!r},{fe},{gens}\n")

    metadata = {
        "tool": "dpcmo",
        "version": __version__,
        "generator": "PCG64",
        "config": asdict(config),
        "started_unix": started,
        "elapsed_seconds": time.time() - started,
        "wall_times": wall_times,
        "diverged_from_full": diverged_from_full,
        "failures": failed,
    }
    (outdir / "metadata.json").write_text(json.dumps(metadata, indent=2, sort_keys=True, default=str) + "\n")

    return ExperimentReport(outdir=outdir, summary_path=summary_path,
                            completed=len(rows), failed=failed)


_SUMMARY_COLUMNS = ("problem", "variant", "seed", "final_hv", "final_igd")


def read_summary(path) -> list[dict]:
    """The rows of a summary.csv, with seed and the final metrics parsed.

    A missing or empty file, an absent column and a short, long, unparsable,
    NaN-metric or repeated (problem, variant, seed) row are ConfigErrors that
    name the file. An infinite metric is kept: an empty final front has IGD inf.
    """
    path = Path(path)
    lines = _read_lines(path, "summary")
    if not lines:
        raise ConfigError(f"{path}: empty summary, expected a header line")
    header = lines[0].split(",")
    missing = [c for c in _SUMMARY_COLUMNS if c not in header]
    if missing:
        raise ConfigError(f"{path}: summary lacks column(s) {', '.join(missing)}")
    rows = []
    cell_lines: dict[tuple, int] = {}
    for line_no, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"{path}, line {line_no}: {len(parts)} fields, header has {len(header)}")
        row = dict(zip(header, parts))
        try:
            row["seed"] = int(row["seed"])
            row["final_hv"] = float(row["final_hv"])
            row["final_igd"] = float(row["final_igd"])
        except ValueError as exc:
            raise ConfigError(f"{path}, line {line_no}: {exc}") from None
        for key in ("final_hv", "final_igd"):
            if np.isnan(row[key]):
                raise ConfigError(f"{path}, line {line_no}: {key} is nan")
        first_no = cell_lines.setdefault((row["problem"], row["variant"], row["seed"]), line_no)
        if first_no != line_no:
            raise ConfigError(f"{path}, line {line_no}: same problem, variant and seed as line {first_no}")
        rows.append(row)
    return rows


def identical_to_full(summary_path, rows) -> set[tuple[str, str]]:
    """The (problem, variant) pairs of ``rows`` whose every run made full's
    every decision: the metadata.json beside the summary gives each of them
    ``diverged_from_full`` null. Empty without that file; a file that is
    not a metadata object is a ConfigError naming it."""
    path = Path(summary_path).parent / "metadata.json"
    if not path.exists():
        return set()
    try:
        diverged = dict(json.loads(path.read_text()).get("diverged_from_full", {}))
    except (OSError, ValueError, AttributeError, TypeError) as exc:
        raise ConfigError(f"{path}: not a dpcmo metadata file ({exc})") from None
    pairs = {(r["problem"], r["variant"]) for r in rows}
    return pairs - {(r["problem"], r["variant"]) for r in rows
                    if diverged.get(_cell_name(r["problem"], r["variant"], r["seed"]), 0) is not None}


def _read_log(log_path: Path) -> np.ndarray:
    """(fe, igd) per generation of a run log, one float row each. An empty
    log, a line that is not a JSON record with both keys and a value that is
    not a number (a string, null, a bool or NaN) are ConfigErrors naming the
    file and line. An infinite IGD is kept: an empty front's IGD is inf."""
    lines = _read_lines(log_path, "log")
    if not lines:
        raise ConfigError(f"{log_path}: empty log, expected one record per generation")
    points = []
    for line_no, line in enumerate(lines, start=1):
        try:
            # An int past float range reads as inf, as a float literal like 1e400 does.
            record = json.loads(line, parse_int=float)
            point = (record["fe"], record["igd"])
        except (ValueError, KeyError, TypeError) as exc:
            raise ConfigError(f"{log_path}, line {line_no}: not a log record ({exc})") from None
        for key, value in zip(("fe", "igd"), point):
            if type(value) is not float or value != value:
                raise ConfigError(f"{log_path}, line {line_no}: {key} is {json.dumps(value)}, "
                                  "expected a number")
        points.append(point)
    return np.array(points)


def emit_plot_data(results_dir) -> list[Path]:
    """Write per-(problem, variant) plot inputs from stored artifacts.

    Produces a median-IGD-versus-FE series (runs aligned on generation
    index) and a final-front scatter file. Missing logs produce a warning
    and partial output. A broken log, or a plot path that exists and is not
    a regular file, is a ConfigError, raised before any file is written.
    """
    results_dir = Path(results_dir)
    summary_path = results_dir / "summary.csv"
    if not summary_path.exists():
        print(f"warning: no summary.csv under {results_dir}; nothing to emit")
        return []
    rows = read_summary(summary_path)

    groups: dict[tuple[str, str], list[int]] = {}
    for row in rows:
        groups.setdefault((row["problem"], row["variant"]), []).append(row["seed"])

    collected = []
    for (pid, variant), seeds in sorted(groups.items()):
        series = []
        fronts = []
        for seed in sorted(seeds):
            name = _cell_name(pid, variant, seed)
            log_path = results_dir / "logs" / f"{name}.jsonl"
            if not log_path.exists():
                print(f"warning: missing log {log_path}")
                continue
            series.append(_read_log(log_path))
            front_path = results_dir / "fronts" / f"{name}.csv"
            if front_path.exists():
                fronts.extend((seed, line) for line in _read_lines(front_path, "front")[1:] if line)
        if series:
            collected.append((pid, variant, series, fronts))

    plots = results_dir / "plots"
    _refuse_non_files(plots / f"{kind}__{pid}__{variant}.csv"
                      for pid, variant, _, _ in collected for kind in ("igd", "front"))
    _make_dir(plots)
    written = []
    for pid, variant, series, fronts in collected:
        depth = min(len(s) for s in series)
        medians = np.median(np.stack([s[:depth] for s in series]), axis=0).tolist()
        out = plots / f"igd__{pid}__{variant}.csv"
        with out.open("w") as fh:
            fh.write("generation,fe,median_igd\n")
            for i, (fe, med) in enumerate(medians):
                fh.write(f"{i},{fe!r},{med!r}\n")
        written.append(out)

        scatter = plots / f"front__{pid}__{variant}.csv"
        with scatter.open("w") as fh:
            fh.write("seed,f1,f2\n")
            for seed, line in fronts:
                fh.write(f"{seed},{line}\n")
        written.append(scatter)
    return written

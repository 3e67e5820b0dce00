"""dpcmo benchmark: end-to-end metrics untraced, per-layer metrics traced.

    python3 perfbench/run.py --workload paper-runs --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures set-up time in fresh interpreters, then runs passes of
the workload while another pass still fits in ``--seconds`` (at least one
pass), and reports medians. Pass k of a run with seed s uses the workload seed
s * MAX_PASSES + k, so a run averages over several seeds: a run's cost depends
strongly on its seed. ``--trace 1`` runs one untraced and one traced pass of
the workload seed s * MAX_PASSES, checks that both give identical log and front
digests, and reports the traced per-layer split. ``--workload all`` runs every
workload in both modes, each in its own process.

Metric names and units come from BENCHMARK.json. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. A fuller
report (machine, digests, every sample) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 6
MAX_PASSES = 64
WORKLOADS = ("paper-runs", "ablation-grid")


def bootstrap() -> None:
    """Pin numeric libraries to one thread and import dpcmo from ./src only.

    Must run before numpy is imported anywhere in the process.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "dpcmo" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no dpcmo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dpcmo

    if Path(dpcmo.__file__).resolve().parent != SRC / "dpcmo":
        raise SystemExit(f"perfbench: imported dpcmo from {dpcmo.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def setup_seconds(workload: str, seed: int, probes: int) -> list[float]:
    """Fresh-interpreter set-up times, one per probe."""
    from workloads import ENTRY_MODULES, SPECS

    spec = SPECS[workload]
    argv = [sys.executable, str(PROBE), ENTRY_MODULES[workload],
            *map(str, (spec.pop_size, spec.max_fe, spec.dimension, seed))]
    samples = []
    for _ in range(probes):
        started = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            samples.append(time.perf_counter() - started)
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, output {line!r})")
    return samples


def one_pass(workload: str, seed: int, tracer=None):
    import workloads

    spec = workloads.SPECS[workload]
    if workload == "paper-runs":
        return workloads.paper_runs(seed, spec, tracer=tracer)
    OUT.mkdir(exist_ok=True)
    return workloads.ablation_grid(seed, spec, OUT, tracer=tracer)


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # Probes before and after the passes sample the machine at two times.
    setup = setup_seconds(workload, seed, SETUP_PROBES // 2)
    passes = []
    window_start = time.perf_counter()
    while len(passes) < MAX_PASSES:
        passes.append(one_pass(workload, seed * MAX_PASSES + len(passes)))
        elapsed = time.perf_counter() - window_start
        if elapsed + passes[-1].wall_s > seconds:
            break
    setup += setup_seconds(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    # Quality comes from the first pass only, so it is fixed for a given seed.
    first = passes[0].runs
    values = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "evals_per_s": statistics.median(p.evaluations / p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "igd_median": statistics.median(r.final_igd for r in first),
        "hv_median": statistics.median(r.final_hv for r in first),
        "fe_to_igd_0.01": statistics.median(r.fe_to_target for r in first),
    }
    detail = {"setup_samples_s": setup, "passes": [pass_detail(p) for p in passes]}
    return values, {"passes": passes, "runs": [r for p in passes for r in p.runs],
                    "detail": detail}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    from tracing import SELF_TIME_METRICS, Tracer

    plain = one_pass(workload, seed * MAX_PASSES)
    tracer = Tracer()
    originals = tracer.install()
    try:
        with_trace = one_pass(workload, seed * MAX_PASSES, tracer=tracer)
    finally:
        tracer.restore()
    restored = all(owner.__dict__[attr] is original for owner, attr, original in originals)
    consistent = plain.digests() == with_trace.digests()

    values = tracer.layer_metrics()
    switches = [r.switch_generation for r in with_trace.runs if r.switch_generation is not None]
    values.update({
        "engine.switch_generation": statistics.median(switches) if switches else 0,
        "harness.bytes_written": with_trace.artifacts.get("bytes", 0),
        "harness.files_written": with_trace.artifacts.get("files", 0),
        "trace.wall_s": with_trace.wall_s,
        "trace.overhead_s": with_trace.wall_s - plain.wall_s,
        "trace.unattributed_s": with_trace.wall_s - sum(values[m] for m in SELF_TIME_METRICS),
    })
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{workload}-s{seed}.csv")
    detail = {"untraced": pass_detail(plain), "traced": pass_detail(with_trace),
              "digests_match": consistent, "originals_restored": restored}
    return values, {"passes": [plain, with_trace], "runs": plain.runs,
                    "consistent": consistent and restored, "detail": detail}


def pass_detail(p) -> dict:
    return {"wall_s": p.wall_s, "cpu_s": p.cpu_s, "evaluations": p.evaluations,
            "runs": [vars(r) for r in p.runs]}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = environment()
    values, info = traced(workload, seed) if trace else untraced(workload, seed, seconds)
    passes = info["passes"]
    attempted = sum(len(p.runs) for p in passes)
    failed = sum(p.failed for p in passes)
    table = declared["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table}

    print(f"# perfbench {workload} seed={seed} trace={int(trace)}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    for r in info["runs"]:
        status = "ok" if r.error is None else f"FAILED {r.error.splitlines()[-1]}"
        print(f"# run {r.name} log={r.log_sha256} front={r.front_sha256} {status}")
    if trace:
        print(f"# traced and untraced digests match: {info['consistent']}")
    print(f"{workload} failed_ratio = {failed / attempted:.4f} ({failed}/{attempted} runs)")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")

    report = {"workload": workload, "seed": seed, "trace": int(trace), "env": env,
              "attempted": attempted, "failed": failed, "metrics": metrics, **info["detail"]}
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{workload}-s{seed}-t{int(trace)}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True, default=str) + "\n")
    correct = failed == 0 and info.get("consistent", True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: int) -> int:
    code = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            returncode = subprocess.run(argv, cwd=ROOT).returncode
            code = code or returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    bootstrap()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

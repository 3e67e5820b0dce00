"""Set-up probe, started in a fresh interpreter by ``run.py``.

Imports the workload's entry module, then for every problem builds it,
samples its reference front and evaluates the two initial populations
(``dpcmo.engine.initialize``), and prints ``ready``. The parent times the
interval from starting this process to reading that line.

Usage: setup_probe.py ENTRY_MODULE POP_SIZE MAX_FE DIMENSION SEED
"""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))


def main(argv) -> None:
    entry, pop_size, max_fe, dimension, seed = argv[0], *map(int, argv[1:])
    importlib.import_module(entry)
    from dpcmo.engine import RunConfig, initialize
    from dpcmo.problems import PROBLEM_IDS, make_problem

    config = RunConfig(pop_size=pop_size, max_fe=max_fe)
    for pid in PROBLEM_IDS:
        initialize(make_problem(pid, dimension), config, seed)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

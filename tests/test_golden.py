"""Golden traces: sha256 digests of the artifacts that fixed grids write.

The digests pin every per-generation log (``logs/*.jsonl``) and final front
(``fronts/*.csv``) byte for byte, so a change that claims to keep behaviour
can prove it. A change that moves a digest must name the behavioural reason.

Regenerate the stored digests with::

    PYTHONPATH=src python tests/test_golden.py

which first prints each key that was added, changed or removed relative to
the stored file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from dpcmo.engine import RunConfig
from dpcmo.harness import ExperimentConfig, run_experiment
from dpcmo.problems import PROBLEM_IDS

GOLDEN = Path(__file__).parent / "golden" / "digests.json"

# maxFE >= 2 * N * 252, so the g > 250 switch cap puts every run in stage 2.
# The first three grids switch at about 0.44-0.48 maxFE and spend no generation
# in stage-2 phase 1. The early_switch grids do: at maxFE = 60,000 the three
# problems spend 46, 50 and 10 generations there, which pins the in-loop
# classify_relationship (and the unconstrained_nondominated inside it) and
# truncation at eps = inf. At coincident_threshold = 0.6, P2's cnt reaches 22
# and the held type moves 2 -> 1, which pins track_type and plan 4 through
# cnt > 3. Not Wo3P: it forces phase 2 in every stage-2 generation.
# dra_allocate's type-3 cnt > 3 branch is unreachable here: P3's unconstrained
# front is wholly infeasible, so every reclassification returns type 3 and cnt
# stays 0. tests/test_schedule.py pins that branch.
GRIDS = {
    "grid": dict(problems=[(pid, 10) for pid in PROBLEM_IDS], seeds=[1, 2],
                 variants=["full", "Wo3P"], run=RunConfig(pop_size=30, max_fe=15_200)),
    "variants": dict(problems=[(pid, 10) for pid in PROBLEM_IDS], seeds=[1],
                     variants=["WoRR", "WoS1C", "WoOP", "Eps1", "HOps-T1", "HOps-T2",
                               "HOps-T3", "HOps-T4", "WoDRA"],
                     run=RunConfig(pop_size=30, max_fe=15_200)),
    "p3_full_budget": dict(problems=[("P3-separated", 10)], seeds=[1], variants=["full"],
                           run=RunConfig(pop_size=100, max_fe=50_000)),
    "early_switch": dict(problems=[(pid, 10) for pid in PROBLEM_IDS], seeds=[1], variants=["full"],
                         run=RunConfig(pop_size=30, max_fe=60_000)),
    "early_switch_partial": dict(problems=[("P2-partial", 10)], seeds=[1], variants=["full"],
                                 run=RunConfig(pop_size=30, max_fe=60_000,
                                               coincident_threshold=0.6)),
}


def moved_keys(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """One line per key that is added, changed or removed from old to new."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old:
            lines.append(f"added {key}")
        elif key not in new:
            lines.append(f"removed {key}")
        elif old[key] != new[key]:
            lines.append(f"changed {key}")
    return lines


def artifact_digests(name: str, outdir: Path) -> dict[str, str]:
    """sha256 of each log and front file the named grid writes into outdir."""
    report = run_experiment(ExperimentConfig(outdir=outdir, **GRIDS[name]))
    assert not report.failed
    return {
        f"{name}/{path.relative_to(outdir).as_posix()}": hashlib.sha256(path.read_bytes()).hexdigest()
        for sub in ("logs", "fronts")
        for path in sorted((outdir / sub).iterdir())
    }


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_artifacts_match_golden_digests(name, tmp_path):
    stored = json.loads(GOLDEN.read_text())
    want = {key: digest for key, digest in stored.items() if key.startswith(f"{name}/")}
    assert want, f"no stored digests for {name}"
    assert artifact_digests(name, tmp_path) == want


if __name__ == "__main__":
    import tempfile

    digests: dict[str, str] = {}
    for grid in sorted(GRIDS):
        with tempfile.TemporaryDirectory() as tmp:
            digests.update(artifact_digests(grid, Path(tmp)))
    stored = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    moved = moved_keys(stored, digests)
    print("\n".join(moved) if moved else "no digest moved")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")

"""The README's Python examples run as written, so the documented API
cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_hops_table_matches_plans():
    from dpcmo.engine import HOPS_PLANS

    def pairs(cell):
        return tuple((op, pool or None) for op, pool in re.findall(r"`(\w+)`(?: \((\w)\))?", cell))

    rows = re.findall(r"^\| (\d) [^|]*\|([^|]*)\|([^|]*)\|$", README.read_text(), re.M)
    assert {int(t): (pairs(main), pairs(aux)) for t, main, aux in rows} == HOPS_PLANS


def test_readme_config_keys_match_run_keys():
    from dpcmo.harness import _RUN_KEYS

    sentence = re.search(r"^Recognized keys also include (.*?):", README.read_text(), re.M | re.S)
    keys = re.split(r",\s*|\s+and\s+", sentence.group(1).strip())
    assert keys == [key for key in _RUN_KEYS if key not in ("N", "maxFE")]


def test_readme_config_example_loads(tmp_path):
    from dpcmo.harness import load_config

    block = re.search(r"^```\n(problems = P1-overlap, P3-separated:12\n.*?)^```$", README.read_text(), re.M | re.S)
    path = tmp_path / "example.cfg"
    path.write_text(block.group(1))
    config = load_config(path)
    assert config.problems == (("P1-overlap", 10), ("P3-separated", 12))

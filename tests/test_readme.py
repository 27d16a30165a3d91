"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:  # later blocks use the names earlier ones import
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["values"].shape == (8193,)
    assert namespace["sol"].grid.n_intervals == 3
    assert namespace["eval_piecewise"].__module__ == "chebbvp.piecewise"

"""The README's library quickstart runs as written, with warnings as errors."""

import re
import warnings
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_block_runs():
    text = README.read_text()
    section = text[text.index("## Library quickstart") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    assert "monte_carlo_gain_loss" in block and "assert report.certified" in block
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {"__name__": "readme_quickstart"})

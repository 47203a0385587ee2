"""The README's quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```", text, re.S | re.M).group(1)
    want = [
        m.group(1)
        for line in block.splitlines()
        if line.startswith("print(") and (m := re.search(r"#\s*(.*\S)\s*$", line))
    ]
    assert len(want) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == want

"""The code in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_library_example_runs(capsys):
    section = README.read_text().split("## Quick library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    iterations, converged = capsys.readouterr().out.split()
    assert int(iterations) > 0 and converged == "True"

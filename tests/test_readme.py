"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example():
    """The ```python block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {})
    condition = capsys.readouterr().out.splitlines()[-1].split()
    assert condition[0] == "condition:" and condition[2:4] == ["<=", "bound:"]
    assert float(condition[1]) <= float(condition[4])

"""The README's library examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_examples():
    """The ```python blocks of the README's "## Library" section, in order."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_example_runs(capsys):
    # one namespace, as a reader who runs the blocks one after another has
    namespace = {}
    blocks = library_examples()
    assert len(blocks) >= 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    condition = [line.split() for line in capsys.readouterr().out.splitlines()
                 if line.startswith("condition:")][-1]
    assert condition[2:4] == ["<=", "bound:"]
    assert float(condition[1]) <= float(condition[4])
    assert namespace["report"].converged

"""The README's examples run as written, and every test it names exists.

Every ```python block of the "## Library" section runs, and every
``tlschwarz`` line of a ```sh block runs through ``tlschwarz.cli.main`` and
must exit 0.  The Install block (``pip install ...``) and the Tests block
(``python3 -m pytest``) are exempt: one changes the environment and the
other is this suite.  Any other line of a ```sh block fails the check.
"""

import importlib
import re
import shlex
from pathlib import Path

from tlschwarz import ProblemSpec, generate, write_matrix_market, write_vector
from tlschwarz.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
EXEMPT = ("pip install ", "python3 -m pytest")
# CLI flags whose value is a file: the inputs are written first, every path goes to tmp_path
INPUTS = ("--matrix", "--rhs")
OUTPUTS = ("--report",)


def library_examples():
    """The ```python blocks of the README's "## Library" section, in order."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def shell_commands():
    """Every non-blank, non-comment line of the README's ```sh blocks."""
    lines = "".join(re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)).splitlines()
    return [line.strip() for line in lines if line.strip() and not line.lstrip().startswith("#")]


def named_tests():
    """Every test id (``tests/<file>.py::...``) the README names."""
    return sorted(set(re.findall(r"`(tests/\w+\.py::[\w:\[\]\-.]+)`", README.read_text())))


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


def test_cli_examples_run(capsys, tmp_path):
    commands = [line for line in shell_commands() if not line.startswith(EXEMPT)]
    assert commands and all(line.startswith("tlschwarz ") for line in commands), commands
    matrix, rhs = generate(ProblemSpec("poisson2d", 20))
    for line in commands:
        argv = shlex.split(line)[1:]
        reports = []
        for flag, value in zip(argv[:-1], argv[1:]):
            path = tmp_path / value
            if flag == "--matrix":
                path.write_text(write_matrix_market(matrix))
            elif flag == "--rhs":
                path.write_text(write_vector(rhs))
            elif flag in OUTPUTS:
                reports.append(path)
        argv = [str(tmp_path / value) if flag in INPUTS + OUTPUTS else value
                for flag, value in zip([None] + argv[:-1], argv)]
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, (line, out.err)
        assert "converged = True" in out.out
        for report in reports:
            assert report.read_text() == out.out
            history = (tmp_path / (report.name + ".history")).read_text().splitlines()
            assert [int(row.split()[0]) for row in history] == list(range(len(history)))


def test_named_tests_exist():
    ids = named_tests()
    assert len(ids) >= 10
    missing = []
    for test_id in ids:
        path, *names = test_id.split("::")
        obj = importlib.import_module(Path(path).stem) if (ROOT / path).is_file() else None
        for name in names:
            obj = getattr(obj, re.sub(r"\[.*\]$", "", name), None)
        if not callable(obj):
            missing.append(test_id)
    assert not missing, missing

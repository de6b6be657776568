"""The README's Python examples and CLI lines run exactly as written, so a
rename that breaks them breaks the build."""

import re
import shlex
import shutil
from pathlib import Path

from saddlelift import cli

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_examples_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)
    assert len(blocks) == 2
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # run in a copy of problems/, so `--trace trace.csv` writes nothing into the repo
    (block,) = re.findall(r"^## CLI\n\n```\n(.*?)^```$", README.read_text(), re.S | re.M)
    lines = block.splitlines()
    assert len(lines) == 6 and all(line.startswith("saddlelift ") for line in lines)
    shutil.copytree(ROOT / "problems", tmp_path / "problems")
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, (line, capsys.readouterr().err)
    assert (tmp_path / "trace.csv").is_file()


def test_readme_registry_recipe_prints_the_shipped_registry(capsys):
    # the heredoc body of the README's regeneration recipe, run as written
    section = README.read_text().split("## Regenerating the known-issues registry", 1)[1]
    (script,) = re.findall(r"^python3 - <<'PY'\n(.*?)^PY$", section, re.S | re.M)
    exec(compile(script, str(README), "exec"), {})
    registry = ROOT / "src" / "saddlelift" / "known_issues.txt"
    data = [line for line in registry.read_text().splitlines() if not line.startswith("#")]
    assert capsys.readouterr().out.splitlines() == data

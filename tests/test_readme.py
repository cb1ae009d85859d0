"""Run every Python code block of README.md."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # blocks may write files such as output.csv
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})

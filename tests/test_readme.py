"""Run every Python code block of README.md, and load its defaults block."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

from mimolink.config import SimConfig, load_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
DEFAULTS = re.findall(r"^```ini\n(# sim\.cfg — defaults shown\n.*?)^```", README.read_text(encoding="utf-8"),
                      re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # blocks may write files such as output.csv
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_defaults_block_sets_every_key_to_its_default(tmp_path):
    """The config notes show every key at its default, the DNN training
    settings included, so the block loads to SimConfig() itself."""
    (block,) = DEFAULTS
    path = tmp_path / "sim.cfg"
    path.write_text(block, encoding="utf-8")
    keys = {line.partition("=")[0].strip() for line in block.splitlines()[1:] if line.strip()}
    assert keys == {f.name for f in fields(SimConfig)}
    assert load_config(path) == SimConfig()

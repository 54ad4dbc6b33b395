"""Executable documentation: the README examples and the shipped configs."""
import json
import re
from pathlib import Path

import pytest

from ahx.cli import main, read_csv

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
CONFIGS = sorted((ROOT / "scripts" / "configs").glob("*.json"))


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})


def test_readme_trace_config_is_the_shipped_one():
    block = re.search(r"\(`scripts/configs/trace_halfplane.json`\):\n\n"
                      r"```json\n(.*?)```", README, flags=re.S)
    assert block, "README has no trace config block"
    shipped = ROOT / "scripts" / "configs" / "trace_halfplane.json"
    assert json.loads(block.group(1)) == json.loads(shipped.read_text())


def readme_configs():
    """(command, JSON text) of each README json block; the command is the
    one `ahx <command>` named in the paragraph just above the block."""
    found = []
    for match in re.finditer(r"```json\n(.*?)```", README, flags=re.S):
        above = README[:match.start()].rstrip("\n").rsplit("\n\n", 1)[-1]
        commands = set(re.findall(r"`ahx (\w+)`", above))
        assert len(commands) == 1, f"name one command above: {above!r}"
        found.append((commands.pop(), match.group(1)))
    return found


def run_config(command, config, out):
    """Run one config; exit 0, and every grid CSV row has status ok."""
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    outputs = sorted(out.iterdir())
    assert outputs
    for path in outputs:
        if path.suffix == ".csv":
            _, rows = read_csv(path)
            assert rows
            # a trace fails as a whole, through its exit code
            if command != "trace":
                assert all(r["status"] == "ok" for r in rows)


@pytest.mark.parametrize("command, text", [
    pytest.param(command, text, id=command)
    for command, text in readme_configs()])
def test_readme_config_runs(tmp_path, command, text):
    config = tmp_path / "config.json"
    config.write_text(text, encoding="utf-8")
    run_config(command, config, tmp_path / "out")


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, config):
    run_config(config.stem.split("_")[0], config, tmp_path)

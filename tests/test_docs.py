"""The README's configuration documentation matches the CLI, and its Library example runs."""

import re
from pathlib import Path

from itdl.cli import CONFIG_KEYS, load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_example_config_loads_and_validates(tmp_path):
    block = re.search(r"Example `cfg\.txt`:\n\n```\n(.*?)```", README, re.S)
    assert block, "README has no example cfg.txt block"
    f = tmp_path / "cfg.txt"
    f.write_text(block.group(1), encoding="ascii")
    load_config(f).validate()


def test_flag_list_names_every_config_key():
    listed = re.search(r"every key also exists as a\s+CLI flag \((.*?)\)", README, re.S)
    assert listed, "README has no CLI flag list"
    flags = re.findall(r"`(--[a-z0-9-]+)`", listed.group(1))
    assert flags == [f"--{key.replace('_', '-')}" for key in CONFIG_KEYS]


def test_library_example_runs():
    block = re.search(r"## Library\n\n```python\n(.*?)```", README, re.S)
    assert block, "README has no Library example"
    namespace = {}
    exec(compile(block.group(1), "README.md", "exec"), namespace)
    assert namespace["codes"].shape == (2, namespace["test"].size)

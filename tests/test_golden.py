"""experiments/golden.py at toy size: two writes are byte-identical, and
compare names a one-byte change."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parents[1] / "experiments" / "golden.py"
TOY = ["--workloads", "toy-dedicated", "toy-shared", "--seeds", "1", "--no-large"]


def golden(*args, cwd):
    return subprocess.run([sys.executable, str(GOLDEN), *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    top = tmp_path_factory.mktemp("golden")
    for side in ("a", "b"):
        proc = golden("write", top / side, *TOY, cwd=top)
        assert proc.returncode == 0, proc.stderr
    return top


def test_two_writes_are_byte_identical(written):
    record = (written / "a" / "golden.json").read_bytes()
    assert record == (written / "b" / "golden.json").read_bytes()
    parsed = json.loads(record)
    assert sorted(parsed["masked"]) == ["toy-dedicated-1", "toy-shared-1"]
    assert "toy-shared-1/artifacts/eval_report.json" in parsed["files"]
    proc = golden("compare", written / "a", written / "b", cwd=written)
    assert proc.returncode == 0 and "files identical" in proc.stdout


def test_compare_names_a_planted_byte(written, tmp_path):
    report = written / "b" / "toy-dedicated-1" / "artifacts" / "eval_report.json"
    text = report.read_text(encoding="ascii")
    at = re.search(r'"rmse": \d\.\d', text).end() - 1  # the first decimal of the rmse
    report.write_text(text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:], encoding="ascii")
    try:
        proc = golden("compare", written / "a", written / "b", cwd=tmp_path)
    finally:
        report.write_text(text, encoding="ascii")
    assert proc.returncode == 1
    assert "differs: toy-dedicated-1/artifacts/eval_report.json: 1 of" in proc.stdout
    assert "at rmse (" in proc.stdout
    assert "1 of " in proc.stdout.splitlines()[-1]


def test_write_refuses_a_directory_with_files(tmp_path):
    (tmp_path / "stale.txt").write_text("x", encoding="ascii")
    proc = golden("write", tmp_path, *TOY, cwd=tmp_path)
    assert proc.returncode != 0 and "is not empty" in proc.stderr

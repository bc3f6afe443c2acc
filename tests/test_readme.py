import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
    assert list(tmp_path.iterdir()) == []  # the quick start writes no file
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["((0,1),2,(3,4));", "C_{01,2}"]
    verdict, distance = lines[2].split()
    assert verdict == "correct"
    assert float(distance) == pytest.approx(0.28867513459481, abs=1e-12)
    assert lines[3] == "['correct', 'correct']"

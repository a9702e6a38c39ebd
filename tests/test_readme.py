"""The README's python session runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_readme_python_session_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    monkeypatch.chdir(ROOT)  # the session reads a fixture by its path from the repository root
    exec(compile(blocks[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "1",
        "['4:100001', '4:101001', '4:100101', '4:101101']",
    ]

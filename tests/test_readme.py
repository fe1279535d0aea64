"""The README's library quick start runs as written.

The ``python`` block under "Quick start (library)" is executed as is, so a
renamed or deleted public name cannot leave it stale.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Quick start (library)", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README.name} quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3  # the tail expansion, the VaR expansion, the MC estimate

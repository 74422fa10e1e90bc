"""The README's Library snippet runs as written and prints the magnitudes
that its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippet() -> str:
    """The ```python block of the README's `## Library` section."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_snippet_prints_its_stated_errors(capsys):
    exec(compile(_library_snippet(), f"{README}:## Library", "exec"), {})
    split3_error, closed_vs_split2 = map(float, capsys.readouterr().out.split())
    assert 1e-3 <= split3_error <= 1e-1   # "~1e-2" at t = 0.5
    assert closed_vs_split2 < 1e-13       # "agrees to rounding (~1e-15)"

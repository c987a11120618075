"""The README's library sketch runs as written, so a renamed or deleted
public name fails here instead of going stale in the docs."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs(capsys):
    (sketch,) = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                           flags=re.M | re.S)
    exec(compile(sketch, str(README), "exec"), {"__name__": "readme_sketch"})
    out = capsys.readouterr().out
    assert "ImageMetrics(" in out and "AnalyticPrediction(" in out

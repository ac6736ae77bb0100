"""The README's library quick start runs against the installed API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def test_quick_start_runs(capsys):
    (block,) = _python_blocks(README.read_text())
    exec(compile(block, str(README), "exec"), {})
    ghz_gap, peak = capsys.readouterr().out.splitlines()
    assert float(ghz_gap) > 0.0
    frequency, amplitude = (float(x) for x in peak.split())
    assert frequency > 0.0 and amplitude > 0.0

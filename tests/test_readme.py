"""The README's library quick start and its example configs run against the installed API."""

import json
import re
from pathlib import Path

import pytest

from tcspin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


def _json_blocks(text: str) -> list[str]:
    return re.findall(r"^```json\n(.*?)^```$", text, flags=re.DOTALL | re.MULTILINE)


# the dense cap enters no hash; every one is taken with the variable unset
PINNED_HASHES = {
    "spectrum": "14e24e48c4b56a7eb788dc4db4bdfa8b5f738050b89859448ed11d313abc668a",
    "correlate": "835dbad251ce769198706545b4509a0bc0db87c0a83df7463436e7d7eb0f413c",
    "baseline": "790cae90d60cc6500ca3b6866d0d275c1b7dc2229f259bb3d153fc8046d8db09",
    "sweep": "bd4ab64a5684ab3210d139ab3ddd3952179f8d87451e1cb3d12a73b750c75125",
}


@pytest.mark.parametrize("block", _json_blocks(README.read_text()), ids=lambda b: json.loads(b)["command"])
def test_example_config_validates(tmp_path, capsys, monkeypatch, block):
    monkeypatch.delenv("TCSPIN_DENSE_CAP", raising=False)
    path = tmp_path / "config.json"
    path.write_text(block)
    assert main(["validate", "--config", str(path)]) == 0
    status, digest = capsys.readouterr().out.split()
    assert status == "ok"
    assert digest == PINNED_HASHES[json.loads(block)["command"]]


def test_quick_start_runs(capsys):
    (block,) = _python_blocks(README.read_text())
    exec(compile(block, str(README), "exec"), {})
    ghz_gap, peak = capsys.readouterr().out.splitlines()
    assert float(ghz_gap) > 0.0
    frequency, amplitude = (float(x) for x in peak.split())
    assert frequency > 0.0 and amplitude > 0.0

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


# every hash is taken at the default dense cap, which a correlate config records
PINNED_HASHES = {
    "spectrum": "75215eaee6e0da31adee42166b4471487002e56a47f38d48b0aa3462c1f75933",
    "correlate": "20765d505e1de2f7927f8091ac79365629e9f3a3af0bbc3dafb0702befc677a4",
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

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


# the sweep example's hash is the one it had before the schema reader; every
# hash is taken at the default dense cap, which a correlate config records
PINNED_HASHES = {
    "spectrum": "75215eaee6e0da31adee42166b4471487002e56a47f38d48b0aa3462c1f75933",
    "correlate": "58b8ec17b5ccc25c28b61d1a3708adb5b37701000c08d6a596d01ec000584f51",
    "baseline": "8e3bed28b9055c4c75060c1b8337487d8b7e9fafdc1a0bdca5e5a83776f29203",
    "sweep": "1ccde0a09a65893c602ba43080f96809cc449a30b20ed8a82532e225b84f7f52",
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

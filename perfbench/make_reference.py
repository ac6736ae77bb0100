"""Record the reference ``sweep.csv`` of every workload at the default seed.

Run from the root of a checkout, on the code the reference should describe:

    python3 perfbench/make_reference.py

The gate compares every later run against these files, so re-record them
only for a deliberate change of the program's results, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, THREAD_ENV
from workloads import DEFAULT_SEED, WORKLOADS


def main() -> int:
    root = Path.cwd()
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
    with tempfile.TemporaryDirectory(dir=root) as tmp:
        for name, plan in WORKLOADS.items():
            config = Path(tmp, f"{name}.json")
            config.write_text(json.dumps({"command": "sweep", "plan": plan(DEFAULT_SEED)}))
            out = Path(tmp, name)
            subprocess.run(
                [sys.executable, "-m", "tcspin.cli", "sweep", "--config", str(config), "--out", str(out)],
                env=env, cwd=root, check=True,
            )
            shutil.copyfile(out / "sweep.csv", HERE / "reference" / f"{name}.csv")
            print(f"recorded reference/{name}.csv")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

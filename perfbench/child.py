"""Run one ``tcspin sweep`` in this process and record when its phases ended.

run.py starts this script with the checkout's ``src`` on PYTHONPATH and the
BLAS thread variables set. It writes ``child.json`` into the output
directory with:

- ``first_row``: the monotonic clock when ``run_sweep`` is entered, after
  ``import tcspin`` and config resolution;
- ``end``: the monotonic clock after the CLI has written its outputs;
- ``exit_code`` of the CLI and ``peak_rss_mb`` of this process;
- with ``--trace``, the spans of every traced layer call.

With ``--setup-only`` it stops at the first row, so set-up can be timed on
its own.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path


class _StopAtFirstRow(Exception):
    pass


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import tcspin.cli as cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
    marks: dict = {}
    run_sweep = cli.run_sweep

    def first_row(*a, **kw):
        marks["first_row"] = time.monotonic()
        if args.setup_only:
            raise _StopAtFirstRow
        return run_sweep(*a, **kw)

    cli.run_sweep = first_row
    try:
        code = cli.main(["sweep", "--config", args.config, "--out", args.out])
    except _StopAtFirstRow:
        code = 0
    finally:
        cli.run_sweep = run_sweep
        if tracer is not None:
            tracer.uninstall()
    marks["end"] = time.monotonic()

    doc = {
        "exit_code": code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **marks,
    }
    if tracer is not None:
        doc["spans"] = tracer.spans
        doc["missing"] = tracer.missing
    Path(args.out, "child.json").write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

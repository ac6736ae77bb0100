"""Compare two sets of saved benchmark results, metric by metric.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Each file is written by ``run.py --save``. For every metric the script
prints each side's median and quartiles over its files and the change of
the median. Results whose environment fingerprints differ (library or BLAS
versions, thread settings, CPU) are flagged, because their numbers are not
comparable.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def _load(paths: list[Path]) -> list[dict]:
    return [json.loads(p.read_text()) for p in paths]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--new", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    base, new = _load(args.base), _load(args.new)
    docs = base + new

    mismatched = False
    for key in ("workload", "trace", "seconds"):
        values = {str(d[key]) for d in docs}
        if len(values) > 1:
            print(f"MISMATCH {key}: {sorted(values)}")
            mismatched = True
    fingerprints = {json.dumps(d["fingerprint"], sort_keys=True) for d in docs}
    if len(fingerprints) > 1:
        fields = sorted({k for d in docs for k in d["fingerprint"] if d["fingerprint"][k] != docs[0]["fingerprint"][k]})
        print(f"FLAG environment fingerprints differ in {fields}; the numbers are not comparable")
        mismatched = True

    print(f"{'metric':40} {'base median [q1, q3]':>34} {'new median [q1, q3]':>34} {'change':>9}")
    for name, metric in base[0]["result"]["metrics"].items():
        a = [d["result"]["metrics"][name]["value"] for d in base if name in d["result"]["metrics"]]
        b = [d["result"]["metrics"][name]["value"] for d in new if name in d["result"]["metrics"]]
        if not a or not b:
            continue
        qa, qb = _quartiles(a), _quartiles(b)
        change = f"{(qb[1] - qa[1]) / qa[1]:+.1%}" if qa[1] else "n/a"
        print(f"{name:40} {qa[1]:12.6g} [{qa[0]:.6g}, {qa[2]:.6g}] {qb[1]:12.6g} [{qb[0]:.6g}, {qb[2]:.6g}] "
              f"{change:>9} {metric['unit']}")
    for side, group in (("base", base), ("new", new)):
        failed = sum(d["result"]["failed"] for d in group)
        attempted = sum(d["result"]["attempted"] for d in group)
        print(f"{side}: {failed} of {attempted} rows failed over {len(group)} runs")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())

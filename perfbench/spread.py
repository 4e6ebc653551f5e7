"""Steadiness report over a set of captures.

Usage, from the root of a checkout::

    python3 perfbench/spread.py perfbench/captures/*-trace0-*.json

Groups the untraced captures by workload and prints, for every end-to-end
metric, the median over the runs and the spread (inter-quartile distance
over the median) next to the metric's bound, so two sets of runs of the
same code can be checked against the benchmark's own bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.metrics import END_TO_END  # noqa: E402
from perfbench.stats import spread  # noqa: E402


def main(paths: List[str]) -> int:
    runs: Dict[str, List[Dict]] = {}
    for path in paths:
        capture = json.loads(Path(path).read_text(encoding="utf-8"))
        if capture.get("trace") or capture.get("smoke"):
            continue
        runs.setdefault(capture["workload"], []).append(capture)
    worst = 0.0
    for workload, captures in sorted(runs.items()):
        seeds = sorted(c["attribution"]["seeds"]["seed"] for c in captures)
        failed = sum(c["result"]["failed"] for c in captures)
        print(f"{workload}: {len(captures)} runs, seeds {seeds}, "
              f"{failed} failed operations")
        for metric in END_TO_END:
            values = [c["result"]["metrics"][metric.name]["value"]
                      for c in captures
                      if metric.name in c["result"]["metrics"]]
            if len(values) < 2:
                continue
            share = spread(values)
            if metric.name != "setup_s":
                worst = max(worst, share / metric.bound)
            print(f"  {metric.name:12s} median {statistics.median(values):10.4g}"
                  f" {metric.unit:3s} spread {share:6.3f}"
                  f"  bound {metric.bound:.2f}")
    print(f"largest spread, as a share of its bound (setup_s aside): "
          f"{worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

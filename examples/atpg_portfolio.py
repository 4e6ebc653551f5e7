#!/usr/bin/env python3
"""Drive the ATPG portfolio: pluggable backends, seeds and RunOptions.

The classification engines generate tests through a portfolio of
backends (:mod:`repro.atpg.portfolio`): the classic ``podem`` reference,
``podem-restart`` (staged backtrack budgets with a seeded
randomized-restart decision ordering — deterministic per fault, so it
fans out over the worker pool without moving a verdict) and ``dalg``
(PODEM primary plus a five-valued D-algorithm escalation tier that turns
aborted AU faults into proven UU/DT where the search completes).

This example runs the same analysis under all three backends and shows
the portfolio contract in action:

* the classification verdicts — and the rendered Table I — are
  byte-identical across backends and seeds wherever searches complete;
* the per-run knobs travel as one frozen :class:`repro.api.RunOptions`
  bundle (the replacement for the historically scattered keywords);
* the compacted pattern set and its compaction trace
  (generated/kept/merged/dropped) ride on the engine report.

The identical flows run from the command line::

    python -m repro analyze tiny --atpg-backend podem-restart --atpg-seed 7
    python -m repro sweep --base tiny --axis atpg_backend=podem,dalg
    python -m repro backends

Run with:  python examples/atpg_portfolio.py
"""

from repro.api import RunOptions, Session
from repro.atpg.engine import AtpgEffort, StructuralUntestabilityEngine
from repro.atpg.portfolio import ATPG_BACKENDS, atpg_backend_names
from repro.faults.faultlist import generate_fault_list
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc


def main() -> None:
    print("registered ATPG backends:")
    for name in atpg_backend_names():
        backend = ATPG_BACKENDS[name]
        tier = " (escalates aborts)" if backend.escalates else ""
        print(f"  {name:14s} {backend.description}{tier}")

    # One session, one design, three backends: the verdict table must not
    # move by a byte.  atpg_backend/atpg_seed are RunOptions-only knobs —
    # they were born after the keyword cull, so they never existed as
    # scattered keywords.
    session = Session(options=RunOptions(effort="tie"))
    tables = {}
    for name in atpg_backend_names():
        report = session.analyze("tiny", options=RunOptions(
            atpg_backend=name, atpg_seed=7))
        tables[name] = report.to_table()
    reference = tables["podem"]
    for name, table in tables.items():
        marker = "==" if table == reference else "!="
        print(f"  Table I under {name:14s} {marker} podem reference")
    assert all(table == reference for table in tables.values())

    # The engine-level view: classify a deterministic fault sample at FULL
    # effort and inspect the compacted pattern set the search produced
    # (the full population is corpus/benchmark territory, not example
    # territory).
    netlist = build_soc(SoCConfig.tiny()).cpu
    population = generate_fault_list(netlist).faults()
    step = max(1, len(population) // 200)
    faults = population[::step][:200]
    engine = StructuralUntestabilityEngine(
        netlist, effort=AtpgEffort.FULL, atpg_backend="podem-restart",
        atpg_seed=7)
    report = engine.classify(faults)
    print(f"\nFULL-effort classification of {len(faults)} of "
          f"{len(population)} faults under podem-restart: "
          f"{report.counts()}")
    if report.compaction:
        trace = report.compaction
        print(f"pattern compaction: {trace['generated']} generated -> "
              f"{trace['kept']} kept ({trace['merged']} merged, "
              f"{trace['dropped']} dropped)")
        for entry in report.patterns[:3]:
            print(f"  pattern detects {entry['detects']:3d} faults")


if __name__ == "__main__":
    main()

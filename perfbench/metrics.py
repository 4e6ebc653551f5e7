"""Every metric the benchmark reports: name, unit, direction and, for the
per-layer metrics, which end-to-end metric on which workload it should
move.  ``BENCHMARK.json`` lists the same names; ``selftest.py`` keeps the
two in step.
"""

from __future__ import annotations

import re
from typing import List, NamedTuple, Optional

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    #: End-to-end metrics: the share of the parent's median by which the
    #: metric may worsen before a change counts as a regression.
    bound: Optional[float] = None
    #: Per-layer metrics: "<end-to-end metric> on <workload>" it moves.
    moves: str = ""


#: Reported by every workload (``--trace 0``).  What cold/warm/reference
#: mean on each workload is in ``workloads.py`` and ``README.md``.
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("reference_s", "s", "lower", 0.25),
    Metric("cold_s", "s", "lower", 0.25),
    Metric("warm_s", "s", "lower", 0.25),
]

_T1 = "cold_s on table1_date13"
_GRADE = "grade_date13"
_OLFU = "cold_s, warm_s on olfu_full_tiny (run, not gated)"
_SVC = "cold_s, warm_s on service_mix"

#: Reported by every traced run (``--trace 1``).
PER_LAYER: List[Metric] = [
    Metric("soc.build_s", "s", "lower", moves="setup_s on every workload"),
    Metric("netlist.compile_s", "s", "lower",
           moves=f"{_T1}; cold_s on service_mix"),
    Metric("netlist.ops", "count", "lower", moves=_T1),
    Metric("faults.universe_s", "s", "lower",
           moves=f"{_T1}; setup_s on {_GRADE}"),
    Metric("faults.count", "count", "higher",
           moves="every workload (a changed universe is a changed input)"),
    Metric("pipeline.pass.fault_list_s", "s", "lower", moves=_T1),
    Metric("pipeline.pass.static_analysis_s", "s", "lower", moves=_OLFU),
    Metric("pipeline.pass.baseline_s", "s", "lower", moves=f"{_T1}; {_OLFU}"),
    Metric("pipeline.pass.scan_analysis_s", "s", "lower", moves=_T1),
    Metric("pipeline.pass.debug_control_s", "s", "lower",
           moves=f"{_T1}; {_OLFU}"),
    Metric("pipeline.pass.debug_observe_s", "s", "lower",
           moves=f"{_T1}; {_OLFU}"),
    Metric("pipeline.pass.memory_analysis_s", "s", "lower",
           moves=f"{_T1}; {_OLFU}"),
    Metric("pipeline.cache_hit_ratio", "ratio", "higher",
           moves=f"warm_s on table1_date13; {_SVC}"),
    Metric("core.tie_classify_s", "s", "lower", moves=_T1),
    Metric("core.scan_trace_s", "s", "lower", moves=_T1),
    Metric("store.put_s", "s", "lower",
           moves="cold_s on table1_date13; cold_s on service_mix"),
    Metric("store.get_s", "s", "lower", moves="warm_s on table1_date13"),
    Metric("store.bytes", "bytes", "lower",
           moves="cold_s, warm_s on table1_date13"),
    Metric("store.writes", "count", "lower", moves="cold_s on table1_date13"),
    Metric("store.hits", "count", "higher", moves="warm_s on table1_date13"),
    Metric("sbst.capture_s", "s", "lower", moves=f"setup_s on {_GRADE}"),
    Metric("sbst.patterns", "count", "higher",
           moves=f"every metric on {_GRADE} (a changed input)"),
    Metric("simulation.grade_int_s", "s", "lower",
           moves=f"reference_s, warm_s on {_GRADE}"),
    Metric("simulation.grade_numpy_s", "s", "lower",
           moves=f"reference_s, warm_s on {_GRADE}"),
    Metric("simulation.random_phase_s", "s", "lower",
           moves="reference_s, cold_s, warm_s on olfu_full_tiny"),
    Metric("runtime.spawn_s", "s", "lower", moves=f"cold_s on {_GRADE}"),
    Metric("runtime.install_s", "s", "lower", moves=f"cold_s on {_GRADE}"),
    Metric("runtime.warm_setup_s", "s", "lower", moves=f"warm_s on {_GRADE}"),
    Metric("runtime.tasks_per_grade", "count", "lower",
           moves=f"cold_s, warm_s on {_GRADE}"),
    Metric("runtime.chunks", "count", "lower",
           moves=f"cold_s, warm_s on {_GRADE}"),
    Metric("runtime.chunk_plan_s", "s", "lower",
           moves=f"cold_s, warm_s on {_GRADE}"),
    Metric("runtime.content_key_s", "s", "lower",
           moves=f"cold_s, warm_s on {_GRADE}"),
    Metric("runtime.worker_restarts", "count", "lower",
           moves=f"failed operations on {_GRADE}"),
    Metric("runtime.parallel_efficiency", "ratio", "higher",
           moves=f"warm_s on {_GRADE}"),
    Metric("analysis.static_build_s", "s", "lower", moves=_OLFU),
    Metric("analysis.static_proofs", "count", "higher",
           moves=f"{_OLFU}; atpg.olfu_found"),
    Metric("atpg.search_s", "s", "lower", moves=_OLFU),
    Metric("atpg.podem_calls", "count", "lower", moves=_OLFU),
    Metric("atpg.podem_backtracks", "count", "lower", moves=_OLFU),
    Metric("atpg.static_proved", "count", "higher", moves=_OLFU),
    Metric("atpg.learned_skips", "count", "higher", moves=_OLFU),
    Metric("atpg.aborted", "count", "lower",
           moves=f"{_OLFU}; atpg.olfu_found"),
    Metric("atpg.abort_ratio", "ratio", "lower",
           moves=f"{_OLFU}; atpg.olfu_found"),
    Metric("atpg.fault_p50_s", "s", "lower", moves=_OLFU),
    Metric("atpg.fault_max_s", "s", "lower", moves=_OLFU),
    Metric("atpg.olfu_found", "count", "higher",
           moves="guards cold_s on olfu_full_tiny against faster aborts"),
    Metric("service.jobs_per_s", "1/s", "higher", moves=_SVC),
    Metric("service.queue_wait_ms_p50", "ms", "lower", moves=_SVC),
    Metric("service.run_ms_p50", "ms", "lower", moves=_SVC),
    Metric("service.client_overhead_ms_p50", "ms", "lower", moves=_SVC),
    Metric("service.rejections", "count", "lower",
           moves="failed operations on service_mix"),
    Metric("service.cache_hit_ratio", "ratio", "higher",
           moves="warm_s on service_mix"),
    Metric("service.store_writes", "count", "lower",
           moves="cold_s on service_mix"),
] + [
    Metric(f"{layer}.self_s", "s", "lower",
           moves="the workload whose spans it dominates")
    for layer in ("soc", "netlist", "faults", "pipeline", "core", "store",
                  "sbst", "simulation", "runtime", "analysis", "atpg",
                  "service")
] + [
    Metric("trace.overhead_s", "s", "lower",
           moves="nothing: traced minus untraced time of one unit of work"),
    Metric("trace.spans", "count", "higher", moves="nothing: spans recorded"),
]

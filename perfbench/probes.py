"""The per-layer probes of the traced run.

Each probe times one public call into one layer of the package, from
outside, under a span named after the layer boundary, or reads a counter
the package already exposes.  The probes run on the inputs the layer
matters for: the date13 core for the compile, fault-list, pipeline,
store, SBST, simulation and runtime layers; the tiny core and a seeded
fault sample for static analysis and ATPG; a fixed-length closed loop of
tiny-core jobs for the service.
"""

from __future__ import annotations

import random
import shutil
import statistics
import time
from typing import Any, Dict, List

from perfbench.stats import Tally
from perfbench.workloads import (GOLDEN_TABLE1, TINY, Context, ServiceMix,
                                 build, cold_caches, workers)


def _timed(ctx: Context, name: str, layer: str, call, **args):
    start = time.perf_counter()
    with ctx.tracer.span(name, layer, **args):
        value = call()
    return value, time.perf_counter() - start


def _debug_tied(soc):
    """The core with its debug control inputs tied to their mission values."""
    from repro.manipulation.tie import tie_port

    manipulated = soc.cpu.clone("debug_tied")
    for port, value in soc.debug_interface.control_inputs.items():
        tie_port(manipulated, port, value)
    return manipulated


def _pass_spans(ctx: Context, result, start: float) -> None:
    """Lay the pipeline's own per-pass runtimes out as child spans."""
    cursor = start
    for name in result.order:
        seconds = result.runtimes.get(name)
        if seconds is None:
            continue
        ctx.tracer.record(f"pass.{name}", "pipeline", cursor,
                          cursor + seconds, source="PipelineResult.runtimes")
        cursor += seconds


def probe_date13(ctx: Context, out: Dict[str, float]) -> None:
    from repro.core.results import FlowConfig
    from repro.core.scan_analysis import identify_scan_untestable
    from repro.atpg.engine import StructuralUntestabilityEngine
    from repro.faults.faultlist import generate_fault_list
    from repro.netlist.compiled import get_compiled
    from repro.pipeline import ArtifactCache, Pipeline, default_pass_names
    from repro.sbst.monitor import ToggleMonitor
    from repro.sbst.program_gen import generate_sbst_suite
    from repro.store import LocalDirStore

    design = ctx.scale.table1_design
    tally: Tally = ctx.tally

    builds = [_timed(ctx, "build_soc", "soc", lambda: build(design))[1]
              for _ in range(3)]
    out["soc.build_s"] = statistics.median(builds)

    cold_caches()
    soc = build(design)
    compiled, out["netlist.compile_s"] = _timed(
        ctx, "compile", "netlist", lambda: get_compiled(soc.cpu))
    out["netlist.ops"] = compiled.n_ops

    faults, out["faults.universe_s"] = _timed(
        ctx, "fault_list", "faults",
        lambda: generate_fault_list(soc.cpu).faults())
    out["faults.count"] = len(faults)

    # Pipeline passes into a fresh store, then a replay from it.
    store_dir = ctx.tmpdir("probe-store-")
    copy_dir = ctx.tmpdir("probe-store-copy-")
    try:
        cold_caches()
        soc = build(design)
        config = FlowConfig()
        cache = ArtifactCache(store=str(store_dir))
        start = time.perf_counter()
        with ctx.tracer.span("pipeline.run", "pipeline"):
            result = Pipeline(default_pass_names(config), cache=cache).run(
                soc, config=config)
        _pass_spans(ctx, result, start)
        for name in ("fault_list", "baseline", "scan_analysis",
                     "debug_control", "debug_observe", "memory_analysis"):
            out[f"pipeline.pass.{name}_s"] = result.runtimes[name]
        golden_path = GOLDEN_TABLE1.get(design)
        if golden_path is not None:
            tally.check("probe Table I", result.report.to_table()
                        == golden_path.read_text(encoding="utf-8")
                        .rstrip("\n"), "Table I differs from the golden")
        with ctx.tracer.span("store.write", "store", what="flush"):
            cache.flush()
        replay_cache = ArtifactCache(store=str(store_dir))
        with ctx.tracer.span("pipeline.replay", "pipeline"):
            replay = Pipeline(default_pass_names(config),
                              cache=replay_cache).run(soc, config=config)
        tally.check("probe replay", replay.report.to_table()
                    == result.report.to_table(), "replay differs")
        cold_stats, warm_stats = cache.stats, replay_cache.stats
        served = sum(s["hits"] + s.get("store_hits", 0)
                     for s in (cold_stats, warm_stats))
        lookups = sum(s["hits"] + s["misses"]
                      for s in (cold_stats, warm_stats))
        out["pipeline.cache_hit_ratio"] = served / lookups if lookups else 0.0
        out["store.writes"] = cold_stats.get("store_writes", 0)
        out["store.hits"] = warm_stats.get("store_hits", 0)

        store = LocalDirStore(store_dir)
        entries = store.entries()
        out["store.bytes"] = sum(e.size_bytes for e in entries)
        values, out["store.get_s"] = _timed(
            ctx, "store.read", "store",
            lambda: [(e.key, store.get(e.key)) for e in entries])
        tally.check("probe store reads", all(v is not None for _, v in values),
                    "a stored artifact did not read back")
        copy = LocalDirStore(copy_dir)
        _, out["store.put_s"] = _timed(
            ctx, "store.write", "store",
            lambda: [copy.put(key, value) for key, value in values])
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
        shutil.rmtree(copy_dir, ignore_errors=True)

    manipulated = _debug_tied(soc)
    tied_faults = generate_fault_list(manipulated).faults()
    _, out["core.tie_classify_s"] = _timed(
        ctx, "tie.classify", "core",
        lambda: StructuralUntestabilityEngine(manipulated).classify(
            tied_faults))
    _, out["core.scan_trace_s"] = _timed(
        ctx, "scan.trace", "core", lambda: identify_scan_untestable(soc.cpu))

    patterns, out["sbst.capture_s"] = _timed(
        ctx, "sim.good", "sbst", lambda: ToggleMonitor(soc.cpu).run_suite(
            generate_sbst_suite(soc.config.cpu)))
    out["sbst.patterns"] = len(patterns)

    probe_grading(ctx, out, soc, faults, patterns)


def probe_grading(ctx: Context, out: Dict[str, float], soc, faults,
                  patterns) -> None:
    from repro.runtime import WorkerPool, build_chunks, content_key
    from repro.runtime.scheduler import default_chunk_size
    from repro.sbst.grading import FaultGrader
    from repro.simulation.kernels import kernel_info

    detected: Dict[str, Any] = {}
    for kernel, span in (("int", "sim.detect.walk"),
                         ("numpy", "sim.detect.batch")):
        grader = FaultGrader(soc.cpu, kernel=kernel)
        detected[kernel], out[f"simulation.grade_{kernel}_s"] = _timed(
            ctx, span, "simulation", lambda: grader.grade(patterns, faults))
    ctx.tally.check("probe kernels agree", detected["int"]
                    == detected["numpy"], "int and numpy detected sets differ")
    auto = kernel_info()["kernel"]
    ctx.facts["kernel_auto"] = auto
    serial_s = out[f"simulation.grade_{auto}_s"]

    n = workers()
    chunks, out["runtime.chunk_plan_s"] = _timed(
        ctx, "sched.chunks", "runtime",
        lambda: build_chunks(soc.cpu, faults,
                             default_chunk_size(n, len(faults))))
    out["runtime.chunks"] = len(chunks)
    _, out["runtime.content_key_s"] = _timed(
        ctx, "content_key", "runtime",
        lambda: content_key("grade", soc.cpu, faults, patterns))

    pool = WorkerPool(n)
    try:
        grader = FaultGrader(soc.cpu, jobs=n, pool=pool)
        cold, _ = _timed(ctx, "grade.pool_cold", "runtime",
                         lambda: grader.grade(patterns, faults))
        after_cold = dict(pool.stats)
        warm, warm_s = _timed(ctx, "grade.pool_warm", "runtime",
                              lambda: grader.grade(patterns, faults))
        after_warm = dict(pool.stats)
    finally:
        pool.close()
    ctx.tally.check("probe pool grades", cold == warm == detected[auto],
                    "pool and serial detected sets differ")
    out["runtime.spawn_s"] = after_cold["cold_start_seconds"]
    out["runtime.install_s"] = after_cold["setup_seconds"]
    out["runtime.warm_setup_s"] = (after_warm["setup_seconds"]
                                   - after_cold["setup_seconds"])
    out["runtime.tasks_per_grade"] = after_warm["tasks"] - after_cold["tasks"]
    out["runtime.worker_restarts"] = after_warm["worker_restarts"]
    out["runtime.parallel_efficiency"] = serial_s / (warm_s * n)
    ctx.facts["parallel_efficiency_base"] = (
        f"serial {auto}-kernel grade {serial_s:.4f} s / (warm pool grade "
        f"{warm_s:.4f} s x {n} workers)")


def probe_tiny(ctx: Context, out: Dict[str, float]) -> None:
    from repro.analysis import get_static_analysis
    from repro.atpg.engine import AtpgEffort, run_detection_phases
    from repro.faults.categories import FaultClass
    from repro.core.results import FlowConfig
    from repro.faults.faultlist import generate_fault_list
    from repro.netlist.compiled import get_compiled
    from repro.pipeline import Pipeline, default_pass_names

    rng = random.Random(ctx.seed)
    cold_caches()
    soc = build(TINY)
    universe = generate_fault_list(soc.cpu).faults()
    sample = [universe[i] for i in sorted(
        rng.sample(range(len(universe)), ctx.scale.atpg_sample))]

    # The FULL flow on the first third of the sample, from cold caches:
    # its static-analysis pass builds the analysis the searches consult.
    config = FlowConfig(effort=AtpgEffort.FULL)
    start = time.perf_counter()
    with ctx.tracer.span("pipeline.run_full", "pipeline"):
        result = Pipeline(default_pass_names(config)).run(
            soc, config=config, faults=sample[:len(sample) // 3 or 1])
    _pass_spans(ctx, result, start)
    out["pipeline.pass.static_analysis_s"] = result.runtimes[
        "static_analysis"]
    out["atpg.olfu_found"] = result.report.total_online_untestable

    cold_caches()
    soc = build(TINY)
    with ctx.tracer.span("compile", "netlist"):
        get_compiled(soc.cpu)
    static, out["analysis.static_build_s"] = _timed(
        ctx, "static.build", "analysis",
        lambda: get_static_analysis(soc.cpu))
    proofs, _ = _timed(ctx, "static.prove", "analysis",
                       lambda: static.prove_all(universe))
    out["analysis.static_proofs"] = len(proofs)

    totals: Dict[str, float] = {}
    per_fault: List[float] = []
    aborted = 0
    for fault in sample:
        start = time.perf_counter()
        with ctx.tracer.span("atpg.fault", "atpg", fault=str(fault)):
            classes, runtimes, stats, _ = run_detection_phases(
                soc.cpu, [fault], AtpgEffort.FULL)
        per_fault.append(time.perf_counter() - start)
        aborted += sum(1 for c in classes.values() if c is FaultClass.AU)
        for key, value in list(runtimes.items()) + list(stats.items()):
            totals[key] = totals.get(key, 0) + value
    out["simulation.random_phase_s"] = totals.get("random", 0.0)
    out["atpg.search_s"] = totals.get("podem", 0.0)
    for key in ("podem_calls", "podem_backtracks", "static_proved",
                "learned_skips"):
        out[f"atpg.{key}"] = totals.get(key, 0)
    out["atpg.aborted"] = aborted
    calls = totals.get("podem_calls", 0)
    out["atpg.abort_ratio"] = aborted / calls if calls else 0.0
    out["atpg.fault_p50_s"] = statistics.median(per_fault)
    out["atpg.fault_max_s"] = max(per_fault)


def probe_service(ctx: Context, out: Dict[str, float]) -> None:
    from repro.service import ServiceClient

    workload = ServiceMix()
    state = workload.setup(ctx)
    try:
        cold_caches()
        workload.run_clients(ctx, state, 600.0,
                             limit=ctx.scale.service_trace_jobs)
        workload.check_repeats(ctx, state)
        stats = ServiceClient(port=state["harness"].port,
                              client_id="probe").stats()
    finally:
        workload.teardown(ctx, state)
    service_layer_metrics(ctx, state, stats, out)


def service_layer_metrics(ctx: Context, state: Dict[str, Any],
                          stats: Dict[str, Any],
                          out: Dict[str, float]) -> None:
    """Queue wait, run time and client overhead from the jobs' own
    timestamps; the service's cache counters from its ``stats`` op."""
    jobs, wall = state["jobs"], state["wall"]
    waits, runs, overheads = [], [], []
    # Job timestamps are wall-clock; map them onto the span clock.
    offset = time.perf_counter() - time.time()
    for job in jobs:
        status = job["status"]
        created, started, finished = (status["created"], status["started"],
                                      status["finished"])
        waits.append((started - created) * 1e3)
        runs.append((finished - started) * 1e3)
        overheads.append((job["latency"] - (finished - created)) * 1e3)
        parent = ctx.tracer.record("service.queue", "service",
                                   created + offset, started + offset,
                                   thread=-1, job=status["id"])
        ctx.tracer.record("service.run", "service", started + offset,
                          finished + offset, thread=-2, job=status["id"],
                          queued_span=parent)
    out["service.jobs_per_s"] = len(jobs) / wall if wall else 0.0
    out["service.queue_wait_ms_p50"] = statistics.median(waits)
    out["service.run_ms_p50"] = statistics.median(runs)
    out["service.client_overhead_ms_p50"] = statistics.median(overheads)
    out["service.rejections"] = state["rejections"]
    cache = stats.get("cache", {})
    lookups = cache.get("hits", 0) + cache.get("misses", 0)
    served = cache.get("hits", 0) + cache.get("store_hits", 0)
    out["service.cache_hit_ratio"] = served / lookups if lookups else 0.0
    out["service.store_writes"] = cache.get("store_writes", 0)


def run_probes(ctx: Context, service: bool = True) -> Dict[str, float]:
    """Every probe; ``service=False`` leaves the service metrics to a
    caller that has its own served jobs to derive them from."""
    out: Dict[str, float] = {}
    probe_date13(ctx, out)
    probe_tiny(ctx, out)
    if service:
        probe_service(ctx, out)
    return out

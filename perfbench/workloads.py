"""The benchmark's workloads.

Each workload times one operation of the package three ways and reports
the same end-to-end metrics, so every workload prints every metric:

``reference_s``
    The operation without the layer the workload exists to measure.
``cold_s``
    The operation through that layer, starting cold.
``warm_s``
    The same operation again, with the layer warm.

=================  ====================  ======================  ====================
workload           reference_s           cold_s                  warm_s
=================  ====================  ======================  ====================
``table1_date13``  the same session      analyze into a fresh    a fresh session
                   again: served from    store (``table1_s``)    replays it from the
                   its memory cache                              store
                   (mean of 20)                                  (``table1_replay_s``)
``grade_date13``   serial grade          pool grade incl. spawn  second grade on the
                   (``grade_serial_s``)  and install             warm pool
                                         (``grade_pool_cold_s``) (``grade_pool_s``)
``olfu_full_tiny`` RANDOM-effort         FULL-effort analyze of  the same batch again
                   analyze of the batch  a 3-fault batch, cold   in a fresh session,
                   (no ATPG search)      process caches          process caches warm
                                         (``olfu_full_s``)
``service_mix``    the same sweep        after the two-client    then a repeat of a
                   through ``Session``   loop, one client alone  served variant
                   directly, no service  sends a new variant:    (session-cache hits):
                                         its client latency      its client latency
=================  ====================  ======================  ====================

Each is the median of its samples in the run.

Every operation's output is checked; a failed check or an exception
counts the operation as failed and drops its timing.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from perfbench.spans import Tracer
from perfbench.stats import Samples, Tally, peak_rss_mb

ROOT = Path(__file__).resolve().parent.parent
#: The core the ATPG workload and every service job run on.
TINY = "tiny"
#: Closed-loop clients of ``service_mix``: one per cpu of a 2-cpu machine.
SERVICE_CLIENTS = 2

GOLDEN_TABLE1 = {
    "date13": ROOT / "benchmarks" / "golden_table1_date13.txt",
    "tiny": ROOT / "benchmarks" / "corpus" / "golden" / "tiny_full.table.txt",
}


@dataclass(frozen=True)
class Scale:
    """Input sizes of the workloads; :data:`FULL` is the benchmark."""

    table1_design: str = "date13"
    grade_design: str = "date13"
    #: Detected-set size of the full grade with the default SBST suite.
    grade_expected: Optional[int] = 40496
    olfu_batch: int = 3
    #: Jobs of the fixed-length service loop used by the traced run.
    service_trace_jobs: int = 40
    #: Faults of the tiny sample the ATPG probe classifies one by one.
    atpg_sample: int = 24
    #: Set-ups timed per run; ``setup_s`` is their median.
    setups: int = 5


FULL = Scale()

#: Reduced sizes for the benchmark's own smoke tests.
SMOKE = Scale(table1_design="tiny", grade_design="tiny", grade_expected=None,
              olfu_batch=2, service_trace_jobs=6, atpg_sample=3, setups=2)


@dataclass
class Context:
    """Everything one run shares: sizes, seed, counters, spans, scratch."""

    scale: Scale
    seed: int
    work: Path
    tracer: Tracer = field(default_factory=lambda: Tracer(enabled=False))
    tally: Tally = field(default_factory=Tally)
    samples: Samples = field(default_factory=Samples)
    #: Values recorded for the capture and the per-layer report.
    facts: Dict[str, Any] = field(default_factory=dict)

    def tmpdir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))


def workers() -> int:
    """Pool size: the cpus this process may use, at most two."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = os.cpu_count() or 1
    return max(1, min(2, cpus))


def cold_caches() -> None:
    """Drop the process-wide compile cache (and what hangs off it: kernel
    plans, static analyses), so the next analysis compiles from scratch."""
    from repro.netlist.compiled import reset_compile_stats
    reset_compile_stats(clear_cache=True)


def settle() -> float:
    """Collect the previous operation's garbage, then start the clock, so
    no operation pays for collecting what the one before it left."""
    gc.collect()
    return time.perf_counter()


def build(design: str):
    from repro.soc.config import SoCConfig
    from repro.soc.soc_builder import build_soc
    return build_soc(SoCConfig.from_name(design))


def fingerprint(report) -> Tuple:
    """Order-independent content of a report (everything but runtimes)."""
    def names(faults):
        return tuple(sorted(str(f) for f in faults))
    return (report.to_table(), names(report.baseline_untestable),
            tuple((s.source.value, names(s.identified), names(s.attributed))
                  for s in report.sources))


class Workload:
    """One named workload: set-up, then rounds until the time is up."""

    name = ""
    #: Set-ups timed per run when fewer than :attr:`Scale.setups` keep
    #: the run inside its time budget.
    setups: Optional[int] = None
    #: Rounds a run completes even past ``--seconds`` (up to three times
    #: it), so a run that drew slow inputs still has a median to report.
    min_rounds = 1

    def setup(self, ctx: Context) -> Any:
        raise NotImplementedError

    def round(self, ctx: Context, state: Any) -> int:
        """Run one round; returns the number of operations it completed."""
        raise NotImplementedError

    def measure(self, ctx: Context, state: Any, seconds: float) -> Tuple[int, float]:
        """Rounds until ``seconds`` have passed and :attr:`min_rounds` are
        done.  Returns (operations completed, wall seconds measured)."""
        ops = rounds = 0
        start = time.perf_counter()
        while True:
            ops += self.round(ctx, state)
            rounds += 1
            if rounds == 1:
                ctx.facts["peak_rss_first_round_mb"] = peak_rss_mb()
            elapsed = time.perf_counter() - start
            if elapsed >= seconds and (rounds >= self.min_rounds
                                       or elapsed >= 3 * seconds):
                break
        return ops, time.perf_counter() - start

    def once(self, ctx: Context, state: Any) -> None:
        """One fixed unit of work, for the traced run's overhead figure."""
        self.round(ctx, state)

    def teardown(self, ctx: Context, state: Any) -> None:
        pass


# ---------------------------------------------------------------------- #
# table1_date13
# ---------------------------------------------------------------------- #
class Table1(Workload):
    name = "table1_date13"
    replays = 20
    store_replays = 4

    def setup(self, ctx: Context) -> Dict[str, Any]:
        design = ctx.scale.table1_design
        with ctx.tracer.span("build_soc", "soc", design=design):
            soc = build(design)
        golden_path = GOLDEN_TABLE1.get(design)
        golden = (golden_path.read_text(encoding="utf-8").rstrip("\n")
                  if golden_path is not None else None)
        return {"design": design, "soc": soc, "golden": golden}

    def _check(self, ctx: Context, what: str, report, golden) -> bool:
        table = report.to_table()
        if golden is None:
            return ctx.tally.check(what, True, "")
        return ctx.tally.check(what, table == golden,
                               "Table I differs from the golden capture")

    def round(self, ctx: Context, state: Dict[str, Any]) -> int:
        from repro.api import RunOptions, Session

        tracer, design, golden = ctx.tracer, state["design"], state["golden"]
        done = 0
        store_dir = ctx.tmpdir("store-")
        try:
            soc = build(design)
            cold_caches()
            session = Session(options=RunOptions(store=str(store_dir)))
            start = settle()
            with tracer.span("analyze.cold", "pipeline"):
                report = session.analyze(soc)
                with tracer.span("store.write", "store"):
                    session.cache.flush()
            elapsed = time.perf_counter() - start
            if self._check(ctx, "cold analyze", report, golden):
                ctx.samples.add("cold", elapsed)
                done += 1

            # A memory replay takes ~50 ms: time several back to back so
            # one sample is not one scheduler tick's worth of noise.
            start = settle()
            with tracer.span("analyze.memory", "pipeline"):
                for _ in range(self.replays):
                    report = session.analyze(soc)
            elapsed = (time.perf_counter() - start) / self.replays
            if self._check(ctx, "memory replay", report, golden):
                ctx.samples.add("reference", elapsed)
                done += 1

            # A store replay takes ~0.2 s: several fresh sessions per
            # round give the run's median more than one sample per cold
            # analyze.
            for _ in range(self.store_replays):
                replay = Session(options=RunOptions(store=str(store_dir)))
                start = settle()
                with tracer.span("analyze.replay", "pipeline"):
                    with tracer.span("store.read", "store"):
                        report = replay.analyze(soc)
                elapsed = time.perf_counter() - start
                hits = replay.cache_stats.get("store_hits", 0)
                if (self._check(ctx, "replay analyze", report, golden)
                        and ctx.tally.check("replay reads the store",
                                            hits > 0, "the replay computed "
                                            "instead of reading the store")):
                    ctx.samples.add("warm", elapsed)
                    done += 1
                replay = report = None
        except Exception as exc:  # noqa: BLE001
            ctx.tally.exception("cold/replay analyze", exc)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return done


# ---------------------------------------------------------------------- #
# grade_date13
# ---------------------------------------------------------------------- #
class Grade(Workload):
    name = "grade_date13"
    setups = 2  # one set-up captures the SBST patterns (~3 s on date13)
    min_rounds = 2  # a round is ~20 s: two give every figure a median

    def setup(self, ctx: Context) -> Dict[str, Any]:
        from repro.faults.faultlist import generate_fault_list
        from repro.sbst.monitor import ToggleMonitor
        from repro.sbst.program_gen import generate_sbst_suite

        tracer = ctx.tracer
        with tracer.span("build_soc", "soc"):
            soc = build(ctx.scale.grade_design)
        with tracer.span("fault_list", "faults"):
            faults = generate_fault_list(soc.cpu).faults()
        with tracer.span("sim.good", "sbst"):
            patterns = ToggleMonitor(soc.cpu).run_suite(
                generate_sbst_suite(soc.config.cpu))
        return {"soc": soc, "faults": faults, "patterns": patterns,
                "detected": None}

    def _check(self, ctx: Context, what: str, detected, state) -> bool:
        expected = ctx.scale.grade_expected
        if state["detected"] is None:
            if expected is not None and len(detected) != expected:
                ctx.tally.fail(what, f"detected {len(detected)} faults, "
                                     f"expected {expected}")
                return False
            state["detected"] = detected
        return ctx.tally.check(what, detected == state["detected"],
                               "detected set differs from the serial grade")

    def once(self, ctx: Context, state: Dict[str, Any]) -> None:
        """One serial grade: the unit the tracing overhead is taken on."""
        from repro.sbst.grading import FaultGrader

        with ctx.tracer.span("grade.serial", "simulation"):
            detected = FaultGrader(state["soc"].cpu).grade(
                state["patterns"], state["faults"])
        self._check(ctx, "serial grade", detected, state)

    def round(self, ctx: Context, state: Dict[str, Any]) -> int:
        from repro.runtime import WorkerPool
        from repro.sbst.grading import FaultGrader

        tracer = ctx.tracer
        soc, faults, patterns = state["soc"], state["faults"], state["patterns"]
        done = 0
        try:
            grader = FaultGrader(soc.cpu)
            start = settle()
            with tracer.span("grade.serial", "simulation"):
                detected = grader.grade(patterns, faults)
            elapsed = time.perf_counter() - start
            if self._check(ctx, "serial grade", detected, state):
                ctx.samples.add("reference", elapsed)
                done += 1
        except Exception as exc:  # noqa: BLE001
            ctx.tally.exception("serial grade", exc)

        n = workers()
        pool = None
        try:
            start = settle()
            with tracer.span("grade.pool_cold", "runtime"):
                pool = WorkerPool(n)
                grader = FaultGrader(soc.cpu, jobs=n, pool=pool)
                detected = grader.grade(patterns, faults)
            elapsed = time.perf_counter() - start
            if self._check(ctx, "cold pool grade", detected, state):
                ctx.samples.add("cold", elapsed)
                done += 1
            start = settle()
            with tracer.span("grade.pool_warm", "runtime"):
                detected = grader.grade(patterns, faults)
            elapsed = time.perf_counter() - start
            if self._check(ctx, "warm pool grade", detected, state):
                ctx.samples.add("warm", elapsed)
                done += 1
            ctx.facts["pool_start_method"] = pool.start_method
            ctx.facts["pool_workers"] = n
            restarts = pool.stats["worker_restarts"]
            ctx.facts["worker_restarts"] = (
                ctx.facts.get("worker_restarts", 0) + restarts)
            ctx.tally.check("pool keeps its workers", restarts == 0,
                            f"{restarts} worker restart(s)")
        except Exception as exc:  # noqa: BLE001
            ctx.tally.exception("pool grade", exc)
        finally:
            if pool is not None:
                pool.close()
        return done


# ---------------------------------------------------------------------- #
# olfu_full_tiny
# ---------------------------------------------------------------------- #
class OlfuFull(Workload):
    name = "olfu_full_tiny"
    # A batch holding one of the few faults whose search takes seconds
    # eats the run; enough batches keep the medians on the common case.
    min_rounds = 10

    def setup(self, ctx: Context) -> Dict[str, Any]:
        from repro.faults.faultlist import generate_fault_list

        with ctx.tracer.span("build_soc", "soc"):
            soc = build(TINY)
        with ctx.tracer.span("fault_list", "faults"):
            universe = generate_fault_list(soc.cpu).faults()
        return {"universe": universe, "rng": random.Random(ctx.seed)}

    def next_batch(self, ctx: Context, state: Dict[str, Any]) -> List[Any]:
        """The next seeded sample of the fault universe, in universe order."""
        universe = state["universe"]
        picks = sorted(state["rng"].sample(range(len(universe)),
                                           ctx.scale.olfu_batch))
        return [universe[i] for i in picks]

    def round(self, ctx: Context, state: Dict[str, Any]) -> int:
        from repro.api import RunOptions, Session

        tracer = ctx.tracer
        batch = self.next_batch(ctx, state)
        full = RunOptions(effort="full")
        done = 0
        try:
            soc = build(TINY)
            cold_caches()
            start = settle()
            with tracer.span("analyze.full_cold", "atpg"):
                cold = Session(options=full).analyze(soc, faults=batch)
            cold_s = time.perf_counter() - start
            start = settle()
            with tracer.span("analyze.full_warm", "atpg"):
                warm = Session(options=full).analyze(soc, faults=batch)
            warm_s = time.perf_counter() - start
            if ctx.tally.check("FULL analyze repeats", fingerprint(cold)
                               == fingerprint(warm),
                               "two FULL analyses of one batch differ"):
                ctx.samples.add("cold", cold_s)
                ctx.samples.add("warm", warm_s)
                ctx.tally.ok()  # the second analysis of the pair
                done += 2
                # The guard against getting faster by aborting more.
                for key, count in (("olfu_found", warm.total_online_untestable),
                                   ("olfu_classified", len(batch))):
                    ctx.facts[key] = ctx.facts.get(key, 0) + count

            start = settle()
            with tracer.span("analyze.random", "simulation"):
                reference = Session(options=RunOptions(effort="random")
                                    ).analyze(soc, faults=batch)
            elapsed = time.perf_counter() - start
            if ctx.tally.check("RANDOM analyze", reference.total_faults
                               == len(batch), "report covers the wrong "
                                              "fault count"):
                ctx.samples.add("reference", elapsed)
                done += 1
        except Exception as exc:  # noqa: BLE001
            ctx.tally.exception("olfu analyze", exc)
        return done


# ---------------------------------------------------------------------- #
# service_mix
# ---------------------------------------------------------------------- #
#: The cpu.* variant space of the service jobs: 120 tiny cores that differ
#: in debug register length, scan-buffer spacing and scan-chain count, all
#: within a few percent of the tiny core's fault count, so jobs differ in
#: content far more than in cost.
VARIANT_AXES = {
    "cpu.debug_shift_length": range(6, 14),
    "cpu.scan_buffer_every": range(1, 6),
    "cpu.scan_chains": range(1, 4),
}


def variant_axes(variant: Tuple[int, ...]) -> Dict[str, List[int]]:
    return {axis: [value] for axis, value in zip(VARIANT_AXES, variant)}


def service_requests(seed: int, count: int) -> List[Tuple[Tuple[int, ...], bool]]:
    """A seeded request sequence of ``(variant, first_sighting)`` pairs.

    About half the requests repeat a variant requested before, other than
    the most recent one; the rest are variants not seen yet.
    """
    rng = random.Random(seed)
    space = list(itertools.product(*VARIANT_AXES.values()))
    rng.shuffle(space)
    issued: List[Tuple[int, ...]] = []
    requests = []
    for _ in range(count):
        if len(issued) > 1 and (rng.random() < 0.5 or not space):
            requests.append((issued[rng.randrange(len(issued) - 1)], False))
        else:
            issued.append(space.pop())
            requests.append((issued[-1], True))
    return requests


class ServiceHarness:
    """An in-process :class:`AnalysisService` on its own event-loop thread."""

    def __init__(self, store_dir: Path) -> None:
        from repro.service import AnalysisService

        self.service = AnalysisService(store=str(store_dir), workers=1)
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self.error: Optional[BaseException] = None
        self.thread = threading.Thread(target=self._main, daemon=True,
                                       name="perfbench-service")

    def _main(self) -> None:
        def ready(_service) -> None:
            self.loop = asyncio.get_running_loop()
            self._ready.set()
        try:
            asyncio.run(self.service.main(ready))
        except BaseException as exc:  # noqa: BLE001 - reported by start()
            self.error = exc
            self._ready.set()

    def start(self, timeout: float = 60.0) -> "ServiceHarness":
        self.thread.start()
        if not self._ready.wait(timeout) or self.error is not None:
            raise RuntimeError(f"service did not start: {self.error!r}")
        return self

    @property
    def port(self) -> int:
        return self.service.port

    def stop(self, timeout: float = 120.0) -> bool:
        """Drain and stop; True when the loop thread has ended."""
        if self.loop is not None and self.thread.is_alive():
            self.loop.call_soon_threadsafe(self.service.request_shutdown,
                                           True)
        self.thread.join(timeout)
        return not self.thread.is_alive()


class ServiceMix(Workload):
    name = "service_mix"
    #: Share of ``--seconds`` spent in the two-client closed loop; the rest
    #: times single jobs on the then idle, warm service.
    loop_share = 0.5

    def setup(self, ctx: Context) -> Dict[str, Any]:
        from repro.service import ServiceClient

        store_dir = ctx.tmpdir("service-store-")
        with ctx.tracer.span("service.start", "service"):
            harness = ServiceHarness(store_dir).start()
            ServiceClient(port=harness.port, client_id="setup").ping()
        return {"harness": harness, "store_dir": store_dir,
                "requests": service_requests(ctx.seed, 4096), "next": 0,
                "rng": random.Random(ctx.seed), "lock": threading.Lock(),
                "tables": {}, "repeats": [], "jobs": [], "rejections": 0}

    def teardown(self, ctx: Context, state: Dict[str, Any]) -> None:
        stopped = state["harness"].stop()
        ctx.tally.check("service drains and stops", stopped,
                        "service thread still running after shutdown")
        shutil.rmtree(state["store_dir"], ignore_errors=True)

    def _job(self, ctx: Context, state: Dict[str, Any], client,
             variant: Tuple[int, ...], first: bool
             ) -> Optional[Tuple[float, Dict[str, Any]]]:
        """Submit one sweep job, stream it to ``done`` and check it.

        Returns (client latency, job status), or None when the job failed;
        every failure is counted with its reason, none is raised."""
        from repro.service import ServiceError
        from repro.service import protocol

        spec = {"base": TINY, "axes": variant_axes(variant)}
        start = time.perf_counter()
        try:
            with ctx.tracer.span("service.job", "service", first=first,
                                 variant=str(variant)):
                job = None
                while job is None:
                    try:
                        job = client.submit("sweep", spec)
                    except ServiceError as exc:
                        if exc.code not in (protocol.ERR_QUEUE_FULL,
                                            protocol.ERR_QUOTA_EXCEEDED):
                            raise
                        # A refused request counts as a failed one.
                        with state["lock"]:
                            state["rejections"] += 1
                            ctx.tally.fail("submit", exc.code)
                        time.sleep(min(exc.retry_after or 0.05, 1.0))
                table, final = None, None
                for event in client.stream(job["id"]):
                    if event.get("event") == "scenario":
                        table = event.get("table")
                    elif event.get("event") == "done":
                        final = event.get("state")
            latency = time.perf_counter() - start
            status = client.status(job["id"])
        except (ServiceError, OSError) as exc:
            # Includes ServiceUnavailable and a raw ConnectionResetError
            # from a listener closing mid-exchange: counted, not raised.
            with state["lock"]:
                ctx.tally.exception("service job", exc)
            return None
        with state["lock"]:
            if not ctx.tally.check("service job", final == "done"
                                   and table is not None,
                                   f"job ended {final!r}"):
                return None
            if first:
                state["tables"][variant] = table
            else:
                state["repeats"].append((variant, table))
        return latency, status

    def _take(self, state: Dict[str, Any], limit: Optional[int]):
        with state["lock"]:
            index = state["next"]
            if limit is not None and index >= limit:
                return None
            state["next"] = index + 1
            return state["requests"][index]

    def _client(self, ctx: Context, state: Dict[str, Any], name: str,
                deadline: float, limit: Optional[int]) -> None:
        from repro.service import ServiceClient

        client = ServiceClient(port=state["harness"].port, client_id=name,
                               timeout=120.0)
        while time.perf_counter() < deadline:
            request = self._take(state, limit)
            if request is None:
                return
            variant, first = request
            served = self._job(ctx, state, client, variant, first)
            if served is None:
                continue
            latency, status = served
            with state["lock"]:
                ctx.samples.add("latency", latency)
                state["jobs"].append({"status": status, "latency": latency,
                                      "first": first})

    def run_clients(self, ctx: Context, state: Dict[str, Any],
                    seconds: float, limit: Optional[int] = None) -> float:
        """The closed loop: each client sends its next job once the last
        one is done.  Returns the loop's wall time."""
        deadline = time.perf_counter() + seconds
        start = time.perf_counter()
        threads = [threading.Thread(target=self._client, name=f"client-{i}",
                                    args=(ctx, state, f"client-{i}",
                                          deadline, limit))
                   for i in range(SERVICE_CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        state["wall"] = time.perf_counter() - start
        return state["wall"]

    def run_idle(self, ctx: Context, state: Dict[str, Any],
                 seconds: float) -> int:
        """One client alone: a variant nobody sent yet (``cold``), then a
        repeat of one already served (``warm``), until the time is up.

        With nothing else queued, latency is the job's own cost: the
        closed loop's queueing depends on what the other client happened
        to send, which would make these figures depend on the seed."""
        from repro.service import ServiceClient

        client = ServiceClient(port=state["harness"].port, client_id="idle",
                               timeout=120.0)
        sent = {variant for variant, _ in state["requests"][:state["next"]]}
        unseen = [v for v, first in state["requests"] if first
                  and v not in sent]
        rng, done = state["rng"], 0
        deadline = time.perf_counter() + seconds
        while unseen:  # at least one pair, however short the run
            for role in ("cold", "warm"):
                if role == "cold":
                    variant = unseen.pop(0)
                else:
                    variant = rng.choice(sorted(state["tables"]))
                self._await_store_writes(client)
                served = self._job(ctx, state, client, variant,
                                   role == "cold")
                if served is not None:
                    ctx.samples.add(role, served[0])
                    done += 1
            if time.perf_counter() >= deadline:
                break
        return done

    @staticmethod
    def _await_store_writes(client, timeout: float = 10.0) -> None:
        """Wait until the service's write-behind store queue is idle, so a
        timed job does not share the process with the previous job's
        artifact writes."""
        deadline = time.perf_counter() + timeout
        last = None
        while time.perf_counter() < deadline:
            writes = client.stats().get("cache", {}).get("store_writes")
            if writes == last:
                return
            last = writes
            time.sleep(0.05)

    def check_repeats(self, ctx: Context, state: Dict[str, Any]) -> None:
        for variant, table in state["repeats"]:
            first = state["tables"].get(variant)
            if first is None:
                continue  # the first sighting failed and was counted
            ctx.tally.check("repeat equals first sighting", table == first,
                            f"repeat of {variant} returned a different "
                            f"table")
        state["repeats"] = []

    def reference(self, ctx: Context, state: Dict[str, Any],
                  count: int = 12) -> Dict[Tuple[int, ...], str]:
        """The first ``count`` new variants of the request sequence swept
        through ``Session`` directly, cold, before the service has served
        anything.  Returns their tables for :meth:`check_direct`."""
        from repro.api import ScenarioGrid, Session

        tables: Dict[Tuple[int, ...], str] = {}
        for variant in [v for v, first in state["requests"] if first][:count]:
            try:
                cold_caches()
                start = settle()
                with ctx.tracer.span("sweep.direct", "pipeline"):
                    sweep = Session().sweep(ScenarioGrid(
                        TINY, axes=variant_axes(variant)))
                elapsed = time.perf_counter() - start
                tables[variant] = sweep.results[0].report.to_table()
                ctx.samples.add("reference", elapsed)
            except Exception as exc:  # noqa: BLE001
                ctx.tally.exception("direct sweep", exc)
        return tables

    def check_direct(self, ctx: Context, state: Dict[str, Any],
                     direct: Dict[Tuple[int, ...], str]) -> None:
        """Each direct sweep must match the service's table of the variant
        (variants the run never got to are not served, so not checked)."""
        for variant, table in direct.items():
            served = state["tables"].get(variant)
            if served is not None:
                ctx.tally.check("direct sweep equals served", table == served,
                                f"{variant} differs from the service's "
                                f"table")
            else:
                ctx.tally.ok()

    def measure(self, ctx: Context, state: Dict[str, Any],
                seconds: float) -> Tuple[int, float]:
        direct = self.reference(ctx, state)
        cold_caches()
        start = time.perf_counter()
        self.run_clients(ctx, state, seconds * self.loop_share)
        jobs = len(state["jobs"])
        jobs += self.run_idle(ctx, state,
                              seconds - (time.perf_counter() - start))
        wall = time.perf_counter() - start
        self.check_repeats(ctx, state)
        self.check_direct(ctx, state, direct)
        return jobs, wall

    def once(self, ctx: Context, state: Dict[str, Any]) -> None:
        """A fixed-length loop on a fresh service and store."""
        self.teardown(ctx, state)
        fresh = self.setup(ctx)
        state.clear()
        state.update(fresh)
        cold_caches()
        self.run_clients(ctx, state, 600.0,
                         limit=ctx.scale.service_trace_jobs)
        self.check_repeats(ctx, state)


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Table1(), Grade(), OlfuFull(), ServiceMix())}

#: The workloads ``BENCHMARK.json`` lists.  ``olfu_full_tiny`` and
#: ``service_mix`` run the same way but are not gated, because their
#: figures moved between runs by more than the largest bound allowed (see
#: CHANGES.md): per-fault FULL cost is bimodal and heavy-tailed, and the
#: service's jobs are short enough that a run sits inside one phase of the
#: machine's speed.  Their layers stay measured by the per-layer probes of
#: every traced run.
GATED = ("table1_date13", "grade_date13")

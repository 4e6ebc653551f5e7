"""Parallel fault simulation, mission grading and classification.

The paper's core loop — classify every fault of an embedded core as
on-line functionally untestable or not, then grade the self-test suite
against the population — is embarrassingly parallel over the fault list:
every verdict is per-fault.  This module fans that work out over the
work-stealing worker pool of :mod:`repro.runtime`:

pool lifetime (the ``pool`` knob)
    ``None``/``"ephemeral"`` runs the call on a fresh
    :class:`~repro.runtime.pool.WorkerPool` of ``jobs`` workers that is
    closed on every exit path of the call; ``"persistent"`` borrows the
    process-global registry pool for that worker count, and a
    caller-supplied ``WorkerPool`` is borrowed as-is.  Both lifetimes
    honour ``REPRO_POOL_START_METHOD`` (``fork``/``spawn``).

cone-affine chunks
    The parent resolves every fault site once (:class:`SiteTable`) and cuts
    the population into chunks that keep faults sharing a fanout cone
    together (:func:`repro.runtime.scheduler.plan_chunks`); idle workers
    steal the next chunk from the parent's queue.  A simulation chunk is
    one task that walks every pattern window in order, dropping its
    detected faults as it goes.  Each fault lives in exactly one chunk, so
    verdicts and detecting-pattern indices are **byte-identical** to the
    serial :class:`~repro.simulation.fault_sim.FaultSimulator` and
    :class:`~repro.sbst.grading.FaultGrader` whatever order the chunks are
    stolen in.

detection frontier (:class:`DetectionFrontier`)
    Detections publish ``fault -> pattern index`` into a frontier; a
    caller-seeded frontier prunes its faults before the first window.

simulation kernels
    Jobs carry the *resolved* kernel name (``auto`` is frozen to a concrete
    backend of :mod:`repro.simulation.kernels` before shipping), and every
    kernel is verdict-identical by contract, which the golden scenario
    corpus enforces end-to-end in CI.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
import time
import warnings
from hashlib import sha256
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Set, Tuple)

from repro.faults.models import Fault, InjectionSpec, resolve_injection
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.fault_sim import (FaultSimResult, good_planes,
                                        observation_net_names,
                                        pair_allowed_mask, resolve_site)
from repro.simulation.kernels import PLANE_LANES, WORD_LANES, get_kernel
from repro.simulation.parallel import (compute_good_words,
                                       pair_allowed_words, word_program)
from repro.simulation.simulator import plane_program
from repro.utils.bitvec import mask as bitmask

_oversubscribe_warned = False


def resolve_jobs(jobs: Optional[int], *, cap: bool = True) -> int:
    """Coerce a worker-count spec: ``None`` means one per CPU, minimum 1.

    Requests beyond ``os.cpu_count()`` used to silently oversubscribe the
    machine (and let single-core CI boxes publish "parallel is slower"
    benchmark numbers with no attribution); they are now capped at the CPU
    count with a one-time warning.  ``cap=False`` returns the raw request
    — routing decisions that only care whether parallelism was *asked for*
    want that, not the capped worker count.
    """
    cpus = max(1, os.cpu_count() or 1)
    if jobs is None:
        return cpus
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    jobs = int(jobs)
    if cap and jobs > cpus:
        global _oversubscribe_warned
        if not _oversubscribe_warned:
            _oversubscribe_warned = True
            warnings.warn(
                f"jobs={jobs} exceeds os.cpu_count()={cpus}; capping the "
                f"worker count at {cpus} (extra workers would only contend)",
                RuntimeWarning, stacklevel=2)
        return cpus
    return jobs


def _reset_oversubscription_warning() -> None:
    """Re-arm the one-time oversubscription warning (test hook)."""
    global _oversubscribe_warned
    _oversubscribe_warned = False


def _pool_scope(pool, jobs: int):
    """The worker pool a call runs on, as a context manager.

    A :class:`~repro.runtime.pool.WorkerPool` instance and
    ``"persistent"`` (the registry pool for ``jobs`` workers) are
    borrowed: the context leaves them open.  ``None``/``"ephemeral"``
    yield a fresh ``WorkerPool(jobs)`` owned by the call, which its
    ``__exit__`` closes whether the call returns or raises.
    """
    from repro.runtime.pool import WorkerPool, get_pool, resolve_pool_mode

    if isinstance(pool, WorkerPool):
        return contextlib.nullcontext(pool)
    start_method = os.environ.get("REPRO_POOL_START_METHOD") or None
    if resolve_pool_mode(pool) == "persistent":
        return contextlib.nullcontext(get_pool(jobs, start_method))
    return WorkerPool(jobs, start_method=start_method)


def _fan_out(pool, key: str, method: str,
             tasks: Sequence) -> Iterator[Tuple[int, object]]:
    """Run ``job.method(task)`` for every task on ``pool``'s job ``key``.

    Yields ``(task index, result)`` in completion order; no tasks, no
    session (so an ephemeral pool never starts its workers for nothing).
    """
    if not tasks:
        return
    with pool.session(key) as run:
        for index, task in enumerate(tasks):
            run.submit(method, task, tag=index)
        for index, _task, outcome in run.results():
            yield index, outcome


# --------------------------------------------------------------------- #
# the shared detection frontier
# --------------------------------------------------------------------- #
class DetectionFrontier:
    """Merge point for detection verdicts.

    Drivers publish ``fault -> detecting pattern index`` entries as chunk
    results arrive; a frontier a caller seeds before a grade prunes those
    faults from every chunk.  Thread-safe, so concurrent callers may share
    one instance.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._detected: Dict[Fault, int] = {}

    def publish(self, fault: Fault, pattern_index: int) -> None:
        with self._lock:
            self._detected[fault] = pattern_index

    def publish_many(self,
                     items: Iterable[Tuple[Fault, int]]) -> None:
        with self._lock:
            self._detected.update(items)

    def __contains__(self, fault: Fault) -> bool:
        with self._lock:
            return fault in self._detected

    def __len__(self) -> int:
        with self._lock:
            return len(self._detected)

    def detected(self) -> Dict[Fault, int]:
        """Snapshot of every published verdict."""
        with self._lock:
            return dict(self._detected)


# --------------------------------------------------------------------- #
# the compact site table workers simulate from
# --------------------------------------------------------------------- #
class SiteTable(tuple):
    """Position-indexed ``(site, InjectionSpec)`` pairs of a fault list.

    What a simulation worker needs of a fault is its resolved site
    (:func:`~repro.simulation.fault_sim.resolve_site`) and its injection
    spec, so the parent resolves every site once and ships this table
    instead of ``Fault`` objects; results come back as positions, which
    the parent maps to its own fault list.  Equal sites and equal specs
    are interned to one object each, so the table pickles compactly
    (pickle memoises repeated objects) and unpickles small.
    """

    __slots__ = ()

    @classmethod
    def of(cls, compiled: CompiledNetlist,
           faults: Iterable[Fault]) -> "SiteTable":
        sites: Dict[Tuple, Tuple] = {}
        specs: Dict[InjectionSpec, InjectionSpec] = {}
        rows = []
        for fault in faults:
            site = resolve_site(compiled, fault)
            spec = resolve_injection(fault)
            rows.append((sites.setdefault(site, site),
                         specs.setdefault(spec, spec)))
        return cls(rows)


class _PoolPlan:
    """A fault list's run plan: site table, its digest, chunks.

    Built once per fault list and memoised on the compiled IR (see
    :func:`_pool_plan`), so a warm re-grade neither re-resolves sites,
    re-packs chunks nor re-pickles the population for its job key.
    """

    def __init__(self, compiled: CompiledNetlist,
                 faults: Tuple[Fault, ...]) -> None:
        self.faults = faults
        self.table = SiteTable.of(compiled, faults)
        self.digest = sha256(pickle.dumps(self.table, protocol=4)).hexdigest()
        self._chunks: Dict[int, List[Tuple[int, ...]]] = {}

    def chunks(self, compiled: CompiledNetlist,
               chunk_size: int) -> List[Tuple[int, ...]]:
        """Cone-affine chunks at ``chunk_size``, in dispatch order."""
        from repro.runtime.scheduler import plan_chunks

        chunks = self._chunks.get(chunk_size)
        if chunks is None:
            chunks = plan_chunks(compiled, [site for site, _ in self.table],
                                 chunk_size)
            self._chunks[chunk_size] = chunks
        return chunks


#: Run plans kept per compiled netlist (most recent fault lists).
POOL_PLAN_CACHE = 4

_PLAN_LOCK = threading.Lock()


def _pool_plan(compiled: CompiledNetlist,
               faults: Tuple[Fault, ...]) -> _PoolPlan:
    """The memoised :class:`_PoolPlan` of ``faults`` on ``compiled``.

    Looked up by fault-list equality — a C-level element walk that
    short-circuits on identity, so re-grading the same list costs ~1 ms
    where hashing or pickling 68k faults costs ~100.
    """
    plans = compiled.extension("pool_plans", lambda _compiled: [])
    with _PLAN_LOCK:
        for index, plan in enumerate(plans):
            if len(plan.faults) == len(faults) and plan.faults == faults:
                plans.append(plans.pop(index))  # LRU refresh
                return plan
        plan = _PoolPlan(compiled, faults)
        plans.append(plan)
        del plans[:-POOL_PLAN_CACHE]
        return plan


# --------------------------------------------------------------------- #
# worker-side jobs
# --------------------------------------------------------------------- #
class _ShardJob:
    """Base class for worker-side simulation job state.

    A job carries everything a worker needs: the netlist, the
    population's :class:`SiteTable` (no ``Fault`` object reaches a
    worker), patterns and observation config.  Heavy derived state — the
    compiled IR, evaluator programs, per-window good machines — is built
    lazily by :meth:`prepare` on first use and **excluded from
    pickling**.

    The task shape is :meth:`run_chunk`: a chunk of table positions walked
    through every window in one task, dropping detected faults as it goes.
    """

    _RUNTIME_ATTRS = ("_prepared", "_compiled", "_program", "_obs_flags",
                      "_window_memo", "_kernel")

    def __init__(self, netlist: Netlist, table: SiteTable,
                 observation_nets: frozenset,
                 kernel: Optional[str] = None) -> None:
        self.netlist = netlist
        self.table = table
        self.observation_nets = observation_nets
        # A picklable kernel *name* (the driver resolves "auto" before
        # shipping); the kernel object itself is runtime state.
        self.kernel = kernel
        self._prepared = False

    def __getstate__(self):
        state = self.__dict__.copy()
        for attr in self._RUNTIME_ATTRS:
            state.pop(attr, None)
        state["_prepared"] = False
        return state

    def release_shared(self) -> None:
        """Release an attached shared-memory payload (pool eviction hook)."""
        shared = self.__dict__.get("shared_payload")
        if shared is not None:
            shared.release()

    def prepare(self) -> None:
        if self._prepared:
            return
        compiled = get_compiled(self.netlist)
        obs_flags = bytearray(compiled.n_nets)
        net_id = compiled.net_id
        for name in self.observation_nets:
            nid = net_id.get(name)
            if nid is not None:
                obs_flags[nid] = 1
        self._compiled = compiled
        self._obs_flags = obs_flags
        self._kernel = get_kernel(self.kernel)
        self._program = self._build_program(compiled)
        self._window_memo: Dict[int, tuple] = {}
        self._prepared = True

    def run_chunk(self, task):
        """task = (positions, drop detected) -> ``[(window, hits), ...]``.

        Walks the chunk through every window in order inside the worker;
        with dropping on, a detected position leaves the chunk for every
        later window.  Windows without hits are omitted.
        """
        positions, drop = task
        self.prepare()
        todo = list(positions)
        outcome = []
        for window in self._windows():
            if not todo:
                break
            hits = self._window_hits(todo, window)
            if hits:
                outcome.append((window, hits))
                if drop:
                    done = set(self._hit_positions(hits))
                    todo = [position for position in todo
                            if position not in done]
        return outcome

    def _build_program(self, compiled: CompiledNetlist):
        raise NotImplementedError

    def _windows(self) -> Sequence[int]:
        raise NotImplementedError

    def _window_hits(self, positions, window) -> list:
        raise NotImplementedError

    @staticmethod
    def _hit_positions(hits) -> Iterable[int]:
        return hits


class _PlaneSimJob(_ShardJob):
    """Parallel counterpart of ``FaultSimulator.run`` (three-valued planes).

    Windows are pattern start offsets; hits are ``(position, detection
    mask)`` pairs.
    """

    def __init__(self, netlist: Netlist, table: SiteTable, observation_nets,
                 patterns: Sequence[Mapping[str, int]],
                 word_size: int, kernel: Optional[str] = None) -> None:
        super().__init__(netlist, table, observation_nets, kernel)
        self.patterns = list(patterns)
        self.word_size = word_size

    def _build_program(self, compiled: CompiledNetlist):
        program, _ = plane_program(compiled)
        return program

    def _windows(self) -> Sequence[int]:
        return range(0, len(self.patterns), self.word_size)

    @staticmethod
    def _hit_positions(hits) -> Iterable[int]:
        return (position for position, _det in hits)

    def _window_planes(self, start: int):
        memo = self._window_memo.get(start)
        if memo is None:
            window = self.patterns[start:start + self.word_size]
            memo = good_planes(self._compiled, self._program, window,
                               kernel=self._kernel)
            self._window_memo[start] = memo
        return memo

    def _window_hits(self, positions, start: int) -> list:
        table = self.table
        g1, g0, frozen, mask = self._window_planes(start)
        items = [(table[position][0], table[position][1].stuck_value)
                 for position in positions]
        dets = self._kernel.detect_planes(self._compiled, items, g1, g0,
                                          frozen, mask, self._obs_flags)
        prev_planes = None  # previous window's (g1, g0, width), lazily built
        hits = []
        for position, det in zip(positions, dets):
            site, spec = table[position]
            if det and spec.frames > 1:
                if prev_planes is None and start > 0:
                    p1, p0, _, _ = self._window_planes(
                        start - self.word_size)
                    prev_planes = (p1, p0, self.word_size)
                det &= pair_allowed_mask(self._compiled, site, spec,
                                         g1, g0, mask, prev=prev_planes)
            if det:
                hits.append((position, det))
        return hits


class _WordGradeJob(_ShardJob):
    """Parallel counterpart of ``FaultGrader.grade`` (two-valued words).

    Windows are indexes into ``windows``; hits are detected positions.
    """

    def __init__(self, netlist: Netlist, table: SiteTable, observation_nets,
                 windows: Sequence[Tuple[Mapping[str, int], int]],
                 kernel: Optional[str] = None) -> None:
        super().__init__(netlist, table, observation_nets, kernel)
        self.windows = list(windows)

    def _build_program(self, compiled: CompiledNetlist):
        return word_program(compiled)

    def _windows(self) -> Sequence[int]:
        return range(len(self.windows))

    def _window_words(self, window_index: int):
        memo = self._window_memo.get(window_index)
        if memo is None:
            words, n_patterns = self.windows[window_index]
            good, _ = compute_good_words(self._compiled, words, n_patterns)
            memo = (good, bitmask(n_patterns))
            self._window_memo[window_index] = memo
        return memo

    def _window_hits(self, positions, window_index: int) -> list:
        good, word_mask = self._window_words(window_index)
        prev = None  # previous window's (good words, width), lazily built
        items = []
        for position in positions:
            site, spec = self.table[position]
            allowed = None
            if spec.frames > 1:
                if prev is None and window_index > 0:
                    prev_good, _ = self._window_words(window_index - 1)
                    prev = (prev_good, self.windows[window_index - 1][1])
                allowed = pair_allowed_words(self._compiled, site, spec,
                                             good, word_mask, prev=prev)
            items.append((site, spec.stuck_value, allowed))
        verdicts = self._kernel.detect_words(self._compiled, items, good,
                                             word_mask, self._obs_flags)
        return [position for position, hit in zip(positions, verdicts)
                if hit]


class _DetectClassifyJob:
    """Per-fault detection phases (random patterns + ATPG) of the engine.

    The netlist-global tied-value fixpoint runs *once* in the driver;
    workers only see the faults it left unclassified.  Fault chunks ride
    inside each task instead of the installed job, so one job (keyed by
    configuration only) serves every fault subset of the same netlist —
    warm re-use across calls.
    """

    def __init__(self, netlist: Netlist, effort, random_patterns: int,
                 backtrack_limit: int, seed: int, static_prune: bool = True,
                 static_learning: bool = True,
                 kernel: Optional[str] = None,
                 atpg_backend: Optional[str] = None,
                 atpg_seed: Optional[int] = None) -> None:
        self.netlist = netlist
        self.effort = effort
        self.random_patterns = random_patterns
        self.backtrack_limit = backtrack_limit
        self.seed = seed
        self.static_prune = static_prune
        self.static_learning = static_learning
        self.kernel = kernel
        self.atpg_backend = atpg_backend
        self.atpg_seed = atpg_seed

    def run_faults(self, faults):
        """Primary phases over a fault chunk -> (classifications,
        patterns, phase runtimes, stats)."""
        from repro.atpg.engine import run_detection_phases

        classifications, phase_runtimes, stats, patterns = \
            run_detection_phases(
                self.netlist, list(faults), self.effort,
                random_patterns=self.random_patterns,
                backtrack_limit=self.backtrack_limit, seed=self.seed,
                static_prune=self.static_prune,
                static_learning=self.static_learning,
                kernel=self.kernel,
                atpg_backend=self.atpg_backend, atpg_seed=self.atpg_seed)
        return classifications, patterns, phase_runtimes, stats

    def run_escalation(self, faults):
        """Escalation tier over a slice of the merged abort frontier ->
        (improvements, patterns, phase runtimes, stats)."""
        from repro.atpg.engine import run_escalation_phase

        return run_escalation_phase(
            self.netlist, list(faults),
            backtrack_limit=self.backtrack_limit, seed=self.seed,
            static_learning=self.static_learning,
            atpg_backend=self.atpg_backend, atpg_seed=self.atpg_seed)


# --------------------------------------------------------------------- #
# public engines
# --------------------------------------------------------------------- #
class ShardedFaultSimulator:
    """Drop-in parallel counterpart of :class:`FaultSimulator.run`.

    Results — detected/undetected sets *and* the recorded detecting
    pattern indices, under both fault-dropping modes — are byte-identical
    to the serial compiled engine.  ``pool``/``chunk`` pick the pool
    lifetime and the chunk size (``None`` = auto).
    """

    def __init__(self, netlist: Netlist, observe_state_inputs: bool = True,
                 state_input_roles: Optional[Sequence[str]] = None,
                 drop_detected: bool = True, word_size: int = 64, *,
                 jobs: Optional[int] = None,
                 kernel: Optional[str] = None,
                 pool=None,
                 chunk: Optional[int] = None) -> None:
        self.netlist = netlist
        self.observe_state_inputs = observe_state_inputs
        self.state_input_roles = (tuple(state_input_roles)
                                  if state_input_roles is not None else None)
        self.drop_detected = drop_detected
        self.word_size = word_size
        self.jobs = resolve_jobs(jobs)
        self.kernel = kernel
        self.pool = pool
        self.chunk = chunk
        self.last_frontier: Optional[DetectionFrontier] = None

    def run(self, faults: Iterable[Fault],
            patterns: Sequence[Mapping[str, int]],
            drop_detected: Optional[bool] = None) -> FaultSimResult:
        """Work-stealing run: one task per cone-affine chunk.

        One job (the population's :class:`SiteTable`) is installed once
        per content key; each chunk is one task that walks every pattern
        window inside the worker, dropping its detected faults as it goes.
        """
        from repro.runtime import (content_key, share_patterns,
                                   simulation_chunk_size)

        drop = self.drop_detected if drop_detected is None else drop_detected
        fault_tuple = tuple(faults)
        compiled = get_compiled(self.netlist)
        observation_nets = frozenset(observation_net_names(
            self.netlist, self.observe_state_inputs, self.state_input_roles))
        kernel_name = get_kernel(self.kernel).name
        frontier = DetectionFrontier()
        self.last_frontier = frontier
        result = FaultSimResult()
        dropped: Set[int] = set()
        with _pool_scope(self.pool, self.jobs) as pool:
            chunk_size = (self.chunk if self.chunk is not None
                          else simulation_chunk_size(pool.workers,
                                                     len(fault_tuple),
                                                     PLANE_LANES))
            plan = _pool_plan(compiled, fault_tuple)
            chunks = plan.chunks(compiled, chunk_size) if patterns else []
            key = content_key("planesim", self.netlist, kernel_name,
                              self.word_size, tuple(sorted(observation_nets)),
                              plan.digest, list(patterns))

            def build():
                job = _PlaneSimJob(self.netlist, plan.table,
                                   observation_nets, patterns,
                                   self.word_size, kernel=kernel_name)
                if kernel_name == "numpy":
                    shared = share_patterns(job.patterns)
                    if shared is not None:
                        job.patterns = shared
                        job.shared_payload = shared
                return job

            if chunks:
                pool.ensure_job(key, build)
            tasks = [(positions, drop) for positions in chunks]
            for _index, outcome in _fan_out(pool, key, "run_chunk", tasks):
                for start, hits in outcome:
                    for position, det in hits:
                        fault = fault_tuple[position]
                        result.detected.add(fault)
                        if drop:
                            # First detecting pattern of the window.
                            pattern_index = (
                                start + (det & -det).bit_length() - 1)
                            dropped.add(position)
                        else:
                            # Kept simulating; later windows overwrite with
                            # the *last* detecting pattern, like serial.
                            pattern_index = start + det.bit_length() - 1
                        result.detecting_pattern[fault] = pattern_index
                        frontier.publish(fault, pattern_index)
        result.undetected.update(fault for position, fault
                                 in enumerate(fault_tuple)
                                 if position not in dropped)
        return result


def sharded_mission_grade(netlist: Netlist, faults: Iterable[Fault],
                          patterns, *,
                          observation_nets: Iterable[str],
                          word_size: int = 64,
                          drop_detected: bool = True,
                          jobs: Optional[int] = None,
                          frontier: Optional[DetectionFrontier] = None,
                          kernel: Optional[str] = None,
                          pool=None,
                          chunk: Optional[int] = None) -> Set[Fault]:
    """Parallel counterpart of :meth:`repro.sbst.grading.FaultGrader.grade`.

    ``patterns`` is a :class:`~repro.sbst.monitor.CapturedPatterns`-shaped
    object (``cycles`` + ``controllable_nets``); ``observation_nets`` is
    the exact observation-point set of the serial grader, so verdicts are
    identical by construction.  Detections publish ``(fault, window
    start)`` into ``frontier``; faults a caller pre-seeded into it are
    pruned before the first window.  Returns the detected-fault set.
    """
    from repro.runtime import content_key, share_windows, simulation_chunk_size
    from repro.sbst.monitor import pattern_windows

    fault_tuple = tuple(faults)
    jobs = resolve_jobs(jobs)
    compiled = get_compiled(netlist)
    observation_nets = frozenset(observation_nets)
    windows = pattern_windows(patterns, word_size)
    kernel_name = get_kernel(kernel).name
    frontier = frontier if frontier is not None else DetectionFrontier()
    detected: Set[Fault] = set()
    published = (frontier.detected()
                 if drop_detected and len(frontier) else {})
    with _pool_scope(pool, jobs) as pool:
        chunk_size = (chunk if chunk is not None
                      else simulation_chunk_size(pool.workers,
                                                 len(fault_tuple),
                                                 WORD_LANES))
        plan = _pool_plan(compiled, fault_tuple)
        chunks = plan.chunks(compiled, chunk_size) if windows else []
        key = content_key("wordgrade", netlist, kernel_name,
                          tuple(sorted(observation_nets)), plan.digest,
                          list(windows))

        def build():
            job = _WordGradeJob(netlist, plan.table, observation_nets,
                                windows, kernel=kernel_name)
            if kernel_name == "numpy":
                shared = share_windows(job.windows)
                if shared is not None:
                    job.windows = shared
                    job.shared_payload = shared
            return job

        if published:
            chunks = [tuple(position for position in positions
                            if fault_tuple[position] not in published)
                      for positions in chunks]
        tasks = [(positions, drop_detected)
                 for positions in chunks if positions]
        if tasks:
            pool.ensure_job(key, build)
        for _index, outcome in _fan_out(pool, key, "run_chunk", tasks):
            for window_index, hits in outcome:
                start = window_index * word_size
                hit_faults = [fault_tuple[position] for position in hits]
                detected.update(hit_faults)
                frontier.publish_many((fault, start)
                                      for fault in hit_faults)
    return detected


def sharded_classify(netlist: Netlist, faults: Iterable[Fault], *,
                     effort, jobs: Optional[int] = None,
                     random_patterns: int = 256,
                     backtrack_limit: int = 200,
                     seed: int = 2013,
                     static_prune: bool = True,
                     static_learning: bool = True,
                     kernel: Optional[str] = None,
                     atpg_backend: Optional[str] = None,
                     atpg_seed: Optional[int] = None,
                     pool=None,
                     chunk: Optional[int] = None):
    """Classify a fault population across pool workers.

    The netlist-global tied-value fixpoint runs exactly once, in the
    calling process (splitting it would repeat the global propagation per
    chunk for no benefit — at TIE effort this function therefore costs
    the same as the serial engine and starts no workers at all).  The
    faults it leaves unclassified go through the per-fault detection
    phases (seeded random patterns, the selected ATPG portfolio backend)
    in cone-affine chunks across the pool.  Every verdict is
    batch-independent and chunk results merge in chunk order, so the
    report carries exactly the serial engine's classifications, patterns
    and compaction.  ``runtime_seconds`` is wall clock; per-phase runtimes
    are summed across chunks (CPU seconds).

    For a backend with an escalation tier (``dalg``) the driver merges the
    per-chunk abort frontiers after the primary round and fans the merged
    frontier out again over the same installed job — so a fault aborted in
    one chunk is escalated exactly once, no matter how the primary faults
    were sliced.
    """
    from repro.atpg.engine import (AtpgEffort, UntestabilityReport,
                                   resolve_effort)
    from repro.atpg.implication import ImplicationEngine
    from repro.atpg.portfolio import compact_patterns, resolve_atpg_backend
    from repro.atpg.tie_analysis import TieAnalysis
    from repro.faults.categories import FaultClass
    from repro.runtime import (build_chunks, content_key, default_chunk_size,
                               simulation_chunk_size)

    fault_list = list(faults)
    jobs = resolve_jobs(jobs)
    effort = resolve_effort(effort)

    report = UntestabilityReport(effort=effort)
    start = time.perf_counter()
    phase_start = time.perf_counter()
    tie_result = TieAnalysis(netlist, ImplicationEngine(netlist)).run(
        fault_list)
    report.classifications.update(tie_result.classifications)
    report.phase_runtimes["tie"] = time.perf_counter() - phase_start

    remaining = [f for f in fault_list if f not in report.classifications]
    if effort is AtpgEffort.TIE or not remaining:
        report.runtime_seconds = time.perf_counter() - start
        return report

    kernel_name = get_kernel(kernel).name
    key = content_key("classify", netlist, effort.name, random_patterns,
                      backtrack_limit, seed, static_prune, static_learning,
                      kernel_name, atpg_backend, atpg_seed)

    def build():
        return _DetectClassifyJob(
            netlist, effort, random_patterns, backtrack_limit, seed,
            static_prune, static_learning, kernel=kernel_name,
            atpg_backend=atpg_backend, atpg_seed=atpg_seed)

    patterns: List[tuple] = []

    def run_round(method: str, faults: List[Fault]) -> None:
        """One round over ``faults``, merged in chunk order."""
        if chunk is not None:
            chunk_size = chunk
        elif effort is AtpgEffort.RANDOM:
            # Random-pattern detection is fault simulation: every chunk
            # re-simulates the good machine on the whole pattern burst,
            # so small ATPG-sized chunks would repeat that per 64 faults.
            chunk_size = simulation_chunk_size(pool.workers, len(faults),
                                               WORD_LANES)
        else:
            chunk_size = default_chunk_size(pool.workers, len(faults))
        tasks = [tuple(faults[position] for position in positions)
                 for positions in build_chunks(netlist, faults, chunk_size)]
        outcomes = sorted(_fan_out(pool, key, method, tasks),
                          key=lambda item: item[0])
        for _index, (verdicts, chunk_patterns, phase_runtimes,
                     stats) in outcomes:
            report.classifications.update(verdicts)
            patterns.extend(chunk_patterns)
            for phase, seconds in phase_runtimes.items():
                report.phase_runtimes[phase] = (
                    report.phase_runtimes.get(phase, 0.0) + seconds)
            for stat, count in stats.items():
                report.stats[stat] = report.stats.get(stat, 0) + count

    with _pool_scope(pool, jobs) as pool:
        pool.ensure_job(key, build)
        restarts_before = pool.stats["worker_restarts"]
        run_round("run_faults", remaining)
        # Escalation round: the merged abort frontier, in canonical fault
        # order, re-fanned over the same warm job.
        if (effort is AtpgEffort.FULL
                and resolve_atpg_backend(atpg_backend).escalates):
            frontier = [f for f in remaining
                        if report.classifications.get(f) is FaultClass.AU]
            if frontier:
                run_round("run_escalation", frontier)
        restarts = pool.stats["worker_restarts"] - restarts_before
    if restarts:
        report.stats["worker_restarts"] = (
            report.stats.get("worker_restarts", 0) + restarts)

    report.stats["jobs_resolved"] = jobs
    if effort is AtpgEffort.FULL and patterns:
        phase_start = time.perf_counter()
        order = {fault: i for i, fault in enumerate(remaining)}
        patterns.sort(key=lambda entry: order[entry[0]])
        report.patterns, report.compaction = compact_patterns(
            netlist, patterns, kernel=kernel)
        report.phase_runtimes["compaction"] = (time.perf_counter()
                                               - phase_start)
    report.runtime_seconds = time.perf_counter() - start
    return report

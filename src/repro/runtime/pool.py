"""The persistent warm worker pool behind the sharded engines.

Every ``sharded_*`` call used to spin up a fresh ``ProcessPoolExecutor``,
re-pickle the netlist + job state into every worker and tear the pool down
again — fatal once a Session (or the analysis service) runs many rounds
against the same design.  :class:`WorkerPool` amortizes all of it:

workers start once
    A pool owns N long-lived worker processes (``fork`` where available,
    ``spawn`` elsewhere), each connected by one duplex pipe.  Workers are
    daemonic and die with the parent.

content-addressed installs
    Job state is installed into workers once per *content key* — the
    promotion of the old ``_install_job`` run-token mechanism in
    :mod:`repro.simulation.sharded` into a durable cache keyed like
    :mod:`repro.store` (sha256 over the netlist signature plus the job
    configuration).  The netlist itself is installed under its own
    ``net:<signature>`` key and jobs cross the pipe with a
    :class:`_NetlistRef` in its place, so ten jobs against one design ship
    the design once.  Bulk pattern data rides zero-copy shared-memory
    segments (:mod:`repro.runtime.shm`) when numpy is available; plain
    pickle otherwise.

parent-side work stealing
    Tasks are dispatched dynamically: the parent keeps a shared deque of
    pending chunks and feeds each worker a small prefetch window, so a
    worker that finishes early immediately pulls the next chunk — LPT at
    chunk granularity without static partitioning.

graceful degradation
    A worker that dies mid-round (OOM-killed, ``kill -9``) is detected by
    pipe EOF / liveness checks; its in-flight chunks are requeued onto the
    survivors, a replacement worker is spawned and re-provisioned from the
    parent's payload cache, and ``stats["worker_restarts"]`` counts the
    event instead of the round hanging.

Determinism note: the pool never reorders *verdict-relevant* work — the
schedulers built on top (:mod:`repro.runtime.scheduler` and the pooled
paths of :mod:`repro.simulation.sharded`) keep each fault in exactly one
chunk, and a simulation chunk walks its pattern windows in order inside
one task, which is what keeps results byte-identical to serial under any
steal order.  ``jitter_seed``
injects deterministic per-task delays to let tests sweep interleavings.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import threading
import time
import traceback
import multiprocessing
from collections import deque
from hashlib import sha256
from multiprocessing import connection as mp_connection
from typing import (Any, Callable, Dict, Iterator, List, Optional, Set,
                    Tuple)

#: Pool lifecycle modes accepted by the ``pool=`` knob everywhere.
POOL_MODES = ("ephemeral", "persistent")

#: Worker-side job-state cache bound (content keys, LRU).
DEFAULT_JOB_CACHE = 8

#: Worker-side netlist cache bound (``net:`` keys, LRU).
DEFAULT_NETLIST_CACHE = 4

#: Tasks kept in flight per worker: one executing, one queued behind it so
#: the worker never idles between a result and the next dispatch.
PREFETCH = 2


class WorkerTaskError(RuntimeError):
    """A task raised inside a pool worker; carries the remote traceback."""


class PoolClosedError(RuntimeError):
    """The pool was shut down; build a fresh one (see :func:`get_pool`)."""


def resolve_pool_mode(pool: object) -> Optional[str]:
    """Validate a pool spec string; ``None`` stays None (ephemeral path)."""
    if pool is None or isinstance(pool, WorkerPool):
        return pool  # type: ignore[return-value]
    name = str(pool).strip().lower()
    if name not in POOL_MODES:
        known = ", ".join(POOL_MODES)
        raise ValueError(
            f"unknown pool mode {pool!r}; expected one of: {known}")
    return name


class _NetlistRef:
    """Placeholder crossing the pipe where a job's netlist was."""

    __slots__ = ("key",)

    def __init__(self, key: str) -> None:
        self.key = key


class _InstallFailure:
    """Worker-side tombstone: an install blew up; tasks report why."""

    def __init__(self, text: str) -> None:
        self.text = text


def content_key(tag: str, netlist, *parts: Any) -> str:
    """Content address for worker-side job state, keyed like repro.store.

    sha256 over the netlist's structural signature plus the pickled
    configuration parts — identical inputs re-use the installed state,
    anything else is a distinct key.
    """
    from repro.netlist.compiled import netlist_signature

    digest = sha256()
    digest.update(tag.encode("ascii"))
    digest.update(netlist_signature(netlist).encode("ascii"))
    for part in parts:
        digest.update(pickle.dumps(part, protocol=4))
    return f"{tag}:{digest.hexdigest()}"


# --------------------------------------------------------------------- #
# worker side
# --------------------------------------------------------------------- #
def _revive(obj: Any, state: Dict[str, Any]) -> Any:
    ref = getattr(obj, "netlist", None)
    if isinstance(ref, _NetlistRef):
        obj.netlist = state[ref.key]
    return obj


def _worker_main(conn, worker_id: int, jitter_seed: Optional[int]) -> None:
    """Long-lived worker loop: installs state, executes tasks, until EOF."""
    state: Dict[str, Any] = {}
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "install":
            _, key, payload = message
            try:
                state[key] = _revive(pickle.loads(payload), state)
            except Exception:  # noqa: BLE001 - reported on first use
                state[key] = _InstallFailure(traceback.format_exc())
            continue
        if kind == "forget":
            state.pop(message[1], None)
            continue
        # ("task", seq, key, method, task)
        _, seq, key, method, task = message
        if jitter_seed is not None:
            # Deterministic per-(task, worker) delay so determinism tests
            # can sweep steal interleavings reproducibly.
            time.sleep(((seq * 2654435761 + worker_id * 40503 + jitter_seed)
                        % 7) * 0.002)
        try:
            job = state[key]
            if isinstance(job, _InstallFailure):
                raise RuntimeError(
                    f"install of {key!r} failed in worker:\n{job.text}")
            result = getattr(job, method)(task)
        except BaseException:  # noqa: BLE001 - shipped to the parent
            try:
                conn.send(("err", seq, traceback.format_exc()))
            except (OSError, ValueError):
                break
        else:
            try:
                conn.send(("ok", seq, result))
            except (OSError, ValueError):
                break
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


# --------------------------------------------------------------------- #
# parent side
# --------------------------------------------------------------------- #
class _RunHandle:
    """One scheduling session over an installed job key.

    ``submit`` enqueues ``(method, task)`` chunks; :meth:`results` yields
    ``(tag, task, result)`` as workers complete them — and keeps yielding
    for tasks submitted *from inside* the loop, so a driver may also feed
    follow-up work as results merge.
    """

    def __init__(self, pool: "WorkerPool", key: str) -> None:
        self._pool = pool
        self.key = key

    def submit(self, method: str, task: Any, tag: Any = None) -> int:
        return self._pool._submit(self.key, method, task, tag)

    def results(self) -> Iterator[Tuple[Any, Any, Any]]:
        while True:
            item = self._pool._next_result()
            if item is None:
                return
            yield item


class WorkerPool:
    """A persistent pool of warm workers with content-addressed state."""

    def __init__(self, workers: int, *, start_method: Optional[str] = None,
                 jitter_seed: Optional[int] = None) -> None:
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else "spawn"
        elif start_method not in methods:
            known = ", ".join(methods)
            raise ValueError(f"start method {start_method!r} unavailable "
                             f"on this platform (have: {known})")
        self.workers = max(1, int(workers))
        self.start_method = start_method
        self.jitter_seed = jitter_seed
        self._ctx = multiprocessing.get_context(start_method)
        self._procs: List[Optional[Any]] = [None] * self.workers
        self._conns: List[Optional[Any]] = [None] * self.workers
        self._started = False
        self._closed = False
        self._lock = threading.RLock()

        # Content-addressed install registry (insertion order = install
        # order, which keeps every job's netlist ahead of the job itself
        # when a replacement worker is re-provisioned).
        self._objects: Dict[str, Any] = {}
        self._payloads: Dict[str, Optional[bytes]] = {}
        self._job_netlist: Dict[str, str] = {}

        # Run-scoped scheduling state.
        self._seq = itertools.count(1)
        self._pending: deque = deque()
        self._task_info: Dict[int, Tuple[str, str, Any, Any]] = {}
        self._inflight: List[Set[int]] = [set() for _ in range(self.workers)]
        self._ready: deque = deque()

        self.stats: Dict[str, Any] = {
            "workers": self.workers,
            "start_method": start_method,
            "installs": 0,
            "install_hits": 0,
            "tasks": 0,
            "worker_restarts": 0,
            "cold_start_seconds": 0.0,
            "setup_seconds": 0.0,
            "last_setup_seconds": 0.0,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise PoolClosedError("worker pool is closed")

    def _ensure_started(self) -> None:
        if self._started:
            return
        started = time.perf_counter()
        for wid in range(self.workers):
            self._spawn(wid, provision=False)
        self._started = True
        self.stats["cold_start_seconds"] += time.perf_counter() - started

    def _spawn(self, wid: int, *, provision: bool) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, wid, self.jitter_seed),
            daemon=True, name=f"repro-pool-{wid}")
        process.start()
        child_conn.close()
        self._procs[wid] = process
        self._conns[wid] = parent_conn
        if provision:
            for key in list(self._objects):
                self._send(wid, ("install", key, self._payload(key)))

    def close(self) -> None:
        """Stop every worker and release installed state (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for wid, conn in enumerate(self._conns):
                if conn is None:
                    continue
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
            for wid, process in enumerate(self._procs):
                if process is None:
                    continue
                process.join(timeout=1.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=1.0)
                self._procs[wid] = None
                conn = self._conns[wid]
                if conn is not None:
                    try:
                        conn.close()
                    except OSError:
                        pass
                    self._conns[wid] = None
            self._release_objects(list(self._objects))
            self._pending.clear()
            self._task_info.clear()
            self._ready.clear()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def worker_pids(self) -> List[Optional[int]]:
        """Live worker PIDs (test hook for the kill -9 degradation path)."""
        with self._lock:
            self._ensure_started()
            return [process.pid if process is not None else None
                    for process in self._procs]

    # ------------------------------------------------------------------ #
    # content-addressed installs
    # ------------------------------------------------------------------ #
    def ensure_netlist(self, netlist) -> str:
        """Install (or re-use) a netlist under its structural signature."""
        from repro.netlist.compiled import netlist_signature

        key = f"net:{netlist_signature(netlist)}"
        with self._lock:
            self._check_open()
            if key in self._objects:
                self._objects[key] = netlist  # refresh, keep install order
                return key
            self._objects[key] = netlist
            self._payloads[key] = None
            self.stats["installs"] += 1
            if self._started:
                self._broadcast(("install", key, self._payload(key)))
        return key

    def ensure_job(self, key: str, build: Callable[[], Any]) -> str:
        """Install (or re-use) job state under a content key.

        ``build()`` runs only on a cache miss and must return an object
        whose ``netlist`` attribute is the target netlist; the pool strips
        the netlist into a shared ``net:`` install automatically.  The
        elapsed setup cost lands in ``stats["last_setup_seconds"]`` — ~0
        on a warm hit, which is what the ``pool_warm_grading`` bench stage
        pins.
        """
        started = time.perf_counter()
        with self._lock:
            self._check_open()
            self._ensure_started()
            if key in self._objects:
                job = self._objects.pop(key)
                self._objects[key] = job  # LRU refresh
                self.stats["install_hits"] += 1
                elapsed = time.perf_counter() - started
                self.stats["last_setup_seconds"] = elapsed
                self.stats["setup_seconds"] += elapsed
                return key
            job = build()
            netlist_key = self.ensure_netlist(job.netlist)
            self._objects[key] = job
            self._payloads[key] = None
            self._job_netlist[key] = netlist_key
            self.stats["installs"] += 1
            self._broadcast(("install", key, self._payload(key)))
            self._evict()
            elapsed = time.perf_counter() - started
            self.stats["last_setup_seconds"] = elapsed
            self.stats["setup_seconds"] += elapsed
        return key

    def _payload(self, key: str) -> bytes:
        payload = self._payloads.get(key)
        if payload is not None:
            return payload
        obj = self._objects[key]
        netlist_key = self._job_netlist.get(key)
        if netlist_key is None:
            payload = pickle.dumps(obj, protocol=4)
        else:
            original = obj.netlist
            obj.netlist = _NetlistRef(netlist_key)
            try:
                payload = pickle.dumps(obj, protocol=4)
            finally:
                obj.netlist = original
        self._payloads[key] = payload
        return payload

    def _evict(self) -> None:
        job_keys = [key for key in self._objects
                    if not key.startswith("net:")]
        while len(job_keys) > DEFAULT_JOB_CACHE:
            self._forget(job_keys.pop(0))
        net_keys = [key for key in self._objects if key.startswith("net:")]
        while len(net_keys) > DEFAULT_NETLIST_CACHE:
            victim = net_keys.pop(0)
            # Evicting a netlist orphans every job installed against it —
            # drop those first so a replacement worker never re-installs a
            # job whose netlist reference is gone.
            for key, netlist_key in list(self._job_netlist.items()):
                if netlist_key == victim:
                    self._forget(key)
            self._forget(victim)

    def _forget(self, key: str) -> None:
        self._broadcast(("forget", key))
        self._release_objects([key])

    def _release_objects(self, keys: List[str]) -> None:
        for key in keys:
            obj = self._objects.pop(key, None)
            self._payloads.pop(key, None)
            self._job_netlist.pop(key, None)
            release = getattr(obj, "release_shared", None)
            if callable(release):
                try:
                    release()
                except Exception:  # noqa: BLE001 - cleanup only
                    pass

    def _broadcast(self, message) -> None:
        for wid in range(self.workers):
            if self._conns[wid] is not None:
                self._send(wid, message)

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def session(self, key: str) -> "_PoolSession":
        """Serialize a scheduling run over one installed key."""
        return _PoolSession(self, key)

    def _submit(self, key: str, method: str, task: Any, tag: Any) -> int:
        seq = next(self._seq)
        self._task_info[seq] = (key, method, task, tag)
        self._pending.append(seq)
        self.stats["tasks"] += 1
        self._dispatch()
        return seq

    def _dispatch(self) -> None:
        for wid in range(self.workers):
            if self._conns[wid] is None:
                continue
            while self._pending and len(self._inflight[wid]) < PREFETCH:
                seq = self._pending.popleft()
                if seq not in self._task_info:
                    continue
                key, method, task, _tag = self._task_info[seq]
                self._inflight[wid].add(seq)
                if not self._send(wid, ("task", seq, key, method, task)):
                    # _send handled the death and requeued the task.
                    break

    def _next_result(self) -> Optional[Tuple[Any, Any, Any]]:
        while True:
            if self._ready:
                return self._ready.popleft()
            if not self._task_info:
                return None
            self._dispatch()
            watched = {conn: wid for wid, conn in enumerate(self._conns)
                       if conn is not None}
            if not watched:
                # Every worker died at once; respawn and redispatch.
                self._check_health()
                continue
            for conn in mp_connection.wait(list(watched), timeout=0.2):
                self._absorb(watched[conn])
            self._check_health()

    def _absorb(self, wid: int) -> None:
        conn = self._conns[wid]
        if conn is None:
            return
        try:
            message = conn.recv()
        except (EOFError, OSError):
            self._handle_death(wid)
            return
        kind, seq = message[0], message[1]
        self._inflight[wid].discard(seq)
        info = self._task_info.pop(seq, None)
        if info is None:
            return  # duplicate of a requeued task — first completion won
        _key, _method, task, tag = info
        if kind == "err":
            raise WorkerTaskError(
                f"pool worker task failed:\n{message[2]}")
        self._ready.append((tag, task, message[2]))

    def _check_health(self) -> None:
        for wid, process in enumerate(self._procs):
            if process is not None and not process.is_alive():
                # Drain anything the pipe still buffered before declaring
                # the worker dead — completed results must not be lost.
                conn = self._conns[wid]
                while conn is not None and conn.poll(0):
                    self._absorb(wid)
                    conn = self._conns[wid]
                if self._procs[wid] is not None:
                    self._handle_death(wid)
        self._dispatch()

    def _handle_death(self, wid: int) -> None:
        process = self._procs[wid]
        if process is None:
            return
        self._procs[wid] = None
        conn = self._conns[wid]
        self._conns[wid] = None
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if self._closed:
            return
        self.stats["worker_restarts"] += 1
        victims = sorted(self._inflight[wid],
                         key=lambda seq: 0 if seq in self._task_info else 1)
        self._inflight[wid] = set()
        requeue = [seq for seq in victims if seq in self._task_info]
        self._pending.extendleft(reversed(requeue))
        self._spawn(wid, provision=True)
        self._dispatch()

    def _send(self, wid: int, message) -> bool:
        """Send to one worker, draining its results to avoid write-write
        deadlock; on a broken pipe the death path requeues and respawns."""
        conn = self._conns[wid]
        if conn is None:
            return False
        try:
            while conn.poll(0):
                self._absorb(wid)
                conn = self._conns[wid]
                if conn is None:
                    return False
            conn.send(message)
        except (OSError, ValueError):
            self._handle_death(wid)
            return False
        return True


class _PoolSession:
    """Context manager pairing the pool's run lock with a clean abort."""

    def __init__(self, pool: WorkerPool, key: str) -> None:
        self._pool = pool
        self._key = key
        self._handle: Optional[_RunHandle] = None

    def __enter__(self) -> _RunHandle:
        self._pool._lock.acquire()
        self._pool._check_open()
        self._pool._ensure_started()
        self._handle = _RunHandle(self._pool, self._key)
        return self._handle

    def __exit__(self, exc_type, exc, tb) -> None:
        pool = self._pool
        try:
            if exc_type is not None:
                # Abort: drop run state so a later session never sees a
                # stale task; in-flight workers finish and their late
                # results are discarded as unknown sequence numbers.
                pool._pending.clear()
                pool._task_info.clear()
                pool._ready.clear()
                for inflight in pool._inflight:
                    inflight.clear()
        finally:
            pool._lock.release()


# --------------------------------------------------------------------- #
# the process-global pool registry (what ``pool="persistent"`` resolves to)
# --------------------------------------------------------------------- #
_POOLS: Dict[Tuple[str, int], WorkerPool] = {}
_POOLS_LOCK = threading.Lock()


def get_pool(workers: Optional[int] = None,
             start_method: Optional[str] = None) -> WorkerPool:
    """The shared persistent pool for ``(start_method, workers)``.

    Owned by the process (one registry per interpreter, shut down at
    exit): every Session and every service job asking for the same shape
    re-uses the same warm workers and their installed state.
    """
    if workers is None:
        workers = max(1, os.cpu_count() or 1)
    workers = max(1, int(workers))
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else "spawn"
    with _POOLS_LOCK:
        key = (start_method, workers)
        pool = _POOLS.get(key)
        if pool is None or pool.closed:
            pool = WorkerPool(workers, start_method=start_method)
            _POOLS[key] = pool
        return pool


def shutdown_pools() -> None:
    """Close every registry pool (idempotent; also runs at interpreter exit)."""
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.close()


def pool_stats() -> List[Dict[str, Any]]:
    """Stats snapshot of every live registry pool (service introspection)."""
    with _POOLS_LOCK:
        return [dict(pool.stats) for pool in _POOLS.values()
                if not pool.closed]


atexit.register(shutdown_pools)

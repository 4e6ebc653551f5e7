"""Per-pass result caching keyed on netlist signature + run configuration.

Serving many scenario variants of the same core means the expensive
artifacts (fault universe, baseline ATPG classification, per-source
analyses) are recomputed over and over.  :class:`ArtifactCache` memoises
each pass's :class:`~repro.pipeline.base.PassResult` under a key derived
from

* a structural signature of the target netlist (ports, instances,
  connectivity, tied nets — anything circuit manipulation can change),
* the run configuration that influences the analyses (ATPG effort, the
  Fig. 6 tie knobs, a restricted fault universe), and
* the pass name.

A pipeline constructed with a cache can therefore re-run on the same core
— or on a clone with the same structure — and replay every pass result
without touching the ATPG engine.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import queue
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

# The structural digest lives with the compiled-netlist IR (which keys its
# own cache on it); re-exported here because this module is its historical
# home and everything cache-related imports it from here.
from repro.netlist.compiled import netlist_signature  # noqa: F401

CacheKey = Tuple[str, str, str]  # (netlist signature, config key, pass name)


def memory_map_key(memory_map) -> str:
    """A content-based key for a memory map ('' when there is none).

    Built from the address width and the region contents, never from object
    identity: two structurally equal maps must hash the same (so scenario
    variants reuse cached results) and a different map allocated at a
    recycled address must not collide.
    """
    if memory_map is None:
        return ""
    regions = ";".join(
        f"{region.name}:{region.base}:{region.size}"
        for region in sorted(memory_map.regions,
                             key=lambda r: (r.base, r.size, r.name)))
    return f"w{memory_map.address_width}[{regions}]"


def fault_restriction_key(faults: Optional[Iterable] = None) -> str:
    """Digest of an explicitly restricted fault universe ('' = full list)."""
    if faults is None:
        return ""
    hasher = hashlib.sha256()
    # Sort on the serialized form: fault objects of different models are
    # not mutually orderable, but their strings always are.
    for fault in sorted(faults, key=str):
        hasher.update(repr(fault).encode())
        hasher.update(b"\x00")
    return hasher.hexdigest()


class _StoreWriter:
    """The write-behind lane shared by every store-backed cache.

    Computing threads enqueue ``(store, key, value, on_done)`` and return
    to their caller immediately; one daemon thread, started on first use,
    serializes and publishes in arrival order, then runs ``on_done``
    (which releases the key's cross-process single-flight lock, so no
    other process recomputes a value that is still in flight to disk).
    The lane holds a store only while its writes are queued, so a cache
    and its store are freed once the owning session is dropped.
    :meth:`flush` blocks until everything enqueued before it has landed —
    registered once via ``atexit`` so a process never exits with warm
    artifacts stuck in the queue.
    """

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        # Also the fork hook: a forked child starts with an empty lane of
        # its own (the parent's thread is not running in the child, and the
        # parent still publishes whatever it had queued).
        self._lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue()
        self._thread: Optional[threading.Thread] = None

    def _run(self, jobs: "queue.Queue") -> None:
        while True:
            store, key, value, on_done = jobs.get()
            try:
                if store is not None:
                    store.put(key, value)
            except Exception:  # noqa: BLE001 — a failed write is a cold entry
                pass
            finally:
                if on_done is not None:
                    on_done()
                # Drop the references before blocking on the next item: an
                # idle lane must not keep the last store alive.
                store = value = on_done = None

    def submit(self, store, key: CacheKey, value: Any, on_done=None) -> None:
        with self._lock:
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, args=(self._queue,), daemon=True,
                    name="repro-store-writer")
                self._thread.start()
            self._queue.put((store, key, value, on_done))

    def flush(self) -> None:
        with self._lock:
            if self._thread is None:
                return
            landed = threading.Event()
            self._queue.put((None, None, None, landed.set))
        landed.wait()


_WRITER = _StoreWriter()
atexit.register(_WRITER.flush)
os.register_at_fork(after_in_child=_WRITER._reset)


class ArtifactCache:
    """Thread-safe LRU pass-result cache with hit/miss accounting.

    One cache may be shared by many concurrent pipeline runs — a
    :class:`repro.api.Session` hands the same instance to every scenario of
    a sweep, so a ``ThreadExecutor`` sweep replays artifacts a sibling
    scenario computed moments earlier.  The store is guarded by a lock and
    bounded: when ``max_entries`` is set, the least-recently-used entry is
    evicted on insert, so long sweeps cannot grow memory without bound.

    Because each pipeline run executes every pass at most once (and only
    publishes after running), any *hit* observed while sweeping distinct
    scenarios is by construction a replay of an artifact some earlier
    scenario produced — :meth:`repro.api.Session.sweep` snapshots
    :attr:`stats` around the sweep to report exactly that reuse.

    With a durable ``store`` (:mod:`repro.store`) attached, the cache
    becomes the hot tier of a two-level hierarchy: misses *read through*
    to the store (a warm artifact from an earlier process replays without
    recomputation and is promoted into memory), and computed values are
    *written behind* by a background thread so callers never wait on
    serialization.  ``get_or_compute`` extends its single-flight guarantee
    across processes via the store's per-key lock.  Store activity shows
    up in :attr:`stats` under ``store_*`` keys; :meth:`clear` only drops
    the in-memory tier.
    """

    def __init__(self, max_entries: Optional[int] = None,
                 store=None) -> None:
        from repro.store import resolve_store

        self._entries: "OrderedDict[CacheKey, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._inflight: Dict[CacheKey, threading.Event] = {}
        self.max_entries = max_entries
        self.store = resolve_store(store)
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: CacheKey) -> Optional[Any]:
        with self._lock:
            if key in self._entries:
                self.hits += 1
                self._entries.move_to_end(key)
                return self._entries[key]
            self.misses += 1
        if self.store is not None:
            value = self.store.get(key)
            if value is not None:
                self.put(key, value)
                return value
        return None

    def get_or_compute(self, key: CacheKey, factory,
                       persist: bool = True) -> Tuple[Any, bool]:
        """Return ``(value, was_hit)``, computing and storing on a miss.

        Concurrent callers of the same key are *single-flighted*: one
        computes, the rest block and then replay the stored value (counted
        as hits).  That keeps a thread-pool sweep from duplicating an
        expensive pass when two scenario variants sharing a netlist reach
        it simultaneously.  If the computing caller fails, one waiter takes
        over; the failure propagates to the caller that raised it.

        With a store attached the same discipline extends across
        processes: the computing thread holds the key's store lock, checks
        whether a sibling process already published the artifact (replayed
        as a hit), and otherwise computes and hands the value to the
        write-behind lane — the lock is released only once the artifact is
        durable, so concurrent processes compute each key exactly once.
        ``persist=False`` keeps a value out of the durable tier entirely
        (process-local handles that cannot or should not be serialized).
        """
        while True:
            with self._lock:
                if key in self._entries:
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return self._entries[key], True
                waiter = self._inflight.get(key)
                if waiter is None:
                    self._inflight[key] = threading.Event()
                    self.misses += 1
                    break
            waiter.wait()
        try:
            if self.store is None or not persist:
                value, hit = factory(), False
            else:
                value, hit = self._compute_through_store(key, factory)
        except BaseException:
            self._finish(key)
            raise
        self.put(key, value)
        self._finish(key)
        return value, hit

    def _compute_through_store(self, key: CacheKey,
                               factory) -> Tuple[Any, bool]:
        """Read-through / write-behind miss path under the store lock."""
        lock = self.store.lock(key)
        lock.__enter__()
        try:
            stored = self.store.get(key)
            if stored is not None:
                return stored, True
            value = factory()
        except BaseException:
            lock.__exit__(None, None, None)
            raise
        # Publish asynchronously; the cross-process lock travels with the
        # write so sibling processes block until the artifact is durable
        # (then read it) instead of recomputing.
        _WRITER.submit(self.store, key, value,
                       on_done=lambda: lock.__exit__(None, None, None))
        return value, False

    def _finish(self, key: CacheKey) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    def put(self, key: CacheKey, value: Any) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            elif (self.max_entries is not None
                    and len(self._entries) >= self.max_entries):
                self._entries.popitem(last=False)  # least recently used
                self.evictions += 1
            self._entries[key] = value

    def flush(self) -> None:
        """Block until every write-behind publication has landed on disk."""
        if self.store is not None:
            _WRITER.flush()

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def stats(self) -> Dict[str, int]:
        with self._lock:
            stats = {"entries": len(self._entries),
                     "hits": self.hits, "misses": self.misses,
                     "evictions": self.evictions}
        if self.store is not None:
            stats.update({f"store_{name}": count
                          for name, count in self.store.stats.items()})
        return stats

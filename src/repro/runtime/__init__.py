"""Persistent parallel runtime: warm worker pools, shared-memory payloads
and the work-stealing chunk scheduler behind the ``pool=persistent`` knob.

See :mod:`repro.runtime.pool` for the pool itself,
:mod:`repro.runtime.scheduler` for chunk construction and
:mod:`repro.runtime.shm` for the zero-copy pattern transport.
"""

from repro.runtime.pool import (DEFAULT_JOB_CACHE, DEFAULT_NETLIST_CACHE,
                                POOL_MODES, PoolClosedError, WorkerPool,
                                WorkerTaskError, content_key, get_pool,
                                pool_stats, resolve_pool_mode,
                                shutdown_pools)
from repro.runtime.scheduler import (MONSTER_RATIO, build_chunks,
                                     default_chunk_size,
                                     simulation_chunk_size)
from repro.runtime.shm import (ShmPatterns, ShmWindows, share_patterns,
                               share_windows, shared_memory_available)

__all__ = [
    "DEFAULT_JOB_CACHE",
    "DEFAULT_NETLIST_CACHE",
    "MONSTER_RATIO",
    "POOL_MODES",
    "PoolClosedError",
    "ShmPatterns",
    "ShmWindows",
    "WorkerPool",
    "WorkerTaskError",
    "build_chunks",
    "content_key",
    "default_chunk_size",
    "get_pool",
    "pool_stats",
    "resolve_pool_mode",
    "share_patterns",
    "share_windows",
    "shared_memory_available",
    "shutdown_pools",
    "simulation_chunk_size",
]

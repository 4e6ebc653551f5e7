"""Cone-affine chunk construction for the work-stealing fault scheduler.

The static partitioner (:func:`repro.simulation.sharded.partition_faults`)
cuts the population into one slice per worker before the run starts; a
worker that draws a monster cone then strands the rest of the pool behind
it.  The pooled paths instead cut the population into many *small* chunks
pulled dynamically from the parent's deque (:mod:`repro.runtime.pool`), so
load balance emerges at runtime:

- faults sharing a fanout cone stay in one chunk (cone affinity — the
  workers' per-window good-machine memo and cone walks stay hot);
- monster-cone faults (estimated cost >= :data:`MONSTER_RATIO` x the mean)
  become singleton chunks scheduled *first*, longest-processing-time-first
  at chunk granularity, so the tail of the round is made of cheap chunks;
- everything is deterministic: identical inputs produce identical chunks
  in an identical dispatch order, and each fault lives in exactly one
  chunk, which is what keeps pooled verdicts byte-identical to serial no
  matter which worker steals which chunk.

Chunks are tuples of *positions* into the caller's fault list, ascending
within each chunk (matching the shard convention).

Two sizing rules: classification (per-fault ATPG, expensive) keeps small
chunks (:func:`default_chunk_size`, at most 64 faults), while pooled
fault simulation (:func:`simulation_chunk_size`) cuts ~8 chunks per worker
and never fewer faults than fill the numpy kernel's lane width, because
each simulation chunk is one task that walks every pattern window.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults.models import Fault
from repro.netlist.compiled import CompiledNetlist, get_compiled
from repro.netlist.module import Netlist
from repro.simulation.fault_sim import resolve_site

#: A fault whose estimated per-fault cost is this many times the population
#: mean is scheduled as its own singleton chunk, ahead of everything else.
MONSTER_RATIO = 8

#: Target chunks per worker for pooled fault-simulation jobs.
SIM_CHUNKS_PER_WORKER = 8


def default_chunk_size(workers: int, n_items: int) -> int:
    """Classification chunk granularity: ~16 chunks per worker, clamped to
    [1, 64].

    Small enough that stealing can rebalance a skewed round, large enough
    that per-task dispatch overhead stays negligible next to the per-fault
    ATPG search.
    """
    if n_items <= 0:
        return 1
    return max(1, min(64, math.ceil(n_items / (max(1, int(workers)) * 16))))


def simulation_chunk_size(workers: int, n_items: int, lanes: int) -> int:
    """Fault-simulation chunk granularity: ~8 chunks per worker, and never
    fewer faults than fill the kernel's ``lanes``.

    A pooled simulation task walks its chunk's whole window sequence with
    one kernel call per window, so a chunk narrower than the kernel's lane
    width (:data:`~repro.simulation.kernels.WORD_LANES` /
    :data:`~repro.simulation.kernels.PLANE_LANES`) leaves batch sweeps
    part-empty: per-fault cost there is far below ATPG's, and the classify
    rule's 64-fault cap would starve the kernel.
    """
    if n_items <= 0:
        return 1
    per_worker = math.ceil(n_items / (max(1, int(workers))
                                      * SIM_CHUNKS_PER_WORKER))
    return max(1, int(lanes), per_worker)


def plan_chunks(compiled: CompiledNetlist, sites: Sequence[Tuple],
                chunk_size: int) -> List[Tuple[int, ...]]:
    """:func:`build_chunks` over already-resolved fault sites."""
    if not sites:
        return []
    from repro.simulation.sharded import cone_representative

    chunk_size = max(1, int(chunk_size))
    sizes = compiled.fanout_cone_sizes()
    groups: Dict[int, List[int]] = {}
    per_fault_cost: Dict[int, int] = {}
    for position, site in enumerate(sites):
        rep = cone_representative(compiled, site)
        groups.setdefault(rep, []).append(position)
        if rep not in per_fault_cost:
            per_fault_cost[rep] = sizes[rep] + 1 if rep >= 0 else 1

    mean_cost = sum(per_fault_cost[rep] * len(members)
                    for rep, members in groups.items()) / len(sites)

    monsters: List[Tuple[int, int, int]] = []  # (cost, rep, position)
    rest: List[Tuple[int, int, List[int]]] = []  # (group cost, rep, members)
    for rep, members in sorted(groups.items()):
        cost = per_fault_cost[rep]
        if cost >= MONSTER_RATIO * max(mean_cost, 1e-9):
            monsters.extend((cost, rep, position) for position in members)
        else:
            rest.append((cost * len(members), rep, members))

    monsters.sort(key=lambda item: (-item[0], item[1], item[2]))
    chunks: List[Tuple[int, ...]] = [(position,)
                                     for _, _, position in monsters]

    # Pack the remaining cone groups whole into <= chunk_size-fault chunks,
    # heaviest group first into the lightest chunk with room (LPT; ties go
    # to the earliest-created chunk); a group larger than a chunk splits
    # into consecutive runs.  The heap holds (cost, creation index) of
    # every chunk that may still take a group: a chunk whose room is below
    # every later group's size can never be picked again and is dropped.
    rest.sort(key=lambda item: (-item[0], item[1]))
    later_min = [chunk_size + 1] * (len(rest) + 1)
    for index in range(len(rest) - 1, -1, -1):
        size = len(rest[index][2])
        later_min[index] = (min(size, later_min[index + 1])
                            if size <= chunk_size else later_min[index + 1])
    packed: List[List] = []  # [cost, positions]
    heap: List[Tuple[int, int]] = []
    for index, (group_cost, rep, members) in enumerate(rest):
        need = len(members)
        if need > chunk_size:
            for offset in range(0, need, chunk_size):
                piece = members[offset:offset + chunk_size]
                heapq.heappush(heap, (per_fault_cost[rep] * len(piece),
                                      len(packed)))
                packed.append([per_fault_cost[rep] * len(piece), piece])
            continue
        floor = later_min[index + 1]
        skipped = []
        best = None
        while heap:
            entry = heapq.heappop(heap)
            room = chunk_size - len(packed[entry[1]][1])
            if room >= need:
                best = entry[1]
                break
            if room >= floor:
                skipped.append(entry)
        for entry in skipped:
            heapq.heappush(heap, entry)
        if best is None:
            best = len(packed)
            packed.append([group_cost, list(members)])
        else:
            packed[best][0] += group_cost
            packed[best][1].extend(members)
        if chunk_size - len(packed[best][1]) >= floor:
            heapq.heappush(heap, (packed[best][0], best))

    packed.sort(key=lambda entry: (-entry[0], entry[1]))
    for _, positions in packed:
        chunks.append(tuple(sorted(positions)))
    return chunks


def build_chunks(netlist: Netlist, faults: Iterable[Fault],
                 chunk_size: int,
                 compiled: Optional[CompiledNetlist] = None
                 ) -> List[Tuple[int, ...]]:
    """Cut ``faults`` into cone-affine chunks in steal-dispatch order.

    Returns position tuples into the input order; the list order *is* the
    dispatch order (monster singletons first, then packed chunks by
    descending estimated cost).  Every position appears in exactly one
    chunk.
    """
    if compiled is None:
        compiled = get_compiled(netlist)
    return plan_chunks(compiled,
                       [resolve_site(compiled, fault) for fault in faults],
                       chunk_size)

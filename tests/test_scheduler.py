"""Chunk planning for the work-stealing pool (:mod:`repro.runtime.scheduler`).

Three contracts under test:

* **Heap packing is the scan, faster.**  :func:`build_chunks` packs cone
  groups into chunks with a ``(cost, creation index)`` heap.  The
  quadratic lightest-chunk scan it replaced is kept below as a reference
  copy; both must produce identical chunk lists, in identical dispatch
  order, on the tiny and date13 fault lists.
* **Cone affinity.**  Faults sharing a fanout cone share a chunk whenever
  their cone group fits one (monster-cone faults aside, which run as
  singletons).
* **The simulation sizing rule.**  Pooled fault-simulation jobs size
  chunks to ~8 per worker and never narrower than the kernel's lane
  width; an explicit ``chunk`` wins.  Classification keeps
  :func:`default_chunk_size`.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.faults.faultlist import generate_fault_list
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.compiled import get_compiled
from repro.runtime import (MONSTER_RATIO, WorkerPool, build_chunks,
                           simulation_chunk_size)
from repro.runtime.scheduler import SIM_CHUNKS_PER_WORKER, cone_representative
from repro.simulation.fault_sim import resolve_site
from repro.simulation.kernels import PLANE_LANES, WORD_LANES
from repro.soc.config import SoCConfig
from repro.soc.soc_builder import build_soc

pytestmark = pytest.mark.filterwarnings(
    "ignore:jobs=.* exceeds os.cpu_count")


def _reference_build_chunks(netlist, faults, chunk_size):
    """The lightest-chunk *scan* packer, kept verbatim as the oracle."""
    fault_list = list(faults)
    if not fault_list:
        return []
    compiled = get_compiled(netlist)
    chunk_size = max(1, int(chunk_size))

    sizes = compiled.fanout_cone_sizes()
    groups: dict = {}
    per_fault_cost: dict = {}
    for position, fault in enumerate(fault_list):
        rep = cone_representative(compiled, resolve_site(compiled, fault))
        groups.setdefault(rep, []).append(position)
        if rep not in per_fault_cost:
            per_fault_cost[rep] = sizes[rep] + 1 if rep >= 0 else 1

    mean_cost = sum(per_fault_cost[rep] * len(members)
                    for rep, members in groups.items()) / len(fault_list)

    monsters = []
    rest = []
    for rep, members in sorted(groups.items()):
        cost = per_fault_cost[rep]
        if cost >= MONSTER_RATIO * max(mean_cost, 1e-9):
            monsters.extend((cost, rep, position) for position in members)
        else:
            rest.append((cost * len(members), rep, members))

    monsters.sort(key=lambda item: (-item[0], item[1], item[2]))
    chunks = [(position,) for _, _, position in monsters]

    rest.sort(key=lambda item: (-item[0], item[1]))
    packed = []
    for group_cost, rep, members in rest:
        if len(members) > chunk_size:
            for offset in range(0, len(members), chunk_size):
                piece = members[offset:offset + chunk_size]
                packed.append([per_fault_cost[rep] * len(piece), piece])
            continue
        best = None
        for entry in packed:
            if (len(entry[1]) + len(members) <= chunk_size
                    and (best is None or entry[0] < best[0])):
                best = entry
        if best is None:
            packed.append([group_cost, list(members)])
        else:
            best[0] += group_cost
            best[1] = best[1] + members

    packed.sort(key=lambda entry: (-entry[0], entry[1]))
    for _, positions in packed:
        chunks.append(tuple(sorted(positions)))
    return chunks


@pytest.fixture(scope="module")
def date13_cpu():
    return build_soc(SoCConfig.date13()).cpu


class TestHeapPacking:
    @pytest.mark.parametrize("chunk_size", (8, 64, 4096))
    @pytest.mark.parametrize("model", ("stuck_at", "transition"))
    def test_matches_the_scan_on_tiny(self, tiny_soc, model, chunk_size):
        faults = generate_fault_list(tiny_soc.cpu, model=model).faults()
        assert (build_chunks(tiny_soc.cpu, faults, chunk_size)
                == _reference_build_chunks(tiny_soc.cpu, faults, chunk_size))

    @pytest.mark.parametrize("chunk_size", (8, 64, 4096))
    def test_matches_the_scan_on_date13(self, date13_cpu, chunk_size):
        faults = generate_fault_list(date13_cpu).faults()
        chunks = build_chunks(date13_cpu, faults, chunk_size)
        assert chunks == _reference_build_chunks(date13_cpu, faults,
                                                 chunk_size)
        assert sorted(p for chunk in chunks for p in chunk) == list(
            range(len(faults)))

    def test_ties_keep_creation_order(self, tiny_soc):
        # Tiny chunk sizes force many equal-cost chunks and splits: the
        # heap must still break every tie the way the scan did.
        faults = generate_fault_list(tiny_soc.cpu).faults()[::3]
        for chunk_size in (1, 2, 3, 5):
            assert (build_chunks(tiny_soc.cpu, faults, chunk_size)
                    == _reference_build_chunks(tiny_soc.cpu, faults,
                                               chunk_size))

    def test_empty_population(self, tiny_soc):
        assert build_chunks(tiny_soc.cpu, [], 8) == []


class TestConeAffinity:
    @pytest.mark.parametrize("chunk_size", (8, 64))
    def test_faults_sharing_a_cone_share_a_chunk(self, tiny_soc,
                                                 chunk_size):
        cpu = tiny_soc.cpu
        faults = generate_fault_list(cpu).faults()
        compiled = get_compiled(cpu)
        sizes = compiled.fanout_cone_sizes()
        reps = [cone_representative(compiled, resolve_site(compiled, fault))
                for fault in faults]
        costs = [sizes[rep] + 1 if rep >= 0 else 1 for rep in reps]
        mean = sum(costs) / len(costs)
        groups: dict = {}
        for position, rep in enumerate(reps):
            groups.setdefault(rep, []).append(position)
        chunk_of = {position: index for index, chunk
                    in enumerate(build_chunks(cpu, faults, chunk_size))
                    for position in chunk}
        checked = 0
        for members in groups.values():
            if (len(members) > chunk_size
                    or costs[members[0]] >= MONSTER_RATIO * mean):
                continue
            assert len({chunk_of[position] for position in members}) == 1
            checked += len(members) > 1
        assert checked  # some multi-fault cone groups were really tested


class TestSimulationChunkSize:
    def test_lane_floor(self):
        assert simulation_chunk_size(2, 100, WORD_LANES) == WORD_LANES
        assert simulation_chunk_size(4, 1000, PLANE_LANES) == PLANE_LANES
        assert simulation_chunk_size(2, 0, WORD_LANES) == 1

    def test_about_eight_chunks_per_worker(self):
        for workers, n_items in ((2, 68_404), (4, 200_000), (1, 50_000)):
            size = simulation_chunk_size(workers, n_items, WORD_LANES)
            assert size == math.ceil(n_items
                                     / (workers * SIM_CHUNKS_PER_WORKER))
            assert math.ceil(n_items / size) == (workers
                                                 * SIM_CHUNKS_PER_WORKER)

    def test_date13_grade_sizing(self):
        # 68,404 faults on two workers: ~4,300 faults per chunk.
        assert simulation_chunk_size(2, 68_404, WORD_LANES) == 4276

    def test_explicit_chunk_wins(self, tiny_soc):
        from repro.simulation.fault_sim import FaultSimulator
        from repro.simulation.sharded import ShardedFaultSimulator

        cpu = tiny_soc.cpu
        faults = generate_fault_list(cpu).faults()[::4][:300]
        rng = random.Random(7)
        controllable = [p for p in cpu.input_ports()
                        if cpu.net(p).tied is None]
        controllable += FaultSimulator(cpu).sim.state_nets
        patterns = [{net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
                     for net in controllable} for _ in range(5)]
        # Two-pattern windows: three windows, still one task per chunk.
        serial = FaultSimulator(cpu, word_size=2).run(faults, patterns)
        pool = WorkerPool(2)
        try:
            for chunk, expected in (
                    (7, len(build_chunks(cpu, faults, 7))),
                    (None, len(build_chunks(
                        cpu, faults,
                        simulation_chunk_size(2, len(faults),
                                              PLANE_LANES))))):
                before = pool.stats["tasks"]
                result = ShardedFaultSimulator(
                    cpu, jobs=2, pool=pool, chunk=chunk,
                    word_size=2).run(faults, patterns)
                # One task per chunk, whatever the window count.
                assert pool.stats["tasks"] - before == expected
                assert result.detected == serial.detected
                assert result.detecting_pattern == serial.detecting_pattern
        finally:
            pool.close()

"""The persistent warm worker-pool runtime (:mod:`repro.runtime`).

Three contracts under test:

* **Byte-identity under any steal order.**  The pooled engines must
  reproduce the serial reference exactly — detected/undetected sets,
  recorded detecting-pattern indices and classification dicts — no matter
  which worker steals which chunk.  Hypothesis sweeps the deterministic
  jitter seed (per-task delays that permute completion order) and the
  chunk granularity, across both fault models and both kernels.
* **Warm re-use.**  Installing job state twice under one content key must
  hit the worker-side cache, and the warm setup path must be dramatically
  cheaper than the cold install.
* **Degradation.**  ``kill -9`` of a worker mid-round must requeue its
  in-flight chunks onto the survivors, spawn a replacement and count a
  ``worker_restarts`` — never hang, never lose or duplicate a result.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.faultlist import generate_fault_list
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.compiled import get_compiled
from repro.runtime import (MONSTER_RATIO, PoolClosedError, WorkerPool,
                           build_chunks, content_key, default_chunk_size,
                           get_pool, pool_stats, resolve_pool_mode,
                           shutdown_pools)
from repro.simulation.fault_sim import FaultSimulator, resolve_site
from repro.simulation.kernels import numpy_available
from repro.simulation.sharded import (ShardedFaultSimulator,
                                      cone_representative, sharded_classify)

KERNELS = ("int",) + (("numpy",) if numpy_available() else ())

# These tests pin jobs=2 to exercise two genuine workers even on boxes
# whose cpu_count would cap the request; the cap warning is expected.
pytestmark = pytest.mark.filterwarnings(
    "ignore:jobs=.* exceeds os.cpu_count")


@pytest.fixture(scope="module")
def tiny_cpu(tiny_soc):
    return tiny_soc.cpu


@pytest.fixture(scope="module")
def tiny_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu).faults()


@pytest.fixture(scope="module")
def transition_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu, model="transition").faults()


@pytest.fixture(scope="module")
def tiny_patterns(tiny_cpu):
    rng = random.Random(2013)
    sim = FaultSimulator(tiny_cpu)
    controllable = [p for p in tiny_cpu.input_ports()
                    if tiny_cpu.net(p).tied is None]
    controllable += sim.sim.state_nets
    return [{net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
             for net in controllable}
            for _ in range(70)]


# --------------------------------------------------------------------- #
# content addressing
# --------------------------------------------------------------------- #
class TestContentKey:
    def test_stable_and_tagged(self, tiny_cpu):
        first = content_key("job", tiny_cpu, "int", 64)
        second = content_key("job", tiny_cpu, "int", 64)
        assert first == second
        assert first.startswith("job:")

    def test_sensitive_to_every_part(self, tiny_cpu):
        base = content_key("job", tiny_cpu, "int", 64)
        assert content_key("job", tiny_cpu, "numpy", 64) != base
        assert content_key("job", tiny_cpu, "int", 32) != base
        assert content_key("grade", tiny_cpu, "int", 64) != base

    def test_sensitive_to_the_netlist(self, tiny_cpu):
        # A structurally identical clone shares the signature, so a warm
        # pool can serve it from the worker-side cache.
        clone = tiny_cpu.clone(tiny_cpu.name)
        assert (content_key("job", clone, 1)
                == content_key("job", tiny_cpu, 1))
        renamed = tiny_cpu.clone("renamed")
        assert (content_key("job", renamed, 1)
                != content_key("job", tiny_cpu, 1))

    def test_resolve_pool_mode(self):
        assert resolve_pool_mode(None) is None
        assert resolve_pool_mode("persistent") == "persistent"
        assert resolve_pool_mode(" Ephemeral ") == "ephemeral"
        pool = WorkerPool(1)
        try:
            assert resolve_pool_mode(pool) is pool
        finally:
            pool.close()
        with pytest.raises(ValueError, match="unknown pool mode"):
            resolve_pool_mode("forever")


# --------------------------------------------------------------------- #
# the work-stealing chunk scheduler
# --------------------------------------------------------------------- #
class TestChunkScheduler:
    def test_default_chunk_size_bounds(self):
        assert default_chunk_size(4, 0) == 1
        assert default_chunk_size(1, 1) == 1
        assert 1 <= default_chunk_size(4, 10_000) <= 64
        assert default_chunk_size(2, 100_000) == 64

    def test_chunks_are_exact_and_deterministic(self, tiny_cpu,
                                                tiny_faults):
        first = build_chunks(tiny_cpu, tiny_faults, 16)
        second = build_chunks(tiny_cpu, tiny_faults, 16)
        assert first == second
        scattered = sorted(p for chunk in first for p in chunk)
        assert scattered == list(range(len(tiny_faults)))

    def test_positions_ascend_within_chunks(self, tiny_cpu, tiny_faults):
        for chunk in build_chunks(tiny_cpu, tiny_faults, 16):
            assert list(chunk) == sorted(chunk)

    def test_monsters_lead_the_dispatch_order(self, tiny_cpu, tiny_faults):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()

        def cost(position):
            rep = cone_representative(
                compiled, resolve_site(compiled, tiny_faults[position]))
            return sizes[rep] + 1 if rep >= 0 else 1

        costs = [cost(p) for p in range(len(tiny_faults))]
        mean = sum(costs) / len(costs)
        monsters = {p for p, c in enumerate(costs)
                    if c >= MONSTER_RATIO * mean}
        chunks = build_chunks(tiny_cpu, tiny_faults, 16)
        seen_regular = False
        for chunk in chunks:
            if len(chunk) == 1 and chunk[0] in monsters:
                assert not seen_regular, (
                    "monster singleton dispatched after a packed chunk")
            else:
                seen_regular = True
        for monster in monsters:
            assert (monster,) in chunks

    def test_chunk_size_is_respected_outside_monsters(self, tiny_cpu,
                                                      tiny_faults):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()
        costs = []
        for fault in tiny_faults:
            rep = cone_representative(compiled,
                                      resolve_site(compiled, fault))
            costs.append(sizes[rep] + 1 if rep >= 0 else 1)
        mean = sum(costs) / len(costs)
        chunks = build_chunks(tiny_cpu, tiny_faults, 8)
        for chunk in chunks:
            if len(chunk) == 1 and costs[chunk[0]] >= MONSTER_RATIO * mean:
                continue
            assert len(chunk) <= 8


# --------------------------------------------------------------------- #
# pool lifecycle + content-addressed installs
# --------------------------------------------------------------------- #
class TestPoolLifecycle:
    def test_install_then_warm_hit(self, tiny_cpu, tiny_faults,
                                   tiny_patterns):
        pool = WorkerPool(2)
        try:
            sim = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool)
            sample = tiny_faults[::7][:40]
            first = sim.run(sample, tiny_patterns)
            installs = pool.stats["installs"]
            assert installs >= 2  # the netlist + the job
            assert pool.stats["install_hits"] == 0
            second = sim.run(sample, tiny_patterns)
            assert pool.stats["installs"] == installs  # nothing new
            assert pool.stats["install_hits"] == 1
            # The warm re-entry's setup is a cache hit: microseconds.
            assert pool.stats["last_setup_seconds"] < 0.05
            assert second.detected == first.detected
            assert second.detecting_pattern == first.detecting_pattern
        finally:
            pool.close()

    def test_closed_pool_raises(self):
        pool = WorkerPool(1)
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(PoolClosedError):
            pool.ensure_job("job:x", lambda: None)

    def test_registry_reuses_and_recreates(self):
        shutdown_pools()
        first = get_pool(1)
        assert get_pool(1) is first
        assert any(s["workers"] == 1 for s in pool_stats())
        first.close()
        second = get_pool(1)
        assert second is not first
        shutdown_pools()

    def test_exception_inside_session_clears_run_state(self, tiny_cpu,
                                                       tiny_faults,
                                                       tiny_patterns):
        pool = WorkerPool(2)
        try:
            sim = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool)
            sample = tiny_faults[::9][:30]
            reference = FaultSimulator(tiny_cpu).run(sample, tiny_patterns)
            key = "probe:abort"
            pool.ensure_job(key, lambda: _EchoJob(tiny_cpu))
            with pytest.raises(RuntimeError, match="deliberate"):
                with pool.session(key) as run:
                    run.submit("run", (0, 1), tag=0)
                    raise RuntimeError("deliberate")
            # The aborted run must not leak tasks into the next one.
            result = sim.run(sample, tiny_patterns)
            assert result.detected == reference.detected
            assert result.detecting_pattern == reference.detecting_pattern
        finally:
            pool.close()


class _EchoJob:
    """Trivial installable job (used by the abort + death tests)."""

    def __init__(self, netlist, delay: float = 0.0) -> None:
        self.netlist = netlist
        self.delay = delay

    def run(self, task):
        chunk_id, value = task
        if self.delay:
            time.sleep(self.delay)
        return chunk_id, value * 2, os.getpid()


# --------------------------------------------------------------------- #
# byte-identity under randomized steal interleavings
# --------------------------------------------------------------------- #
def _identity_case(netlist, faults, patterns, kernel, jitter_seed, chunk,
                   drop_detected=True):
    serial = FaultSimulator(netlist).run(faults, patterns,
                                         drop_detected=drop_detected)
    pool = WorkerPool(2, jitter_seed=jitter_seed)
    try:
        sharded = ShardedFaultSimulator(netlist, jobs=2, kernel=kernel,
                                        pool=pool, chunk=chunk,
                                        drop_detected=drop_detected)
        pooled = sharded.run(faults, patterns)
    finally:
        pool.close()
    assert pooled.detected == serial.detected
    assert pooled.undetected == serial.undetected
    assert pooled.detecting_pattern == serial.detecting_pattern


class TestStealOrderIdentity:
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jitter_seed=st.integers(min_value=0, max_value=2**31),
           chunk=st.integers(min_value=1, max_value=9))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_stuck_at_identity(self, tiny_cpu, tiny_faults, tiny_patterns,
                               kernel, jitter_seed, chunk):
        sample = tiny_faults[::5][:60]
        _identity_case(tiny_cpu, sample, tiny_patterns, kernel,
                       jitter_seed, chunk)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(jitter_seed=st.integers(min_value=0, max_value=2**31),
           chunk=st.integers(min_value=1, max_value=9))
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_transition_identity(self, tiny_cpu, transition_faults,
                                 tiny_patterns, kernel, jitter_seed, chunk):
        sample = transition_faults[::5][:60]
        _identity_case(tiny_cpu, sample, tiny_patterns, kernel,
                       jitter_seed, chunk)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_no_drop_identity(self, tiny_cpu, tiny_faults, tiny_patterns,
                              kernel):
        sample = tiny_faults[::11][:40]
        _identity_case(tiny_cpu, sample, tiny_patterns, kernel,
                       jitter_seed=7, chunk=3, drop_detected=False)

    def test_classify_identity_across_jitter(self, tiny_cpu, tiny_faults):
        from repro.atpg.engine import AtpgEffort

        sample = tiny_faults[::13][:40]
        reference = sharded_classify(tiny_cpu, sample,
                                     effort=AtpgEffort.RANDOM, jobs=1,
                                     backend="serial", random_patterns=32)
        for jitter_seed in (1, 23):
            pool = WorkerPool(2, jitter_seed=jitter_seed)
            try:
                pooled = sharded_classify(tiny_cpu, sample,
                                          effort=AtpgEffort.RANDOM,
                                          jobs=2, pool=pool, chunk=4,
                                          random_patterns=32)
            finally:
                pool.close()
            assert pooled.classifications == reference.classifications

    def test_spawn_start_method_identity(self, tiny_cpu, tiny_faults,
                                         tiny_patterns):
        sample = tiny_faults[::7][:40]
        serial = FaultSimulator(tiny_cpu).run(sample, tiny_patterns)
        pool = WorkerPool(2, start_method="spawn")
        try:
            sharded = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool)
            pooled = sharded.run(sample, tiny_patterns)
        finally:
            pool.close()
        assert pooled.detected == serial.detected
        assert pooled.undetected == serial.undetected
        assert pooled.detecting_pattern == serial.detecting_pattern


# --------------------------------------------------------------------- #
# what the pooled simulation jobs ship, and caller-seeded frontiers
# --------------------------------------------------------------------- #
class _NoFaultUnpickler(pickle.Unpickler):
    """Refuses every ``repro.faults`` class but the interned spec type."""

    def find_class(self, module, name):
        if module.startswith("repro.faults") and name != "InjectionSpec":
            raise pickle.UnpicklingError(f"{module}.{name} in a job payload")
        return super().find_class(module, name)


def _guarded_load(payload: bytes):
    return _NoFaultUnpickler(io.BytesIO(payload)).load()


@pytest.fixture(scope="module")
def tiny_captured(tiny_soc):
    from repro.sbst.monitor import ToggleMonitor
    from repro.sbst.program_gen import generate_sbst_suite

    return ToggleMonitor(tiny_soc.cpu).run_suite(
        generate_sbst_suite(tiny_soc.config.cpu))


class TestSimulationPayloads:
    def test_guard_refuses_faults(self, tiny_faults):
        with pytest.raises(pickle.UnpicklingError, match="repro.faults"):
            _guarded_load(pickle.dumps(tiny_faults[:2], protocol=4))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_installed_payloads_hold_no_faults(self, tiny_cpu, tiny_faults,
                                               transition_faults,
                                               tiny_patterns, tiny_captured,
                                               kernel):
        from repro.sbst.grading import FaultGrader

        pool = WorkerPool(2)
        try:
            FaultGrader(tiny_cpu, jobs=2, pool=pool,
                        kernel=kernel).grade(tiny_captured,
                                             tiny_faults[::3])
            ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool,
                                  kernel=kernel).run(
                transition_faults[::5][:80], tiny_patterns)
            job_keys = [key for key in pool._objects
                        if not key.startswith("net:")]
            assert sorted(key.split(":")[0] for key in job_keys) == [
                "planesim", "wordgrade"]
            for key in job_keys:
                job = _guarded_load(pool._payload(key))
                assert all(type(table).__name__ == "SiteTable"
                           for table in job.shards)
        finally:
            pool.close()

    def test_pooled_grade_honours_a_seeded_frontier(self, tiny_cpu,
                                                    tiny_faults,
                                                    tiny_captured):
        from repro.sbst.grading import FaultGrader
        from repro.simulation.sharded import (DetectionFrontier,
                                              sharded_mission_grade)

        grader = FaultGrader(tiny_cpu)
        serial = grader.grade(tiny_captured, tiny_faults)
        # Pre-publish a third of the serial detections (with a sentinel
        # pattern index) and one fault serial never detects.
        seeded = sorted(serial, key=str)[::3]
        undetected = next(f for f in tiny_faults if f not in serial)
        seed = [(fault, -1) for fault in seeded] + [(undetected, -1)]

        def graded(frontier, **knobs):
            return sharded_mission_grade(
                tiny_cpu, tiny_faults, tiny_captured,
                observation_nets=grader.simulator.observation_nets,
                frontier=frontier, **knobs)

        reference_frontier = DetectionFrontier()
        reference_frontier.publish_many(seed)
        reference = graded(reference_frontier, jobs=1, backend="serial")
        pool = WorkerPool(2)
        try:
            for chunk in (None, 5):
                frontier = DetectionFrontier()
                frontier.publish_many(seed)
                pooled = graded(frontier, jobs=2, pool=pool, chunk=chunk)
                assert pooled == reference == serial - set(seeded)
                assert frontier.detected() == reference_frontier.detected()
                assert set(frontier.detected()) == serial | {undetected}
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# worker death mid-round
# --------------------------------------------------------------------- #
class TestWorkerDeath:
    def test_kill_9_requeues_and_restarts(self, tiny_cpu):
        pool = WorkerPool(2, start_method="fork")
        try:
            key = pool.ensure_job("probe:sleepy",
                                  lambda: _EchoJob(tiny_cpu, delay=0.03))
            results = []
            killed = False
            with pool.session(key) as run:
                for i in range(14):
                    run.submit("run", (i, i), tag=i)
                for _tag, _task, outcome in run.results():
                    results.append(outcome)
                    if not killed:
                        victim = pool.worker_pids()[0]
                        os.kill(victim, signal.SIGKILL)
                        killed = True
            # Every chunk completed exactly once with the right value...
            assert sorted(cid for cid, _, _ in results) == list(range(14))
            assert all(doubled == cid * 2
                       for cid, doubled, _ in results)
            # ... and the death was surfaced, not hung over.
            assert pool.stats["worker_restarts"] >= 1
        finally:
            pool.close()

    def test_death_during_grading_keeps_identity(self, tiny_cpu,
                                                 tiny_faults,
                                                 tiny_patterns):
        sample = tiny_faults[::3]
        serial = FaultSimulator(tiny_cpu).run(sample, tiny_patterns)
        pool = WorkerPool(2, start_method="fork", jitter_seed=3)
        try:
            sharded = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool,
                                            chunk=2)
            # Prime the pool, then murder a worker between rounds: the
            # replacement must be re-provisioned from the payload cache.
            pids = pool.worker_pids()
            os.kill(pids[-1], signal.SIGKILL)
            time.sleep(0.05)
            pooled = sharded.run(sample, tiny_patterns)
        finally:
            pool.close()
        assert pooled.detected == serial.detected
        assert pooled.undetected == serial.undetected
        assert pooled.detecting_pattern == serial.detecting_pattern
        assert pool.stats["worker_restarts"] >= 1

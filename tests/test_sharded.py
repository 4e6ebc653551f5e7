"""The parallel fault-population engines: frontier, identity, lifetime.

The contract under test is strict: for both pool lifetimes and every
fault-dropping mode, the parallel engines must reproduce the serial
reference *exactly* — detected/undetected sets, recorded detecting
patterns, classification dicts and graded coverage are compared for
equality, not similarity.  An ephemeral pool must also leave no worker
process behind, whether its call returns or raises.
"""

from __future__ import annotations

import multiprocessing
import pickle
import random

import pytest

from repro.atpg.engine import StructuralUntestabilityEngine
from repro.faults.faultlist import generate_fault_list
from repro.netlist.cells import LOGIC_0, LOGIC_1
from repro.netlist.compiled import get_compiled, netlist_signature
from repro.sbst.grading import FaultGrader
from repro.sbst.monitor import ToggleMonitor
from repro.sbst.program_gen import generate_sbst_suite
from repro.simulation.fault_sim import FaultSimulator
from repro.runtime import WorkerPool, WorkerTaskError
from repro.simulation.sharded import (DetectionFrontier, ShardedFaultSimulator,
                                      SiteTable, resolve_jobs,
                                      sharded_classify)

POOLS = ("ephemeral", "persistent")


@pytest.fixture(scope="module")
def tiny_cpu(tiny_soc):
    return tiny_soc.cpu


@pytest.fixture(scope="module")
def tiny_faults(tiny_cpu):
    return generate_fault_list(tiny_cpu).faults()


@pytest.fixture(scope="module")
def tiny_patterns(tiny_cpu):
    """Deterministic random mission patterns over the controllable nets."""
    rng = random.Random(2013)
    sim = FaultSimulator(tiny_cpu)
    controllable = [p for p in tiny_cpu.input_ports()
                    if tiny_cpu.net(p).tied is None]
    controllable += sim.sim.state_nets
    return [{net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
             for net in controllable}
            for _ in range(130)]


# --------------------------------------------------------------------- #
# knob resolution
# --------------------------------------------------------------------- #
class TestKnobs:
    def test_resolve_jobs(self):
        import os
        cpus = os.cpu_count() or 1
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        # Oversubscription is capped at the machine (extra workers only
        # contend); cap=False returns the raw request for routing checks.
        assert resolve_jobs(4, cap=False) == 4
        assert resolve_jobs(4) == min(4, cpus)
        assert resolve_jobs(cpus + 1) == cpus
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            resolve_jobs(0)

    def test_resolve_jobs_warns_once_on_oversubscription(self):
        import os
        import warnings
        from repro.simulation.sharded import (
            _reset_oversubscription_warning)
        cpus = os.cpu_count() or 1
        _reset_oversubscription_warning()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            resolve_jobs(cpus + 3)
            resolve_jobs(cpus + 3)
        oversub = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)
                   and "exceeds os.cpu_count()" in str(w.message)]
        assert len(oversub) == 1
        _reset_oversubscription_warning()

    def test_removed_runner_knobs_are_type_errors(self, tiny_cpu):
        """The static shard runner's knobs are gone, not silently ignored."""
        with pytest.raises(TypeError):
            FaultGrader(tiny_cpu, jobs=2, backend=None)
        with pytest.raises(TypeError):
            StructuralUntestabilityEngine(tiny_cpu, jobs=2, shards=4)
        with pytest.raises(TypeError):
            ShardedFaultSimulator(tiny_cpu, jobs=2, shards=4)


# --------------------------------------------------------------------- #
# the cone-cost table behind chunk partitioning
# --------------------------------------------------------------------- #
class TestPartitioning:
    def test_cone_size_table_matches_memoised_cones(self, tiny_cpu):
        compiled = get_compiled(tiny_cpu)
        sizes = compiled.fanout_cone_sizes()
        for nid in range(0, compiled.n_nets, 97):  # deterministic sample
            assert sizes[nid] == len(compiled.fanout_ops(nid))


# --------------------------------------------------------------------- #
# the detection frontier
# --------------------------------------------------------------------- #
class TestDetectionFrontier:
    def test_publish_and_snapshot(self, tiny_faults):
        frontier = DetectionFrontier()
        frontier.publish(tiny_faults[0], 3)
        frontier.publish_many([(tiny_faults[1], 5), (tiny_faults[2], 7)])
        assert tiny_faults[0] in frontier
        assert tiny_faults[3] not in frontier
        assert len(frontier) == 3
        assert frontier.detected()[tiny_faults[1]] == 5


# --------------------------------------------------------------------- #
# parallel fault simulation: byte-identical to the serial engine
# --------------------------------------------------------------------- #
class TestShardedFaultSimulator:
    @pytest.mark.parametrize("drop", [True, False])
    @pytest.mark.parametrize("pool", POOLS)
    def test_identical_to_serial(self, tiny_cpu, tiny_faults, tiny_patterns,
                                 pool, drop):
        sample = tiny_faults[::7]
        reference = FaultSimulator(tiny_cpu).run(sample, tiny_patterns,
                                                 drop_detected=drop)
        sharded = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool)
        result = sharded.run(sample, tiny_patterns, drop_detected=drop)
        assert result.detected == reference.detected
        assert result.undetected == reference.undetected
        assert result.detecting_pattern == reference.detecting_pattern

    def test_frontier_records_every_detection(self, tiny_cpu, tiny_faults,
                                              tiny_patterns):
        sample = tiny_faults[::11]
        sharded = ShardedFaultSimulator(tiny_cpu, jobs=2)
        result = sharded.run(sample, tiny_patterns)
        frontier = sharded.last_frontier
        assert frontier is not None
        assert set(frontier.detected()) == result.detected
        assert frontier.detected() == result.detecting_pattern

    def test_explicit_chunk_size(self, tiny_cpu, tiny_faults,
                                 tiny_patterns):
        sample = tiny_faults[:200]
        reference = FaultSimulator(tiny_cpu).run(sample, tiny_patterns)
        result = ShardedFaultSimulator(tiny_cpu, jobs=2,
                                       chunk=3).run(sample, tiny_patterns)
        assert result.detected == reference.detected
        assert result.detecting_pattern == reference.detecting_pattern


# --------------------------------------------------------------------- #
# parallel classification
# --------------------------------------------------------------------- #
class TestShardedClassify:
    @pytest.mark.parametrize("effort", ["tie", "random"])
    def test_identical_classifications(self, tiny_cpu, tiny_faults, effort):
        reference = StructuralUntestabilityEngine(
            tiny_cpu, effort=effort).classify(tiny_faults)
        sharded = sharded_classify(tiny_cpu, tiny_faults, effort=effort,
                                   jobs=2)
        assert sharded.classifications == reference.classifications
        assert sharded.effort == reference.effort

    def test_engine_jobs_knob_delegates(self, tiny_cpu, tiny_faults):
        reference = StructuralUntestabilityEngine(tiny_cpu).classify(
            tiny_faults)
        engine = StructuralUntestabilityEngine(tiny_cpu, jobs=2)
        assert engine.classify(tiny_faults).classifications == \
            reference.classifications


# --------------------------------------------------------------------- #
# parallel mission-mode fault grading
# --------------------------------------------------------------------- #
class TestShardedFaultGrading:
    @pytest.fixture(scope="class")
    def tiny_captured(self, tiny_soc):
        programs = generate_sbst_suite(tiny_soc.config.cpu)
        return ToggleMonitor(tiny_soc.cpu).run_suite(programs)

    @pytest.mark.parametrize("pool", POOLS)
    def test_grade_identical_to_serial(self, tiny_cpu, tiny_captured,
                                       pool):
        serial = FaultGrader(tiny_cpu).grade(tiny_captured)
        sharded = FaultGrader(tiny_cpu, jobs=2,
                              pool=pool).grade(tiny_captured)
        assert sharded == serial

    def test_compare_with_pruning_identical(self, tiny_cpu, tiny_captured,
                                            tiny_flow_report):
        pruned = tiny_flow_report.online_untestable
        serial = FaultGrader(tiny_cpu).compare_with_pruning(
            tiny_captured, pruned)
        sharded = FaultGrader(tiny_cpu, jobs=2).compare_with_pruning(
            tiny_captured, pruned)
        assert (serial.total_faults, serial.detected, serial.pruned,
                serial.detected_after_pruning) == \
               (sharded.total_faults, sharded.detected, sharded.pruned,
                sharded.detected_after_pruning)


# --------------------------------------------------------------------- #
# the pickle path every pool install depends on
# --------------------------------------------------------------------- #
class TestNetlistPickling:
    def test_round_trip_preserves_structure(self, tiny_cpu):
        clone = pickle.loads(pickle.dumps(tiny_cpu))
        assert netlist_signature(clone) == netlist_signature(tiny_cpu)
        assert list(clone.nets) == list(tiny_cpu.nets)
        assert clone.ports == tiny_cpu.ports
        assert clone.unobservable_ports == tiny_cpu.unobservable_ports
        assert sorted(clone.annotations) == sorted(tiny_cpu.annotations)

    def test_round_trip_preserves_ties_and_cells(self, tiny_cpu):
        clone = pickle.loads(pickle.dumps(tiny_cpu))
        for name, net in tiny_cpu.nets.items():
            assert clone.nets[name].tied == net.tied
        some = next(iter(tiny_cpu.instances.values()))
        assert clone.instances[some.name].cell is some.cell  # singleton cell


# --------------------------------------------------------------------- #
# the install contract: jobs must survive pickling
# --------------------------------------------------------------------- #
class TestJobPickling:
    """Pool installs ship every job by pickle; a pickled-and-rebuilt job
    must compute identical verdicts."""

    def test_plane_sim_job_round_trip(self, tiny_cpu, tiny_faults,
                                      tiny_patterns):
        from repro.simulation.fault_sim import observation_net_names
        from repro.simulation.sharded import _PlaneSimJob

        sample = tiny_faults[:300]
        job = _PlaneSimJob(
            tiny_cpu, SiteTable.of(get_compiled(tiny_cpu), sample),
            frozenset(observation_net_names(tiny_cpu)), tiny_patterns, 64)
        job.prepare()
        clone = pickle.loads(pickle.dumps(job))
        for drop in (True, False):
            task = (tuple(range(len(sample))), drop)
            assert clone.run_chunk(task) == job.run_chunk(task)
            assert job.run_chunk(task)  # the chunk really detected faults

    def test_classify_job_round_trip(self, tiny_cpu, tiny_faults):
        from repro.simulation.sharded import _DetectClassifyJob
        from repro.atpg.engine import AtpgEffort

        job = _DetectClassifyJob(tiny_cpu, AtpgEffort.RANDOM, 64, 200, 2013)
        clone = pickle.loads(pickle.dumps(job))
        for chunk in (tuple(tiny_faults[:200]), tuple(tiny_faults[200:400])):
            ours = job.run_faults(chunk)
            theirs = clone.run_faults(chunk)
            assert ours[0] == theirs[0]  # identical classifications
            assert ours[0]  # the random phase really classified faults


class TestShardedClassifySchedulesTieOnce:
    def test_tie_effort_spawns_no_workers(self, tiny_cpu, tiny_faults,
                                          monkeypatch):
        """At TIE effort the global fixpoint runs once in the caller and
        nothing is farmed out — parallel classify must cost serial time."""
        def boom(self):
            raise AssertionError("no worker pool expected at TIE effort")

        monkeypatch.setattr(WorkerPool, "_ensure_started", boom)
        reference = StructuralUntestabilityEngine(tiny_cpu).classify(
            tiny_faults)
        report = sharded_classify(tiny_cpu, tiny_faults, effort="tie",
                                  jobs=4)
        assert report.classifications == reference.classifications


# --------------------------------------------------------------------- #
# the ephemeral lifetime: one pool per call, reaped on every exit path
# --------------------------------------------------------------------- #
class TestEphemeralPoolLifetime:
    @pytest.fixture()
    def spawned(self, monkeypatch):
        """Every worker process a WorkerPool starts during the test."""
        processes = []
        original = WorkerPool._spawn

        def recording_spawn(pool, wid, *, provision):
            original(pool, wid, provision=provision)
            processes.append(pool._procs[wid])

        monkeypatch.setattr(WorkerPool, "_spawn", recording_spawn)
        return processes

    @staticmethod
    def assert_reaped(processes):
        assert processes, "the call never started a worker pool"
        live = {child.pid for child in multiprocessing.active_children()}
        assert not any(process.is_alive() for process in processes)
        assert not live & {process.pid for process in processes}

    def test_no_worker_outlives_a_normal_return(self, tiny_cpu, tiny_faults,
                                                tiny_patterns, spawned):
        sample = tiny_faults[::13]
        reference = FaultSimulator(tiny_cpu).run(sample, tiny_patterns)
        result = ShardedFaultSimulator(tiny_cpu, jobs=2,
                                       pool="ephemeral").run(sample,
                                                             tiny_patterns)
        assert result.detecting_pattern == reference.detecting_pattern
        self.assert_reaped(spawned)

    def test_no_worker_outlives_a_failing_task(self, tiny_cpu, tiny_faults,
                                               tiny_patterns, spawned,
                                               monkeypatch):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs fork: workers must inherit the failing job")
        from repro.simulation.sharded import _PlaneSimJob

        def fail(self, *_args):
            raise RuntimeError("deliberate task failure")

        # Forked workers inherit the patched job class.
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "fork")
        monkeypatch.setattr(_PlaneSimJob, "_window_hits", fail)
        with pytest.raises(WorkerTaskError, match="deliberate task failure"):
            ShardedFaultSimulator(tiny_cpu, jobs=2).run(tiny_faults[::13],
                                                        tiny_patterns)
        self.assert_reaped(spawned)

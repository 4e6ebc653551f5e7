"""The pluggable simulation-kernel layer (:mod:`repro.simulation.kernels`).

Byte-identity is the kernel contract: whatever backend runs, the planes,
verdicts and detecting-pattern indices must match the Python-int oracle
exactly.  This module pins that contract from four directions:

* exhaustively — every cell kind with a vector model, over all {0, 1, X}
  input combinations, numpy planes vs the int plane loop;
* property-based — random cones and random three-valued windows, with the
  hybrid walk/batch routing forced both ways;
* end-to-end — fault-simulation results (including detecting-pattern
  indices) across kernels, shard backends and fault models;
* degraded — a ``sys.modules`` guard simulates a numpy-less environment
  and pins the one-time-warning fallback to the int kernel.
"""

from __future__ import annotations

import itertools
import random
import sys
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.faults.faultlist import generate_fault_list
from repro.netlist.builder import NetlistBuilder
from repro.netlist.cells import LOGIC_0, LOGIC_1, LOGIC_X, standard_library
from repro.netlist.compiled import get_compiled
from repro.simulation import kernels as kernels_module
from repro.simulation.fault_sim import FaultSimulator, good_planes
from repro.simulation.kernels import (IntKernel, NumpyKernel, get_kernel,
                                      kernel_info, normalize_kernel,
                                      numpy_available, reset_kernel_state)
from repro.simulation.sharded import ShardedFaultSimulator
from repro.simulation.simulator import plane_program

from tests.test_properties import _input_names, random_circuits

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy is not installed")

THREE_VALUES = (LOGIC_0, LOGIC_1, LOGIC_X)


# --------------------------------------------------------------------- #
# spec resolution
# --------------------------------------------------------------------- #
class TestResolution:
    def test_normalize_kernel(self):
        assert normalize_kernel(None) == "auto"
        assert normalize_kernel(" INT ") == "int"
        assert normalize_kernel("numpy") == "numpy"
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            normalize_kernel("cuda")

    def test_get_kernel_is_idempotent_on_kernel_objects(self):
        kernel = get_kernel("int")
        assert isinstance(kernel, IntKernel)
        assert kernel.name == "int"
        assert get_kernel(kernel) is kernel

    @needs_numpy
    def test_auto_prefers_numpy_when_available(self):
        assert get_kernel(None).name == "numpy"
        assert get_kernel("auto").name == "numpy"
        assert isinstance(get_kernel("numpy"), NumpyKernel)
        info = kernel_info()
        assert info["kernel"] == "numpy"
        assert info["numpy_version"]

    def test_int_info_has_no_version(self):
        assert kernel_info("int") == {"kernel": "int"}

    def test_scenario_grid_kernel_axis(self):
        from repro.api.grid import ScenarioGrid

        grid = ScenarioGrid("tiny").axis("kernel", ["int", "NUMPY"])
        points = grid.scenarios()
        assert [point.kernel for point in points] == ["int", "numpy"]
        assert all(f"kernel={point.kernel}" in point.label
                   for point in points)
        with pytest.raises(ValueError, match="unknown simulation kernel"):
            ScenarioGrid("tiny").axis("kernel", ["cuda"])


# --------------------------------------------------------------------- #
# exhaustive per-cell plane equivalence
# --------------------------------------------------------------------- #
def _single_cell_netlist(kind):
    """A netlist of one ``kind`` instance with every output buffered out."""
    lib = standard_library()
    cell = lib.get(kind)
    b = NetlistBuilder(f"cell_{kind.lower()}")
    inputs = [b.add_input(f"i{k}") for k in range(len(cell.inputs))]
    connections = dict(zip(cell.inputs, inputs))
    internal = []
    for pin in cell.outputs:
        net = b.new_net("y")
        connections[pin] = net
        internal.append(net)
    b.cell(kind, connections, name="u0")
    for pos, net in enumerate(internal):
        b.buf(net, output=b.add_output(f"o{pos}"))
    return b.build(), inputs


@needs_numpy
def test_every_vector_cell_matches_int_planes_exhaustively():
    """All {0,1,X}^arity combinations, per cell kind with a vector model."""
    from repro.simulation.kernels import _build_np_plane_fns, _load_numpy

    plane_fns = _build_np_plane_fns(_load_numpy())
    int_kernel = get_kernel("int")
    numpy_kernel = get_kernel("numpy")
    assert numpy_kernel.name == "numpy"
    for kind in sorted(plane_fns):
        netlist, inputs = _single_cell_netlist(kind)
        compiled = get_compiled(netlist)
        # The whole point is the vectorized path: a netlist built purely
        # from modelled cells must lower to a plan, not fall back.
        assert numpy_kernel._plan(compiled) is not None, kind
        program, _ = plane_program(compiled)
        combos = list(itertools.product(THREE_VALUES, repeat=len(inputs)))
        for lo in range(0, len(combos), 64):
            window = [dict(zip(inputs, combo))
                      for combo in combos[lo:lo + 64]]
            ref1, ref0, _, _ = good_planes(compiled, program, window,
                                           kernel=int_kernel)
            got1, got0, _, _ = good_planes(compiled, program, window,
                                           kernel=numpy_kernel)
            assert got1 == ref1 and got0 == ref0, kind


# --------------------------------------------------------------------- #
# property tests: random cones, both sides of the hybrid routing
# --------------------------------------------------------------------- #
@needs_numpy
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(netlist=random_circuits(),
       patterns=st.lists(st.tuples(*([st.sampled_from(THREE_VALUES)] * 4)),
                         min_size=1, max_size=48))
def test_random_cones_match_across_kernels(netlist, patterns):
    """Planes and full fault-sim results agree on random circuits, with
    the cone-size routing forced to all-batch and all-walk."""
    window = [dict(zip(_input_names(), combo)) for combo in patterns]
    compiled = get_compiled(netlist)
    program, _ = plane_program(compiled)
    int_kernel = get_kernel("int")
    numpy_kernel = get_kernel("numpy")
    ref = good_planes(compiled, program, window, kernel=int_kernel)
    got = good_planes(compiled, program, window, kernel=numpy_kernel)
    assert got[:2] == ref[:2]

    faults = generate_fault_list(netlist).faults()
    reference = FaultSimulator(netlist, kernel="int").run(faults, window)
    saved = kernels_module.PLANE_WALK_CUTOFF
    try:
        for cutoff in (0, 1 << 30):  # everything batches / everything walks
            kernels_module.PLANE_WALK_CUTOFF = cutoff
            result = FaultSimulator(netlist, kernel="numpy").run(
                faults, window)
            assert result.detected == reference.detected
            assert result.undetected == reference.undetected
            assert result.detecting_pattern == reference.detecting_pattern
    finally:
        kernels_module.PLANE_WALK_CUTOFF = saved


# --------------------------------------------------------------------- #
# end-to-end identity: kernels x shard backends x fault models
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_cpu(tiny_soc):
    return tiny_soc.cpu


@pytest.fixture(scope="module")
def tiny_mission_patterns(tiny_cpu):
    """Deterministic fully-specified patterns over the controllable nets;
    more than one 64-pattern window so window chaining is exercised."""
    rng = random.Random(20138)
    sim = FaultSimulator(tiny_cpu, kernel="int")
    controllable = [p for p in tiny_cpu.input_ports()
                    if tiny_cpu.net(p).tied is None]
    controllable += sim.sim.state_nets
    return [{net: (LOGIC_1 if rng.getrandbits(1) else LOGIC_0)
             for net in controllable}
            for _ in range(70)]


@needs_numpy
@pytest.mark.parametrize("model", ["stuck_at", "transition"])
@pytest.mark.parametrize("pool", ["ephemeral", "persistent"])
def test_fault_sim_identity_across_kernels_and_pools(
        tiny_cpu, tiny_mission_patterns, pool, model, monkeypatch):
    # Force the batch path for at least part of the population: on the
    # tiny core every cone is below the default cutoff, which would leave
    # the vectorized sweep untested in-process (worker processes still run
    # the default routing — identity must hold there too).
    monkeypatch.setattr(kernels_module, "PLANE_WALK_CUTOFF", 0)
    all_faults = generate_fault_list(tiny_cpu, model=model).faults()
    step = max(1, len(all_faults) // 60)
    faults = all_faults[::step][:60]

    reference = FaultSimulator(tiny_cpu, kernel="int").run(
        faults, tiny_mission_patterns)
    serial_numpy = FaultSimulator(tiny_cpu, kernel="numpy").run(
        faults, tiny_mission_patterns)
    assert serial_numpy.detected == reference.detected
    assert serial_numpy.undetected == reference.undetected
    assert serial_numpy.detecting_pattern == reference.detecting_pattern

    sharded = ShardedFaultSimulator(tiny_cpu, jobs=2, pool=pool,
                                    kernel="numpy")
    result = sharded.run(faults, tiny_mission_patterns)
    assert result.detected == reference.detected
    assert result.undetected == reference.undetected
    assert result.detecting_pattern == reference.detecting_pattern


# --------------------------------------------------------------------- #
# degraded environment: numpy absent
# --------------------------------------------------------------------- #
_MISSING = object()


def test_numpy_missing_falls_back_with_one_warning():
    """Blocking the numpy import must leave every spec usable: 'numpy'
    warns once (RuntimeWarning) and runs on the int oracle, 'auto' resolves
    quietly, and simulation still works end to end."""
    saved = sys.modules.get("numpy", _MISSING)
    sys.modules["numpy"] = None  # poisons `import numpy` in-process
    reset_kernel_state()
    try:
        assert not numpy_available()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            first = get_kernel("numpy")
            second = get_kernel("numpy")  # the warning must not repeat
            auto = get_kernel("auto")
        assert first.name == "int" and second.name == "int"
        assert auto.name == "int"
        runtime = [w for w in caught
                   if issubclass(w.category, RuntimeWarning)]
        assert len(runtime) == 1
        assert "falling back" in str(runtime[0].message)
        assert kernel_info("numpy") == {"kernel": "int"}

        b = NetlistBuilder("fallback")
        a, c = b.add_input("a"), b.add_input("b")
        b.buf(b.and_(a, c), output=b.add_output("y"))
        netlist = b.build()
        faults = generate_fault_list(netlist).faults()
        window = [{"a": LOGIC_1, "b": LOGIC_1}, {"a": LOGIC_0, "b": LOGIC_1}]
        result = FaultSimulator(netlist, kernel="numpy").run(faults, window)
        assert result.detected
    finally:
        if saved is _MISSING:
            sys.modules.pop("numpy", None)
        else:
            sys.modules["numpy"] = saved
        reset_kernel_state()

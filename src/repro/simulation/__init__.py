"""Logic simulation: combinational, sequential and stuck-at fault simulation."""

from repro.simulation.simulator import CombinationalSimulator
from repro.simulation.sequential import SequentialSimulator
from repro.simulation.fault_sim import FaultSimulator, FaultSimResult
from repro.simulation.kernels import (KERNEL_CHOICES, IntKernel, NumpyKernel,
                                      get_kernel, kernel_info,
                                      normalize_kernel, numpy_available,
                                      reset_kernel_state)
from repro.simulation.parallel import ParallelPatternSimulator
from repro.simulation.sharded import (DetectionFrontier,
                                      ShardedFaultSimulator,
                                      sharded_classify, sharded_mission_grade)

__all__ = [
    "CombinationalSimulator",
    "SequentialSimulator",
    "FaultSimulator",
    "FaultSimResult",
    "ParallelPatternSimulator",
    "ShardedFaultSimulator",
    "DetectionFrontier",
    "sharded_classify",
    "sharded_mission_grade",
    "KERNEL_CHOICES",
    "IntKernel",
    "NumpyKernel",
    "get_kernel",
    "kernel_info",
    "normalize_kernel",
    "numpy_available",
    "reset_kernel_state",
]

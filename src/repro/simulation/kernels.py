"""Pluggable simulation kernels: the Python-int oracle and a numpy engine.

Every simulator in :mod:`repro.simulation` dispatches its hot loops through
a *kernel* object resolved by :func:`get_kernel`:

``int`` (:class:`IntKernel`)
    The existing Python big-int engine — event-driven cone walks for fault
    detection, the per-op plane loop for full passes.  Always available;
    it is the oracle every other backend must match byte-for-byte.

``numpy`` (:class:`NumpyKernel`)
    Lowers the level-ordered op arrays of a
    :class:`~repro.netlist.compiled.CompiledNetlist` into contiguous
    per-(level, cell-kind) ndarray plans — gather indices per input pin and
    scatter indices per output pin — so one level executes as a handful of
    vectorized gather/bitwise-op/scatter calls, and fault detection batches
    up to :data:`WORD_LANES` faulty machines into one ``(nets, faults)``
    uint64 matrix sweep (bit *i* of a word = pattern *i* of the window).

``auto`` (or ``None``)
    ``numpy`` when importable, else ``int``.  Requesting ``numpy``
    explicitly in an environment without it falls back to ``int`` with a
    one-time warning — numpy is an optional extra, never a hard dependency.

Byte-identity is the contract, not a goal: the batched numpy sweep forces
every injected net at initialization, at each level boundary and after the
final level (levelization makes re-forcing equivalent to the int engines'
skip-frozen-writes rule), reads detection from exactly the same observation
nets, and returns the *full* per-fault detection mask so first/last
detecting-pattern indices match the oracle under both drop modes.  Both
kernels evaluate cells through the same functions, lowered from each
cell's formula in :mod:`repro.netlist.cells`: the int engines call them on
Python ints, the numpy sweeps on gathered ``uint64`` arrays.  Plans fall
back to the int engine whenever a cell has no formula, the window exceeds
64 patterns, or the frozen set is not exactly the tied nets.
"""

from __future__ import annotations

import heapq
import threading
import warnings
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.registry import Registry
from repro.netlist.compiled import CompiledNetlist

#: Registered kernels, keyed by choice name.  ``auto`` is a routing alias
#: resolved by :func:`get_kernel`, not an entry here.
KERNELS: Registry = Registry("simulation kernel")

#: Kernel names accepted everywhere a ``kernel=`` knob exists.
KERNEL_CHOICES = ("auto", "int", "numpy")

#: Faulty machines batched per vectorized sweep.  Word (two-valued) sweeps
#: carry one matrix, plane (three-valued) sweeps carry two — sized so the
#: working set stays cache-friendly (measured optimum on the date13 core).
WORD_LANES = 256
PLANE_LANES = 128

#: Hybrid routing: a fault whose fanout cone holds at most this many ops is
#: graded by the event-driven int walk even under the numpy kernel — for
#: tiny cones the walk touches a handful of ops (and may early-exit on the
#: first observed difference) while a batch lane always pays the full
#: levelized sweep.  Verdicts and masks are identical either way, so the
#: cutoff is purely a performance knob (measured optimum on the date13
#: core; 0 disables routing).
WORD_WALK_CUTOFF = 128
PLANE_WALK_CUTOFF = 512

_UNSET = object()
_STATE = {"numpy": _UNSET, "warned": False}
_STATE_LOCK = threading.Lock()


def _load_numpy():
    """Import numpy at most once; cache the module (or the failure)."""
    module = _STATE["numpy"]
    if module is _UNSET:
        with _STATE_LOCK:
            module = _STATE["numpy"]
            if module is _UNSET:
                try:
                    import numpy  # type: ignore[import-not-found]
                    module = numpy
                except Exception:
                    module = None
                _STATE["numpy"] = module
    return module


def numpy_available() -> bool:
    """True when the numpy backend can actually run."""
    return _load_numpy() is not None


def reset_kernel_state() -> None:
    """Forget the cached numpy import and the one-time fallback warning.

    Test hook: lets a ``sys.modules`` guard simulate a numpy-less
    environment (and restore it) within one process.
    """
    with _STATE_LOCK:
        _STATE["numpy"] = _UNSET
        _STATE["warned"] = False


def _warn_numpy_missing() -> None:
    with _STATE_LOCK:
        if _STATE["warned"]:
            return
        _STATE["warned"] = True
    warnings.warn(
        "simulation kernel 'numpy' requested but numpy is not importable; "
        "falling back to the Python-int kernel (install the [numpy] extra "
        "to enable vectorized simulation)", RuntimeWarning, stacklevel=3)


def normalize_kernel(spec: Optional[str]) -> str:
    """Validate a kernel spec string; returns the normalized choice name."""
    if spec is None:
        return "auto"
    name = str(spec).strip().lower()
    if name not in KERNEL_CHOICES:
        # Same uniform message as Registry.resolve, with the "auto" routing
        # alias folded into the accepted names.
        known = ", ".join(KERNEL_CHOICES)
        raise ValueError(
            f"unknown {KERNELS.kind} {spec!r}; expected one of: {known}")
    return name


def get_kernel(spec=None) -> "IntKernel":
    """Resolve a kernel spec (name, None or kernel object) to a kernel.

    ``None``/``"auto"`` pick numpy when available; ``"numpy"`` without
    numpy warns once and falls back to the int oracle.
    """
    if isinstance(spec, IntKernel):
        return spec
    name = normalize_kernel(spec)
    if name == "int":
        return _INT_KERNEL
    if name == "numpy" and not numpy_available():
        _warn_numpy_missing()
        return _INT_KERNEL
    # "auto" or an explicit, available "numpy"
    return _NUMPY_KERNEL if numpy_available() else _INT_KERNEL


def kernel_info(spec=None) -> Dict[str, Optional[str]]:
    """Attribution record for stats/bench JSON: resolved kernel + version."""
    kernel = get_kernel(spec)
    info: Dict[str, Optional[str]] = {"kernel": kernel.name}
    if kernel.name == "numpy":
        module = _load_numpy()
        info["numpy_version"] = getattr(module, "__version__", "unknown")
    return info


# --------------------------------------------------------------------- #
# int oracle: event-driven faulty-machine walks
# --------------------------------------------------------------------- #
def detect_mask_planes(compiled: CompiledNetlist, program, site: Tuple,
                       fault_value: int, g1: List[int], g0: List[int],
                       frozen, mask: int, obs_flags) -> int:
    """Three-valued (two-plane) detection mask of one fault over a window.

    Event-driven equivalent of the serial simulator's cone sweep: ops are
    evaluated in topological order starting from the fault site, but only
    when one of their inputs actually differs from the good machine, and
    only differing nets enter the overlay.  Nets equal to the good value
    contribute nothing to detection, so the returned mask is identical to
    the full cone sweep's.
    """
    f1 = mask if fault_value else 0
    f0 = 0 if fault_value else mask
    forced = -1
    branch_op = -1
    branch_pos = -1
    overlay: Dict[int, Tuple[int, int]] = {}
    heap: List[int] = []
    scheduled: Set[int] = set()
    net_load_ops = compiled.net_load_ops
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout
    det = 0

    if site[0] == "net":
        forced = site[1]
        if g1[forced] == f1 and g0[forced] == f0:
            return 0  # forced value equals the good value everywhere
        overlay[forced] = (f1, f0)
        if obs_flags[forced]:
            det |= (g1[forced] & f0) | (g0[forced] & f1)
        for op, _pos in net_load_ops[forced]:
            if op not in scheduled:
                scheduled.add(op)
                heapq.heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heapq.heappush(heap, branch_op)
    else:
        return 0

    while heap:
        op = heapq.heappop(heap)
        args = []
        for pos, nid in enumerate(op_fanin[op]):
            if nid < 0:
                args.append(0)
                args.append(0)
                continue
            if op == branch_op and pos == branch_pos:
                args.append(f1)
                args.append(f0)
                continue
            entry = overlay.get(nid)
            if entry is None:
                args.append(g1[nid])
                args.append(g0[nid])
            else:
                args.append(entry[0])
                args.append(entry[1])
        out = program[op](mask, *args)
        for pos, nid in enumerate(op_fanout[op]):
            if nid < 0 or frozen[nid] or nid == forced:
                continue
            o1 = out[2 * pos]
            o0 = out[2 * pos + 1]
            if o1 == g1[nid] and o0 == g0[nid]:
                continue
            overlay[nid] = (o1, o0)
            if obs_flags[nid]:
                # Definite on both sides and different: good 1 vs faulty
                # 0, or good 0 vs faulty 1.
                det |= (g1[nid] & o0) | (g0[nid] & o1)
            for lop, _pos in net_load_ops[nid]:
                if lop not in scheduled:
                    scheduled.add(lop)
                    heapq.heappush(heap, lop)
    return det & mask


def detects_words(compiled: CompiledNetlist, program, site: Tuple,
                  fault_value: int, good: List[int], word_mask: int,
                  obs_flags, allowed: Optional[int] = None) -> bool:
    """Two-valued (word) detection of one fault over a pattern window.

    Same event-driven walk as :func:`detect_mask_planes`, with one extra
    liberty the boolean contract allows: return as soon as an observation
    point differs under an *allowed* pattern (the verdict cannot change
    once such a difference is observed).  ``allowed`` is the pattern-pair
    mask of two-pattern models; ``None`` allows the whole window.
    """
    if allowed is None:
        allowed = word_mask
    elif not allowed:
        return False
    fault_word = word_mask if fault_value else 0
    forced = -1
    branch_op = -1
    branch_pos = -1
    overlay: Dict[int, int] = {}
    heap: List[int] = []
    scheduled: Set[int] = set()
    net_load_ops = compiled.net_load_ops
    tied = compiled.tied
    op_fanin = compiled.op_fanin
    op_fanout = compiled.op_fanout

    if site[0] == "net":
        forced = site[1]
        if good[forced] == fault_word:
            return False
        overlay[forced] = fault_word
        if obs_flags[forced] and (good[forced] ^ fault_word) & allowed:
            return True
        for op, _pos in net_load_ops[forced]:
            if op not in scheduled:
                scheduled.add(op)
                heapq.heappush(heap, op)
    elif site[0] == "branch":
        branch_op, branch_pos = site[1], site[2]
        scheduled.add(branch_op)
        heapq.heappush(heap, branch_op)
    else:
        return False

    while heap:
        op = heapq.heappop(heap)
        args = []
        for pos, nid in enumerate(op_fanin[op]):
            if nid < 0:
                args.append(0)
                continue
            if op == branch_op and pos == branch_pos:
                args.append(fault_word)
                continue
            value = overlay.get(nid)
            args.append(good[nid] if value is None else value)
        out = program[op](word_mask, *args)
        for pos, nid in enumerate(op_fanout[op]):
            if nid < 0 or tied[nid] is not None or nid == forced:
                continue
            value = out[pos] & word_mask
            if value == good[nid]:
                continue
            overlay[nid] = value
            if obs_flags[nid] and (value ^ good[nid]) & allowed:
                return True
            for lop, _pos in net_load_ops[nid]:
                if lop not in scheduled:
                    scheduled.add(lop)
                    heapq.heappush(heap, lop)
    return False


class IntKernel:
    """The Python big-int oracle kernel.

    Thin dispatcher over the existing engines: the per-op plane loop for
    full passes and the event-driven cone walks above for fault detection.
    Simulator modules are imported lazily so :mod:`repro.simulation.kernels`
    stays importable from any of them without a cycle.
    """

    name = "int"

    def run_plane_ops(self, compiled: CompiledNetlist, p1: List[int],
                      p0: List[int], mask: int, frozen) -> None:
        """One full levelized three-valued pass, in place."""
        from repro.simulation.simulator import plane_program, run_plane_ops
        program, _ = plane_program(compiled)
        run_plane_ops(compiled, program, p1, p0, mask, frozen)

    def detect_planes(self, compiled: CompiledNetlist,
                      items: Sequence[Tuple[Tuple, int]],
                      g1: List[int], g0: List[int], frozen, mask: int,
                      obs_flags) -> List[int]:
        """Per-fault three-valued detection masks over one window.

        ``items`` is a sequence of ``(resolved site, stuck value)``; the
        result holds one full detection mask per item (pattern-pair masks
        of two-pattern models are the caller's business).
        """
        from repro.simulation.simulator import plane_program
        program, _ = plane_program(compiled)
        return [detect_mask_planes(compiled, program, site, value, g1, g0,
                                   frozen, mask, obs_flags)
                for site, value in items]

    def detect_words(self, compiled: CompiledNetlist,
                     items: Sequence[Tuple[Tuple, int, Optional[int]]],
                     good: List[int], word_mask: int,
                     obs_flags) -> List[bool]:
        """Per-fault two-valued detection verdicts over one window.

        ``items`` is a sequence of ``(resolved site, stuck value, allowed
        pattern mask or None)``.
        """
        from repro.simulation.parallel import word_program
        program = word_program(compiled)
        return [detects_words(compiled, program, site, value, good,
                              word_mask, obs_flags, allowed)
                for site, value, allowed in items]


# --------------------------------------------------------------------- #
# numpy backend: per-(level, kind) gather/scatter plans
# --------------------------------------------------------------------- #
class _Group:
    """All same-kind ops of one level, as contiguous gather/scatter indices.

    ``cell`` supplies the lowered evaluators: one call of its word or plane
    function evaluates every op of the group on the gathered arrays.
    """

    __slots__ = ("level", "cell", "in_idx", "out_idx", "n_out", "size")

    def __init__(self, level, cell, in_idx, out_idx, n_out, size):
        self.level = level
        self.cell = cell
        self.in_idx = in_idx      # (size, arity) int32, unconnected -> read sink
        self.out_idx = out_idx    # (n_out, size) int32, tied -> write sink
        self.n_out = n_out
        self.size = size


class _Plan:
    """The lowered form of a compiled netlist for vectorized execution.

    Value matrices carry two extra rows beyond the real nets: a *read sink*
    (always zero — the value of unconnected input pins) and a *write sink*
    (tied nets and dangling outputs scatter there, so no masking is needed
    in the inner loop).
    """

    __slots__ = ("n_rows", "read_sink", "write_sink", "groups", "op_slot",
                 "net_first_group", "tied_frozen")

    def __init__(self, compiled: CompiledNetlist, np) -> None:
        n_nets = compiled.n_nets
        self.read_sink = n_nets
        self.write_sink = n_nets + 1
        self.n_rows = n_nets + 2
        tied = compiled.tied
        self.tied_frozen = bytes(
            1 if tied[nid] is not None else 0 for nid in range(n_nets))

        buckets: Dict[Tuple[int, str], List[int]] = {}
        for op in range(compiled.n_ops):
            key = (compiled.op_level[op], compiled.op_cell[op].name)
            buckets.setdefault(key, []).append(op)

        self.groups: List[_Group] = []
        self.op_slot: Dict[int, Tuple[int, int]] = {}
        for (level, kind) in sorted(buckets):
            ops = buckets[(level, kind)]
            arity = len(compiled.op_fanin[ops[0]])
            n_out = len(compiled.op_fanout[ops[0]])
            in_idx = np.empty((len(ops), arity), dtype=np.int32)
            out_idx = np.empty((n_out, len(ops)), dtype=np.int32)
            serial = len(self.groups)
            for row, op in enumerate(ops):
                self.op_slot[op] = (serial, row)
                for pos, nid in enumerate(compiled.op_fanin[op]):
                    in_idx[row, pos] = nid if nid >= 0 else self.read_sink
                for pos, nid in enumerate(compiled.op_fanout[op]):
                    out_idx[pos, row] = (nid if nid >= 0 and tied[nid] is None
                                         else self.write_sink)
            self.groups.append(_Group(level, compiled.op_cell[ops[0]],
                                      in_idx, out_idx, n_out, len(ops)))

        # First group (serial) whose ops read a given net: the batched
        # sweep may start there — everything earlier recomputes good values.
        first = [len(self.groups)] * n_nets
        for op in range(compiled.n_ops):
            serial = self.op_slot[op][0]
            for nid in compiled.op_fanin[op]:
                if nid >= 0 and serial < first[nid]:
                    first[nid] = serial
        self.net_first_group = first


class NumpyKernel(IntKernel):
    """The vectorized numpy kernel.

    Inherits the int implementations as the fallback for everything a plan
    cannot express (non-library cells, >64-pattern windows, frozen sets
    beyond the tied nets), so a single instance is always safe to dispatch
    through.
    """

    name = "numpy"

    # ------------------------------------------------------------------ #
    def _plan(self, compiled: CompiledNetlist) -> Optional[_Plan]:
        np = _load_numpy()
        if np is None:
            return None

        def build(compiled: CompiledNetlist) -> Optional[_Plan]:
            if any(cell.formula is None for cell in compiled.op_cell):
                return None  # a cell without a formula: the int oracle
            return _Plan(compiled, np)

        return compiled.extension("numpy_kernel_plan", build)

    # ------------------------------------------------------------------ #
    def run_plane_ops(self, compiled: CompiledNetlist, p1: List[int],
                      p0: List[int], mask: int, frozen) -> None:
        np = _load_numpy()
        plan = (self._plan(compiled)
                if np is not None and 0 < mask < (1 << 64) else None)
        if plan is None:
            super().run_plane_ops(compiled, p1, p0, mask, frozen)
            return
        U64 = np.uint64
        m = U64(mask)
        n = compiled.n_nets
        V1 = np.zeros(plan.n_rows, dtype=U64)
        V0 = np.zeros(plan.n_rows, dtype=U64)
        V1[:n] = np.array(p1, dtype=U64)
        V0[:n] = np.array(p0, dtype=U64)
        # Frozen nets (ties, overrides, forced sites) are re-forced at
        # every level boundary: by levelization this is equivalent to the
        # int loop's skip-frozen-writes rule.
        fr = np.flatnonzero(np.frombuffer(frozen, dtype=np.uint8))
        keep1 = V1[fr]
        keep0 = V0[fr]
        level = None
        for group in plan.groups:
            if level is not None and group.level != level and fr.size:
                V1[fr] = keep1
                V0[fr] = keep0
            level = group.level
            args = []
            for k in range(group.in_idx.shape[1]):
                args.append(V1[group.in_idx[:, k]])
                args.append(V0[group.in_idx[:, k]])
            out = group.cell.plane_fn(m, *args)
            for pos in range(group.n_out):
                V1[group.out_idx[pos]] = out[2 * pos]
                V0[group.out_idx[pos]] = out[2 * pos + 1]
        if fr.size:
            V1[fr] = keep1
            V0[fr] = keep0
        p1[:] = V1[:n].tolist()
        p0[:] = V0[:n].tolist()

    # ------------------------------------------------------------------ #
    def detect_words(self, compiled: CompiledNetlist, items, good,
                     word_mask: int, obs_flags) -> List[bool]:
        np = _load_numpy()
        plan = (self._plan(compiled)
                if np is not None and 0 < word_mask < (1 << 64) else None)
        if plan is None:
            return super().detect_words(compiled, items, good, word_mask,
                                        obs_flags)
        results = [False] * len(items)
        n_groups = len(plan.groups)
        cone_sizes = compiled.fanout_cone_sizes()
        walk_program = None
        # Prefilter exactly like the int walk: inert/phantom sites and
        # net forces equal to the good value can never detect.  Small-cone
        # faults are routed straight through the walk (see
        # :data:`WORD_WALK_CUTOFF`).
        entries = []  # (item index, site, fault word, start group, allowed)
        for index, (site, stuck_value, allowed) in enumerate(items):
            if allowed is None:
                allowed = word_mask
            elif not allowed:
                continue
            fault_word = word_mask if stuck_value else 0
            if site[0] == "net":
                if good[site[1]] == fault_word:
                    continue
                start = plan.net_first_group[site[1]]
                cone = cone_sizes[site[1]]
            elif site[0] == "branch":
                start = plan.op_slot[site[1]][0]
                cone = 1 + max((cone_sizes[nid]
                                for nid in compiled.op_fanout[site[1]]
                                if nid >= 0), default=0)
            else:
                continue
            if cone <= WORD_WALK_CUTOFF:
                if walk_program is None:
                    from repro.simulation.parallel import word_program
                    walk_program = word_program(compiled)
                results[index] = detects_words(
                    compiled, walk_program, site, stuck_value, good,
                    word_mask, obs_flags, allowed)
                continue
            entries.append((index, site, fault_word, start, allowed))
        if not entries:
            return results
        entries.sort(key=lambda entry: entry[3])

        U64 = np.uint64
        m = U64(word_mask)
        good_arr = np.zeros(plan.n_rows, dtype=U64)
        good_arr[:compiled.n_nets] = np.array(good, dtype=U64)
        obs_rows = np.flatnonzero(np.frombuffer(obs_flags, dtype=np.uint8))
        good_obs = good_arr[obs_rows]

        for lo in range(0, len(entries), WORD_LANES):
            chunk = entries[lo:lo + WORD_LANES]
            batch = len(chunk)
            V = np.repeat(good_arr[:, None], batch, axis=1)
            net_rows: List[int] = []
            net_cols: List[int] = []
            net_words: List[int] = []
            branch_by_group: Dict[int, List[Tuple[int, int, int, int]]] = {}
            start_group = n_groups
            for col, (_index, site, fword, start, _allowed) in enumerate(chunk):
                if start < start_group:
                    start_group = start
                if site[0] == "net":
                    net_rows.append(site[1])
                    net_cols.append(col)
                    net_words.append(fword)
                else:
                    serial, row = plan.op_slot[site[1]]
                    branch_by_group.setdefault(serial, []).append(
                        (row, site[2], col, fword))
            force = None
            if net_rows:
                force = (np.array(net_rows, dtype=np.int64),
                         np.array(net_cols, dtype=np.int64),
                         np.array(net_words, dtype=U64))
                V[force[0], force[1]] = force[2]
            level = None
            for serial in range(start_group, n_groups):
                group = plan.groups[serial]
                if level is not None and group.level != level and force:
                    V[force[0], force[1]] = force[2]
                level = group.level
                pins = [V[group.in_idx[:, k]]
                        for k in range(group.in_idx.shape[1])]
                overrides = branch_by_group.get(serial)
                if overrides:
                    for row, pos, col, fword in overrides:
                        pins[pos][row, col] = fword
                out = group.cell.word_fn(m, *pins)
                for pos in range(group.n_out):
                    V[group.out_idx[pos]] = out[pos]
            if force:
                V[force[0], force[1]] = force[2]
            det = np.bitwise_or.reduce(V[obs_rows] ^ good_obs[:, None],
                                       axis=0)
            for col, (index, _site, _fword, _start, allowed) in enumerate(chunk):
                results[index] = bool(int(det[col]) & allowed)
        return results

    # ------------------------------------------------------------------ #
    def detect_planes(self, compiled: CompiledNetlist, items, g1, g0,
                      frozen, mask: int, obs_flags) -> List[int]:
        np = _load_numpy()
        plan = (self._plan(compiled)
                if np is not None and 0 < mask < (1 << 64) else None)
        if plan is not None and bytes(frozen) != plan.tied_frozen:
            plan = None  # extra frozen nets: only the int walk honours them
        if plan is None:
            return super().detect_planes(compiled, items, g1, g0, frozen,
                                         mask, obs_flags)
        results = [0] * len(items)
        n_groups = len(plan.groups)
        cone_sizes = compiled.fanout_cone_sizes()
        walk_program = None
        entries = []  # (item index, site, f1, f0, start group)
        for index, (site, stuck_value) in enumerate(items):
            f1 = mask if stuck_value else 0
            f0 = 0 if stuck_value else mask
            if site[0] == "net":
                if g1[site[1]] == f1 and g0[site[1]] == f0:
                    continue
                start = plan.net_first_group[site[1]]
                cone = cone_sizes[site[1]]
            elif site[0] == "branch":
                start = plan.op_slot[site[1]][0]
                cone = 1 + max((cone_sizes[nid]
                                for nid in compiled.op_fanout[site[1]]
                                if nid >= 0), default=0)
            else:
                continue
            if cone <= PLANE_WALK_CUTOFF:
                if walk_program is None:
                    from repro.simulation.simulator import plane_program
                    walk_program = plane_program(compiled)[0]
                results[index] = detect_mask_planes(
                    compiled, walk_program, site, stuck_value, g1, g0,
                    frozen, mask, obs_flags)
                continue
            entries.append((index, site, f1, f0, start))
        if not entries:
            return results
        entries.sort(key=lambda entry: entry[4])

        U64 = np.uint64
        m = U64(mask)
        good1 = np.zeros(plan.n_rows, dtype=U64)
        good0 = np.zeros(plan.n_rows, dtype=U64)
        good1[:compiled.n_nets] = np.array(g1, dtype=U64)
        good0[:compiled.n_nets] = np.array(g0, dtype=U64)
        obs_rows = np.flatnonzero(np.frombuffer(obs_flags, dtype=np.uint8))
        good1_obs = good1[obs_rows][:, None]
        good0_obs = good0[obs_rows][:, None]

        for lo in range(0, len(entries), PLANE_LANES):
            chunk = entries[lo:lo + PLANE_LANES]
            batch = len(chunk)
            V1 = np.repeat(good1[:, None], batch, axis=1)
            V0 = np.repeat(good0[:, None], batch, axis=1)
            net_rows: List[int] = []
            net_cols: List[int] = []
            net_f1: List[int] = []
            net_f0: List[int] = []
            branch_by_group: Dict[int, List[Tuple[int, int, int, int, int]]] = {}
            start_group = n_groups
            for col, (_index, site, f1, f0, start) in enumerate(chunk):
                if start < start_group:
                    start_group = start
                if site[0] == "net":
                    net_rows.append(site[1])
                    net_cols.append(col)
                    net_f1.append(f1)
                    net_f0.append(f0)
                else:
                    serial, row = plan.op_slot[site[1]]
                    branch_by_group.setdefault(serial, []).append(
                        (row, site[2], col, f1, f0))
            force = None
            if net_rows:
                force = (np.array(net_rows, dtype=np.int64),
                         np.array(net_cols, dtype=np.int64),
                         np.array(net_f1, dtype=U64),
                         np.array(net_f0, dtype=U64))
                V1[force[0], force[1]] = force[2]
                V0[force[0], force[1]] = force[3]
            level = None
            for serial in range(start_group, n_groups):
                group = plan.groups[serial]
                if level is not None and group.level != level and force:
                    V1[force[0], force[1]] = force[2]
                    V0[force[0], force[1]] = force[3]
                level = group.level
                args = []
                for k in range(group.in_idx.shape[1]):
                    args.append(V1[group.in_idx[:, k]])
                    args.append(V0[group.in_idx[:, k]])
                overrides = branch_by_group.get(serial)
                if overrides:
                    for row, pos, col, f1, f0 in overrides:
                        args[2 * pos][row, col] = f1
                        args[2 * pos + 1][row, col] = f0
                out = group.cell.plane_fn(m, *args)
                for pos in range(group.n_out):
                    V1[group.out_idx[pos]] = out[2 * pos]
                    V0[group.out_idx[pos]] = out[2 * pos + 1]
            if force:
                V1[force[0], force[1]] = force[2]
                V0[force[0], force[1]] = force[3]
            # Definite on both sides and different: good 1 vs faulty 0, or
            # good 0 vs faulty 1.  Nets equal to the good machine (including
            # every net the fault never reached) contribute nothing.
            det = np.bitwise_or.reduce(
                (good1_obs & V0[obs_rows]) | (good0_obs & V1[obs_rows]),
                axis=0)
            for col, (index, _site, _f1, _f0, _start) in enumerate(chunk):
                results[index] = int(det[col]) & mask
        return results


_INT_KERNEL = KERNELS.register("int", IntKernel())
_NUMPY_KERNEL = KERNELS.register("numpy", NumpyKernel())

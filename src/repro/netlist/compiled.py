"""The compiled netlist IR: one levelized integer-ID core for every engine.

Every analysis in this package — three-valued simulation, bit-parallel
pattern simulation, serial fault simulation, ATPG implication, PODEM and the
tie analysis — operates on the *combinational view* of a netlist.  Before
this module existed each of them re-walked the :class:`~repro.netlist.module.
Netlist` object graph through string-keyed dicts and rebuilt its own
topological order.  :class:`CompiledNetlist` performs that flattening once:

* net names are interned to dense integer IDs (``net_id`` / ``net_names``);
* combinational gates become level-ordered *op* arrays with precomputed
  fanin/fanout net-ID tuples (``op_fanin`` / ``op_fanout`` / ``op_level``);
* sequential cells get the same treatment (``seq_fanin`` / ``seq_fanout``);
* per-net connectivity (driver op, load pins, successor nets) and transitive
  fanout cones are ID-indexed tables, the cones memoised on first use;
* ties and port roles are ID-indexed arrays.

Engines index plain Python lists by integer instead of hashing strings, and
— because compiled netlists are cached — they share one build per netlist
signature across a whole :class:`repro.api.Session` sweep.

Caching
-------
:func:`get_compiled` is the entry point.  It keeps two layers:

* a per-object slot on the :class:`Netlist` itself, revalidated with a cheap
  fingerprint (mutation counter + tie table + unobservable ports), so the
  common case — many engines over one unchanged netlist — is a dict-free hit;
* a global, signature-keyed LRU so *structurally identical* netlists (e.g.
  the per-scenario rebuilds of a :class:`~repro.api.ScenarioGrid` sweep)
  share a single build.

:func:`compile_stats` exposes build/hit counters so tests can assert the
"compile at most once per netlist signature" contract.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from repro.netlist.cells import Cell
from repro.netlist.module import Instance, Netlist
from repro.netlist.traversal import topological_instances

#: Net-ID placeholder for an unconnected pin.
NO_NET = -1


#: Attribute used for the per-object signature memo on Netlist instances.
_SIGNATURE_SLOT = "_signature_cache"


def netlist_signature(netlist: Netlist) -> str:
    """A stable digest of the netlist structure.

    Covers the name, ports, unobservable ports, every instance with its
    cell and pin connectivity, and every tied net — i.e. everything the
    analyses read.  Two structurally identical clones hash the same.

    Memoised on the netlist object, revalidated with the same cheap
    fingerprint :func:`get_compiled` trusts (plus the name), so the many
    callers that key caches by signature pay the full walk once per
    structural edit.
    """
    key = (netlist.name, _fingerprint(netlist))
    slot = getattr(netlist, _SIGNATURE_SLOT, None)
    if slot is not None and slot[0] == key:
        return slot[1]
    signature = _compute_signature(netlist)
    try:
        setattr(netlist, _SIGNATURE_SLOT, (key, signature))
    except AttributeError:  # pragma: no cover - slotted subclasses
        pass
    return signature


def _compute_signature(netlist: Netlist) -> str:
    hasher = hashlib.sha256()

    def feed(text: str) -> None:
        hasher.update(text.encode())
        hasher.update(b"\x00")

    feed(netlist.name)
    for port, direction in sorted(netlist.ports.items()):
        feed(f"P{port}:{direction}")
    for port in sorted(netlist.unobservable_ports):
        feed(f"U{port}")
    for inst_name in sorted(netlist.instances):
        inst = netlist.instances[inst_name]
        feed(f"I{inst_name}:{inst.cell.name}")
        for port in sorted(inst.pins):
            pin = inst.pins[port]
            feed(f"p{port}={pin.net.name if pin.net is not None else ''}")
    for net_name in sorted(netlist.nets):
        tied = netlist.nets[net_name].tied
        if tied is not None:
            feed(f"T{net_name}={tied}")
    return hasher.hexdigest()


class CompiledNetlist:
    """Immutable, integer-ID snapshot of a netlist's combinational view.

    Built by :func:`compile_netlist` / :func:`get_compiled`; engines treat
    every table as read-only.  ``instances`` / ``seq_instances`` hold
    references into the *origin* netlist object graph — they are only used
    for name/cell/pin-role metadata, which is identical across
    signature-equal netlists, so a compiled netlist may safely serve a
    structural clone of its origin.
    """

    __slots__ = (
        "netlist", "signature_hint",
        # nets
        "n_nets", "net_names", "net_id", "tied",
        "is_input_port", "is_output_port", "is_observable_output",
        "input_port_ids", "output_port_ids", "observable_output_ids",
        # combinational ops (topological / level order)
        "n_ops", "instances", "op_cell", "op_fanin", "op_fanout", "op_level",
        "op_of_instance",
        # sequential cells
        "seq_instances", "seq_cell", "seq_fanin", "seq_fanout",
        "seq_of_instance", "state_net_ids",
        # per-net connectivity
        "net_driver_op", "net_driver_seq", "net_load_ops", "net_load_seqs",
        "net_succ",
        # lazy memos
        "_lock", "_fanout_ops_memo", "_branch_cone_memo",
        "_fanout_nets_memo", "_extensions",
    )

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        self.signature_hint: Optional[str] = None

        # ---------------- nets ---------------- #
        net_names: List[str] = list(netlist.nets)
        net_id: Dict[str, int] = {name: i for i, name in enumerate(net_names)}
        n = len(net_names)
        self.n_nets = n
        self.net_names = net_names
        self.net_id = net_id
        self.tied: List[Optional[int]] = [None] * n
        self.is_input_port = [False] * n
        self.is_output_port = [False] * n
        self.is_observable_output = [False] * n
        for name, net in netlist.nets.items():
            nid = net_id[name]
            self.tied[nid] = net.tied
            self.is_input_port[nid] = net.is_input_port
            self.is_output_port[nid] = net.is_output_port
        self.input_port_ids = [net_id[p] for p in netlist.input_ports()
                               if p in net_id]
        self.output_port_ids = [net_id[p] for p in netlist.output_ports()
                                if p in net_id]
        self.observable_output_ids = [
            net_id[p] for p in netlist.observable_output_ports()
            if p in net_id]
        for nid in self.observable_output_ids:
            self.is_observable_output[nid] = True

        # ------------- combinational ops ------------- #
        order = topological_instances(netlist)  # raises on loops
        self.n_ops = len(order)
        self.instances: List[Instance] = order
        self.op_cell: List[Cell] = [inst.cell for inst in order]
        self.op_of_instance: Dict[str, int] = {
            inst.name: i for i, inst in enumerate(order)}

        def pin_ids(inst: Instance, ports: Tuple[str, ...]) -> Tuple[int, ...]:
            ids = []
            for port in ports:
                pin_net = inst.pins[port].net
                ids.append(net_id[pin_net.name] if pin_net is not None else NO_NET)
            return tuple(ids)

        self.op_fanin = [pin_ids(inst, inst.cell.inputs) for inst in order]
        self.op_fanout = [pin_ids(inst, inst.cell.outputs) for inst in order]

        # ------------- sequential cells ------------- #
        seq = [inst for inst in netlist.instances.values() if inst.is_sequential]
        self.seq_instances = seq
        self.seq_cell = [inst.cell for inst in seq]
        self.seq_of_instance = {inst.name: i for i, inst in enumerate(seq)}
        self.seq_fanin = [pin_ids(inst, inst.cell.inputs) for inst in seq]
        self.seq_fanout = [pin_ids(inst, inst.cell.outputs) for inst in seq]
        # Output nets of sequential cells, in instance/pin order (the
        # pseudo-primary inputs of the combinational view).  Deliberately
        # *not* deduplicated — mirrors the legacy simulator's state_nets.
        self.state_net_ids: List[int] = [
            nid for fanout in self.seq_fanout for nid in fanout if nid >= 0]

        # ------------- per-net connectivity ------------- #
        driver_op = [NO_NET] * n
        driver_seq = [NO_NET] * n
        load_ops: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        load_seqs: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
        for i, fanout in enumerate(self.op_fanout):
            for nid in fanout:
                if nid >= 0:
                    driver_op[nid] = i
        for i, fanout in enumerate(self.seq_fanout):
            for nid in fanout:
                if nid >= 0:
                    driver_seq[nid] = i
        for i, fanin in enumerate(self.op_fanin):
            for pos, nid in enumerate(fanin):
                if nid >= 0:
                    load_ops[nid].append((i, pos))
        for i, fanin in enumerate(self.seq_fanin):
            for pos, nid in enumerate(fanin):
                if nid >= 0:
                    load_seqs[nid].append((i, pos))
        self.net_driver_op = driver_op
        self.net_driver_seq = driver_seq
        self.net_load_ops = [tuple(loads) for loads in load_ops]
        self.net_load_seqs = [tuple(loads) for loads in load_seqs]

        # Successor nets: output nets of every loading instance (comb and
        # sequential alike) — the step relation of X-path / reachability
        # searches, matching the legacy ``net.loads`` traversals.
        succ: List[Tuple[int, ...]] = []
        for nid in range(n):
            nxt: List[int] = []
            for op, _pos in self.net_load_ops[nid]:
                nxt.extend(out for out in self.op_fanout[op] if out >= 0)
            for sq, _pos in self.net_load_seqs[nid]:
                nxt.extend(out for out in self.seq_fanout[sq] if out >= 0)
            succ.append(tuple(nxt))
        self.net_succ = succ

        # ------------- logic levels ------------- #
        levels = [0] * self.n_ops
        for i, fanin in enumerate(self.op_fanin):
            level = 0
            for nid in fanin:
                if nid >= 0:
                    drv = driver_op[nid]
                    if drv >= 0:
                        level = max(level, levels[drv] + 1)
            levels[i] = level
        self.op_level = levels

        # ------------- lazy memos ------------- #
        # Re-entrant: an extension factory may itself request other
        # extensions (the static-analysis handle builds on the evaluator
        # programs, which live in extension slots too).
        self._lock = threading.RLock()
        self._fanout_ops_memo: Dict[int, Tuple[int, ...]] = {}
        self._branch_cone_memo: Dict[int, Tuple[int, ...]] = {}
        self._fanout_nets_memo: Dict[int, frozenset] = {}
        self._extensions: Dict[str, object] = {}

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def id_of(self, net_name: str) -> Optional[int]:
        """Net ID for a name, or None when the net does not exist."""
        return self.net_id.get(net_name)

    def pin_ref(self, pin_name: str) -> Tuple[str, int, int, bool]:
        """Resolve ``"instance/port"`` to ``(kind, index, pin_pos, is_input)``.

        ``kind`` is ``"op"`` (combinational) or ``"seq"``; ``index`` indexes
        the matching table; ``pin_pos`` is the position within the cell's
        input or output tuple.  Raises like
        :meth:`~repro.netlist.module.Netlist.pin_by_name` on bad names.
        """
        inst_name, _, port = pin_name.rpartition("/")
        if not inst_name:
            raise ValueError(f"{pin_name!r} is not an instance pin name")
        op = self.op_of_instance.get(inst_name)
        if op is not None:
            cell = self.op_cell[op]
            kind, index = "op", op
        else:
            sq = self.seq_of_instance.get(inst_name)
            if sq is None:
                raise KeyError(f"instance {inst_name!r} not found")
            cell = self.seq_cell[sq]
            kind, index = "seq", sq
        if port in cell.inputs:
            return kind, index, cell.inputs.index(port), True
        if port in cell.outputs:
            return kind, index, cell.outputs.index(port), False
        raise KeyError(f"cell {cell.name!r} has no pin {port!r} "
                       f"(instance {inst_name!r})")

    def pin_net_id(self, kind: str, index: int, pos: int,
                   is_input: bool) -> int:
        table = ((self.op_fanin if is_input else self.op_fanout)
                 if kind == "op"
                 else (self.seq_fanin if is_input else self.seq_fanout))
        return table[index][pos]

    # ------------------------------------------------------------------ #
    # memoised cones
    # ------------------------------------------------------------------ #
    def fanout_ops(self, nid: int) -> Tuple[int, ...]:
        """Combinational ops transitively downstream of a net, in
        topological (ascending index) order.  Stops at sequential cells."""
        memo = self._fanout_ops_memo
        cached = memo.get(nid)
        if cached is not None:
            return cached
        seen_ops = set()
        seen_nets = set()
        work = [nid]
        while work:
            net = work.pop()
            if net in seen_nets:
                continue
            seen_nets.add(net)
            for op, _pos in self.net_load_ops[net]:
                if op in seen_ops:
                    continue
                seen_ops.add(op)
                work.extend(out for out in self.op_fanout[op] if out >= 0)
        cone = tuple(sorted(seen_ops))
        with self._lock:
            memo[nid] = cone
        return cone

    def branch_cone(self, op: int) -> Tuple[int, ...]:
        """Cone for a fault on an input pin of op: the op itself plus the
        transitive fanout of its output nets, topologically ordered."""
        memo = self._branch_cone_memo
        cached = memo.get(op)
        if cached is not None:
            return cached
        ops = {op}
        for out in self.op_fanout[op]:
            if out >= 0:
                ops.update(self.fanout_ops(out))
        cone = tuple(sorted(ops))
        with self._lock:
            memo[op] = cone
        return cone

    def fanout_nets(self, nid: int) -> frozenset:
        """Nets the fault effect can reach within one time frame: the origin
        plus everything downstream through combinational logic."""
        memo = self._fanout_nets_memo
        cached = memo.get(nid)
        if cached is not None:
            return cached
        cone = set()
        work = [nid]
        while work:
            net = work.pop()
            if net in cone:
                continue
            cone.add(net)
            for op, _pos in self.net_load_ops[net]:
                work.extend(out for out in self.op_fanout[op] if out >= 0)
        result = frozenset(cone)
        with self._lock:
            memo[nid] = result
        return result

    def fanout_cone_sizes(self) -> List[int]:
        """Per-net transitive fanout cone size (combinational op count).

        Equal to ``len(self.fanout_ops(nid))`` for every net, but computed
        for *all* nets in one reverse-topological bitset pass instead of
        one BFS per net — the cone-aware fault partitioner
        (:mod:`repro.simulation.sharded`) uses it to balance shards without
        paying a per-net cone walk.  Memoised per compiled netlist.
        """
        def build(compiled: "CompiledNetlist") -> List[int]:
            n_ops = compiled.n_ops
            net_load_ops = compiled.net_load_ops
            op_fanout = compiled.op_fanout
            # reach[op] = bitset of ops transitively downstream of op
            # (op included).  Ops are stored in topological order, so one
            # descending pass sees every successor before its producers.
            reach = [0] * n_ops
            for op in range(n_ops - 1, -1, -1):
                acc = 1 << op
                for out in op_fanout[op]:
                    if out >= 0:
                        for lop, _pos in net_load_ops[out]:
                            acc |= reach[lop]
                reach[op] = acc
            sizes = [0] * compiled.n_nets
            for nid in range(compiled.n_nets):
                acc = 0
                for lop, _pos in net_load_ops[nid]:
                    acc |= reach[lop]
                sizes[nid] = acc.bit_count()
            return sizes

        return self.extension("fanout_cone_sizes", build)

    # ------------------------------------------------------------------ #
    # shared derived data
    # ------------------------------------------------------------------ #
    def extension(self, key: str, factory: Callable[["CompiledNetlist"], object]):
        """Memoise engine-specific derived tables on the compiled netlist.

        The simulation layer uses this to build (once per compiled netlist,
        not per simulator) its per-op evaluator arrays — e.g. the word-level
        and bit-plane programs.
        """
        ext = self._extensions.get(key)
        if ext is None:
            with self._lock:
                ext = self._extensions.get(key)
                if ext is None:
                    ext = factory(self)
                    self._extensions[key] = ext
        return ext

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"CompiledNetlist({self.netlist.name!r}, nets={self.n_nets}, "
                f"ops={self.n_ops}, seq={len(self.seq_instances)})")


# --------------------------------------------------------------------- #
# compile cache
# --------------------------------------------------------------------- #
_CACHE_LOCK = threading.Lock()
_SIG_CACHE: "OrderedDict[str, CompiledNetlist]" = OrderedDict()
_SIG_CACHE_MAX = 32
_STATS = {"builds": 0, "object_hits": 0, "signature_hits": 0}

#: Attribute used for the per-object cache slot on Netlist instances.
_SLOT = "_compiled_cache"


def _fingerprint(netlist: Netlist) -> Tuple:
    """Cheap revalidation key for the per-object cache slot.

    The mutation counter covers structural edits made through the Netlist
    API; ties and unobservable ports are mutated directly on the graph, so
    they are fingerprinted by value.
    """
    ties = tuple(sorted(
        (name, net.tied) for name, net in netlist.nets.items()
        if net.tied is not None))
    return (getattr(netlist, "_mutations", 0), ties,
            frozenset(netlist.unobservable_ports))


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Unconditionally build a fresh :class:`CompiledNetlist` (no caching)."""
    return CompiledNetlist(netlist)


def get_compiled(netlist: Netlist) -> CompiledNetlist:
    """The shared compiled form of ``netlist`` (cached, revalidated).

    Per-object hits cost one fingerprint comparison; structurally identical
    netlist objects (equal :func:`netlist_signature`) share one build via a
    global LRU, which is what keeps a whole :class:`repro.api.Session`
    sweep at a single compile per netlist signature.
    """
    key = _fingerprint(netlist)
    slot = getattr(netlist, _SLOT, None)
    if slot is not None and slot[0] == key:
        with _CACHE_LOCK:
            _STATS["object_hits"] += 1
        return slot[1]

    signature = netlist_signature(netlist)
    with _CACHE_LOCK:
        compiled = _SIG_CACHE.get(signature)
        if compiled is not None:
            _SIG_CACHE.move_to_end(signature)
            _STATS["signature_hits"] += 1
    if compiled is None:
        compiled = CompiledNetlist(netlist)
        compiled.signature_hint = signature
        with _CACHE_LOCK:
            _STATS["builds"] += 1
            _SIG_CACHE[signature] = compiled
            _SIG_CACHE.move_to_end(signature)
            while len(_SIG_CACHE) > _SIG_CACHE_MAX:
                _SIG_CACHE.popitem(last=False)
    try:
        setattr(netlist, _SLOT, (key, compiled))
    except AttributeError:  # pragma: no cover - slotted subclasses
        pass
    return compiled


def compile_stats() -> Dict[str, object]:
    """Build/hit counters of the compile cache (for tests and reports).

    Besides the counters, the record names the active simulation kernel
    (and the numpy version when that backend is live) so numbers derived
    from it are attributable to a backend.
    """
    # Imported here: repro.simulation.kernels imports this module.
    from repro.simulation.kernels import kernel_info

    with _CACHE_LOCK:
        stats: Dict[str, object] = dict(_STATS)
        stats["cached_signatures"] = len(_SIG_CACHE)
    stats.update(kernel_info())
    return stats


def reset_compile_stats(clear_cache: bool = False) -> None:
    """Zero the counters (and optionally drop the signature cache)."""
    with _CACHE_LOCK:
        for key in _STATS:
            _STATS[key] = 0
        if clear_cache:
            _SIG_CACHE.clear()

"""Standard-cell library with three-valued (0/1/X) semantics.

Every cell used by the SoC generators, the scan-insertion pass and the ATPG
engine is defined here, and this module is the *only* place a standard
cell's logic is written down.  Each cell carries a **formula** — one
expression per output (for a sequential cell, its next state) over a small
primitive algebra: ``not``, ``and``, ``or``, ``xor``, ``mux`` and the strict
``reset`` of ``DFFR``/``SDFFR``.  :func:`lower` renders a formula, once per
cell kind, into the flat evaluator of each lane:

* **scalar** — :meth:`Cell.evaluate` over the ``v_*`` functions below;
* **word** (:attr:`Cell.word_fn`) — two-valued bit vectors, ``(m, *pins)``;
* **plane** (:attr:`Cell.plane_fn`) — the three-valued two-plane encoding,
  ``(m, a1, a0, b1, b0, ...)`` returning the flat ``(y1, y0, ...)`` tuple.

The word and plane functions are plain bitwise expressions, so the same
function runs on Python ints and on numpy ``uint64`` arrays: every kernel
and every simulator evaluates the standard cells through them.  Cells
outside the library may carry a formula too; cells built from a bare
``eval_fn`` keep a per-bit truth-table fallback in the plane lane.  The
five-valued D-calculus PODEM needs is obtained in :mod:`repro.atpg.d_algebra`
by evaluating the same functions componentwise on (good-machine,
faulty-machine) value pairs.

Sequential cells (DFF variants, mux-scan flip-flops) carry pin-role metadata
(`clock`, `data`, `scan_in`, `scan_enable`, `reset`, ...) used by the scan
chain tracer, the sequential simulator and the on-line untestability
analyses.

Adding a cell kind means adding one :class:`Cell` with its formula to
:func:`standard_library`; every evaluator follows from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

# Three-valued logic encoding.  Chosen as small ints so hot simulation loops
# can use them directly as list indices.
LOGIC_0 = 0
LOGIC_1 = 1
LOGIC_X = 2

_VALID_VALUES = (LOGIC_0, LOGIC_1, LOGIC_X)


def v_not(a: int) -> int:
    """Three-valued NOT."""
    if a == LOGIC_X:
        return LOGIC_X
    return LOGIC_1 - a


def v_and(*args: int) -> int:
    """Three-valued AND of any arity: a single 0 dominates any X."""
    saw_x = False
    for a in args:
        if a == LOGIC_0:
            return LOGIC_0
        if a == LOGIC_X:
            saw_x = True
    return LOGIC_X if saw_x else LOGIC_1


def v_or(*args: int) -> int:
    """Three-valued OR of any arity: a single 1 dominates any X."""
    saw_x = False
    for a in args:
        if a == LOGIC_1:
            return LOGIC_1
        if a == LOGIC_X:
            saw_x = True
    return LOGIC_X if saw_x else LOGIC_0


def v_xor(*args: int) -> int:
    """Three-valued XOR of any arity: any X makes the result X."""
    acc = LOGIC_0
    for a in args:
        if a == LOGIC_X:
            return LOGIC_X
        acc ^= a
    return acc


def v_mux(sel: int, d0: int, d1: int) -> int:
    """Three-valued 2:1 multiplexer: returns d0 when sel=0, d1 when sel=1.

    When the select is X the output is only known if both data inputs agree.
    """
    if sel == LOGIC_0:
        return d0
    if sel == LOGIC_1:
        return d1
    if d0 == d1 and d0 != LOGIC_X:
        return d0
    return LOGIC_X


def v_reset(rn: int, d: int) -> int:
    """Active-low reset in front of a flip-flop: RN=0 forces 0, RN=1 passes D.

    Strict, unlike ``v_and``: an X reset gives X even when D is 0.
    """
    if rn == LOGIC_1:
        return d
    return LOGIC_0 if rn == LOGIC_0 else LOGIC_X


def v_buf(a: int) -> int:
    """Three-valued buffer (identity)."""
    return a


# --------------------------------------------------------------------- #
# gate families
# --------------------------------------------------------------------- #
#: Simple gate families: (controlling input value, output inversion).  A
#: controlling value of None means no single input forces the output.
GATE_FAMILIES: Dict[str, Tuple[Optional[int], bool]] = {
    "AND": (LOGIC_0, False),
    "NAND": (LOGIC_0, True),
    "OR": (LOGIC_1, False),
    "NOR": (LOGIC_1, True),
    "BUF": (None, False),
    "INV": (None, True),
}


def cell_family(cell_name: str) -> str:
    """The family of a cell kind: its name without the arity (``NAND3``
    -> ``NAND``)."""
    return cell_name.rstrip("0123456789")


# --------------------------------------------------------------------- #
# formulas and their lowering
# --------------------------------------------------------------------- #
#: A formula is an input pin name, a constant (``LOGIC_0``/``LOGIC_1``) or
#: ``(op, *operands)`` with ``op`` one of ``not``, ``and``, ``or``,
#: ``xor``, ``mux`` (``(mux, sel, d0, d1)``) and ``reset`` (``(reset, rn,
#: d)``, see :func:`v_reset`).  ``and``/``or``/``xor`` take any arity.
Formula = Union[str, int, Tuple]


def _scalar_op(op: str, args: Sequence[Tuple[str, ...]]) -> Tuple[str, ...]:
    return (f"v_{op}(" + ", ".join(a[0] for a in args) + ")",)


_WORD_INFIX = {"and": " & ", "or": " | ", "xor": " ^ ", "reset": " & "}


def _word_op(op: str, args: Sequence[Tuple[str, ...]]) -> Tuple[str, ...]:
    # Only complemented results are masked: everything else stays inside
    # the window by construction.
    if op == "not":
        return (f"(~{args[0][0]} & m)",)
    if op == "mux":
        (s,), (d0,), (d1,) = args
        return (f"(({d0} & ~{s}) | ({d1} & {s}))",)
    return ("(" + _WORD_INFIX[op].join(a[0] for a in args) + ")",)


def _plane_op(op: str, args: Sequence[Tuple[str, ...]]) -> Tuple[str, ...]:
    # Planes never complement: NOT swaps the 1-plane and the 0-plane.
    if op == "not":
        return (args[0][1], args[0][0])
    if op in ("and", "or"):
        ones = (" & " if op == "and" else " | ").join(a[0] for a in args)
        zeros = (" | " if op == "and" else " & ").join(a[1] for a in args)
        return (f"({ones})", f"({zeros})")
    if op == "xor":
        (a1, a0), (b1, b0) = args
        return (f"(({a1} & {b0}) | ({a0} & {b1}))",
                f"(({a1} & {b1}) | ({a0} & {b0}))")
    if op == "mux":
        # Defined when the selected leg is definite, or when the select is
        # X but both legs agree definitely.
        (s1, s0), (d01, d00), (d11, d10) = args
        return (f"(({s0} & {d01}) | ({s1} & {d11}) | ({d01} & {d11}))",
                f"(({s0} & {d00}) | ({s1} & {d10}) | ({d00} & {d10}))")
    (r1, r0), (d1, d0) = args  # reset
    return (f"({r1} & {d1})", f"({r0} | ({r1} & {d0}))")


#: Per lane: (primitive renderer, operand positions a primitive reads more
#: than once — compound operands there are bound to temporaries first).
_LANES: Dict[str, Tuple[Callable[..., Tuple[str, ...]],
                        Dict[str, Tuple[int, ...]]]] = {
    "scalar": (_scalar_op, {}),
    "word": (_word_op, {"mux": (0,)}),
    "plane": (_plane_op, {"xor": (0, 1), "mux": (1, 2), "reset": (0,)}),
}
_CONSTANTS: Dict[str, Dict[int, Tuple[str, ...]]] = {
    "scalar": {LOGIC_0: ("0",), LOGIC_1: ("1",)},
    "word": {LOGIC_0: ("0",), LOGIC_1: ("m",)},
    "plane": {LOGIC_0: ("0", "m"), LOGIC_1: ("m", "0")},
}
_SCALAR_NAMESPACE = {"v_not": v_not, "v_and": v_and, "v_or": v_or,
                     "v_xor": v_xor, "v_mux": v_mux, "v_reset": v_reset}


def lower(name: str, inputs: Sequence[str],
          formulas: Mapping[str, Formula], lane: str) -> Callable:
    """Render ``formulas`` (output pin -> formula) into one flat function.

    ``scalar`` gives ``fn(values) -> {pin: value}``; ``word`` gives
    ``fn(m, *pins) -> (y, ...)``; ``plane`` gives ``fn(m, a1, a0, ...) ->
    (y1, y0, ...)``, with outputs in the mapping's order.  Each primitive
    is rendered inline, so one evaluation is one call.
    """
    render, repeated = _LANES[lane]
    constants = _CONSTANTS[lane]
    leaves: Dict[str, Tuple[str, ...]]
    if lane == "scalar":
        leaves = {pin: (f"values[{pin!r}]",) for pin in inputs}
        params = ["values"]
    else:
        suffixes = ("_1", "_0") if lane == "plane" else ("",)
        leaves = {pin: tuple(f"a{k}{s}" for s in suffixes)
                  for k, pin in enumerate(inputs)}
        params = ["m"] + [leaf for pin in inputs for leaf in leaves[pin]]
    lines: List[str] = []

    def bind(part: Tuple[str, ...]) -> Tuple[str, ...]:
        if all(s.isidentifier() or s.isdigit() for s in part):
            return part
        names = tuple(f"t{len(lines) + k}" for k in range(len(part)))
        for var, expr in zip(names, part):
            lines.append(f"    {var} = {expr}")
        return names

    def emit(formula: Formula) -> Tuple[str, ...]:
        if isinstance(formula, str):
            return leaves[formula]
        if isinstance(formula, int):
            return constants[formula]
        op, *operands = formula
        if op == "xor" and len(operands) > 2:
            operands = [("xor", *operands[:-1]), operands[-1]]
        args = [emit(operand) for operand in operands]
        for pos in repeated.get(op, ()):
            args[pos] = bind(args[pos])
        return render(op, args)

    results = [emit(formula) for formula in formulas.values()]
    if lane == "scalar":
        body = ("{" + ", ".join(f"{pin!r}: {part[0]}" for pin, part
                                in zip(formulas, results)) + "}")
    else:
        body = "(" + "".join(f"{s}, " for part in results for s in part) + ")"
    source = (f"def fn({', '.join(params)}):\n" + "\n".join(lines)
              + ("\n" if lines else "") + f"    return {body}\n")
    namespace: Dict[str, Any] = (dict(_SCALAR_NAMESPACE) if lane == "scalar"
                                 else {})
    exec(compile(source, f"<cell {name} {lane}>", "exec"), namespace)
    return namespace["fn"]


EvalFn = Callable[[Mapping[str, int]], Dict[str, int]]


@dataclass(frozen=True)
class Cell:
    """A library cell.

    Parameters
    ----------
    name:
        Library cell name, e.g. ``"NAND2"``.
    inputs / outputs:
        Ordered pin names.
    eval_fn:
        For combinational cells, maps input pin values to output pin values
        (three-valued).  For sequential cells, ``eval_fn`` computes the
        *next state* (key ``"__next__"``) from the input pin values; the Q
        output simply reflects the stored state, handled by the sequential
        simulator.  Derived from ``formula`` when one is given.
    sequential:
        True for state-holding cells.
    roles:
        Pin-role metadata for sequential cells: maps role name
        (``"clock"``, ``"data"``, ``"reset"``, ``"reset_active"``,
        ``"scan_in"``, ``"scan_enable"``, ``"scan_enable_active"``,
        ``"state_output"``, ``"scan_out"``, ``"debug_in"``, ``"debug_enable"``,
        ``"debug_out"``) to a pin name (or, for the ``*_active`` roles, to a
        logic value).
    formula:
        Output pin (``"__next__"`` for a sequential cell) -> :data:`Formula`.
        The cell's evaluators in every lane are lowered from it; a cell
        without one has no word model and no vectorized model.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    eval_fn: EvalFn = None  # type: ignore[assignment]  # set by __post_init__
    sequential: bool = False
    roles: Dict[str, object] = field(default_factory=dict)
    description: str = ""
    formula: Optional[Mapping[str, Formula]] = None
    #: Lowered two-valued word evaluator (combinational formula cells only:
    #: the word lane never evaluates state).
    word_fn: Optional[Callable] = field(default=None, init=False,
                                        repr=False, compare=False)
    #: Lowered three-valued plane evaluator (every formula cell).
    plane_fn: Optional[Callable] = field(default=None, init=False,
                                         repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.formula is None:
            if self.eval_fn is None:
                raise TypeError(f"cell {self.name!r} needs an eval_fn or "
                                f"a formula")
            return
        outs = ("__next__",) if self.sequential else self.outputs
        formulas = {pin: self.formula[pin] for pin in outs}
        lanes = {"plane_fn": "plane"}
        if self.eval_fn is None:
            lanes["eval_fn"] = "scalar"
        if not self.sequential:
            lanes["word_fn"] = "word"
        for attr, lane in lanes.items():
            object.__setattr__(self, attr,
                               lower(self.name, self.inputs, formulas, lane))

    @property
    def pins(self) -> Tuple[str, ...]:
        return self.inputs + self.outputs

    def is_input(self, pin: str) -> bool:
        return pin in self.inputs

    def is_output(self, pin: str) -> bool:
        return pin in self.outputs

    def role_pin(self, role: str) -> Optional[str]:
        """Return the pin playing ``role``, or None."""
        value = self.roles.get(role)
        return value if isinstance(value, str) else None

    def role_value(self, role: str) -> Optional[int]:
        """Return the logic value associated with ``role`` (for *_active roles)."""
        value = self.roles.get(role)
        return value if isinstance(value, int) else None

    def evaluate(self, inputs: Mapping[str, int]) -> Dict[str, int]:
        """Evaluate the cell's combinational function over three-valued inputs."""
        for pin_name, value in inputs.items():
            if value not in _VALID_VALUES:
                raise ValueError(
                    f"invalid logic value {value!r} on pin {pin_name!r} of {self.name}"
                )
        return self.eval_fn(inputs)

    def __reduce__(self):
        # Cells hold generated or closure evaluation functions, which
        # cannot be pickled.  Standard-library cells — the only ones the
        # generators emit — are singletons, so they pickle as a name
        # lookup; this is what lets whole netlists ship to worker
        # processes.  Custom cells fall back to the default protocol (and
        # fail loudly if their eval_fn is a closure).
        lib = _STANDARD_LIBRARY
        if lib is not None and self.name in lib and lib.get(self.name) is self:
            return (_standard_cell, (self.name,))
        return super().__reduce__()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        kind = "seq" if self.sequential else "comb"
        return f"Cell({self.name}, {kind}, in={self.inputs}, out={self.outputs})"


def _standard_cell(name: str) -> "Cell":
    """Pickle hook: resolve a standard-library cell by name."""
    return standard_library().get(name)


class Library:
    """A named collection of :class:`Cell` definitions."""

    def __init__(self, name: str = "generic") -> None:
        self.name = name
        self._cells: Dict[str, Cell] = {}

    def add(self, cell: Cell) -> Cell:
        if cell.name in self._cells:
            raise ValueError(
                f"cell {cell.name!r} already defined in "
                f"library {self.name!r}")
        self._cells[cell.name] = cell
        return cell

    def get(self, name: str) -> Cell:
        try:
            return self._cells[name]
        except KeyError:
            raise KeyError(
                f"cell {name!r} not found in library {self.name!r}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._cells

    def __iter__(self) -> Iterable[Cell]:
        return iter(self._cells.values())

    def __len__(self) -> int:
        return len(self._cells)

    def cell_names(self) -> Tuple[str, ...]:
        return tuple(self._cells)

    def __reduce__(self):
        if self is _STANDARD_LIBRARY:
            return (standard_library, ())
        return super().__reduce__()


def _comb(name: str, inputs: Tuple[str, ...], outputs: Tuple[str, ...],
          formula: Mapping[str, Formula], description: str = "") -> Cell:
    return Cell(name=name, inputs=inputs, outputs=outputs, formula=formula,
                description=description)


def _seq(name: str, inputs: Tuple[str, ...], next_state: Formula,
         roles: Dict[str, object], description: str) -> Cell:
    # Q follows the stored state; the formula is the next state.
    return Cell(name=name, inputs=inputs, outputs=("Q",),
                formula={"__next__": next_state}, sequential=True,
                roles={**roles, "state_output": "Q"},
                description=description)


def _make_combinational_cells(lib: Library) -> None:
    a_to_d = ("A", "B", "C", "D")

    lib.add(_comb("TIE0", (), ("Y",), {"Y": LOGIC_0},
                  "Constant logic 0 driver"))
    lib.add(_comb("TIE1", (), ("Y",), {"Y": LOGIC_1},
                  "Constant logic 1 driver"))
    lib.add(_comb("BUF", ("A",), ("Y",), {"Y": "A"}, "Buffer"))
    lib.add(_comb("INV", ("A",), ("Y",), {"Y": ("not", "A")}, "Inverter"))

    for arity in (2, 3, 4):
        ins = a_to_d[:arity]
        lib.add(_comb(f"AND{arity}", ins, ("Y",), {"Y": ("and", *ins)},
                      f"{arity}-input AND"))
        lib.add(_comb(f"NAND{arity}", ins, ("Y",),
                      {"Y": ("not", ("and", *ins))}, f"{arity}-input NAND"))
        lib.add(_comb(f"OR{arity}", ins, ("Y",), {"Y": ("or", *ins)},
                      f"{arity}-input OR"))
        lib.add(_comb(f"NOR{arity}", ins, ("Y",),
                      {"Y": ("not", ("or", *ins))}, f"{arity}-input NOR"))

    lib.add(_comb("XOR2", ("A", "B"), ("Y",), {"Y": ("xor", "A", "B")},
                  "2-input XOR"))
    lib.add(_comb("XNOR2", ("A", "B"), ("Y",),
                  {"Y": ("not", ("xor", "A", "B"))}, "2-input XNOR"))
    lib.add(_comb("MUX2", ("D0", "D1", "S"), ("Y",),
                  {"Y": ("mux", "S", "D0", "D1")},
                  "2:1 multiplexer, S=0 selects D0"))
    lib.add(_comb("AO21", ("A", "B", "C"), ("Y",),
                  {"Y": ("or", ("and", "A", "B"), "C")},
                  "AND-OR: Y = (A&B)|C"))
    lib.add(_comb("OA21", ("A", "B", "C"), ("Y",),
                  {"Y": ("and", ("or", "A", "B"), "C")},
                  "OR-AND: Y = (A|B)&C"))
    lib.add(_comb("AOI21", ("A", "B", "C"), ("Y",),
                  {"Y": ("not", ("or", ("and", "A", "B"), "C"))},
                  "AND-OR-invert"))
    lib.add(_comb("OAI21", ("A", "B", "C"), ("Y",),
                  {"Y": ("not", ("and", ("or", "A", "B"), "C"))},
                  "OR-AND-invert"))
    lib.add(_comb("HA", ("A", "B"), ("S", "CO"),
                  {"S": ("xor", "A", "B"), "CO": ("and", "A", "B")},
                  "Half adder"))
    lib.add(_comb("FA", ("A", "B", "CI"), ("S", "CO"),
                  {"S": ("xor", "A", "B", "CI"),
                   "CO": ("or", ("and", "A", "B"), ("and", "A", "CI"),
                          ("and", "B", "CI"))},
                  "Full adder"))


def _make_sequential_cells(lib: Library) -> None:
    scan_mux = ("mux", "SE", "D", "SI")  # Fig. 2: SE=1 captures SI
    scan_roles = {"clock": "CK", "data": "D", "scan_in": "SI",
                  "scan_enable": "SE", "scan_enable_active": LOGIC_1,
                  "scan_out": "Q"}
    reset_roles = {"reset": "RN", "reset_active": LOGIC_0}
    lib.add(_seq("DFF", ("D", "CK"), "D", {"clock": "CK", "data": "D"},
                 "Positive-edge D flip-flop"))
    lib.add(_seq("DFFR", ("D", "CK", "RN"), ("reset", "RN", "D"),
                 {"clock": "CK", "data": "D", **reset_roles},
                 "D flip-flop with active-low asynchronous reset"))
    lib.add(_seq("SDFF", ("D", "SI", "SE", "CK"), scan_mux, scan_roles,
                 "Mux-scan D flip-flop (scan shifts when SE=1)"))
    lib.add(_seq("SDFFR", ("D", "SI", "SE", "CK", "RN"),
                 ("reset", "RN", scan_mux), {**scan_roles, **reset_roles},
                 "Mux-scan D flip-flop with active-low reset"))
    # Fig. 4: DE=1 loads the debug input DI.
    lib.add(_seq("DBGFF", ("D", "DI", "DE", "CK"), ("mux", "DE", "D", "DI"),
                 {"clock": "CK", "data": "D", "debug_in": "DI",
                  "debug_enable": "DE", "debug_enable_active": LOGIC_1},
                 "D flip-flop with debug-override mux (Fig. 4 of the paper)"))


_STANDARD_LIBRARY: Optional[Library] = None


def standard_library() -> Library:
    """Return the shared standard-cell library (built once, cached)."""
    global _STANDARD_LIBRARY
    if _STANDARD_LIBRARY is None:
        lib = Library("repro_std")
        _make_combinational_cells(lib)
        _make_sequential_cells(lib)
        _STANDARD_LIBRARY = lib
    return _STANDARD_LIBRARY


#: The lowered evaluators of the standard library, by cell kind: the word
#: functions of every combinational cell and the plane functions of every
#: cell (for sequential cells, the next state).
WORD_FNS: Dict[str, Callable] = {cell.name: cell.word_fn
                                 for cell in standard_library()
                                 if cell.word_fn is not None}
PLANE_FNS: Dict[str, Callable] = {cell.name: cell.plane_fn
                                  for cell in standard_library()}

"""Residual evaluators for the general 1+3 orthonormal-frame system.

Evolution equations are checked as residuals, provided e_0-derivative minus
equation right-hand side, so any candidate solution can be verified without
time integration.  Constraint equations are evaluated directly (they must
vanish).  All evaluators accept a batch of jets through ``JetArrays``: one
array of batch shape S per component, keyed by field and component index,
where a derivative field's index has one extra frame index in front,
d*[a, ...] = e_a applied to the field.  S may be () for a single jet or
(N,) for a grid of them.  Report arrays are component-major with the batch
axes last: scalars have shape S, vectors (3,) + S and tensors (3, 3) + S.

The equation blocks read those arrays directly, and every index contraction
goes through one fixed-index kernel: ``_outer``, ``_vt`` and ``_tv``
(vector-tensor products), ``_dot``, ``_tr``, ``_ddot``, ``_matvec``,
``_div`` (sums over one index), ``_mm`` and ``_mmT`` (3x3 products),
``_iso`` (s delta_ab), and ``_eps_vec`` and ``_eps_sym`` (the
permutation-symbol contractions, one signed difference of two slices per
output component).  Each kernel adds its terms in index order, and each
term is one numpy operation along the batch.  ``residual_report``
evaluates a batch of any shape in one piece and reduces each result array
once, to the flat indices of its largest and its smallest entry, taken as
the plan replay makes the array, while it is still in cache.  The report's
norms (max over components of max(largest, -smallest)), worst points and
finite check all come from those; the per-point maxima over components are
built only when read (the ``residual`` CSV), and ``verify`` builds none.
The report holds the nonzero components the kernels produced by reference
and copies nothing: a block's array, component-major (components + S), is
assembled only when it is read.

Structural zeros.  On the conformally flat elastic jets almost every
component of the state vanishes identically (E = H = q = 0 and
n = omega = 0 on the ODE cases, pi and sigma are diagonal, udot, a and
Omega are (0, 0, x), and a jet built on a z-grid has only e_3
derivatives), so many terms of the general system are products with a
factor that is zero everywhere.  The block kernels read every vector,
tensor and derivative field as a table of its components (``_Components``,
an object array of component shape whose entries are batch arrays): a
component the jet holds no entry for, or only a zero one, is the sentinel
``ZERO``, as is a scalar field with none.  The kernels act on the tables
entry by entry and drop
every term with a ``ZERO`` factor: ``x + ZERO`` is ``x``, and a product,
quotient, power, index or transpose of ``ZERO`` is ``ZERO``.  A nonzero
component therefore goes through the same numpy operations in the same
order as in a dense evaluation, and adding or subtracting a zero changes
no nonzero float, so skipping can differ from the dense evaluation in two
ways only: the sign of a zero result (a ``ZERO`` result component is
written as +0.0), and a 0 * inf = nan that is no longer formed.  So that a
non-finite input still fails the report, a jet with a non-finite entry has
its ``ZERO`` components read as zero arrays by the same kernels; what is
left is a product of finite fields that overflows inside a term with a
``ZERO`` factor, which the dense evaluation turns into nan and skipping
drops with the term.  No kernel writes into its operands, since
``x + ZERO`` returns ``x`` itself.

Plans.  ``residual_report`` does not run the block kernels on the jet's
arrays: ``_efe_arr``, ``_jacobi_arr`` and ``_bianchi_arr`` are planned
(``_planned``).  A jet's sparsity pattern (``_Sparse.sparsity``), read
from its entries, lists the components that hold a nonzero entry and, for
each, which of the jet's distinct arrays it holds, by identity: pi22 is
pi11 and x_ji is x_ij on the conformally flat jets.  The first time a block
sees a pattern, it runs its kernel once on symbolic entries (``_Entry``)
in tables that hold ``ZERO`` in every other component, so the ``ZERO``
terms drop out as above, and records each ``+ - * / **`` and negation
once, keyed by the operator and its operands (a number by its type and
bits, so 2 and 2.0, or 0.0 and -0.0, stay apart): an operation the kernel
repeats on the same operands is made once, and one no result depends on is
dropped.  Every report of that pattern then replays the recorded
operations (``_Plan``) on its own arrays, in the recorded order, frees
each intermediate after its last use and takes the extremes of each result
array as it makes it (``_Results``); the same operations on the same
operands give the same bits, and the results have the kernels' structure,
except that one array may fill several components (field2[0, 1] is
field2[1, 0]).  Replay reads every operand from its list of slots, which
holds a reference to it, so numpy's temporary elision, which writes into an
operand nothing else refers to, never reuses one.  Each block keeps the
plans of its ``PLAN_CACHE`` most recent patterns, keyed by the pattern
alone, not by the batch shape or the values.  A non-finite jet is
evaluated by the kernels themselves, on dense tables, and leaves the plans
as they are: each position of its non-finite entry would be a new pattern.
The component tables are built only for a trace and for a non-finite jet.

The reduced systems of ``conformal`` are planned the same way
(``_planned_view``): their kernels read a jet's value and derivative slots
by variable name, ``ZERO`` where the jet holds no nonzero entry, and their
patterns list only the components they read.  A jet's entries are scanned
for which are live and finite once per report, or once for all the reports
of one jet when each is given its ``scan_jet``, as ``verify`` does; a scan
is never cached on the jet, whose entries a caller may change.

Residual norms are max-abs: a single violated component must not be
averaged away.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .core import EPS

__all__ = [
    "COMPONENT_NAMES",
    "GENERAL_BLOCKS",
    "JetArrays",
    "NonFiniteResidual",
    "ResidualReport",
    "residual_report",
    "ZERO",
]

_SCALARS = ("mu", "p", "Lam", "Theta")
_VECTORS = ("q", "udot", "omega", "Omega", "a")
_TENSORS = ("pi", "sigma", "n", "E", "H")
# Lam is constant; it has no derivative slot.
_DERIV_FIELDS = tuple(f for f in _SCALARS + _VECTORS + _TENSORS if f != "Lam")
# jet field -> component shape
_COMPONENTS = (
    {name: () for name in _SCALARS}
    | {name: (3,) for name in _VECTORS}
    | {name: (3, 3) for name in _TENSORS}
)
_COMPONENTS |= {"d" + name: (4,) + _COMPONENTS[name] for name in _DERIV_FIELDS}
# variable name -> (jet field, the component indices it fills): a scalar x
# is x, component i of a vector x is x_i and component ij of a tensor x is
# x_ij (indices from 1), where x_ij also fills x_ji, since every tensor
# field is symmetric
COMPONENT_NAMES = (
    {name: (name, ((),)) for name in _SCALARS}
    | {f"{name}{i + 1}": (name, ((i,),)) for name in _VECTORS for i in range(3)}
    | {f"{name}{i + 1}{j + 1}": (name, ((i, j),) if i == j else ((i, j), (j, i)))
       for name in _TENSORS for i in range(3) for j in range(i, 3)}
)


class _Slot:
    """Read-only view of one slot of a jet (its value, or one frame
    derivative) by variable name (``COMPONENT_NAMES``); a component the jet
    does not hold reads ``zero``."""

    __slots__ = ("_entries", "_slot", "_zero")

    def __init__(self, entries: dict, slot: int | None, zero=0.0):
        self._entries = entries
        self._slot = slot
        self._zero = zero

    def __getattr__(self, name):
        try:
            field, indices = COMPONENT_NAMES[name]
        except KeyError:
            raise AttributeError(name) from None
        key = (field, indices[0]) if self._slot is None else (
            "d" + field, (self._slot,) + indices[0])
        return self._entries.get(key, self._zero)


class _View:
    """``value`` and ``deriv[a]`` of a jet's entries, read by variable name,
    with ``zero`` in every component the entries do not hold."""

    __slots__ = ("value", "deriv")

    def __init__(self, entries: dict, zero):
        self.value = _Slot(entries, None, zero)
        self.deriv = tuple(_Slot(entries, a, zero) for a in range(4))


class _Reads(dict):
    """An empty entry table that records each component read from it."""

    def __init__(self):
        super().__init__()
        self.keys_read = set()

    def get(self, key, default=None):
        self.keys_read.add(key)
        return default


# every (jet field, component index) a jet may hold, numbered in field order
_FLAT = tuple((name, index) for name, comp in _COMPONENTS.items() for index in np.ndindex(comp))
_KEYS = frozenset(_FLAT)
# (jet field, component index) -> its number in _FLAT
_NUMBER = {key: k for k, key in enumerate(_FLAT)}


class JetArrays:
    """One or many state jets, held by component.

    ``shape`` is the batch shape S, and ``entries`` maps (field, component
    index) to an array of shape S, held by reference: a scalar field has
    the index (), a vector (i,), a tensor (i, j) and a derivative field
    (a,) + the component index, for e_a of that component.  Every component
    not in ``entries`` is zero.  ``value`` and ``deriv[a]`` read the entries
    by variable name (``COMPONENT_NAMES``).  Treat instances as frozen.
    """

    def __init__(self, shape: tuple[int, ...], entries: dict):
        unknown = [key for key in entries if key not in _KEYS]
        if unknown:
            raise TypeError(f"unknown jet components: {', '.join(map(str, unknown))}")
        self.shape = tuple(shape)
        self.entries = entries
        self.value = _Slot(entries, None)
        self.deriv = tuple(_Slot(entries, a) for a in range(4))

    @staticmethod
    def build(shape: tuple[int, ...], value: dict, e0=None, e1=None, e2=None,
              e3=None) -> "JetArrays":
        """The jet of the named variables ``value`` (``COMPONENT_NAMES``) and
        their frame derivatives ``e0`` to ``e3``.  Values may be numbers or
        arrays that broadcast to ``shape``; an array of that shape is held
        by reference, and a zero number is not held.

        pi, sigma, E and H are trace-free: in a slot that names x11 or x22
        but not x33, x33 is -(x11 + x22), an absent one read as 0.0.  A
        given x33 is kept, so that data off the trace-free ansatz stays
        representable."""
        shape = tuple(shape)
        entries = {}
        for slot, values in enumerate((value, e0, e1, e2, e3)):
            values = dict(values or {})
            for t in ("pi", "sigma", "E", "H"):
                x11, x22, x33 = (t + ij for ij in ("11", "22", "33"))
                if (x11 in values or x22 in values) and x33 not in values:
                    values[x33] = -(values.get(x11, 0.0) + values.get(x22, 0.0))
            for name, x in values.items():
                if name not in COMPONENT_NAMES:
                    raise TypeError(f"unknown jet variable: {name}")
                if np.ndim(x) == 0 and x == 0.0:
                    continue
                x = np.asarray(x, dtype=float)
                if x.shape != shape:
                    x = np.broadcast_to(x, shape)
                field, indices = COMPONENT_NAMES[name]
                for index in indices:
                    key = (field, index) if slot == 0 else ("d" + field, (slot - 1,) + index)
                    entries[key] = x
        return JetArrays(shape, entries)


class _StructuralZero:
    """A jet field or component, or a term, that is zero at every point.

    ndarray operators defer to it (``__array_ufunc__ = None``), so the
    kernels below drop every term it enters: sums return the other operand
    itself, and products, quotients, powers, indexing and transposes return
    ``ZERO``.  ``x / ZERO`` and ufunc calls on it raise TypeError.
    """

    __array_ufunc__ = None
    __slots__ = ()

    def __add__(self, other):
        return other

    __radd__ = __rsub__ = __add__

    def __sub__(self, other):
        return -other

    def __mul__(self, other):
        return self

    __rmul__ = __truediv__ = __pow__ = __mul__

    def __neg__(self):
        return self

    def __getitem__(self, index):
        return self

    def swapaxes(self, axis1, axis2):
        return self

    def __repr__(self):
        return "ZERO"


ZERO = _StructuralZero()


def _table(c: np.ndarray):
    """The table of the component entries ``c``; ``ZERO`` if every entry is."""
    for e in c.flat:
        if e is not ZERO:
            return _Components(c)
    return ZERO


def _cell(x):
    """x as an object array: a table's own, or a 0-d one that broadcasts x
    (a scalar field or a number) to every component."""
    if isinstance(x, _Components):
        return x.c
    cell = np.empty((), dtype=object)
    cell[()] = x
    return cell


# The entry-wise operators of the tables.  numpy's own object loops
# (np.add, ...) pass each entry as a borrowed reference, and numpy reuses an
# operand of 256 KiB or more whose only reference is that one as the
# result's buffer (temporary elision): an entry of a table would be
# overwritten while later terms still read it.  frompyfunc's argument tuple
# holds a reference to every entry, so no operand is reused, and the Python
# operators make the same calls on the same arrays.
_ADD, _SUB, _MUL, _DIV = (np.frompyfunc(op, 2, 1) for op in (
    operator.add, operator.sub, operator.mul, operator.truediv))
_NEG = np.frompyfunc(operator.neg, 1, 1)


class _Components:
    """A vector, tensor or derivative field, or a term, as the table of its
    components: ``c`` is an object array of component shape whose entries
    are batch arrays or ``ZERO``, at least one of them an array.

    Every operator acts entry by entry and broadcasts over the component
    axes only; an operand that is not a table (a scalar field or a number)
    enters every entry, and keeps its side of the operator, the right one
    but for ``*``.  A result whose every entry is ``ZERO`` is ``ZERO``
    itself, and indexing a single component returns its entry.  ndarray
    operators defer to it (``__array_ufunc__ = None``).
    """

    __array_ufunc__ = None
    __slots__ = ("c",)

    def __init__(self, c: np.ndarray):
        self.c = c

    @staticmethod
    def build(shape: tuple, entry):
        """The table of component shape ``shape`` holding entry(index)."""
        c = np.empty(shape, dtype=object)
        for index in np.ndindex(shape):
            c[index] = entry(index)
        return _table(c)

    def __add__(self, other):
        return self if other is ZERO else _table(_ADD(self.c, _cell(other)))

    def __sub__(self, other):
        return self if other is ZERO else _table(_SUB(self.c, _cell(other)))

    def __mul__(self, other):
        return ZERO if other is ZERO else _table(_MUL(self.c, _cell(other)))

    def __rmul__(self, other):
        return _table(_MUL(_cell(other), self.c))

    def __truediv__(self, other):
        return _table(_DIV(self.c, _cell(other)))

    def __neg__(self):
        return _Components(_NEG(self.c))

    def __getitem__(self, index):
        part = self.c[index]
        return _table(part) if isinstance(part, np.ndarray) and part.dtype == object else part

    def swapaxes(self, axis1, axis2):
        return _Components(self.c.swapaxes(axis1, axis2))


def _nonzero_components(x, comp: tuple) -> list:
    """(component index, entry) of every component of a field or a kernel
    result of component shape ``comp`` that is not ``ZERO``."""
    if x is ZERO:
        return []
    entries = x.c.flat if isinstance(x, _Components) else (x,)
    return [(index, e) for index, e in zip(np.ndindex(comp), entries, strict=True)
            if e is not ZERO]


def _dense(x, comp: tuple, shape: tuple) -> np.ndarray:
    """A field or kernel result of component shape ``comp`` as one
    component-major array of batch shape ``shape``, +0.0 where ``ZERO``;
    a scalar that is not ``ZERO`` as a read-only view broadcast to
    ``shape``."""
    if not comp and x is not ZERO:
        return np.broadcast_to(x, shape)
    out = np.zeros(comp + shape)
    for component, e in _nonzero_components(x, comp):
        out[component] = e
    return out


class _Tables:
    """A jet as the block kernels read it: its batch ``shape``, and each
    field of ``_COMPONENTS`` as an attribute, a scalar field its entry and
    any other field the table of its components, ``ZERO`` where no
    component holds an entry."""

    def __init__(self, shape: tuple, fields: dict):
        self.shape = shape
        vars(self).update(fields)


def _tables(shape: tuple, live: dict) -> _Tables:
    """The tables holding the entry live[(field, component index)] in each
    listed component and ``ZERO`` in every other."""
    tables = {name: np.full(comp, ZERO, dtype=object) for name, comp in _COMPONENTS.items()}
    for (name, index), e in live.items():
        tables[name][index] = e
    return _Tables(shape, {name: t[()] if t.ndim == 0 else _table(t)
                           for name, t in tables.items()})


class _Sparse:
    """A jet as the planned kernels take it.

    ``entries`` are the jet's own, and ``live`` maps each component whose
    entry is nonzero somewhere to that entry.  ``dense`` marks a jet with a
    non-finite live entry, which the kernels evaluate without a plan.
    ``sparsity`` is what a plan replays; the kernels' arguments, ``tables``
    (the component tables) and ``view`` (the value and derivative slots by
    variable name), are built only when read, for a dense jet or a trace.
    They hold ``ZERO`` in every component that is not live, except on a
    dense jet: there ``tables`` holds zero arrays, so that the kernels form
    the 0 * inf = nan terms, and ``view`` reads the jet's own entries, 0.0
    where it holds none, as a direct evaluation does.
    """

    def __init__(self, shape: tuple, entries: dict, live: dict, dense: bool = False):
        self.shape = shape
        self.entries = entries
        self.live = live
        self.dense = dense

    @staticmethod
    def of(ja: JetArrays, keys=None) -> "_Sparse":
        """``ja`` as the kernels take it; ``keys``, if given, are the
        components the kernels read, and the others are left out."""
        if not isinstance(ja, JetArrays):
            raise TypeError(f"expected JetArrays, got {type(ja).__name__}")
        entries = ja.entries if keys is None else {
            key: e for key, e in ja.entries.items() if key in keys}
        head = bool(ja.shape)
        # a component with a nonzero entry nearly always has one among its
        # first points; testing those first spares the full scan
        live = {key: e for key, e in entries.items()
                if (head and e[..., :16].any()) or e.any()}
        # an overflowing sum of finite entries also forms the zero terms
        dense = not all(np.isfinite(e.sum()) for e in live.values())
        return _Sparse(ja.shape, entries, live, dense)

    @functools.cached_property
    def sparsity(self) -> tuple:
        """(pattern, inputs): ``inputs`` lists each distinct live entry
        once, by identity, in the order of the first component (``_FLAT``)
        holding it, and ``pattern`` pairs the number of every live
        component with the position of its entry in ``inputs``."""
        pattern, inputs, ids = [], [], {}
        for k in sorted(map(_NUMBER.__getitem__, self.live)):
            e = self.live[_FLAT[k]]
            i = ids.setdefault(id(e), len(inputs))
            if i == len(inputs):
                inputs.append(e)
            pattern.append((k, i))
        return tuple(pattern), inputs

    @functools.cached_property
    def tables(self) -> _Tables:
        if self.dense:
            zeros = np.zeros(self.shape)
            return _tables(self.shape, {key: self.live.get(key, zeros) for key in _FLAT})
        return _tables(self.shape, self.live)

    @functools.cached_property
    def view(self) -> _View:
        return _View(self.entries, 0.0) if self.dense else _View(self.live, ZERO)


def scan_jet(ja: JetArrays) -> _Sparse:
    """The live entries of ``ja`` and whether all are finite, read once.
    ``residual_report`` and the reduced systems of ``conformal`` take it as
    ``scan`` instead of reading the entries of the same jet again.  It
    reads the entries as they are now: scan again after changing them."""
    return _Sparse.of(ja)


def _sparse(ja: JetArrays, scan: _Sparse | None, keys=None) -> _Sparse:
    """``ja`` as the kernels that read ``keys`` (all if None) take it: from
    its ``scan`` if given, else from its entries."""
    if scan is not None and scan.entries is not ja.entries:
        raise ValueError("the scan is of another jet")
    if scan is None or (keys is not None and scan.dense):
        # a non-finite entry of the jet may be one the kernels do not read
        return _Sparse.of(ja, keys)
    if keys is None:
        return scan
    return _Sparse(ja.shape, ja.entries, {key: e for key, e in scan.live.items() if key in keys})


# ---------------------------------------------------------------------------
# plans: each block kernel traced once per sparsity pattern
# ---------------------------------------------------------------------------

# patterns each block keeps a plan for
PLAN_CACHE = 32


def _neg(x, _):
    return -x


class _Trace:
    """The batch operations of one kernel run, each recorded once.

    A slot numbers an input entry (``0 .. n_inputs - 1``), a constant or a
    result; ``ops`` holds (operator, operand slot, operand slot, result
    slot) in the order the kernel made them, and ``consts`` maps the slot
    of each constant to its value.
    """

    def __init__(self, n_inputs: int):
        self.ops = []
        self.consts = {}
        self.slots = n_inputs
        self._memo = {}  # (operator, slot, slot) or (type, bits) -> entry or slot

    def _slot(self, x):
        """The slot of an entry or a number, None for any other operand; a
        number is keyed by its type and bits, so 2 and 2.0, or 0.0 and
        -0.0, take two slots."""
        if type(x) is _Entry:
            return x.slot
        if type(x) not in (int, float):
            return None
        key = (type(x), x.hex() if type(x) is float else x)
        if key not in self._memo:
            self._memo[key] = self.slots
            self.consts[self.slots] = x
            self.slots += 1
        return self._memo[key]

    def record(self, fn, a, b):
        """The entry of fn(a, b): the one an earlier call with the same
        operator and operands returned, or a new one recorded in ``ops``;
        NotImplemented if an operand is neither an entry nor a number."""
        sa, sb = self._slot(a), self._slot(b)
        if sa is None or sb is None:
            return NotImplemented
        key = (fn, sa, sb)
        entry = self._memo.get(key)
        if entry is None:
            entry = self._memo[key] = _Entry(self, self.slots)
            self.ops.append(key + (self.slots,))
            self.slots += 1
        return entry


class _Entry:
    """A batch entry of a kernel being traced: a slot of its trace.

    ``+ - * /`` and ``**`` with another entry of the trace or a number, a
    number on the left of ``*`` only, and unary minus, record the operation
    on the trace; numpy defers to it (``__array_ufunc__ = None``), so any
    other use raises TypeError.
    """

    __array_ufunc__ = None
    __slots__ = ("trace", "slot")

    def __init__(self, trace: _Trace, slot: int):
        self.trace = trace
        self.slot = slot

    def __add__(self, other):
        return self.trace.record(operator.add, self, other)

    def __sub__(self, other):
        return self.trace.record(operator.sub, self, other)

    def __mul__(self, other):
        return self.trace.record(operator.mul, self, other)

    def __rmul__(self, other):
        return self.trace.record(operator.mul, other, self)

    def __truediv__(self, other):
        return self.trace.record(operator.truediv, self, other)

    def __pow__(self, other):
        return self.trace.record(operator.pow, self, other)

    def __neg__(self):
        return self.trace.record(_neg, self, self)

    def __bool__(self):
        raise TypeError("a traced entry has no truth value")


class _Results(tuple):
    """A kernel's results.  ``extremes`` maps the id of each result array
    that a plan replay made to the flat indices of its first largest and
    first smallest entry (``_extremes``), taken as the replay made it."""

    def __new__(cls, results, extremes=None):
        self = super().__new__(cls, results)
        self.extremes = {} if extremes is None else extremes
        return self


def _extremes(x) -> tuple:
    """(argmax, argmin) of the array ``x``, flat; the first of each on ties,
    and of any nan."""
    return x.argmax(), x.argmin()


def _result_slots(r):
    """A kernel result on traced entries with each entry replaced by its
    slot: ``ZERO``, a slot, or (component shape, slot or None per
    component)."""
    if r is ZERO or type(r) is _Entry:
        return r if r is ZERO else r.slot
    if isinstance(r, _Components):
        return r.c.shape, tuple(None if e is ZERO else e.slot for e in r.c.flat)
    raise TypeError(f"a kernel returned {type(r).__name__}")


class _Plan:
    """A kernel traced on one sparsity pattern (``_Sparse.sparsity``): the
    operations that lead to its results, each once, in order, and after
    each the slots it reads for the last time.  ``reads`` gives the
    kernel's argument for a ``_Sparse``."""

    def __init__(self, kernel, reads, pattern: tuple):
        n_inputs = 1 + max((i for _, i in pattern), default=-1)
        trace = _Trace(n_inputs)
        entries = [_Entry(trace, i) for i in range(n_inputs)]
        live = {_FLAT[k]: entries[i] for k, i in pattern}
        results = kernel(reads(_Sparse((), live, live)))
        self.results = tuple(_result_slots(r) for r in results)
        kept = set()
        for r in self.results:
            if r is not ZERO:
                kept.update([r] if type(r) is int else (s for s in r[1] if s is not None))
        # drop the operations no result depends on, walking back from the results
        needed, ops = set(kept), []
        for op in reversed(trace.ops):
            if op[3] in needed:
                ops.append(op)
                needed.update(op[1:3])
        ops.reverse()
        last = {}
        for n, (_, a, b, _) in enumerate(ops):
            last[a] = last[b] = n
        frees = [[] for _ in ops]
        for s, n in last.items():
            if s not in kept:
                frees[n].append(s)
        self.ops = [op + (tuple(f), op[3] in kept) for op, f in zip(ops, frees)]
        self.template = [trace.consts.get(s) for s in range(n_inputs, trace.slots)]

    def replay(self, inputs: list) -> _Results:
        """The kernel's results on ``inputs``, the entries of a jet of the
        plan's pattern, with the extremes of each result array it makes,
        taken while that array is still in cache.  Every operand is read
        from the slot list, which holds a reference to it, so numpy never
        reuses one as a result's buffer (temporary elision)."""
        v = inputs + self.template
        extremes = {}
        for fn, a, b, out, frees, kept in self.ops:
            x = v[out] = fn(v[a], v[b])
            if kept and x.size:
                extremes[id(x)] = _extremes(x)
            for s in frees:
                v[s] = None
        return _Results((_result(r, v) for r in self.results), extremes)


def _result(r, v: list):
    """A result of ``_result_slots`` with the entries of the slots ``v``."""
    if r is ZERO or type(r) is int:
        return r if r is ZERO else v[r]
    comp, slots = r
    c = np.empty(len(slots), dtype=object)
    for k, s in enumerate(slots):
        c[k] = ZERO if s is None else v[s]
    return _Components(c.reshape(comp))


def _planned(kernel, reads=operator.attrgetter("tables")):
    """The ``kernel`` evaluated through its plan for the sparsity pattern of
    the ``_Sparse`` jet it is given, or on a dense jet by the kernel itself.
    ``reads(c)`` is the kernel's argument for a jet ``c``: its ``tables``,
    or its ``view``.  ``plan`` is the bounded plan cache, keyed by the
    pattern alone, and ``__wrapped__`` the kernel itself."""

    @functools.lru_cache(maxsize=PLAN_CACHE)
    def plan(pattern: tuple) -> _Plan:
        return _Plan(kernel, reads, pattern)

    @functools.wraps(kernel)
    def block(c: _Sparse) -> _Results:
        if c.dense:
            return _Results(kernel(reads(c)))
        pattern, inputs = c.sparsity
        return plan(pattern).replay(inputs)

    block.plan = plan
    return block


def _planned_view(kernel):
    """A kernel that reads a jet's ``value`` and ``deriv`` slots by variable
    name (a reduced system), evaluated on a ``JetArrays``: through its plan
    for the pattern of the components it reads (taken from the jet's
    ``scan`` if given), or, with ``signed_zeros``, by the kernel itself on
    the jet's own entries, 0.0 where it holds none, so that each zero
    result keeps the sign its terms give it (a planned result that is zero
    throughout is ``ZERO``, read as +0.0).  ``plan`` is the plan cache and
    ``keys_read`` the components the kernel reads."""
    reads = _Reads()
    kernel(_View(reads, ZERO))
    keys = frozenset(reads.keys_read)
    block = _planned(kernel, operator.attrgetter("view"))

    @functools.wraps(kernel)
    def evaluate(ja: JetArrays, signed_zeros: bool = False, scan=None) -> _Results:
        return _Results(kernel(ja)) if signed_zeros else block(_sparse(ja, scan, keys))

    evaluate.plan = block.plan
    evaluate.keys_read = keys
    return evaluate


# Contraction kernels on component-major arrays (component axes first, batch
# last).  Each writes its sum over a 3-wide index as explicit terms in index
# order, so every term is one numpy operation along the batch.

# (a, b, c) with eps_abc = +1; the partner (a, c, b) carries -1
_EPS_POS = tuple(
    (a, b, c) for a, b, c in zip(*(idx.tolist() for idx in np.nonzero(EPS)))
    if EPS[a, b, c] > 0
)


def _sym(T):
    return 0.5 * (T + T.swapaxes(0, 1))


def _iso(s):
    """s delta_ab."""
    return ZERO if s is ZERO else _Components.build((3, 3), lambda ab: s if ab[0] == ab[1] else ZERO)


def _outer(u, v):
    """u_a v_b."""
    return u[:, None] * v[None, :]


def _vt(u, T):
    """u_g T_bd, as [g, b, d]."""
    return u[:, None, None] * T[None]


def _tv(T, v):
    """T_bg v_d, as [g, b, d]."""
    return T.swapaxes(0, 1)[:, :, None] * v[None, None]


def _dot(u, v):
    """u_a v_a."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _tr(A):
    """A_aa."""
    return A[0, 0] + A[1, 1] + A[2, 2]


def _ddot(A, B):
    """A_ab B_ab, as the sum over a of the row sums over b.

    This order, rather than one running sum over all nine terms, gives the
    einsum form's bits on the exact-metric test jets.
    """
    rows = A[:, 0] * B[:, 0] + A[:, 1] * B[:, 1] + A[:, 2] * B[:, 2]
    return rows[0] + rows[1] + rows[2]


def _matvec(A, v):
    """A_ab v_b."""
    return A[:, 0] * v[0] + A[:, 1] * v[1] + A[:, 2] * v[2]


def _mm(A, B):
    """A_ag B_gb."""
    return (A[:, 0, None] * B[None, 0] + A[:, 1, None] * B[None, 1]
            + A[:, 2, None] * B[None, 2])


def _mmT(A, B):
    """A_ag B_bg."""
    return (A[:, None, 0] * B[None, :, 0] + A[:, None, 1] * B[None, :, 1]
            + A[:, None, 2] * B[None, :, 2])


def _div(D):
    """D[b, a, b]: the divergence e_b(T_ab) of a spatial-gradient array."""
    return D[0, :, 0] + D[1, :, 1] + D[2, :, 2]


def _eps_vec(M):
    """eps_abc M_bc: each component is M_bc - M_cb for its cyclic (a, b, c)."""
    if M is ZERO:
        return ZERO
    out = np.empty(3, dtype=object)
    for a, b, c in _EPS_POS:
        out[a] = M[b, c] - M[c, b]
    return _table(out)


def _eps_sym(inner):
    """Sym over (a, b) of eps_gda inner[g, b, d]."""
    if inner is ZERO:
        return ZERO
    T = np.empty((3, 3), dtype=object)
    for g, d, a in _EPS_POS:
        T[a] = _cell(inner[g, :, d] - inner[d, :, g])
    return _sym(_table(T))


# ---------------------------------------------------------------------------
# auxiliary curvature quantities (field5)-(field7)
# ---------------------------------------------------------------------------


def _b_tensor_arr(n):
    return 2.0 * _mm(n, n) - _tr(n) * n


def _curly_S_arr(c: _Tables):
    grad_a = c.da[1:]  # e_alpha(a_beta)
    grad_n = c.dn[1:]  # e_gamma(n_{beta delta})
    b = _b_tensor_arr(c.n)
    div_a = _tr(grad_a)
    inner = grad_n - 2.0 * _vt(c.a, c.n)
    S = (
        _sym(grad_a)
        + b
        - _iso(div_a + _tr(b)) / 3.0
        - _eps_sym(inner)
    )
    # trace-free up to rounding: project the rounding away
    return S - _iso(_tr(S)) / 3.0


def _curly_R_arr(c: _Tables):
    grad_a = c.da[1:]
    b = _b_tensor_arr(c.n)
    return 2.0 * (2.0 * _tr(grad_a) - 3.0 * _dot(c.a, c.a)) - 0.5 * _tr(b)


# ---------------------------------------------------------------------------
# Einstein field equations (field1)-(field4)
# ---------------------------------------------------------------------------


@_planned
def _efe_arr(c: _Tables):
    sigma2 = 0.5 * _ddot(c.sigma, c.sigma)
    omega2 = _dot(c.omega, c.omega)
    grad_udot = c.dudot[1:]  # e_alpha(udot_beta)

    # field1: Raychaudhuri
    rhs1 = (
        -c.Theta**2 / 3.0
        + _tr(grad_udot)
        + _dot(c.udot, c.udot)
        - 2.0 * _dot(c.a, c.udot)
        - 2.0 * sigma2
        + 2.0 * omega2
        - 0.5 * (c.mu + 3.0 * c.p)
        + c.Lam
    )
    res_theta = c.dTheta[0] - rhs1

    # field2: shear evolution.  The sign of the n-udot coupling is pinned by
    # exact-solution nullity: the rigidly rotating flat-space congruence
    # (vacuum, E = H = 0, with n_23 and udot_1 nonzero) satisfies the system
    # only with +eps n udot, so that sign is used here.
    S = _curly_S_arr(c)
    scalar_part = (
        _tr(grad_udot)
        + _dot(c.udot, c.udot)
        + _dot(c.a, c.udot)
        + 2.0 * _dot(c.omega, c.Omega)
    )
    # inner[g, b, d] = 2 Omega_g sigma_bd + udot_g n_bd
    eps_term = _eps_sym(2.0 * _vt(c.Omega, c.sigma) + _vt(c.udot, c.n))
    rhs2 = (
        -c.Theta * c.sigma
        + _sym(grad_udot)
        + _outer(c.udot, c.udot)
        + _sym(_outer(c.a, c.udot))
        + 2.0 * _sym(_outer(c.omega, c.Omega))
        + c.pi
        - S
        - _iso(scalar_part) / 3.0
        + eps_term
    )
    res_sigma = c.dsigma[0] - rhs2

    # field3: Gauss (Friedmann) constraint
    gauss = (
        c.mu
        - c.Theta**2 / 3.0
        + sigma2
        - omega2
        - 2.0 * _dot(c.omega, c.Omega)
        - 0.5 * _curly_R_arr(c)
        + c.Lam
    )

    # field4: Codazzi (momentum) constraint
    dsig = c.dsigma[1:]  # e_gamma(sigma_{alpha beta})
    inner4 = (
        c.domega[1:]
        + 2.0 * _outer(c.udot, c.omega)
        - _outer(c.a, c.omega)
        + _mm(c.n, c.sigma)
    )
    codazzi = (
        _div(dsig)
        - 3.0 * _matvec(c.sigma, c.a)
        - (2.0 / 3.0) * c.dTheta[1:]
        + _matvec(c.n, c.omega)
        + c.q
        - _eps_vec(inner4)
    )
    return res_theta, res_sigma, gauss, codazzi


# ---------------------------------------------------------------------------
# Jacobi identities (jacobi1)-(jacobi5)
# ---------------------------------------------------------------------------


@_planned
def _jacobi_arr(c: _Tables):
    womO = c.omega - c.Omega
    dwomO = c.domega - c.dOmega

    # jacobi1: e_0(a)
    rhs_a = (
        -(c.dTheta[1:] + (c.udot + c.a) * c.Theta) / 3.0
        + 0.5 * (_div(c.dsigma[1:]) + _matvec(c.sigma, c.udot - 2.0 * c.a))
        - 0.5 * _eps_vec(dwomO[1:] + _outer(c.udot - 2.0 * c.a, womO))
    )
    res_a = c.da[0] - rhs_a

    # jacobi2: e_0(n)
    grad_w = dwomO[1:]  # e_alpha(omega - Omega)_beta
    inner = c.dsigma[1:] + _vt(c.udot, c.sigma) - 2.0 * _tv(c.n, womO)
    rhs_n = (
        -c.Theta * c.n / 3.0
        - (_sym(grad_w) + _sym(_outer(c.udot, womO)))
        + 2.0 * _sym(_mmT(c.sigma, c.n))
        + _iso(_tr(grad_w) + _dot(c.udot, womO))
        - _eps_sym(inner)
    )
    res_n = c.dn[0] - rhs_n

    # jacobi3: e_0(omega)
    inner3 = 0.5 * (c.dudot[1:] - _outer(c.a, c.udot)) + _outer(c.omega, c.Omega)
    rhs_w = (
        -(2.0 / 3.0) * c.Theta * c.omega
        + _matvec(c.sigma, c.omega)
        + 0.5 * _matvec(c.n, c.udot)
        - _eps_vec(inner3)
    )
    res_w = c.domega[0] - rhs_w

    # jacobi4: vector constraint
    j4 = (
        _div(c.dn[1:])
        - 2.0 * _matvec(c.n, c.a)
        - (2.0 / 3.0) * c.Theta * c.omega
        - 2.0 * _matvec(c.sigma, c.omega)
        + _eps_vec(c.da[1:] + 2.0 * _outer(c.omega, c.Omega))
    )

    # jacobi5: scalar constraint
    j5 = _tr(c.domega[1:]) - _dot(c.udot + 2.0 * c.a, c.omega)
    return res_a, res_n, res_w, j4, j5


# ---------------------------------------------------------------------------
# Bianchi identities (bianchi1)-(bianchi5) and the H-divergence identity
# ---------------------------------------------------------------------------


@_planned
def _bianchi_arr(c: _Tables):
    mu_p = c.mu + c.p
    trn = _tr(c.n)

    # bianchi1: energy conservation
    rhs_mu = (
        -mu_p * c.Theta
        - (_tr(c.dq[1:]) + 2.0 * _dot(c.udot - c.a, c.q))
        - _ddot(c.sigma, c.pi)
    )
    res_mu = c.dmu[0] - rhs_mu

    # bianchi2: momentum conservation
    inner2 = _outer(c.omega + c.Omega, c.q) + _mm(c.n, c.pi)
    rhs_q = (
        -(4.0 / 3.0) * c.Theta * c.q
        - c.dp[1:]
        - mu_p * c.udot
        - (_div(c.dpi[1:]) + _matvec(c.pi, c.udot - 3.0 * c.a))
        - _matvec(c.sigma, c.q)
        + _eps_vec(inner2)
    )
    res_q = c.dq[0] - rhs_q

    # bianchi3: e_0(E + pi/2)
    X = c.E - c.pi / 6.0
    Y = c.E + 0.5 * c.pi
    grad_q = c.dq[1:]
    inner3 = (
        c.dH[1:]
        + _vt(2.0 * c.udot - c.a, c.H)
        - _vt(c.omega - 2.0 * c.Omega, Y)
        + 0.5 * _tv(c.n, c.q)
    )
    rhs_E = (
        -0.5 * mu_p * c.sigma
        - c.Theta * (c.E + c.pi / 6.0)
        - 0.5 * (_sym(grad_q) + _sym(_outer(2.0 * c.udot + c.a, c.q)))
        + 3.0 * _sym(_mmT(c.sigma, X))
        + 0.5 * trn * c.H
        + _iso(
            0.5 * (_tr(grad_q) + _dot(2.0 * c.udot + c.a, c.q))
            - 3.0 * _ddot(c.sigma, X)
            + 3.0 * _ddot(c.n, c.H)
        )
        / 3.0
        + _eps_sym(inner3)
        - 3.0 * _sym(_mmT(c.n, c.H))
    )
    res_E = c.dE[0] + 0.5 * c.dpi[0] - rhs_E

    # bianchi4: e_0(H)
    Z = c.E - 0.5 * c.pi
    inner4 = (
        c.dE[1:]
        - 0.5 * c.dpi[1:]
        - _vt(c.a, Z)
        + 2.0 * _vt(c.udot, c.E)
        - 0.5 * _tv(c.sigma, c.q)
        + _vt(c.omega - 2.0 * c.Omega, c.H)
    )
    rhs_H = (
        -c.Theta * c.H
        + 3.0 * _sym(_mmT(c.sigma, c.H))
        - 1.5 * _sym(_outer(c.omega, c.q))
        - 0.5 * trn * Z
        + 3.0 * _sym(_mmT(c.n, Z))
        - _iso(_ddot(c.sigma, c.H) - 0.5 * _dot(c.omega, c.q) + _ddot(c.n, Z))
        - _eps_sym(inner4)
    )
    res_H = c.dH[0] - rhs_H

    # bianchi5: div E constraint
    inner5 = _mm(c.sigma, c.H) + 1.5 * _outer(c.omega, c.q) + _mm(c.n, Y)
    div_E = (
        _div(c.dE[1:] + 0.5 * c.dpi[1:])
        - 3.0 * _matvec(Y, c.a)
        - c.dmu[1:] / 3.0
        + c.Theta * c.q / 3.0
        - 0.5 * _matvec(c.sigma, c.q)
        + 3.0 * _matvec(c.H, c.omega)
        - _eps_vec(inner5)
    )

    # final identity: div H constraint
    inner6 = (
        0.5 * (c.dq[1:] - _outer(c.a, c.q))
        + _mm(c.sigma, Y)
        - _mm(c.n, c.H)
    )
    div_H = (
        _div(c.dH[1:])
        - 3.0 * _matvec(c.H, c.a)
        - mu_p * c.omega
        - 3.0 * _matvec(X, c.omega)
        - 0.5 * _matvec(c.n, c.q)
        + _eps_vec(inner6)
    )
    return res_mu, res_q, res_E, res_H, div_E, div_H


# ---------------------------------------------------------------------------
# the assembled report
# ---------------------------------------------------------------------------


class NonFiniteResidual(ValueError):
    """A residual came out NaN or infinite; the message names its block."""


# the blocks of the general system: label -> component shape, in report order
GENERAL_BLOCKS = {
    "field1": (),
    "field2": (3, 3),
    "field3": (),
    "field4": (3,),
    "jacobi1": (3,),
    "jacobi2": (3, 3),
    "jacobi3": (3,),
    "jacobi4": (3,),
    "jacobi5": (),
    "bianchi1": (),
    "bianchi2": (3,),
    "bianchi3": (3, 3),
    "bianchi4": (3, 3),
    "bianchi5": (3,),
    "divH": (3,),
}


class ResidualReport:
    """Residual blocks on a batch of batch shape S: the general system's,
    or one scalar block per entry of a reduced system.

    ``blocks`` maps each block's label, in order, to its component shape
    and its result: a table of components, one array, or ``ZERO``.  The
    report keeps each result as given, its nonzero components held by
    reference.  At construction it takes each block's norm, the max-abs
    over every component and over the batch (0.0 for a ``ZERO`` block or an
    empty batch), and the first batch index holding it, from the largest
    and the smallest entry of each component: ``extremes`` gives their
    flat indices for the arrays a plan replay made (``_Results``), and the
    report takes them itself for any other.  A non-finite block fails
    construction.  A block's components share one shape, which broadcasts
    to S: a 0-d entry keeps a 0-d maximum.  The per-point maxima
    (``block_point_max``, ``per_point_max``) are built when first read.

    ``block(label)`` and ``blocks()`` build a block's array from its result
    on each read: tensor character and the component-major layout,
    components + S, with +0.0 in every ``ZERO`` component; a scalar block
    reads as a broadcast view of its result.  A result may be an array of
    the jet itself (``x + ZERO`` is ``x``), so the jet must not change while
    the report is read, and one array may fill several components of a
    result, which are reduced once.
    """

    def __init__(self, shape: tuple, blocks: dict, extremes=None):
        self.shape = tuple(shape)
        self._blocks = blocks
        self._norms = {}
        self._at = {}
        self._point_max = {}
        extremes = extremes or {}
        empty = math.prod(self.shape) == 0
        for label, (comp, result) in blocks.items():
            norm, at = 0.0, 0
            # a planned result may hold one array in several components
            live = list({id(e): e for _, e in _nonzero_components(result, comp)}.values())
            if live and empty:
                at = None  # no batch index holds the norm
            elif live:
                peaks = []
                for e in live:
                    x = np.asarray(e)
                    i, j = extremes.get(id(e)) or _extremes(x)
                    hi, lo = float(x.flat[i]), float(x.flat[j])
                    if not (math.isfinite(hi) and math.isfinite(lo)):
                        raise NonFiniteResidual(f"non-finite residual in block {label}")
                    peaks += [(hi, i, x.shape), (-lo, j, x.shape)]
                # + 0.0 reads the -0.0 of a block of zeros as +0.0
                norm = max(peak for peak, _, _ in peaks) + 0.0
                at = min(_batch_index(i, comp_shape, self.shape)
                         for peak, i, comp_shape in peaks if peak == norm)
            self._norms[label] = norm
            self._at[label] = at

    @staticmethod
    def of_entries(shape: tuple, names, entries, extremes=None) -> "ResidualReport":
        """The report of one scalar block per named entry, each a number or
        an array that broadcasts to ``shape``."""
        return ResidualReport(shape, {name: ((), e)
                                      for name, e in zip(names, entries, strict=True)},
                              extremes)

    def block(self, label: str) -> np.ndarray:
        comp, result = self._blocks[label]
        return _dense(result, comp, self.shape)

    def blocks(self):
        for label in self._blocks:
            yield label, self.block(label)

    def _block_max(self, label: str):
        """The block's max-abs over its components at every batch entry,
        read-only; ``ZERO`` for a ``ZERO`` block."""
        if label not in self._point_max:
            pm = ZERO
            comp, result = self._blocks[label]
            live = list({id(e): e for _, e in _nonzero_components(result, comp)}.values())
            if live:
                pm = np.empty(np.shape(live[0]))
                np.abs(live[0], out=pm)
                for e in live[1:]:
                    np.maximum(pm, np.abs(e), out=pm)
                pm.flags.writeable = False
            self._point_max[label] = pm
        return self._point_max[label]

    def block_point_max(self) -> dict[str, np.ndarray]:
        """Each block's max-abs over its components, per batch entry, in the
        shape of its components; the ``ZERO`` blocks share one read-only
        zero array of shape S."""
        zeros = np.zeros(self.shape)
        zeros.flags.writeable = False
        return {label: zeros if (pm := self._block_max(label)) is ZERO else pm
                for label in self._blocks}

    def _worst(self, label: str) -> tuple[int, float]:
        at = self._at[label]
        if at is None:  # an empty batch: argmax raises, as on any empty array
            at = int(np.argmax(np.broadcast_to(self._block_max(label), self.shape)))
        return at, self._norms[label]

    def block_worst(self) -> dict[str, tuple[int, float]]:
        """Each block's largest residual as (flat batch index, value): its
        first batch index holding the block's norm; a ``ZERO`` block reads
        (0, 0.0)."""
        return {label: self._worst(label) for label in self._blocks}

    def worst(self) -> tuple[str, int, float]:
        """(label, flat batch index, value) of the largest residual: the
        first block holding it, at its first batch index."""
        label = max(self._norms, key=self._norms.get)
        return (label, *self._worst(label))

    def per_point_max(self) -> np.ndarray:
        """Max-abs residual over every block, per batch entry."""
        out = np.zeros(self.shape)
        for label in self._blocks:
            pm = self._block_max(label)
            if pm is not ZERO:
                np.maximum(out, pm, out=out)
        return out


def _batch_index(i, shape: tuple, batch: tuple) -> int:
    """The first flat index of the batch shape ``batch`` that holds entry i
    (flat) of an array of ``shape`` broadcast to it."""
    if shape == batch:
        return int(i)
    index = (0,) * (len(batch) - len(shape)) + np.unravel_index(i, shape)
    return int(np.ravel_multi_index(index, batch))


def _report_arrays(c: _Sparse) -> _Results:
    parts = _efe_arr(c), _jacobi_arr(c), _bianchi_arr(c)
    return _Results((r for part in parts for r in part),
                    {k: v for part in parts for k, v in part.extremes.items()})


def residual_report(jet: JetArrays, scan: _Sparse | None = None) -> ResidualReport:
    """Evaluate every block of the general system on a jet or jet batch.

    The batch is evaluated in one piece, whatever its shape, and the report
    keeps the kernel results as they are.  Components that are zero
    throughout are skipped (see the module docstring); ``jet`` itself is
    left as it is.  ``scan``, if given, is ``scan_jet(jet)``, read instead
    of the jet's entries.
    """
    c = _sparse(jet, scan)
    results = _report_arrays(c)
    return ResidualReport(c.shape, {label: (comp, res) for (label, comp), res
                                    in zip(GENERAL_BLOCKS.items(), results, strict=True)},
                          results.extremes)

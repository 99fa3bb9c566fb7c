"""Value assembly: the linear stamps of a whole batch in one scatter.

Every linear element stamps the same positions for every sizing (the
structure contract of :mod:`repro.sim.stamp`), so the *where* of a stamp
is recorded once per MNA structure and only the *what* is read per
sizing:

* :class:`StampMap` — built with the structure.  Each ``add_*`` call of
  every linear element becomes a record ``(target, position)``: the
  target is ``G``, ``C``, ``b_dc`` or ``b_ac``; the position indexes the
  flattened ``n x n`` matrix on the dense leg and the master-pattern CSC
  data on the sparse and iterative legs.  Ground-bound calls are dropped.
* :class:`StampBase` — one const/var partition of the elements (see
  :meth:`repro.sim.system.MnaSystem.rebind_values`): the frozen sum of the
  constant elements' stamps plus the scatter indices of the variable
  ones.  A fill writes ``base + var values`` for S slices with one
  ordered ``np.add.at`` per target, so every entry receives its additions
  in exactly the order the element-by-element stamping would make them:
  the result is bit-for-bit the per-slice restamp.
* :class:`SliceReads` — the per-slice Python work of a stack fill (the
  variable elements' :meth:`~repro.circuits.elements.Element.stamp_values`,
  MOSFET geometry and cards, resistances, temperature), written into a
  :class:`~repro.sim.batch.SystemStack` with array operations.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.mosfet import DeviceArrays

#: Stamp targets, in the order of every per-target tuple below.
_G, _C, _B_DC, _B_AC = range(4)


class _PositionRecorder:
    """Stamper recording each ``add_*`` call as ``(target, i, j)``."""

    def __init__(self, system):
        self._system = system
        self.calls: list[tuple[int, int, int]] = []

    def node(self, name: str) -> int:
        return self._system.node_index[name]

    def branch(self, element) -> int:
        return self._system.branch_index[element.name]

    def add_g(self, i: int, j: int, value: float) -> None:
        self.calls.append((_G, i, j))

    def add_c(self, i: int, j: int, value: float) -> None:
        self.calls.append((_C, i, j))

    def add_b_dc(self, i: int, value: float) -> None:
        self.calls.append((_B_DC, i, 0))

    def add_b_ac(self, i: int, value: float) -> None:
        self.calls.append((_B_AC, i, 0))


class StampMap:
    """Stamp records of every linear element of one MNA structure.

    ``linear`` are the structure's linear elements in netlist order;
    :meth:`resolve` fixes the positions once the engine layout is known.
    """

    def __init__(self, system, linear):
        rec = _PositionRecorder(system)
        calls = []
        self._n_values = np.empty(len(linear), dtype=np.intp)
        for e, element in enumerate(linear):
            rec.calls = []
            element.stamp(rec)
            self._n_values[e] = len(rec.calls)
            # Ground-bound calls write nothing (vector calls record j=0).
            calls.extend((e, c, t, i, j) for c, (t, i, j) in
                         enumerate(rec.calls) if i >= 0 and j >= 0)
        rows = np.array(calls, dtype=np.intp).reshape(-1, 5)
        # Columns: element, call index, target, row i, column j.
        self._elem, self._col, self._target, self._i, self._j = rows.T
        self._pos: np.ndarray | None = None
        self.size = system.size
        self._scatters: dict[tuple, tuple] = {}
        self._base_memo: tuple | None = None

    def matrix_entries(self) -> set[tuple[int, int]]:
        """``(i, j)`` matrix positions the linear stamps touch."""
        m = self._target <= _C
        return set(zip(self._i[m].tolist(), self._j[m].tolist()))

    def resolve(self, sparse_state=None) -> None:
        """Fix record positions: ``i * n + j`` in the dense layout, the
        master-pattern index when ``sparse_state`` is given."""
        n = self.size
        mat = self._target <= _C
        pos = self._i.copy()
        if sparse_state is None:
            pos[mat] = self._i[mat] * n + self._j[mat]
            width = n * n
        else:
            pos[mat] = sparse_state.positions(self._i[mat], self._j[mat])
            width = sparse_state.nnz
        self._pos = pos
        #: Flat length of each target's value array.
        self.widths = (width, width, n, n)

    def scatter(self, elems: tuple[int, ...]) -> tuple:
        """``((positions, columns) per target, n_values)`` of elements
        ``elems`` in that order; columns index the concatenation of those
        elements' :meth:`~repro.circuits.elements.Element.stamp_values`."""
        hit = self._scatters.get(elems)
        if hit is not None:
            return hit
        order = np.asarray(elems, dtype=np.intp)
        offset = np.zeros(len(self._n_values), dtype=np.intp)
        counts = self._n_values[order]
        offset[order] = np.cumsum(counts) - counts
        # Records of each element in element order, then call order.
        rank = np.full(len(self._n_values), -1, dtype=np.intp)
        rank[order] = np.arange(len(order))
        r = rank[self._elem]
        pick = np.nonzero(r >= 0)[0]
        pick = pick[np.argsort(r[pick], kind="stable")]
        cols = offset[self._elem[pick]] + self._col[pick]
        per = tuple((self._pos[pick[m]], cols[m])
                    for m in (self._target[pick] == t for t in range(4)))
        hit = self._scatters[elems] = (
            per, int(self._n_values[order].sum()) if len(order) else 0)
        return hit

    def partition(self, linear, const: tuple[int, ...], var: tuple[int, ...],
                  keys: list) -> "StampBase":
        """The :class:`StampBase` of one const/var split of ``linear``.

        ``keys`` are the constant elements' stamp keys; the frozen base is
        reused while both the constant set and its keys repeat (equal keys
        mean equal stamps), so rebinding a value-identical netlist — a
        Monte Carlo trial, say — stamps nothing.
        """
        memo = self._base_memo
        if memo is not None and memo[0] == const and memo[1] == keys:
            base = memo[2]
        else:
            scatter, _ = self.scatter(const)
            values = np.array([v for e in const
                               for v in linear[e].stamp_values()], dtype=float)
            base = tuple(np.zeros(w, dtype=complex if t == _B_AC else float)
                         for t, w in enumerate(self.widths))
            for out, (pos, col) in zip(base, scatter):
                if pos.size:
                    np.add.at(out, pos, values[col])
            self._base_memo = (const, keys, base)
        return StampBase(self, linear, const, var, keys, base)


class StampBase:
    """One const/var partition: frozen base data plus the scatter of the
    variable elements (immutable; a demotion makes a new one)."""

    def __init__(self, smap: StampMap, linear, const, var, keys, base):
        self.const = const
        self.var = var
        self.keys = keys
        self.const_elems = tuple(linear[e] for e in const)
        self.var_elems = tuple(linear[e] for e in var)
        self.base = base
        self._scatter, self.n_values = smap.scatter(var)

    def read(self) -> list[float]:
        """Current stamp values of the variable elements (one slice row)."""
        return [v for e in self.var_elems for v in e.stamp_values()]

    def fill(self, outs, values: np.ndarray) -> None:
        """Write ``base + variable stamps`` into S contiguous slice rows.

        ``outs`` are the four ``(S, width)`` target blocks, ``values`` the
        ``(S, n_values)`` rows of :meth:`read`.  One ordered ``np.add.at``
        per target keeps every entry's additions in stamping order.
        """
        for out, base, (pos, col) in zip(outs, self.base, self._scatter):
            out[...] = base
            if pos.size:
                S, W = out.shape
                idx = pos if S == 1 else (
                    np.arange(S)[:, None] * W + pos).ravel()
                np.add.at(out.reshape(-1), idx, values[:, col].ravel())


class SliceReads:
    """Per-slice reads of one stack fill, written with array operations.

    :meth:`add` runs once per slice right after the slice's netlist was
    bound (the only per-slice Python of a fill); :meth:`write` computes
    ``G/C/b``, the device bank and the resistor noise constants of every
    slice at once.
    """

    def __init__(self):
        self._systems: list = []
        self._parts: list[StampBase] = []
        self._values: list[list[float]] = []
        self._cards: list = []
        self._geometry: list[tuple] = []
        self._res: list[float] = []
        self._temps: list[float] = []
        self._sizings: list = []

    def add(self, system, values=None) -> None:
        """Record one slice: the element values of ``system``'s freshly
        bound netlist, plus the sizing ``values`` dict kept with it."""
        part = system._part
        self._systems.append(system)
        self._parts.append(part)
        self._values.append(part.read())
        mosfets = system.mosfets
        self._cards.extend([m.params for m in mosfets])
        self._geometry.extend([(m.w, m.l, m.m, m._sign) for m in mosfets])
        self._res.extend([r.resistance for r in system._resistors])
        self._temps.append(system.temperature)
        self._sizings.append(values)

    def write(self, stack, offset: int = 0) -> None:
        """Fill slices ``offset ..`` of ``stack`` from the reads."""
        S = len(self._parts)
        if S == 0:
            return
        for system in dict.fromkeys(self._systems):
            stack.check_compatible(system)
        start = 0
        while start < S:
            part = self._parts[start]
            end = start + 1
            while end < S and self._parts[end] is part:
                end += 1
            rows = slice(offset + start, offset + end)
            values = np.array(self._values[start:end], dtype=float)
            part.fill(stack.value_rows(rows),
                      values.reshape(end - start, part.n_values))
            start = end
        rows = slice(offset, offset + S)
        stack.temperatures[rows] = self._temps
        stack.values[rows] = self._sizings
        stack.write_noise(rows, np.array(self._res, dtype=float).reshape(
            S, -1), np.asarray(self._temps))
        if stack.dev is not None:
            stack.write_devices(rows, DeviceArrays.from_devices(
                self._cards, self._geometry, (S, len(stack.dev))))


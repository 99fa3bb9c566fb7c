"""Modified nodal analysis (MNA) system assembly.

:class:`MnaSystem` turns a :class:`~repro.circuits.netlist.Netlist` into
MNA matrices (dense numpy arrays, or CSC pattern data on the sparse legs):

* ``G`` — conductance matrix (linear elements only),
* ``C`` — capacitance/inductance matrix,
* ``b_dc`` / ``b_ac`` — DC and AC excitation vectors,

with one unknown per non-ground node plus one per voltage-defined branch
(voltage sources, VCVS, inductors).  Nonlinear devices (MOSFETs) are not in
``G``; each Newton iteration stamps their companion model through
:meth:`MnaSystem.newton_matrices`.

Structure versus values
-----------------------
Construction is split into two layers so that fixed-structure/varying-value
workloads (every sizing loop in this reproduction) never pay the structural
cost twice:

* **structure** — netlist validation, node ordering, branch allocation,
  MOSFET terminal resolution and the precomputed *scatter maps* described
  below.  Built once in ``__init__``.
* **values** — the ``G/C/b`` entries and the stacked per-device constants
  (:class:`~repro.circuits.mosfet.DeviceArrays`).  Refreshed in place by
  :meth:`MnaSystem.restamp` for any netlist with the same structure
  signature (same elements, same nodes — only element values changed),
  as a one-slice fill of the structure's
  :class:`~repro.sim.assembly.StampMap`.

Scatter maps
------------
All per-device stamping in the Newton/small-signal hot paths is expressed
as dense linear maps from stacked device quantities to flattened matrix
entries (one matmul instead of a Python loop of scalar ``+=``): the
companion conductances ``g`` of all K devices scatter into the Jacobian via
a precomputed ``(4K, (n+1)^2)`` matrix, currents into the RHS via
``(K, n+1)``, and similarly for small-signal ``gm/gds/gmb`` and device
capacitances.  Ground terminals are routed to a padding row/column that is
sliced away, which removes every per-entry ``if index >= 0`` branch.

The schematic circuits in this reproduction have 5–40 unknowns, so dense
linear algebra (and dense scatter maps) is both simpler and faster than
sparse there — but post-PEX mesh netlists and the RC-interconnect chain
scenarios reach hundreds of unknowns, where both stop scaling.  Each
system therefore carries an *engine* flag (:mod:`repro.sim.engine`,
``REPRO_ENGINE=auto|dense|sparse|iterative``): sparse systems hold
``G/C`` only as data over the structure-cached CSC pattern of
:class:`repro.sim.sparse.SparseState` (one fixed sparsity pattern per
structure), written by the same one-scatter assembly as the dense
arrays (:mod:`repro.sim.assembly`), factor their Newton/AC/transient
operators on that pattern, and never build an ``n x n`` array or the
large dense scatter maps, which are lazy for exactly that reason.
The ``iterative`` leg shares that CSC assembly but replaces the
``splu`` factorisations with ILU-preconditioned Krylov solves
(:mod:`repro.sim.krylov`) for the 10^4-unknown mesh scenarios where
direct factorisation walls.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.elements import Resistor
from repro.circuits.mosfet import (
    _TERMINAL_MAP as _TERM_MAP,
    _forward_core_ws,
    ChannelWorkspace,
    DeviceArrays,
    Mosfet,
    MosfetState,
    channel_current_batch,
    channel_ids_batch,
    eval_companion_batch,
    eval_companion_ws,
    eval_ids_batch,
    eval_ids_ws,
    state_arrays_batch,
    terminal_voltages_batch,
)
from repro.circuits.netlist import GROUND, Netlist
from repro.errors import NetlistError
from repro.sim import sparse as sparse_engine
from repro.sim.assembly import StampMap
from repro.sim.engine import resolve_engine
from repro.units import ROOM_TEMPERATURE


class StructureMismatch(NetlistError):
    """A netlist handed to :meth:`MnaSystem.restamp` has a different
    structure (element names/kinds/nodes) than the one the system was
    built from."""


class MnaSystem:
    """MNA matrices and index maps for one netlist at one temperature.

    Parameters
    ----------
    netlist:
        The circuit.  It is validated (ground reference, DC paths) on
        construction.
    temperature:
        Simulation temperature [K]; used by noise analyses and available to
        elements.
    engine:
        ``"dense"``/``"sparse"`` force a linear-algebra backend; None (the
        default) resolves ``REPRO_ENGINE`` at construction time — see
        :mod:`repro.sim.engine`.  Sparse systems store ``G/C`` as
        :class:`repro.sim.sparse.SparseState` pattern data (the ``G``/``C``
        properties densify a read-only copy) and factor through it.

    Re-stamping
    -----------
    :meth:`restamp` refreshes ``G/C/b`` (and the stacked device constants)
    in place from another netlist with the identical structure — the fast
    path for sizing loops, where only element values change between
    evaluations.
    """

    def __init__(self, netlist: Netlist, temperature: float = ROOM_TEMPERATURE,
                 engine: str | None = None):
        netlist.validate()
        self.temperature = float(temperature)
        self._signature = netlist.structure_signature()

        self.node_index: dict[str, int] = {GROUND: -1}
        for i, node in enumerate(sorted(netlist.nodes())):
            self.node_index[node] = i
        self.n_nodes = len(self.node_index) - 1

        self.branch_index: dict[str, int] = {}
        next_index = self.n_nodes
        for element in netlist:
            if element.has_branch:
                self.branch_index[element.name] = next_index
                next_index += 1
        self.size = next_index

        mosfets = tuple(e for e in netlist if isinstance(e, Mosfet))
        for mosfet in mosfets:
            for node in mosfet.nodes:
                if node not in self.node_index:
                    raise NetlistError(
                        f"mosfet {mosfet.name} references unknown node {node!r}")
        # Pre-resolve terminal indices for the Newton hot loop.  -1 marks
        # ground in _mos_terms (the historical convention, still used by the
        # transient engine); _terms_pad routes ground to the padding slot.
        self._mos_terms = np.array(
            [[self.node_index[m.d], self.node_index[m.g],
              self.node_index[m.s], self.node_index[m.b]]
             for m in mosfets], dtype=np.intp).reshape(len(mosfets), 4)
        self._terms_pad = np.where(self._mos_terms < 0, self.size,
                                   self._mos_terms)
        self._build_scatter_maps()

        #: Resolved engine leg: "dense", "sparse" or "iterative".
        self.engine = resolve_engine(self.size, engine)
        if not sparse_engine.HAVE_SCIPY:
            self.engine = "dense"
        #: True when assembly routes through the CSC master pattern
        #: (both the sparse-direct and iterative legs).
        self.sparse = self.engine != "dense"
        #: True when solves run ILU-preconditioned Krylov iteration.
        self.iterative = self.engine == "iterative"
        #: Where every linear element stamps (see repro.sim.assembly).
        self._stamp_map = StampMap(
            self, tuple(e for e in netlist if not e.is_nonlinear))
        self.sparse_state = (
            sparse_engine.SparseState(self, self._stamp_map.matrix_entries())
            if self.sparse else None)
        self._stamp_map.resolve(self.sparse_state)
        # Value arrays in the engine's layout: flattened n x n matrices on
        # the dense leg, master-pattern data on the sparse legs (which
        # never hold an n x n array; ``G``/``C`` densify on access).
        width = self._stamp_map.widths[0]
        self._Gv = np.zeros(width)
        self._Cv = np.zeros(width)
        self.b_dc = np.zeros(self.size)
        self.b_ac = np.zeros(self.size, dtype=complex)
        self._G_csc = None                          # lazy residual operator

        n1 = self.size + 1
        self._rhs_pad = np.zeros(n1)
        self._x_pad = np.zeros(n1)
        self._diag = np.arange(self.n_nodes)
        K = len(self._terms_pad)
        self._ws = ChannelWorkspace(K) if K else None
        self._V_buf = np.empty((K, 4))
        self._rhs_buf = np.empty(n1)
        self._dyn_cols: np.ndarray | None = None
        self._ss_memo: tuple | None = None  # (op, G_ss, C_ss) of last call
        self._ss_stash: tuple | None = None  # (dev, x) behind _g3/_c4 bufs
        self._g3_buf = np.empty((K, 3))
        self._c4_buf = np.empty((K, 4))
        if not self.sparse:
            self._G = self._Gv.reshape(self.size, self.size)
            self._C = self._Cv.reshape(self.size, self.size)
            self._A_pad = np.zeros((n1, n1))
            self._Aflat_buf = np.empty(n1 * n1)
            self._Gss_pad = np.zeros((n1, n1))
            self._Css_pad = np.zeros((n1, n1))

        if self.iterative:
            from repro.sim.krylov import KrylovState
            #: Drift-gated ILU cache + solve counters; deliberately
            #: survives restamps (cross-evaluation preconditioner reuse).
            self.krylov_state = KrylovState(self.sparse_state)
        else:
            self.krylov_state = None
        self._ss_sparse_memo: tuple | None = None  # (op, G_csc, C_csc)
        self._sp_lu_memo: tuple | None = None      # (op, freqs, [splu])

        self._bind(netlist)

    # -- structure ----------------------------------------------------------
    def _build_scatter_maps(self) -> None:
        """Precompute the small dense device-quantity -> entry maps.

        The ``O(K n)`` maps (RHS currents, KCL residuals) are always
        built; the ``O(K n^2)`` matrix scatter maps are *lazy* — see
        :attr:`newton_g_map` — because the sparse engine replaces them
        with index-based scatters and must never pay their memory.
        """
        n1 = self.size + 1
        K = len(self._terms_pad)
        newton_i = np.zeros((K, n1))
        res = np.zeros((K, self.size))
        for k in range(K):
            d, g, s, b = (int(i) for i in self._terms_pad[k])
            newton_i[k, d] -= 1.0
            newton_i[k, s] += 1.0
            if d < self.size:
                res[k, d] += 1.0
            if s < self.size:
                res[k, s] -= 1.0
        self._newton_i_map = newton_i
        self._res_map = res
        self._newton_g_map_: np.ndarray | None = None
        self._ss_map_: np.ndarray | None = None
        self._cap_map_: np.ndarray | None = None

    @property
    def newton_g_map(self) -> np.ndarray:
        """``(4K, (n+1)^2)`` dense companion-conductance scatter map.

        Built on first use and cached: the dense Newton hot path needs it
        immediately, the sparse engine never does."""
        if self._newton_g_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            newton_g = np.zeros((4 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                for t, col in enumerate((d, g, s, b)):
                    newton_g[4 * k + t, d * n1 + col] += 1.0
                    newton_g[4 * k + t, s * n1 + col] -= 1.0
            self._newton_g_map_ = newton_g
        return self._newton_g_map_

    @property
    def ss_map(self) -> np.ndarray:
        """``(3K, (n+1)^2)`` dense small-signal (gm/gds/gmb) scatter map
        (lazy, like :attr:`newton_g_map`)."""
        if self._ss_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            ss = np.zeros((3 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                # Small-signal stamp of i_d = gm*vgs + gds*vds + gmb*vbs.
                for col, sign in ((g, 1.0), (s, -1.0)):          # gm
                    ss[3 * k + 0, d * n1 + col] += sign
                    ss[3 * k + 0, s * n1 + col] -= sign
                for col, sign in ((d, 1.0), (s, -1.0)):          # gds
                    ss[3 * k + 1, d * n1 + col] += sign
                    ss[3 * k + 1, s * n1 + col] -= sign
                for col, sign in ((b, 1.0), (s, -1.0)):          # gmb
                    ss[3 * k + 2, d * n1 + col] += sign
                    ss[3 * k + 2, s * n1 + col] -= sign
            self._ss_map_ = ss
        return self._ss_map_

    @property
    def cap_map(self) -> np.ndarray:
        """``(4K, (n+1)^2)`` dense device-capacitance scatter map (lazy,
        like :attr:`newton_g_map`)."""
        if self._cap_map_ is None:
            n1 = self.size + 1
            K = len(self._terms_pad)
            cap = np.zeros((4 * K, n1 * n1))
            for k in range(K):
                d, g, s, b = (int(i) for i in self._terms_pad[k])
                for t, (i, j) in enumerate(((g, s), (g, d), (d, b), (s, b))):
                    cap[4 * k + t, i * n1 + i] += 1.0
                    cap[4 * k + t, j * n1 + j] += 1.0
                    cap[4 * k + t, i * n1 + j] -= 1.0
                    cap[4 * k + t, j * n1 + i] -= 1.0
            self._cap_map_ = cap
        return self._cap_map_

    def _bind(self, netlist: Netlist) -> None:
        """Point the system at ``netlist``'s values: refresh the stacked
        device constants and re-stamp every linear element."""
        self._attach(netlist)
        self._refresh_values()

    def _attach(self, netlist: Netlist) -> None:
        """Bind ``netlist`` and partition its linear elements, without
        touching the value arrays.

        Elements advertising a :meth:`Element.stamp_key` are assumed
        *constant* until a key change is observed; their combined stamp is
        frozen into a base (:class:`~repro.sim.assembly.StampBase`) so a
        steady-state rebind re-stamps only the handful of elements a
        sizing actually varies.
        """
        self.netlist = netlist
        self.mosfets: tuple[Mosfet, ...] = tuple(
            e for e in netlist if isinstance(e, Mosfet))
        # Nonlinear devices stamp nothing linear (their whole contribution
        # is the Newton companion model), so value stamping skips them.
        self._linear = tuple(e for e in netlist if not e.is_nonlinear)
        self._resistors = tuple(e for e in self._linear
                                if isinstance(e, Resistor))
        const, var, keys = [], [], []
        for index, element in enumerate(self._linear):
            key = element.stamp_key()
            if key is None:
                var.append(index)
            else:
                const.append(index)
                keys.append(key)
        self._part = self._stamp_map.partition(
            self._linear, tuple(const), tuple(var), keys)

    def _demote_changed(self) -> None:
        """Move every constant element whose stamp key changed to the
        variable list (appended in element order; one-time cost)."""
        part = self._part
        if not part.const:
            return
        keys = [element.stamp_key() for element in part.const_elems]
        if keys == part.keys:
            return
        const, const_keys, demoted = [], [], []
        for index, old, new in zip(part.const, part.keys, keys):
            if new != old:
                demoted.append(index)
            else:
                const.append(index)
                const_keys.append(old)
        if demoted:
            self._part = self._stamp_map.partition(
                self._linear, tuple(const), part.var + tuple(demoted),
                const_keys)

    def _refresh_values(self) -> None:
        """Recompute everything value-dependent from the bound netlist."""
        self._dev = (DeviceArrays.from_mosfets(self.mosfets)
                     if self.mosfets else None)
        self._ss_memo = None
        self._ss_sparse_memo = None
        self._sp_lu_memo = None
        self._G_csc = None
        part = self._part
        part.fill(self._value_rows(),
                  np.array(part.read(), dtype=float).reshape(1, -1))

    def _value_rows(self) -> tuple[np.ndarray, ...]:
        """The four value arrays as one-slice ``(1, width)`` blocks."""
        return (self._Gv[None], self._Cv[None],
                self.b_dc[None], self.b_ac[None])

    def _check_structure(self, netlist: Netlist) -> None:
        if netlist.structure_signature() != self._signature:
            raise StructureMismatch(
                f"netlist {netlist.title!r} does not match the structure "
                f"this MnaSystem was built from")

    def restamp(self, netlist: Netlist) -> "MnaSystem":
        """Refresh ``G/C/b`` in place from a same-structure netlist.

        Skips validation, node sorting and index/scatter-map construction —
        the per-sizing cost is reduced to value stamping.  Raises
        :class:`StructureMismatch` when the netlist's structure signature
        differs (callers fall back to a fresh :class:`MnaSystem`).
        """
        self._check_structure(netlist)
        self._bind(netlist)
        return self

    def rebind_values(self) -> "MnaSystem":
        """Refresh matrices and device constants after the *currently bound*
        netlist's element values were mutated in place.

        The fastest restamp path: no netlist rebuild, no signature check,
        no element re-collection — used by topologies that support
        in-place sizing updates (:meth:`Topology.update_netlist`).  An
        element whose :meth:`~Element.stamp_key` changed is demoted from
        the frozen base to the per-rebind stamp list (one-time cost)."""
        self._demote_changed()
        self._refresh_values()
        return self

    @property
    def G(self) -> np.ndarray:
        """Conductance matrix ``(n, n)``.  Sparse systems hold only the
        master-pattern data and return a read-only densified copy."""
        if not self.sparse:
            return self._G
        return self._densified(self._Gv)

    @property
    def C(self) -> np.ndarray:
        """Capacitance matrix ``(n, n)`` (read-only copy when sparse)."""
        if not self.sparse:
            return self._C
        return self._densified(self._Cv)

    def _densified(self, data: np.ndarray) -> np.ndarray:
        dense = self.sparse_state.densify(data)
        dense.flags.writeable = False
        return dense

    @property
    def device_arrays(self) -> DeviceArrays | None:
        """Stacked per-MOSFET constants (None for linear-only circuits)."""
        return self._dev

    def dynamic_columns(self, C_ss: np.ndarray) -> np.ndarray:
        """Nonzero (capacitive) columns of the small-signal C matrix.

        The sparsity pattern is structure-determined, so it is computed
        once and reused across restamps; the modal AC solver's residual
        verification guards against the (pathological) case of a sizing
        growing the pattern.
        """
        if self._dyn_cols is None:
            self._dyn_cols = np.nonzero(
                np.abs(C_ss).max(axis=0) > 0.0)[0]
        return self._dyn_cols

    # -- voltage access ------------------------------------------------------
    def voltage_getter(self, x: np.ndarray):
        """Return a ``node name -> voltage`` callable over solution vector ``x``."""
        index = self.node_index

        def get(node: str) -> float:
            i = index[node]
            return 0.0 if i < 0 else float(x[i])

        return get

    def _terminal_voltages(self, x: np.ndarray) -> np.ndarray:
        """``(K, 4)`` stacked (d, g, s, b) node voltages at solution ``x``.

        Returns a reused buffer, valid until the next call."""
        xp = self._x_pad
        xp[:self.size] = x
        return np.take(xp, self._terms_pad, out=self._V_buf)

    # -- Newton companion assembly ---------------------------------------------
    def newton_matrices(self, x: np.ndarray, gmin: float = 0.0,
                        source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(A, rhs)`` of the companion-model linear system.

        Solving ``A x_new = rhs`` performs one Newton step from ``x``:
        ``A = G + J_nl(x) (+ gmin on node diagonals)`` and
        ``rhs = source_scale * b_dc - i_nl(x) + J_nl(x) x``.  All MOSFETs
        are evaluated in one vectorised call and scatter-added through the
        precomputed maps — O(1) Python calls regardless of device count.

        Sparse systems return ``A`` as a CSC matrix over the structure's
        master pattern instead of a dense array; the DC Newton driver's
        factorisation layer (:func:`repro.sim.dc._lu_factor`) handles
        both forms transparently.
        """
        if self.sparse:
            return self._newton_matrices_sparse(x, gmin, source_scale)
        size = self.size
        A = self._A_pad
        A.fill(0.0)
        A[:size, :size] = self._G
        rhs = self._rhs_pad
        rhs[:size] = self.b_dc
        if source_scale != 1.0:
            rhs[:size] *= source_scale
        rhs[size] = 0.0
        if self._dev is not None:
            ws = self._ws
            V = self._terminal_voltages(x)
            i_d, g = eval_companion_ws(self._dev, V, ws)
            flat = A.reshape(-1)
            np.matmul(g.reshape(-1), self.newton_g_map, out=self._Aflat_buf)
            np.add(flat, self._Aflat_buf, out=flat)
            np.multiply(g, V, out=ws.gV)
            np.sum(ws.gV, axis=1, out=ws.i_eq)
            np.subtract(i_d, ws.i_eq, out=ws.i_eq)
            np.matmul(ws.i_eq, self._newton_i_map, out=self._rhs_buf)
            np.add(rhs, self._rhs_buf, out=rhs)
        if gmin > 0.0:
            A[self._diag, self._diag] += gmin
        return A[:size, :size].copy(), rhs[:size].copy()

    def _newton_matrices_sparse(self, x: np.ndarray, gmin: float,
                                source_scale: float):
        """Sparse :meth:`newton_matrices`: the master-pattern ``G`` data
        plus O(K) device scatter-adds instead of a dense ``(n+1)^2`` fill
        and scatter matmul."""
        st = self.sparse_state
        rhs = source_scale * self.b_dc
        if self._dev is not None:
            ws = self._ws
            V = self._terminal_voltages(x)
            i_d, g = eval_companion_ws(self._dev, V, ws)
            data = st.newton_data(self._sparse_G_data(), g)
            np.multiply(g, V, out=ws.gV)
            np.sum(ws.gV, axis=1, out=ws.i_eq)
            np.subtract(i_d, ws.i_eq, out=ws.i_eq)
            st.add_rhs_currents(rhs, ws.i_eq)
        else:
            data = self._sparse_G_data().copy()
        if gmin > 0.0:
            data[st.node_diag_pos] += gmin
        if self.iterative:
            # Hand the driver a Krylov operator instead of a CSC matrix:
            # the current iterate warm-starts the linear solve, so
            # store-seeded Newton cuts Krylov iterations too.
            return self.krylov_state.operator(
                data, x0=np.array(x[:self.size], dtype=float),
                gmin=gmin), rhs
        return st.matrix(data), rhs

    def _sparse_G_data(self) -> np.ndarray:
        """Master-pattern data of ``G`` (read-only by convention)."""
        return self._Gv

    def _sparse_C_data(self) -> np.ndarray:
        """Master-pattern data of ``C`` (read-only by convention)."""
        return self._Cv

    def residual(self, x: np.ndarray, source_scale: float = 1.0) -> np.ndarray:
        """KCL/KVL residual ``F(x) = G x + i_nl(x) - b`` (amps / volts).

        Convergence checks run this at what usually becomes the final
        operating point, and the small-signal stamp values are wanted at
        exactly that point right afterwards — so the forward fast path
        evaluates the full model once and stashes the ``gm/gds/gmb`` and
        capacitance stamp values for :meth:`_ss_quantities` (keyed by the
        solution vector; a cache, not an approximation).  Reverse-biased
        devices fall back to the current-only evaluation.
        """
        if self.sparse:
            if self._G_csc is None:
                self._G_csc = self.sparse_state.matrix(self._Gv)
            f = self._G_csc @ x - source_scale * self.b_dc
        else:
            f = self._G @ x - source_scale * self.b_dc
        dev, ws = self._dev, self._ws
        if dev is None:
            return f
        V = self._terminal_voltages(x)
        np.multiply(V, dev.sign[:, None], out=ws.Vs)
        np.matmul(ws.Vs, _TERM_MAP, out=ws.V3)
        vgs, vds, vsb = ws.V3[:, 0], ws.V3[:, 1], ws.V3[:, 2]
        if vds.min() < 0.0:
            ids = np.multiply(dev.sign,
                              channel_ids_batch(dev, vgs, vds, vsb),
                              out=ws.i_d)
        else:
            raw, d_vgs, d_vds, d_vsb = _forward_core_ws(
                dev, vgs, vds, vsb, ws, derivatives=True)
            ids = np.multiply(dev.sign, raw, out=ws.i_d)
            self._stash_ss(dev, x, d_vgs, d_vds, d_vsb, np.abs(ws.t[5]))
        f += ids @ self._res_map
        return f

    def _pack_ss(self, dev, d_vgs, d_vds, d_vsb, sat) -> None:
        """Fill ``_g3_buf``/``_c4_buf`` with the small-signal stamp values:
        clamped (gm, gds, gmb) and the triode/saturation capacitance blend
        (the vectorised mirror of :meth:`Mosfet.capacitances`)."""
        g3, c4 = self._g3_buf, self._c4_buf
        np.maximum(d_vgs, 0.0, out=g3[:, 0])
        np.maximum(d_vds, 0.0, out=g3[:, 1])
        np.abs(d_vsb, out=g3[:, 2])
        np.multiply(dev.c_area, sat / 6.0 + 0.5, out=c4[:, 0])
        np.add(c4[:, 0], dev.c_ov, out=c4[:, 0])
        np.multiply(dev.c_area, 0.5 * (1.0 - sat), out=c4[:, 1])
        np.add(c4[:, 1], dev.c_ov, out=c4[:, 1])
        c4[:, 2] = dev.c_j
        c4[:, 3] = dev.c_j

    def _stash_ss(self, dev, x, d_vgs, d_vds, d_vsb, sat) -> None:
        """Cache small-signal stamp values computed at solution ``x``."""
        self._pack_ss(dev, d_vgs, d_vds, d_vsb, sat)
        self._ss_stash = (dev, x.copy())

    # -- operating-point state ---------------------------------------------------
    def mosfet_state_arrays(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """All :class:`MosfetState` fields as ``(K,)`` arrays at solution
        ``x`` — one vectorised evaluation for the whole netlist."""
        return self.state_arrays_for(self._dev, x)

    def state_arrays_for(self, dev: DeviceArrays | None,
                         x: np.ndarray) -> dict[str, np.ndarray]:
        """Like :meth:`mosfet_state_arrays` but for an explicit device
        snapshot — operating points captured before a restamp evaluate
        against the constants they were solved with."""
        if dev is None:
            return {}
        vgs, vds, vsb = terminal_voltages_batch(
            dev, self._terminal_voltages(x))
        return state_arrays_batch(dev, vgs, vds, vsb)

    def mosfet_states(self, x: np.ndarray) -> dict[str, MosfetState]:
        """Per-device :class:`MosfetState` objects at solution ``x``."""
        arrays = self.mosfet_state_arrays(x)
        return self.states_from_arrays(arrays)

    def states_from_arrays(self, arrays: dict[str, np.ndarray]
                           ) -> dict[str, MosfetState]:
        """Materialise :class:`MosfetState` objects from stacked arrays."""
        states: dict[str, MosfetState] = {}
        for k, mosfet in enumerate(self.mosfets):
            states[mosfet.name] = MosfetState(
                **{name: float(col[k]) for name, col in arrays.items()})
        return states

    # -- small-signal assembly ----------------------------------------------------
    def _ss_quantities(self, dev: DeviceArrays,
                       x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(g3, c4)`` stacked small-signal stamp values at solution ``x``
        without materialising the full state-array dict (hot path)."""
        stash = self._ss_stash
        if (stash is not None and stash[0] is dev
                and np.array_equal(stash[1], x)):
            # Computed by the convergence residual at this exact solution.
            return self._g3_buf.reshape(-1), self._c4_buf.reshape(-1)
        ws = self._ws
        V = self._terminal_voltages(x)
        np.multiply(V, dev.sign[:, None], out=ws.Vs)
        np.matmul(ws.Vs, _TERM_MAP, out=ws.V3)
        vgs, vds, vsb = ws.V3[:, 0], ws.V3[:, 1], ws.V3[:, 2]
        self._ss_stash = None
        if vds.min() < 0.0:
            cc = channel_current_batch(dev, vgs, vds, vsb)
            self._pack_ss(dev, cc.d_vgs, cc.d_vds, cc.d_vsb, cc.saturation)
        else:
            _, d_vgs, d_vds, d_vsb = _forward_core_ws(dev, vgs, vds, vsb,
                                                      ws, derivatives=True)
            # |tanh| is left in ws.t[5] by the forward core.
            self._pack_ss(dev, d_vgs, d_vds, d_vsb, np.abs(ws.t[5]))
        return self._g3_buf.reshape(-1), self._c4_buf.reshape(-1)

    def small_signal_matrices(self, op) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(G_ss, C_ss)`` with every MOSFET's linearised model stamped
        at the operating point ``op``.

        Memoised for the most recent operating point: AC, step-response and
        noise analyses of one measurement all linearise at the same ``op``.
        Callers must treat the returned matrices as read-only.
        """
        size = self.size
        if self._dev is None:
            return self.G.copy(), self.C.copy()
        if self._ss_memo is not None and self._ss_memo[0] is op:
            return self._ss_memo[1], self._ss_memo[2]
        if self.sparse:
            Gs, Cs = self.small_signal_sparse(op)
            G_ss, C_ss = Gs.toarray(), Cs.toarray()
            self._ss_memo = (op, G_ss, C_ss)
            return G_ss, C_ss
        g3, c4 = self._ss_values_for(op)
        Gp, Cp = self._Gss_pad, self._Css_pad
        Gp.fill(0.0)
        Gp[:size, :size] = self._G
        Gp.reshape(-1)[:] += g3 @ self.ss_map
        Cp.fill(0.0)
        Cp[:size, :size] = self._C
        Cp.reshape(-1)[:] += c4 @ self.cap_map
        G_ss = Gp[:size, :size].copy()
        C_ss = Cp[:size, :size].copy()
        self._ss_memo = (op, G_ss, C_ss)
        return G_ss, C_ss

    def _ss_values_for(self, op) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``(g3, c4)`` small-signal stamp values at ``op``,
        preferring the operating point's materialised state arrays."""
        arrays = getattr(op, "_state_arrays", None)
        if arrays is not None and getattr(op, "system", None) is self:
            g3 = np.stack([arrays["gm"], arrays["gds"], arrays["gmb"]],
                          axis=-1).reshape(-1)
            c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                           arrays["csb"]], axis=-1).reshape(-1)
            return g3, c4
        dev = getattr(op, "_dev", None) or self._dev
        return self._ss_quantities(dev, op.x)

    def small_signal_sparse(self, op):
        """Sparse ``(G_ss, C_ss)`` at ``op`` as aligned CSC matrices.

        Both matrices share the structure's master pattern, so the AC
        layer combines them as ``G.data + j*w*C.data`` without any index
        arithmetic.  Memoised per operating point like the dense path.
        """
        st = self.sparse_state
        memo = self._ss_sparse_memo
        if memo is not None and memo[0] is op:
            return memo[1], memo[2]
        if self._dev is None:
            Gs = st.matrix(self._sparse_G_data().copy())
            Cs = st.matrix(self._sparse_C_data().copy())
        else:
            g3, c4 = self._ss_values_for(op)
            Gd, Cd = st.ss_data(self._sparse_G_data(), self._sparse_C_data(),
                                g3, c4)
            Gs, Cs = st.matrix(Gd), st.matrix(Cd)
        self._ss_sparse_memo = (op, Gs, Cs)
        return Gs, Cs

    def sparse_sweep_lus(self, op, frequencies: np.ndarray) -> list:
        """Cached sweep factors of ``G_ss + j w C_ss`` (``splu`` on the
        sparse-direct leg, a :class:`~repro.sim.krylov.KrylovSweep` on
        the iterative one — same ``solve(b, adjoint=)`` contract).

        Memoised per (operating point, frequency-grid object): within one
        measurement the forward AC sweep, the gain referral and the noise
        adjoint all linearise at the same ``op`` over the same grid, so
        every frequency point is factored (or anchored) exactly once.
        """
        memo = self._sp_lu_memo
        if memo is not None and memo[0] is op and memo[1] is frequencies:
            return memo[2]
        Gs, Cs = self.small_signal_sparse(op)
        omega = 2.0 * np.pi * np.asarray(frequencies, dtype=float)
        if self.iterative:
            from repro.sim.krylov import KrylovSweep
            lus = KrylovSweep(self.sparse_state, Gs.data, Cs.data, omega,
                              stats=self.krylov_state.stats)
        else:
            lus = self.sparse_state.sweep_lus(Gs.data, Cs.data, omega)
        self._sp_lu_memo = (op, frequencies, lus)
        return lus

    def capacitance_matrix_at(self, x: np.ndarray) -> np.ndarray:
        """Capacitance matrix including MOSFET capacitances evaluated at the
        (large-signal) solution ``x`` — used by the nonlinear transient
        engine, where device capacitances vary along the trajectory."""
        if self._dev is None:
            return self.C.copy()
        if self.sparse:
            return self.sparse_state.densify(self.sparse_cap_data(x))
        size = self.size
        arrays = self.mosfet_state_arrays(x)
        n1 = size + 1
        Cp = np.zeros((n1, n1))
        Cp[:size, :size] = self._C
        c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                       arrays["csb"]], axis=-1).reshape(-1)
        Cp.reshape(-1)[:] += c4 @ self.cap_map
        return Cp[:size, :size].copy()

    def sparse_cap_data(self, x: np.ndarray) -> np.ndarray:
        """Master-pattern data of the large-signal capacitance matrix at
        ``x`` (the sparse transient engine's C-refresh primitive)."""
        Cd = self._sparse_C_data()
        if self._dev is None:
            return Cd.copy()
        arrays = self.mosfet_state_arrays(x)
        c4 = np.stack([arrays["cgs"], arrays["cgd"], arrays["cdb"],
                       arrays["csb"]], axis=-1).reshape(-1)
        return self.sparse_state.cap_data(Cd, c4)

    def nonlinear_current(self, x: np.ndarray) -> np.ndarray:
        """KCL currents injected by the MOSFETs at large-signal ``x``.

        One vectorised current-only device evaluation scattered through the
        residual map — the transient engine's f(x) assembly, shared with
        the batched engine so both integrate bit-identical trajectories.
        """
        if self._dev is None:
            return np.zeros(self.size)
        V = self._terminal_voltages(x)
        return eval_ids_batch(self._dev, V) @ self._res_map

    def nonlinear_current_and_jacobian(
            self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(i_nl, J_nl)`` of the stacked MOSFETs at large-signal ``x``.

        The Jacobian is assembled with the same dense scatter maps the DC
        Newton loop uses (ground terminals routed to the sliced-away
        padding row), replacing the historical per-device Python loop.
        """
        n = self.size
        if self._dev is None:
            return np.zeros(n), np.zeros((n, n))
        V = self._terminal_voltages(x)
        i_d, g = eval_companion_batch(self._dev, V)
        if self.sparse:
            st = self.sparse_state
            Jd = st.newton_data(np.zeros(st.nnz), g)
            return i_d @ self._res_map, st.densify(Jd)
        n1 = n + 1
        Jp = (g.reshape(-1) @ self.newton_g_map).reshape(n1, n1)
        return i_d @ self._res_map, np.ascontiguousarray(Jp[:n, :n])

    def noise_source_list(self, op):
        """All noise current sources ``(i_index, j_index, psd_fn)`` at ``op``."""
        sources = []
        for element in self.netlist:
            for p, n, psd in element.noise_sources(op):
                sources.append((self.node_index[p], self.node_index[n], psd))
        return sources

"""Sparse (SuperLU) companion of the dense MNA machinery.

The dense engine expresses every per-device stamp as a matmul against
precomputed dense scatter maps and solves ``(n, n)`` (or stacked
``(B, n, n)``) systems with LAPACK.  Both choices stop scaling a little
past a hundred unknowns: the maps cost ``O(K n^2)`` memory and the solves
``O(n^3)`` time, while a post-PEX mesh or an RC-interconnect chain is
structurally ``O(n)`` sparse.

This module adds a structure-cached sparse layout underneath the shared
assembly layer (:mod:`repro.sim.assembly`): a sparse
:class:`~repro.sim.system.MnaSystem` keeps ``G``/``C`` only as data over
one CSC pattern, scattered straight from the element stamp values.

* :class:`SparseState` — built once per MNA *structure* (the sparse
  mirror of the dense scatter maps).  It computes one **master sparsity
  pattern** in CSC order: the union of every linear element stamp
  (the positions of the system's stamp map), every MOSFET
  companion/small-signal/capacitance stamp, and the full diagonal.  All
  sparse matrices of the structure — DC Newton Jacobians, small-signal
  ``G_ss``/``C_ss``, AC operators ``G + j w C``, transient iteration
  matrices — share this one pattern, so per-sizing work reduces to
  refreshing ``.data`` vectors: the ``O(nnz)`` linear base plus
  ``O(K)`` scatter-adds of the device quantities through precomputed
  position indices.
* :class:`SparseSlice` — a lightweight per-design view over a sparse
  :class:`~repro.sim.batch.SystemStack` slice that duck-types the
  ``newton_matrices``/``residual`` surface of :class:`MnaSystem`, so the
  scalar :func:`~repro.sim.dc.solve_dc` (damped Newton + gmin/source
  stepping) drives batched sparse solves unchanged.
* Factorisations are :func:`scipy.sparse.linalg.splu` objects.  An AC
  sweep factors each frequency point once and reuses the factors for
  forward solves *and* the noise adjoint (``A^T y = e`` via
  ``trans="T"``) — the system memoises the factor list per
  (operating point, frequency grid), so a measurement's gain sweep and
  noise referral share one set of LUs.

When scipy is unavailable the dense engine remains fully functional;
:data:`HAVE_SCIPY` gates the selector (see :mod:`repro.sim.engine`).
"""

from __future__ import annotations

import numpy as np

try:
    import scipy.sparse as _sp
    from scipy.sparse.linalg import splu as _splu
    HAVE_SCIPY = True
except ImportError:  # pragma: no cover - scipy is present in the toolchain
    _sp = None
    _splu = None
    HAVE_SCIPY = False

from repro.circuits.mosfet import eval_companion_batch, eval_ids_batch
from repro.errors import AnalysisError


class SparseState:
    """Structure-cached sparse assembly state of one :class:`MnaSystem`.

    Built once per structure (alongside the node ordering and terminal
    maps); restamps never touch it.  See the module docstring for the
    master-pattern design.
    """

    def __init__(self, system, entries):
        if not HAVE_SCIPY:
            raise AnalysisError(
                "sparse engine requested but scipy is not installed "
                "(set REPRO_ENGINE=dense)")
        n = system.size
        self.n = n
        self.n_nodes = system.n_nodes

        # Linear-stamp positions (from the system's stamp map), the full
        # diagonal, and every device companion/small-signal/cap entry.
        entries = set(entries)
        entries.update((i, i) for i in range(n))

        terms = system._terms_pad  # (K, 4) with ground routed to n == size
        for d, g, s, b in terms:
            d, g, s, b = int(d), int(g), int(s), int(b)
            for row in (d, s):
                if row >= n:
                    continue
                for col in (d, g, s, b):
                    if col < n:
                        entries.add((row, col))
            for i, j in ((g, s), (g, d), (d, b), (s, b)):
                if i < n:
                    entries.add((i, i))
                if j < n:
                    entries.add((j, j))
                if i < n and j < n:
                    entries.add((i, j))
                    entries.add((j, i))

        rows, cols = (np.array(sorted(entries), dtype=np.intp).reshape(-1, 2).T
                      if entries else
                      (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)))
        pattern = _sp.csc_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n))
        pattern.sum_duplicates()
        pattern.sort_indices()
        coo = pattern.tocoo()
        #: Master-pattern coordinates in CSC data order (densify).
        self.pat_rows = coo.row.astype(np.intp)
        self.pat_cols = coo.col.astype(np.intp)
        # Column-major keys, increasing in CSC data order (positions()).
        self._keys = self.pat_cols * n + self.pat_rows
        self.indices = pattern.indices.copy()
        self.indptr = pattern.indptr.copy()
        self.nnz = pattern.nnz
        pos = {(int(r), int(c)): k
               for k, (r, c) in enumerate(zip(self.pat_rows, self.pat_cols))}
        self._diag_pos = np.array([pos[(i, i)] for i in range(n)],
                                  dtype=np.intp)
        #: Positions of the node-diagonal entries (gmin stamping).
        self.node_diag_pos = self._diag_pos[:self.n_nodes]

        # Device scatter indices: (data position, source index into the
        # flattened device-quantity array, sign) triples, mirroring the
        # dense maps of MnaSystem._build_scatter_maps entry for entry.
        nw, ss, cap = [], [], []
        rhs = []
        for k, (d, g, s, b) in enumerate(terms):
            d, g, s, b = int(d), int(g), int(s), int(b)
            for t, col in enumerate((d, g, s, b)):
                if col >= n:
                    continue
                if d < n:
                    nw.append((pos[(d, col)], 4 * k + t, 1.0))
                if s < n:
                    nw.append((pos[(s, col)], 4 * k + t, -1.0))
            if d < n:
                rhs.append((d, k, -1.0))
            if s < n:
                rhs.append((s, k, 1.0))
            # Small-signal stamp of i_d = gm*vgs + gds*vds + gmb*vbs.
            for q, col_q in enumerate((g, d, b)):
                for col, sign in ((col_q, 1.0), (s, -1.0)):
                    if col >= n:
                        continue
                    if d < n:
                        ss.append((pos[(d, col)], 3 * k + q, sign))
                    if s < n:
                        ss.append((pos[(s, col)], 3 * k + q, -sign))
            for t, (i, j) in enumerate(((g, s), (g, d), (d, b), (s, b))):
                if i < n:
                    cap.append((pos[(i, i)], 4 * k + t, 1.0))
                if j < n:
                    cap.append((pos[(j, j)], 4 * k + t, 1.0))
                if i < n and j < n:
                    cap.append((pos[(i, j)], 4 * k + t, -1.0))
                    cap.append((pos[(j, i)], 4 * k + t, -1.0))

        def _split(triples):
            if not triples:
                z = np.empty(0, dtype=np.intp)
                return z, z.copy(), np.empty(0)
            p, src, sign = zip(*triples)
            return (np.array(p, dtype=np.intp), np.array(src, dtype=np.intp),
                    np.array(sign))

        self._nw_pos, self._nw_src, self._nw_sign = _split(nw)
        self._rhs_pos, self._rhs_src, self._rhs_sign = _split(rhs)
        self._ss_pos, self._ss_src, self._ss_sign = _split(ss)
        self._cap_pos, self._cap_src, self._cap_sign = _split(cap)
        self._block_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- data plumbing -------------------------------------------------------
    def positions(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """Master-pattern data indices of entries ``(rows, cols)`` (all of
        which must be in the pattern)."""
        return np.searchsorted(self._keys, np.asarray(cols) * self.n
                               + np.asarray(rows))

    def same_pattern(self, other: "SparseState") -> bool:
        """True when ``other`` shares this master pattern exactly."""
        return other is self or (
            other.n == self.n and np.array_equal(other.indptr, self.indptr)
            and np.array_equal(other.indices, self.indices))

    def matrix(self, data: np.ndarray):
        """CSC matrix over the master pattern with the given ``.data``."""
        return _sp.csc_matrix((data, self.indices, self.indptr),
                              shape=(self.n, self.n))

    def densify(self, data: np.ndarray) -> np.ndarray:
        """Dense ``(..., n, n)`` matrices from ``(..., nnz)`` data rows.

        The bridge for dense-only consumers (stacked measurement, batch
        transient) running against a sparse :class:`SystemStack`; cheap at
        the small sizes where those paths are used.
        """
        out = np.zeros(data.shape[:-1] + (self.n, self.n))
        out[..., self.pat_rows, self.pat_cols] = data
        return out

    # -- assembly ------------------------------------------------------------
    def newton_data(self, G_data: np.ndarray, g: np.ndarray) -> np.ndarray:
        """``G + J_nl`` data: linear base plus companion conductances
        ``g`` (shape ``(K, 4)``) scattered through the position indices."""
        data = G_data.copy()
        if self._nw_pos.size:
            np.add.at(data, self._nw_pos,
                      self._nw_sign * g.reshape(-1)[self._nw_src])
        return data

    def add_rhs_currents(self, rhs: np.ndarray, i_eq: np.ndarray) -> None:
        """Scatter-add per-device equivalent currents into a RHS vector."""
        if self._rhs_pos.size:
            np.add.at(rhs, self._rhs_pos,
                      self._rhs_sign * i_eq[self._rhs_src])

    def ss_data(self, G_data: np.ndarray, C_data: np.ndarray,
                g3: np.ndarray, c4: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        """Small-signal ``(G_ss, C_ss)`` data from linear bases plus the
        stacked ``(gm, gds, gmb)`` / capacitance stamp values."""
        Gd = G_data.copy()
        if self._ss_pos.size:
            np.add.at(Gd, self._ss_pos, self._ss_sign * g3[self._ss_src])
        return Gd, self.cap_data(C_data, c4)

    def cap_data(self, C_data: np.ndarray, c4: np.ndarray) -> np.ndarray:
        """``C`` data including device capacitances ``c4`` (flattened)."""
        Cd = C_data.copy()
        if self._cap_pos.size:
            np.add.at(Cd, self._cap_pos, self._cap_sign * c4[self._cap_src])
        return Cd

    # -- factorisation -------------------------------------------------------
    def lu(self, data: np.ndarray):
        """``splu`` factorisation of the master-pattern matrix ``data``;
        None when the matrix is singular (callers treat it like a failed
        dense factorisation)."""
        try:
            return _splu(self.matrix(data))
        except RuntimeError:
            return None

    def block_pattern(self, F: int) -> tuple[np.ndarray, np.ndarray]:
        """CSC ``(indices, indptr)`` of ``F`` master-pattern blocks
        stacked block-diagonally (cached per ``F``)."""
        cache = self._block_cache
        hit = cache.get(F)
        if hit is not None:
            return hit
        indices = (self.indices[None, :]
                   + (np.arange(F) * self.n)[:, None]).ravel()
        indptr = np.append(
            (self.indptr[None, :-1]
             + (np.arange(F) * self.nnz)[:, None]).ravel(),
            F * self.nnz)
        cache[F] = (indices, indptr)
        return cache[F]

    def sweep_lus(self, G_data: np.ndarray, C_data: np.ndarray,
                  omega: np.ndarray) -> "SweepFactorization":
        """Factor ``G + j w C`` at every sweep frequency.

        Returns the cached-factor object the AC/noise layer memoises per
        operating point; it serves the forward sweep and the noise
        adjoint (``trans="T"``) alike — see :class:`SweepFactorization`.
        """
        return SweepFactorization(self, G_data, C_data, omega)


class SweepFactorization:
    """``splu`` factors of a whole frequency sweep, solved in one call.

    The per-frequency operators share the master pattern, so the sweep
    stacks them into one block-diagonal CSC matrix and factors it with a
    *single* ``splu`` call — SuperLU's per-invocation setup, which
    dwarfs the numeric work of one ~1000-nnz block, is paid once per
    sweep instead of once per frequency (~1.6x on a 37-point sweep of
    the 221-unknown chain).  Fill-in cannot cross block boundaries, so
    the factorisation is exactly the per-frequency one, reordered.

    A singular stacked factorisation (one bad frequency poisons the
    block) falls back to per-frequency factors to produce the precise
    error message.
    """

    def __init__(self, state: SparseState, G_data: np.ndarray,
                 C_data: np.ndarray, omega: np.ndarray):
        self._state = state
        self.F = len(omega)
        self.n = state.n
        data = (G_data[None, :]
                + (1j * omega)[:, None] * C_data[None, :]).ravel()
        indices, indptr = state.block_pattern(self.F)
        A = _sp.csc_matrix((data, indices, indptr),
                           shape=(self.F * self.n, self.F * self.n))
        try:
            self._lu = _splu(A)
        except RuntimeError:
            self._lu = None
            Gc = G_data.astype(complex)
            for w in omega:
                if state.lu(Gc + (1j * w) * C_data) is None:
                    raise AnalysisError(
                        "sparse AC operator is singular at "
                        f"omega = {w:.3e} rad/s")
            raise AnalysisError("sparse AC sweep factorisation failed")

    def solve(self, b: np.ndarray, adjoint: bool = False) -> np.ndarray:
        """Solve all frequency points against one RHS -> ``(F, n)``.

        ``adjoint`` solves ``A^T x = b`` through the same factors (the
        noise adjoint; block-diagonal transpose is per-block transpose).
        """
        rhs = np.tile(np.asarray(b, dtype=complex), self.F)
        trans = "T" if adjoint else "N"
        return self._lu.solve(rhs, trans=trans).reshape(self.F, self.n)


def stack_sweep_factors(stack, rows: np.ndarray, g3: np.ndarray,
                        c4: np.ndarray, omega: np.ndarray
                        ) -> list[SweepFactorization]:
    """Per-design :class:`SweepFactorization` list for sparse stack slices.

    The stacked-measurement primitive of the sparse engine: instead of
    densifying a sparse :class:`~repro.sim.batch.SystemStack` into
    ``(B, n, n)`` operators, each design's small-signal ``.data`` rows are
    assembled on the master pattern (linear base from the stack's
    ``G_pat``/``C_pat`` snapshot plus the device ``g3``/``c4`` stamp
    values, shapes ``(B, 3K)`` / ``(B, 4K)``) and factored with one
    block-diagonal ``splu`` per design — exactly the scalar AC path of
    :meth:`repro.sim.system.MnaSystem.sparse_sweep_lus`, applied slice by
    slice.  Callers memoise the returned factors so the forward sweep and
    the noise adjoint of one measurement share them.  Iterative-engine
    stacks get per-design :class:`~repro.sim.krylov.KrylovSweep` objects
    instead — same ``solve(b, adjoint=)`` contract, shared solve counters.
    """
    tpl = stack.template
    if getattr(tpl, "iterative", False):
        from repro.sim.krylov import stack_sweep_factors_krylov
        return stack_sweep_factors_krylov(stack, rows, g3, c4, omega,
                                          stats=tpl.krylov_state.stats)
    st = tpl.sparse_state
    facts = []
    for j, r in enumerate(rows):
        Gd, Cd = st.ss_data(stack.G_pat[r], stack.C_pat[r], g3[j], c4[j])
        facts.append(SweepFactorization(st, Gd, Cd, omega))
    return facts


def sweep_solve(fact: SweepFactorization, b: np.ndarray,
                adjoint: bool = False) -> np.ndarray:
    """Solve every factored frequency point against one RHS.

    ``adjoint`` solves ``A^T x = b`` through the same factors (the noise
    adjoint path; callers conjugate, since ``A^H = conj(A^T)`` for the
    real-``G/C`` operators here).  Returns ``(F, n)`` complex.
    """
    return fact.solve(b, adjoint=adjoint)


class SparseSlice:
    """Scalar Newton view of one slice of a sparse
    :class:`~repro.sim.batch.SystemStack`.

    Duck-types the surface :func:`repro.sim.dc.solve_dc` consumes
    (``size``/``n_nodes``/``netlist``/``temperature``,
    :meth:`newton_matrices`, :meth:`residual`, ``device_arrays``) so the
    scalar damped-Newton driver — including its gmin/source-stepping
    fallbacks — runs each stacked design against sparse factorisations
    without a dense ``(n, n)`` materialisation.
    """

    def __init__(self, stack, i: int):
        tpl = stack.template
        self._st = tpl.sparse_state
        self._tpl = tpl
        self.size = stack.size
        self.n_nodes = stack.n_nodes
        self.netlist = tpl.netlist
        self.node_index = tpl.node_index
        self.branch_index = tpl.branch_index
        self.temperature = float(stack.temperatures[i])
        self._G_data = stack.G_pat[i]
        self._b_dc = stack.b_dc[i]
        self._dev = stack.dev.take(i) if stack.dev is not None else None
        self._G_csc = self._st.matrix(self._G_data)
        if getattr(tpl, "iterative", False):
            # Per-slice ILU cache (each design's Jacobian drifts on its
            # own), counters shared with the template system's stats.
            from repro.sim.krylov import KrylovState
            self._krylov = KrylovState(self._st, stats=tpl.krylov_state.stats)
        else:
            self._krylov = None

    @property
    def device_arrays(self):
        return self._dev

    def _terminal_voltages(self, x: np.ndarray) -> np.ndarray:
        """Device terminal voltages at state ``x`` (ground padded as 0)."""
        xp = np.append(x, 0.0)
        return xp[self._tpl._terms_pad]

    def newton_matrices(self, x: np.ndarray, gmin: float = 0.0,
                        source_scale: float = 1.0):
        """Sparse ``(A, rhs)`` of this slice's companion-model system —
        the :meth:`MnaSystem.newton_matrices` contract over CSC."""
        st = self._st
        rhs = source_scale * self._b_dc
        if self._dev is not None:
            V = self._terminal_voltages(x)
            i_d, g = eval_companion_batch(self._dev, V)
            data = st.newton_data(self._G_data, g)
            st.add_rhs_currents(rhs, i_d - (g * V).sum(-1))
        else:
            data = self._G_data.copy()
        if gmin > 0.0:
            data[st.node_diag_pos] += gmin
        if self._krylov is not None:
            return self._krylov.operator(
                data, x0=np.array(x[:self.size], dtype=float),
                gmin=gmin), rhs
        return st.matrix(data), rhs

    def residual(self, x: np.ndarray, source_scale: float = 1.0) -> np.ndarray:
        """KCL/KVL residual ``F(x)`` of this slice (convergence gate)."""
        f = self._G_csc @ x - source_scale * self._b_dc
        if self._dev is not None:
            V = self._terminal_voltages(x)
            f += eval_ids_batch(self._dev, V) @ self._tpl._res_map
        return f

    def state_arrays_for(self, dev, x: np.ndarray) -> dict[str, np.ndarray]:
        """Stacked device-state fields at ``x`` (lazy OperatingPoint hook)."""
        return self._tpl.state_arrays_for(dev, x)


def solve_dc_batch_sparse(stack, x0: np.ndarray | None = None, *,
                          max_iter: int = 120, vtol: float = 1e-3,
                          itol: float = 1e-9, damping: float = 0.4):
    """Sparse counterpart of :func:`repro.sim.batch.solve_dc_batch`.

    Large systems are device-bound, not dispatch-bound, so the batch runs
    as a per-design loop of scalar sparse solves (same Newton algebra,
    same gmin/source-stepping schedules, same canonical seeds) instead of
    a stacked ``(B, n, n)`` factorisation.  Results carry the identical
    :class:`~repro.sim.batch.BatchDcResult` contract.
    """
    from repro.errors import ConvergenceError
    from repro.sim.batch import BatchDcResult
    from repro.sim.dc import solve_dc

    B, n = stack.n_designs, stack.size
    X = np.zeros((B, n))
    converged = np.zeros(B, dtype=bool)
    iterations = np.zeros(B, dtype=np.int64)
    fnorm = np.full(B, np.inf)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (B, n):
            raise ValueError(f"x0 has shape {x0.shape}, expected {(B, n)}")
    for i in range(B):
        view = SparseSlice(stack, i)
        try:
            op = solve_dc(view, x0=None if x0 is None else x0[i].copy(),
                          max_iter=max_iter, vtol=vtol, itol=itol,
                          damping=damping)
        except ConvergenceError as err:
            r = getattr(err, "residual", None)
            fnorm[i] = float(r) if r is not None else np.inf
            continue
        X[i] = op.x
        converged[i] = True
        iterations[i] = op.iterations
        fnorm[i] = op.residual_norm
    return BatchDcResult(x=X, converged=converged, iterations=iterations,
                         residual_norm=fnorm)

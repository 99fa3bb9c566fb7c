"""Batched DC operating-point solves over stacked same-structure systems.

The sequential simulator costs are dominated by Python/numpy dispatch, not
arithmetic: a 10–20 unknown Newton iteration spends microseconds in LAPACK
and tens of microseconds in interpreter overhead.  Evaluating B designs of
one topology at once amortises that overhead — device models evaluate on
``(B, K)`` arrays, companion stamps scatter through one matmul, and the
linear solves run as one batched ``numpy.linalg.solve`` over ``(B, n, n)``.

:class:`SystemStack` holds the stacked value arrays of same-structure
:class:`~repro.sim.system.MnaSystem` slices; :func:`solve_dc_batch`
mirrors :func:`~repro.sim.dc.solve_dc`'s strategy — damped Newton, then
gmin stepping, then source stepping — with per-design convergence
masking, so converged designs drop out of the batched linear algebra
while stragglers keep iterating.

Stacked-evaluation contract
---------------------------
A stack is a flat sequence of *slices*, each one a same-structure system
snapshot.  What a slice means is the caller's business:

* **designs** — ``Topology.simulate_batch`` stacks B sizings of one
  topology (one slice per design);
* **designs × corners** — :class:`~repro.pex.extraction.PexSimulator`
  stacks every PVT corner of every design, *corner-major* (slice
  ``k * B + i`` is design ``i`` at corner ``k``), records the corner
  count in :attr:`SystemStack.n_corners`, and reduces the measured spec
  arrays worst-case over the corner axis;
* **mismatch samples** — Monte Carlo stacks perturbed instances of one
  sizing (one slice per draw).

All three ride the same ``(B·K, n, n)`` damped-Newton solve and the same
stacked measurement layer.  Per-slice metadata captured with the values
— simulation temperature, the sizing ``values`` dict, resistor
thermal-noise constants — lets batched
measurements (AC, step response, noise) run without ever re-binding the
template system to an individual slice.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.circuits.mosfet import (
    _BANK_FIELDS,
    DeviceArrays,
    eval_companion_batch,
    eval_ids_batch,
)
from repro.sim.dc import _POLISH_ITERS, _POLISH_STAG
from repro.sim.system import MnaSystem
from repro.units import BOLTZMANN

#: gmin-stepping and source-stepping schedules (mirrors repro.sim.dc).
_GMIN_STEPS = (1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 0.0)
_SOURCE_STEPS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


class SystemStack:
    """Same-structure MNA system slices stacked into batch arrays.

    Filled either in one pass from per-slice element reads
    (:meth:`repro.sim.stamp.StampPlan.stack`, see
    :mod:`repro.sim.assembly`) or slice by slice from a bound system
    (:meth:`set_design`); the (shared) structure — terminal maps, scatter
    matrices, sizes — is referenced from the template.

    ``n_designs`` counts *slices*.  A multi-corner stack flattens the
    (design, corner) grid corner-major into ``n_designs = B * K`` slices
    and records ``n_corners = K`` so the caller can reduce spec arrays
    over the corner axis (see the module docstring for the contract).

    Besides the ``G/C/b`` value arrays and the ``(B, K)`` device bank,
    each slice carries measurement metadata: the slice's simulation
    temperature, an optional sizing ``values`` dict, and the
    thermal-noise PSD constant ``4 k T / R`` of every resistor —
    everything the batched measurement layer needs that is not derivable
    from the matrices alone.
    """

    def __init__(self, template: MnaSystem, n_designs: int,
                 n_corners: int = 1):
        if n_designs < 1:
            raise ValueError("SystemStack needs at least one design")
        if n_corners < 1 or n_designs % n_corners:
            raise ValueError(
                f"corner axis {n_corners} does not divide {n_designs} slices")
        n = template.size
        self.template = template
        self.size = n
        self.n_nodes = template.n_nodes
        self.n_designs = n_designs
        self.n_corners = n_corners
        #: Sparse-engine stacks hold master-pattern ``.data`` rows
        #: (``(B, nnz)``) instead of dense ``(B, n, n)`` matrices; dense
        #: consumers go through :meth:`G_rows`/:meth:`C_rows`, which
        #: reconstruct on demand (cheap at the sizes where they run).
        self.sparse = bool(getattr(template, "sparse", False))
        if self.sparse:
            nnz = template.sparse_state.nnz
            self.G = self.C = None
            self.G_pat = np.empty((n_designs, nnz))
            self.C_pat = np.empty((n_designs, nnz))
            self._Gv, self._Cv = self.G_pat, self.C_pat
        else:
            self.G = np.empty((n_designs, n, n))
            self.C = np.empty((n_designs, n, n))
            self._Gv = self.G.reshape(n_designs, n * n)
            self._Cv = self.C.reshape(n_designs, n * n)
        self.b_dc = np.empty((n_designs, n))
        self.b_ac = np.empty((n_designs, n), dtype=complex)
        self.temperatures = np.empty(n_designs)
        self.values: list[dict | None] = [None] * n_designs
        K = len(template.mosfets)
        self.dev: DeviceArrays | None = (
            DeviceArrays(*(np.empty((n_designs, K)) for _ in _BANK_FIELDS))
            if K else None)
        # Structure-fixed resistor noise topology: (R, 2) node-index pairs
        # (-1 marks ground, as in node_index) plus per-slice PSD constants.
        names = []
        idx = []
        for element in template._resistors:
            names.append(element.name)
            idx.append((template.node_index[element.p],
                        template.node_index[element.n]))
        self.noise_res_names: tuple[str, ...] = tuple(names)
        self.noise_res_idx = np.asarray(idx, dtype=np.intp).reshape(-1, 2)
        self.noise_res_psd = np.empty((n_designs, len(names)))
        #: Per-slice resistance of every resistor (same column order as
        #: ``noise_res_names``); the measurement pipeline reads element
        #: values (e.g. the TIA's feedback resistor for noise referral)
        #: from here instead of re-binding netlists or requiring the
        #: per-slice ``values`` dicts.
        self.noise_res_r = np.empty((n_designs, len(names)))

    def check_compatible(self, system: MnaSystem) -> None:
        """Raise ValueError unless ``system``'s value layout is this
        stack's (same size, device count and, when sparse, pattern)."""
        if system.size != self.size:
            raise ValueError("system size does not match the stack")
        if len(system.mosfets) != (0 if self.dev is None else len(self.dev)):
            raise ValueError("system device count does not match the stack")
        if self.sparse and not self.template.sparse_state.same_pattern(
                system.sparse_state):
            raise ValueError("system sparsity pattern does not match the "
                             "stack")

    def value_rows(self, rows: slice) -> tuple[np.ndarray, ...]:
        """``G/C/b_dc/b_ac`` of slices ``rows`` as ``(S, width)`` blocks
        in the template's value layout (views)."""
        return (self._Gv[rows], self._Cv[rows], self.b_dc[rows],
                self.b_ac[rows])

    def write_noise(self, rows: slice, resistance: np.ndarray,
                    temperature: np.ndarray) -> None:
        """Per-slice resistances and their ``4 k T / R`` noise PSDs."""
        self.noise_res_r[rows] = resistance
        self.noise_res_psd[rows] = (
            4.0 * BOLTZMANN * temperature)[:, None] / resistance

    def write_devices(self, rows, bank: DeviceArrays) -> None:
        """Copy ``bank`` (fields shaped like ``dev[rows]``) into slices
        ``rows`` of the device bank."""
        for f in _BANK_FIELDS:
            getattr(self.dev, f)[rows] = getattr(bank, f)

    def set_design(self, i: int, system: MnaSystem,
                   values: dict[str, float] | None = None) -> None:
        """Snapshot ``system``'s current values as slice ``i``."""
        self.check_compatible(system)
        for out, row in zip(self.value_rows(slice(i, i + 1)),
                            system._value_rows()):
            out[...] = row
        self.temperatures[i] = system.temperature
        self.values[i] = values
        self.write_noise(slice(i, i + 1), np.array(
            [[r.resistance for r in system._resistors]], dtype=float),
            np.array([system.temperature]))
        if self.dev is not None:
            self.write_devices(i, system.device_arrays)

    def resistances(self, name: str, rows: np.ndarray) -> np.ndarray:
        """Per-slice resistance of resistor ``name`` for slices ``rows``.

        The batched measurement layer's element-value accessor: spec
        extraction that needs a component value (e.g. noise referral
        through a feedback resistor) reads the value captured with the
        slice instead of requiring per-slice sizing dicts — so every
        slice of every stack is measurable stacked.
        """
        try:
            col = self.noise_res_names.index(name)
        except ValueError:
            raise KeyError(f"stack has no resistor {name!r}") from None
        return self.noise_res_r[rows, col]

    def G_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), n, n)`` conductance matrices of ``rows``
        (a view for dense stacks, a reconstruction for sparse ones)."""
        if not self.sparse:
            return self.G[rows]
        return self.template.sparse_state.densify(self.G_pat[rows])

    def C_rows(self, rows: np.ndarray) -> np.ndarray:
        """Dense ``(len(rows), n, n)`` capacitance matrices of ``rows``."""
        if not self.sparse:
            return self.C[rows]
        return self.template.sparse_state.densify(self.C_pat[rows])


@dataclasses.dataclass
class BatchDcResult:
    """Per-design outcome of a batched DC solve."""

    x: np.ndarray               # (B, n) solution vectors
    converged: np.ndarray       # (B,) bool
    iterations: np.ndarray      # (B,) int — Newton iterations consumed
    residual_norm: np.ndarray   # (B,) float — final |F| (inf-norm)


def _residual_batch(stack: SystemStack, X: np.ndarray, idx: np.ndarray,
                    source_scale: float, gmin: float) -> np.ndarray:
    """Stacked KCL residuals of designs ``idx`` at solutions ``X[idx]``."""
    tpl = stack.template
    Xa = X[idx]
    F = (stack.G[idx] @ Xa[..., None])[..., 0] - source_scale * stack.b_dc[idx]
    if stack.dev is not None:
        Xp = np.concatenate([Xa, np.zeros((len(idx), 1))], axis=1)
        V = Xp[:, tpl._terms_pad]
        ids = eval_ids_batch(stack.dev.take(idx), V)
        F += ids @ tpl._res_map
    if gmin > 0.0:
        F[:, :stack.n_nodes] += gmin * Xa[:, :stack.n_nodes]
    return F


def _solve_active(A: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched solve with per-design singularity isolation.

    Returns ``(X_new, singular_mask)``; singular designs get their input
    row back unchanged and are flagged.
    """
    try:
        return np.linalg.solve(A, rhs[..., None])[..., 0], np.zeros(
            len(A), dtype=bool)
    except np.linalg.LinAlgError:
        out = np.empty_like(rhs)
        bad = np.zeros(len(A), dtype=bool)
        for i in range(len(A)):
            try:
                out[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                out[i] = 0.0
                bad[i] = True
        return out, bad


def _newton_batch(stack: SystemStack, X: np.ndarray, idx: np.ndarray,
                  gmin: float, source_scale: float, max_iter: int,
                  vtol: float, itol: float, damping: float
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton on designs ``idx``; updates ``X`` rows in place.

    Returns ``(converged, iterations, fnorm)`` aligned with ``idx`` —
    the batched counterpart of ``repro.sim.dc._newton``, with converged
    designs dropping out of the stacked linear solve.

    Like the scalar driver, designs that pass the residual gate stay in
    the batch for up to ``_POLISH_ITERS`` extra polish rounds (skipped
    once their step is below ``_POLISH_STAG``), which pins each endpoint
    to the root at machine precision: warm-started and cold solves of
    the same design agree to <= 1e-9 in the measured specs — the
    :mod:`repro.sim.store` cold-equivalence contract.  A polish round
    can only tighten an already-converged design, never un-converge it.
    """
    tpl = stack.template
    n, n1 = stack.size, stack.size + 1
    B = len(idx)
    converged = np.zeros(B, dtype=bool)
    dead = np.zeros(B, dtype=bool)        # singular-matrix designs
    iterations = np.zeros(B, dtype=np.int64)
    fnorm = np.full(B, np.inf)
    polish = np.full(B, -1, dtype=np.int64)  # -1: converging; >=0: rounds left
    active = np.arange(B)                 # positions into idx
    diag = np.arange(stack.n_nodes)
    # Per-round work buffers, sliced to the active count (the active set
    # only shrinks); the device bank is re-subset only when it changes.
    A_buf = np.empty((B, n1, n1))
    rhs_buf = np.empty((B, n1))
    Xp_buf = np.zeros((B, n1))
    scatter_buf = np.empty((B, n1 * n1))
    dev_act = stack.dev.take(idx) if stack.dev is not None else None
    G_act = stack.G[idx]
    b_act = stack.b_dc[idx]
    for it in range(1, max_iter + 1):
        a = len(active)
        if a == 0:
            break
        rows = idx[active]
        Xa = X[rows]
        A = A_buf[:a]
        # The core is overwritten below; only the padding strips (which
        # accumulate ground-terminal scatter adds) need re-zeroing.
        A[:, n, :] = 0.0
        A[:, :, n] = 0.0
        A[:, :n, :n] = G_act
        rhs = rhs_buf[:a]
        rhs[:, n] = 0.0
        rhs[:, :n] = source_scale * b_act
        if dev_act is not None:
            Xp = Xp_buf[:a]
            Xp[:, :n] = Xa
            V = Xp[:, tpl._terms_pad]                       # (a, K, 4)
            i_d, g = eval_companion_batch(dev_act, V)
            prod = np.matmul(g.reshape(a, -1), tpl.newton_g_map,
                             out=scatter_buf[:a])
            flat = A.reshape(a, -1)
            np.add(flat, prod, out=flat)
            i_eq = i_d - (g * V).sum(-1)
            rhs += i_eq @ tpl._newton_i_map
        if gmin > 0.0:
            A[:, diag, diag] += gmin
        x_new, singular = _solve_active(A[:, :n, :n], rhs[:, :n])
        iterations[active] = it
        shrunk = False
        if singular.any():
            # A design whose Jacobian degenerates *during polish* is
            # already converged — drop it from the batch, keep the
            # pre-polish iterate; only pre-convergence singularity kills.
            sing_rows = active[singular]
            dead[sing_rows[polish[sing_rows] < 0]] = True
            ok_rows = ~singular
            active = active[ok_rows]
            x_new, Xa = x_new[ok_rows], Xa[ok_rows]
            rows = idx[active]
            shrunk = True
            if len(active) == 0:
                break
        dx = x_new - Xa
        step = np.abs(dx).max(axis=1)
        over = step > damping
        if over.any():
            dx[over] *= (damping / step[over])[:, None]
        X[rows] = Xa + dx
        drop = np.zeros(len(active), dtype=bool)
        polishing = polish[active] >= 0
        if polishing.any():
            pol_rows = active[polishing]
            polish[pol_rows] -= 1
            finished = (polish[pol_rows] < 0) | (step[polishing] < _POLISH_STAG)
            drop[np.nonzero(polishing)[0][finished]] = True
        check = (step < vtol) & ~polishing
        if check.any():
            sub_local = np.nonzero(check)[0]
            sub = active[sub_local]
            F = _residual_batch(stack, X, idx[sub], source_scale, gmin)
            fn = np.abs(F).max(axis=1)
            good = fn < itol
            fnorm[sub] = fn
            if good.any():
                converged[sub[good]] = True
                stag = (step[sub_local[good]] < _POLISH_STAG) \
                    if _POLISH_ITERS > 0 else np.ones(int(good.sum()), dtype=bool)
                polish[sub[good][~stag]] = _POLISH_ITERS
                drop[sub_local[good][stag]] = True
        if drop.any():
            active = active[~drop]
            shrunk = True
        if shrunk:
            # Active set shrank: re-subset the per-round operands.
            G_act = stack.G[idx[active]]
            b_act = stack.b_dc[idx[active]]
            if stack.dev is not None:
                dev_act = stack.dev.take(idx[active])
    # Final residuals for non-converged, non-dead designs.
    left = ~converged & ~dead
    if left.any():
        F = _residual_batch(stack, X, idx[left], source_scale, gmin)
        fnorm[left] = np.abs(F).max(axis=1)
    return converged, iterations, fnorm


def solve_dc_batch(stack: SystemStack, x0: np.ndarray | None = None, *,
                   max_iter: int = 120, vtol: float = 1e-3,
                   itol: float = 1e-9, damping: float = 0.4) -> BatchDcResult:
    """Find the DC operating points of every design in ``stack``.

    Mirrors :func:`repro.sim.dc.solve_dc`: plain damped Newton first, then
    gmin stepping for the failures, then source stepping for whatever is
    left — each stage running batched with per-design masking.  Designs
    that fail every strategy are reported with ``converged=False``
    (callers map them to pessimistic failure measurements, exactly like
    the scalar path maps :class:`~repro.errors.ConvergenceError`).

    Sparse-engine stacks dispatch to
    :func:`repro.sim.sparse.solve_dc_batch_sparse` — same strategies,
    same seeds, same result contract, but each design factorises through
    SuperLU instead of joining a dense ``(B, n, n)`` LAPACK batch.
    """
    if stack.sparse:
        from repro.sim.sparse import solve_dc_batch_sparse
        return solve_dc_batch_sparse(stack, x0, max_iter=max_iter, vtol=vtol,
                                     itol=itol, damping=damping)
    B, n = stack.n_designs, stack.size
    if x0 is None:
        X = np.zeros((B, n))
    else:
        X = np.array(x0, dtype=float)
        if X.shape != (B, n):
            raise ValueError(f"x0 has shape {X.shape}, expected {(B, n)}")
    x_start = X.copy()
    total_iters = np.zeros(B, dtype=np.int64)
    all_idx = np.arange(B)

    converged, iters, fnorm = _newton_batch(
        stack, X, all_idx, 0.0, 1.0, max_iter, vtol, itol, damping)
    total_iters += iters

    # gmin stepping for the failures (warm-chained through the schedule;
    # a design leaves the chain at its first non-converged stage).
    chain = all_idx[~converged]
    if len(chain):
        X[chain] = x_start[chain]
        survivors = chain
        for gmin in _GMIN_STEPS:
            if len(survivors) == 0:
                break
            ok, iters, fn = _newton_batch(
                stack, X, survivors, gmin, 1.0, max_iter, vtol, itol, damping)
            total_iters[survivors] += iters
            fnorm[survivors] = fn
            survivors = survivors[ok]
        converged[survivors] = True

    # Source stepping from zero for whatever is left.
    remaining = all_idx[~converged]
    if len(remaining):
        X[remaining] = 0.0
        survivors = remaining
        for scale in _SOURCE_STEPS:
            if len(survivors) == 0:
                break
            ok, iters, fn = _newton_batch(
                stack, X, survivors, 0.0, scale, max_iter, vtol, itol, damping)
            total_iters[survivors] += iters
            fnorm[survivors] = fn
            survivors = survivors[ok]
        converged[survivors] = True

    return BatchDcResult(x=X, converged=converged, iterations=total_iters,
                         residual_norm=fnorm)

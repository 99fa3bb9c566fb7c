"""One-scatter assembly: the array-built stack is the per-slice restamp.

:meth:`StampPlan.stack` fills a whole batch from per-slice element reads
(:mod:`repro.sim.assembly`).  These tests hold it, bit for bit, to the
per-slice reference — restamp one system per slice and snapshot it with
:meth:`SystemStack.set_design` — on every array a stack carries, on the
dense, sparse and iterative legs.  The restamped system itself is held to
the element-by-element stamping (each ``Element.stamp`` written into
dense arrays in const-then-var order, the frozen-base order) and the
device bank to the per-device constant formulas.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.circuits import (Capacitor, CurrentSource, Inductor, Netlist,
                            Resistor, Vccs, Vcvs, VoltageSource, ptm45)
from repro.circuits.elements import Element
from repro.circuits.mosfet import _BANK_FIELDS, _CLM_SMOOTH_V, Mosfet
from repro.pex.corners import signoff_corners
from repro.pex.extraction import ExtractionRules, PexSimulator
from repro.pex.montecarlo import MismatchModel, apply_mismatch
from repro.sim.batch import SystemStack
from repro.sim.stamp import StampPlan
from repro.topologies import (FiveTransistorOta, FoldedCascodeOta, NegGmOta,
                              OtaChain, PowerGridOta, TransimpedanceAmplifier,
                              TwoStageOpAmp)
from repro.units import BOLTZMANN
from repro.zoo import registry

ENGINES = ("dense", "sparse", "iterative")

#: name -> zero-argument factory: every registered scenario plus every
#: topology module (the default-constructed classes).
FACTORIES = {f"zoo:{name}": scenario.create
             for name, scenario in registry().items()}
FACTORIES.update({f"module:{cls.__name__}": cls for cls in (
    TransimpedanceAmplifier, TwoStageOpAmp, NegGmOta, FiveTransistorOta,
    FoldedCascodeOta, OtaChain, PowerGridOta)})


class _DenseStamper:
    """Element-by-element stamping into dense arrays (the reference)."""

    def __init__(self, system):
        n = system.size
        self._system = system
        self.G = np.zeros((n, n))
        self.C = np.zeros((n, n))
        self.b_dc = np.zeros(n)
        self.b_ac = np.zeros(n, dtype=complex)

    def node(self, name):
        return self._system.node_index[name]

    def branch(self, element):
        return self._system.branch_index[element.name]

    def add_g(self, i, j, value):
        if i >= 0 and j >= 0:
            self.G[i, j] += value

    def add_c(self, i, j, value):
        if i >= 0 and j >= 0:
            self.C[i, j] += value

    def add_b_dc(self, i, value):
        if i >= 0:
            self.b_dc[i] += value

    def add_b_ac(self, i, value):
        if i >= 0:
            self.b_ac[i] += value


def _reference_stamp(system) -> _DenseStamper:
    ref = _DenseStamper(system)
    for element in system._part.const_elems + system._part.var_elems:
        element.stamp(ref)
    return ref


def _reference_bank(mosfets) -> dict[str, np.ndarray]:
    rows = [(m.params.kp * m.w * m.m / m.l, m.params.lambda_l / m.l,
             m.params.vth0, m.params.body_k, m.params.subthreshold_v,
             m._sign, m.params.cox * m.w * m.l * m.m,
             m.params.c_overlap * m.w * m.m,
             m.params.c_junction * m.w * m.m, m.params.gamma_noise,
             m.params.kf) for m in mosfets]
    cols = np.array(rows, dtype=float).reshape(len(rows), 11).T
    fields = list(cols) + [1.0 / cols[4], cols[1] * _CLM_SMOOTH_V]
    return dict(zip(_BANK_FIELDS, fields))


def _same(a, b, what):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def _check_system(system):
    """A restamped system equals the element-by-element stamping."""
    ref = _reference_stamp(system)
    _same(system.G, ref.G, "G")
    _same(system.C, ref.C, "C")
    _same(system.b_dc, ref.b_dc, "b_dc")
    _same(system.b_ac, ref.b_ac, "b_ac")
    if system.mosfets:
        for name, col in _reference_bank(system.mosfets).items():
            _same(getattr(system.device_arrays, name), col, name)


def _assert_stacks_equal(got: SystemStack, want: SystemStack):
    names = (("G_pat", "C_pat") if want.sparse else ("G", "C")) + (
        "b_dc", "b_ac", "temperatures", "noise_res_r", "noise_res_psd")
    for name in names:
        _same(getattr(got, name), getattr(want, name), name)
    assert got.values == want.values
    assert (got.dev is None) == (want.dev is None)
    if want.dev is not None:
        for name in _BANK_FIELDS:
            _same(getattr(got.dev, name), getattr(want.dev, name), name)


def _reference_fill(plan: StampPlan, values_list, into=None, offset=0,
                    n_slices=None, n_corners=1) -> SystemStack:
    """The per-slice restamp + snapshot loop a one-pass fill replaces."""
    for i, values in enumerate(values_list):
        system = plan.restamp(values)
        _check_system(system)
        if into is None:
            into = SystemStack(system, n_slices or len(values_list),
                               n_corners=n_corners)
        into.set_design(offset + i, system, values=values)
    return into


def _sizings(space, n, seed):
    rng = np.random.default_rng(seed)
    rows = [np.asarray(space.center)]
    rows += [space.sample(rng) for _ in range(n - 1)]
    return [space.values(r) for r in rows]


def _plan_pair(topology, engine):
    def plan():
        return StampPlan(topology.build, temperature=topology.temperature,
                         updater=topology.update_netlist, engine=engine)
    return plan(), plan()


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_stack_matches_per_slice_restamp(name, engine):
    topology = FACTORIES[name]()
    values = _sizings(topology.parameter_space, 4, seed=11)
    batched, reference = _plan_pair(topology, engine)
    # Two batches: the first binds (and demotes whatever the sizings
    # vary), the second runs on the settled partition.
    for chunk in (values[:2], values):
        got = batched.stack(chunk)
        want = _reference_fill(reference, chunk)
        assert got.sparse == (engine != "dense")
        _assert_stacks_equal(got, want)
    _check_system(batched.system)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mesh", [0, 3], ids=["lumped", "mesh"])
def test_pex_corner_stack_matches_per_slice_restamp(mesh, engine,
                                                    monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    rules = ExtractionRules(mesh_segments=mesh)
    corners = signoff_corners()[:3]
    sims = [PexSimulator(TwoStageOpAmp, corners=corners, rules=rules,
                         cache=False) for _ in range(2)]
    values = _sizings(sims[0].parameter_space, 3, seed=5)
    B, K = len(values), len(corners)
    got = want = None
    for k in range(K):
        got = sims[0]._plans[k].stack(values, into=got, offset=k * B,
                                      n_slices=B * K, n_corners=K)
        want = _reference_fill(sims[1]._plans[k], values, into=want,
                               offset=k * B, n_slices=B * K, n_corners=K)
    assert got.n_corners == K
    _assert_stacks_equal(got, want)


@pytest.mark.parametrize("engine", ENGINES)
def test_monte_carlo_chunk_matches_per_trial_restamp(engine):
    topology = FiveTransistorOta()
    values = topology.parameter_space.values(topology.parameter_space.center)
    rng = np.random.default_rng(2)
    netlists = []
    for _ in range(5):
        netlist = topology.build(values)
        apply_mismatch(netlist, MismatchModel(), rng)
        netlists.append(netlist)
    batched, reference = _plan_pair(topology, engine)
    got = batched.stack_netlists(netlists, values)
    want = None
    for i, netlist in enumerate(netlists):
        system = reference.restamp_netlist(netlist)
        _check_system(system)
        if want is None:
            want = SystemStack(system, len(netlists))
        want.set_design(i, system, values=values)
    _assert_stacks_equal(got, want)
    # Mismatch perturbs the cards: every trial has its own device row.
    assert len(np.unique(got.dev.vth0[:, 0])) == len(netlists)


def _rc_amp(values) -> Netlist:
    tech = ptm45()
    net = Netlist("rc_amp")
    net.add(VoltageSource("VDD", "vdd", "0", dc=tech.vdd))
    net.add(VoltageSource("VIN", "g", "0", dc=values["vin"], ac=1.0))
    net.add(Resistor("R1", "vdd", "d", values["r1"]))
    net.add(Resistor("R2", "d", "out", values["r2"]))
    net.add(Resistor("R3", "d", "0", 7.3e4))
    net.add(Capacitor("C1", "out", "0", values["c1"]))
    net.add(Capacitor("C2", "d", "out", 3.1e-13))
    net.add(Mosfet("M1", "d", "g", "0", "0", polarity="nmos",
                   params=tech.nmos, w=values["w"], l=0.5e-6, m=2))
    return net


def _rc_update(net, values) -> bool:
    if values.get("rebuild"):
        return False
    net["VIN"].dc = values["vin"]
    net["R1"].resistance = values["r1"]
    net["R2"].resistance = values["r2"]
    net["C1"].capacitance = values["c1"]
    net["M1"].w = values["w"]
    return True


@pytest.mark.parametrize("engine", ENGINES)
def test_mid_batch_demotion_and_rebuild(engine):
    """A constant element demoted mid-batch, and an updater refusal
    (rebuild with a fresh partition) mid-batch, both fill bit-exactly."""
    base = dict(vin=0.61, r1=1.0 / 3.0 * 1e4, r2=2.0 / 7.0 * 1e4,
                c1=1.1e-12, w=5e-6)
    values = [dict(base, w=w) for w in (5e-6, 6e-6)]
    values.append(dict(base, w=7e-6, r2=3.0 / 11.0 * 1e4))     # R2 demoted
    values.append(dict(base, w=8e-6, r2=5.0 / 13.0 * 1e4, r1=1e4 / 9.0))
    values.append(dict(values[-1], rebuild=True, c1=2.3e-12))   # rebuild
    values.append(dict(base, vin=0.67, r2=1e4 / 17.0))          # demote again
    batched = StampPlan(_rc_amp, updater=_rc_update, engine=engine)
    reference = StampPlan(_rc_amp, updater=_rc_update, engine=engine)
    batched.restamp(base)
    reference.restamp(base)
    parts = []
    got = batched.stack(values)
    want = None
    for i, v in enumerate(values):
        system = reference.restamp(v)
        parts.append(system._part)
        _check_system(system)
        if want is None:
            want = SystemStack(system, len(values))
        want.set_design(i, system, values=v)
    _assert_stacks_equal(got, want)
    # The batch really crossed partitions: demotions (appended in the
    # order they happen, which sets the summation order) and a rebuild.
    assert len({id(p) for p in parts}) >= 4
    assert [e.name for e in parts[3].var_elems] == ["R2", "R1"]
    assert [e.name for e in parts[4].var_elems] == []
    assert [e.name for e in parts[5].var_elems] == ["VIN", "R1", "R2", "C1"]
    assert batched.rebuilds == 1 and reference.rebuilds == 1


_ELEMENTS = [
    lambda v: Resistor("R", "a", "b", v),
    lambda v: Resistor("R", "a", "0", v),
    lambda v: Capacitor("C", "0", "b", v),
    lambda v: Inductor("L", "a", "b", v),
    lambda v: VoltageSource("V", "a", "0", dc=v, ac=0.0),
    lambda v: VoltageSource("V", "a", "b", dc=-v, ac=v / 3),
    lambda v: CurrentSource("I", "a", "b", dc=v, ac=0.0),
    lambda v: Vccs("G", "a", "0", "b", "0", v),
    lambda v: Vcvs("E", "a", "b", "b", "0", v),
]


class _CallRecorder:
    def __init__(self):
        self.values = []

    def node(self, name):
        return -1 if name == "0" else 1

    def branch(self, element):
        return 2

    def add_g(self, i, j, value):
        self.values.append(value)

    add_c = add_g

    def add_b_dc(self, i, value):
        self.values.append(value)

    add_b_ac = add_b_dc


@pytest.mark.parametrize("make", _ELEMENTS)
@pytest.mark.parametrize("value", [1.0 / 3.0, 2.7e-12, 4.1e5])
def test_stamp_values_are_the_stamped_values(make, value):
    """Built-in ``stamp_values`` overrides equal the replayed ``stamp``
    call for call, ground-bound calls included."""
    element = make(value)
    rec = _CallRecorder()
    element.stamp(rec)
    assert element.stamp_values() == tuple(rec.values)
    assert type(element).stamp_values is not Element.stamp_values


class _Gyrator(Element):
    """Custom element without a ``stamp_values`` override."""

    def __init__(self, name, a, b, g):
        super().__init__(name, (a, b))
        self.g = g

    def stamp(self, stamper):
        i, j = stamper.node(self.nodes[0]), stamper.node(self.nodes[1])
        stamper.add_g(i, j, self.g)
        stamper.add_g(j, i, -self.g)


def test_default_stamp_values_replay_stamp():
    assert _Gyrator("X", "a", "0", 0.25).stamp_values() == (0.25, -0.25)


def test_sparse_assembly_memory_stays_o_nnz():
    """A 1.3k-unknown sparse mesh builds, restamps and fills a 4-slice
    stack without one n x n array (a single one would be 13.8 MB)."""
    topology = PowerGridOta(grid_n=36)
    space = topology.parameter_space
    centre = space.values(space.center)
    other = space.values(np.zeros(len(space.center), dtype=np.int64))
    plan = StampPlan(topology.build, updater=topology.update_netlist,
                     engine="sparse")
    tracemalloc.start()
    try:
        system = plan.restamp(centre)
        plan.restamp(other)
        stack = plan.stack([centre, other, other, centre])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.sparse and system.size == 1313
    assert stack.G_pat.shape == (4, system.sparse_state.nnz)
    assert peak < 10e6, f"peak traced memory {peak / 1e6:.1f} MB"


def test_sparse_matrices_are_read_only_views_of_the_pattern():
    topology = OtaChain()
    values = topology.parameter_space.values(topology.parameter_space.center)
    system = StampPlan(topology.build, engine="sparse").restamp(values)
    G = system.G
    assert not G.flags.writeable
    st = system.sparse_state
    _same(G[st.pat_rows, st.pat_cols], system._sparse_G_data(), "G data")
    x = np.linspace(0.0, 1.0, system.size)
    np.testing.assert_allclose(system.residual(x), G @ x - system.b_dc
                               + system.nonlinear_current(x),
                               rtol=1e-12, atol=1e-15)


def test_noise_constants_follow_each_slice_temperature():
    topology = TransimpedanceAmplifier()
    values = _sizings(topology.parameter_space, 3, seed=1)
    stack = StampPlan(topology.build, temperature=350.0,
                      updater=topology.update_netlist).stack(values)
    for i in range(len(values)):
        for r in range(len(stack.noise_res_names)):
            resistance = stack.noise_res_r[i, r]
            assert stack.noise_res_psd[i, r] == (
                4.0 * BOLTZMANN * 350.0 / resistance)

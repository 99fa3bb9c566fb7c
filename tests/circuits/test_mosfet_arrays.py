"""Vectorised device evaluation vs the scalar reference model."""

import numpy as np
import pytest

from repro.circuits.mosfet import (
    ChannelWorkspace,
    DeviceArrays,
    Mosfet,
    channel_ids_batch,
    eval_companion_batch,
    eval_companion_ws,
    eval_ids_batch,
    eval_ids_ws,
    state_arrays_batch,
    terminal_voltages_batch,
)
from repro.circuits.technology import finfet16, ptm45


@pytest.fixture(scope="module")
def devices():
    rng = np.random.default_rng(4)
    mosfets = []
    for i in range(10):
        tech = ptm45() if i % 2 else finfet16()
        pol = "nmos" if i % 3 else "pmos"
        params = tech.nmos if pol == "nmos" else tech.pmos
        mosfets.append(Mosfet(f"M{i}", "d", "g", "s", "b", polarity=pol,
                              params=params, w=rng.uniform(1e-6, 5e-5),
                              l=rng.uniform(5e-8, 1e-6),
                              m=float(rng.integers(1, 5))))
    return mosfets, DeviceArrays.from_mosfets(mosfets)


def _stacked(mosfets, B):
    """``(B, K)`` bank of B copies of ``mosfets``."""
    return DeviceArrays.from_devices(
        [m.params for m in mosfets] * B,
        [(m.w, m.l, m.m, m._sign) for m in mosfets] * B, (B, len(mosfets)))


def _scalar_companion(mosfet, v_row):
    get = dict(zip("dgsb", v_row)).__getitem__
    return mosfet.eval_companion(get)


class TestCompanionEquivalence:
    def test_matches_scalar_over_random_voltages(self, devices):
        mosfets, dev = devices
        rng = np.random.default_rng(0)
        for _ in range(30):
            V = rng.uniform(-2.0, 2.0, size=(len(mosfets), 4))
            i_d, g = eval_companion_batch(dev, V)
            ids_only = eval_ids_batch(dev, V)
            for k, mosfet in enumerate(mosfets):
                ref = _scalar_companion(mosfet, V[k])
                assert i_d[k] == pytest.approx(ref[0], rel=1e-12, abs=1e-300)
                assert ids_only[k] == pytest.approx(ref[0], rel=1e-12,
                                                    abs=1e-300)
                for t in range(4):
                    assert g[k, t] == pytest.approx(ref[1 + t], rel=1e-11,
                                                    abs=1e-300)

    def test_workspace_paths_match_batch_paths(self, devices):
        mosfets, dev = devices
        ws = ChannelWorkspace(len(mosfets))
        rng = np.random.default_rng(1)
        for _ in range(30):
            V = rng.uniform(-2.0, 2.0, size=(len(mosfets), 4))
            i_ref, g_ref = eval_companion_batch(dev, V)
            i_ws, g_ws = eval_companion_ws(dev, V, ws)
            np.testing.assert_allclose(i_ws, i_ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(g_ws, g_ref, rtol=1e-13, atol=0)
            np.testing.assert_allclose(eval_ids_ws(dev, V, ws),
                                       eval_ids_batch(dev, V),
                                       rtol=1e-13, atol=0)

    def test_stacked_design_axis(self, devices):
        """(B, K) evaluation must equal per-design (K,) evaluation."""
        mosfets, dev = devices
        rng = np.random.default_rng(2)
        B = 6
        stacked = _stacked(mosfets, B)
        V = rng.uniform(-1.5, 1.5, size=(B, len(mosfets), 4))
        i_d, g = eval_companion_batch(stacked, V)
        for b in range(B):
            i_ref, g_ref = eval_companion_batch(dev, V[b])
            np.testing.assert_array_equal(i_d[b], i_ref)
            np.testing.assert_array_equal(g[b], g_ref)

    def test_take_subsets_rows(self, devices):
        mosfets, _ = devices
        stacked = _stacked(mosfets, 5)
        sub = stacked.take(np.array([0, 3]))
        np.testing.assert_array_equal(sub.beta, stacked.beta[[0, 3]])


class TestStateArrays:
    def test_matches_scalar_state(self, devices):
        mosfets, dev = devices
        rng = np.random.default_rng(3)
        V = rng.uniform(-1.5, 1.5, size=(len(mosfets), 4))
        arrays = state_arrays_batch(dev, *terminal_voltages_batch(dev, V))
        for k, mosfet in enumerate(mosfets):
            state = mosfet.state_at(dict(zip("dgsb", V[k])).__getitem__)
            for field in ("ids", "gm", "gds", "gmb", "vgs", "vds", "vsb",
                          "vov_eff", "saturation", "cgs", "cgd", "cdb",
                          "csb"):
                assert arrays[field][k] == pytest.approx(
                    getattr(state, field), rel=1e-11, abs=1e-300), field

    def test_current_only_skips_nothing_physical(self, devices):
        """channel_ids_batch equals the ids of the full evaluation."""
        mosfets, dev = devices
        rng = np.random.default_rng(6)
        V = rng.uniform(-2.0, 2.0, size=(len(mosfets), 4))
        vgs, vds, vsb = terminal_voltages_batch(dev, V)
        from repro.circuits.mosfet import channel_current_batch
        full = channel_current_batch(dev, vgs, vds, vsb)
        np.testing.assert_allclose(channel_ids_batch(dev, vgs, vds, vsb),
                                   full.ids, rtol=1e-13, atol=0)

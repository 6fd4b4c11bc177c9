import dataclasses
import gc
import math

import numpy as np
import pytest

import kitwpa.fwm
from kitwpa.circuit import (
    FishboneSpec,
    LeafSpec,
    NonlinearInductorSpec,
    ResonatorSpec,
    UnitCellSpec,
    expand_fishbone,
    expand_leaf,
    uniform_line,
)
from kitwpa.dispersion import (
    DispersionCurve,
    FrequencyGrid,
    device_dispersion,
    find_stopbands,
    uniform_cell_dispersion,
)
from kitwpa.errors import NumericError
from kitwpa.fwm import (
    IntegrationOptions,
    ModeState,
    analytic_gain_undepleted,
    integrate_gain,
    kerr_coefficient,
    phase_mismatch,
    propagate_modes,
    third_harmonic_scan,
)

FISH_CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
LEAF_CELL = UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3), 116e-15)


def db(x):
    return 10 * np.log10(x)


class TestKerrCoefficient:
    def test_value_and_invariant(self):
        g = kerr_coefficient(k_cell=0.04, i_star=10e-3, z0=50.0)
        assert g.gamma == pytest.approx(0.04 / (2 * (10e-3) ** 2 * 50.0), rel=1e-12)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            kerr_coefficient(0.0, 10e-3)


class TestAnalyticGain:
    def test_perfectly_matched_is_cosh_squared(self):
        for x in (0.3, 1.0, 2.4):
            g = analytic_gain_undepleted(x, 0.0, 1.0)
            assert g == pytest.approx(np.cosh(x) ** 2, rel=1e-12)

    def test_cosh_of_2p4_is_about_15_db(self):
        # independent evaluation: cosh(2.4)^2 = 30.88 -> 14.90 dB
        g = analytic_gain_undepleted(2.4 / 1000.0, 0.0, 1000.0)
        assert db(g) == pytest.approx(14.897, abs=0.01)

    def test_zero_g_limit(self):
        gpp = 1e-3
        g = analytic_gain_undepleted(gpp, 2 * gpp, 500.0)  # g = 0 exactly
        assert g == pytest.approx(1 + (gpp * 500.0) ** 2, rel=1e-9)

    def test_oscillatory_regime_bounded(self):
        # |dk/2| > gamma*Pp with dk*L >> 1: gain oscillates within 3 dB of unity
        gpp = 1e-3
        for dk in (5e-3, 1e-2, 3e-2):
            for length in (2000, 5000, 12000):
                g = analytic_gain_undepleted(gpp, dk, length)
                assert 0 <= db(g) < 3.0

    def test_small_gain_series_expansion(self):
        # matched, small gamma*Pp*L: G = 1 + (g*Pp*L)^2 to second order
        gpp, length = 1e-6, 100.0
        g = analytic_gain_undepleted(gpp, 2 * gpp, length)
        assert g - 1 == pytest.approx((gpp * length) ** 2, rel=1e-4)


def symmetric_state(p_p, seed_db=-60.0, f_p=6e9):
    """Degenerate triplet (f_s = f_p) so all mode Kerr coefficients agree."""
    seed = math.sqrt(p_p * 10 ** (seed_db / 10))
    return ModeState(a_p=math.sqrt(p_p), a_s=seed, a_i=0.0, a_3=0.0,
                     f_p=f_p, f_s=f_p)


class TestIntegratorOracleParity:
    def test_20x20_grid_within_0p01_db(self):
        # undepleted integrator vs closed form over gamma*Pp*L in [0.1, 3]
        # and dk_total in [-10, 10]*gamma*Pp
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch

        length = 2000.0
        p_p = 100e-6
        worst = 0.0
        for gpl in np.linspace(0.1, 3.0, 20):
            gamma_pp = gpl / length
            gamma = KerrCoefficient(gamma=gamma_pp / p_p, k_cell=0.04,
                                    i_star=10e-3, z0=50.0)
            for ratio in np.linspace(-10, 10, 20):
                dk_total = ratio * gamma_pp
                dk_lin = dk_total - 2 * gamma_pp
                mism = PhaseMismatch(dk_lin, dk_total)
                out = propagate_modes(
                    symmetric_state(p_p), gamma, mism, length,
                    IntegrationOptions(undepleted=True))
                got = db(abs(out.a_s) ** 2 / (p_p * 1e-6))
                want = db(analytic_gain_undepleted(gamma_pp, dk_total, length))
                worst = max(worst, abs(got - want))
        assert worst < 0.01

    def test_depletion_off_vs_on_at_tiny_seed(self):
        # with a -90 dB seed the depleted equations agree with the
        # undepleted limit
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch

        p_p, length = 100e-6, 2000.0
        gamma_pp = 2.0 / length
        gamma = KerrCoefficient(gamma=gamma_pp / p_p, k_cell=0.04,
                                i_star=10e-3, z0=50.0)
        mism = PhaseMismatch(-2 * gamma_pp, 0.0)
        s0 = symmetric_state(p_p, seed_db=-90.0)
        a = propagate_modes(s0, gamma, mism, length,
                            IntegrationOptions(undepleted=True))
        b = propagate_modes(s0, gamma, mism, length,
                            IntegrationOptions(undepleted=False))
        assert db(abs(a.a_s) ** 2) == pytest.approx(db(abs(b.a_s) ** 2), abs=1e-3)

    def test_idler_photon_flux_gain(self):
        # |a_i(L)|^2 / f_i = (G - 1) * |a_s(0)|^2 / f_s
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch

        p_p, length = 100e-6, 2000.0
        gamma_pp = 1.7 / length
        gamma = KerrCoefficient(gamma=gamma_pp / p_p, k_cell=0.04,
                                i_star=10e-3, z0=50.0)
        mism = PhaseMismatch(-2 * gamma_pp, 0.0)
        s0 = symmetric_state(p_p)
        out = propagate_modes(s0, gamma, mism, length,
                              IntegrationOptions(undepleted=True))
        g = analytic_gain_undepleted(gamma_pp, 0.0, length)
        assert abs(out.a_i) ** 2 == pytest.approx((g - 1) * abs(s0.a_s) ** 2,
                                                  rel=1e-4)


class TestConservation:
    def run_depleted(self, f_s_offset=0.7e9, seed_db=-25.0, thg=False):
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch

        f_p = 6e9
        p_p, length = 100e-6, 3000.0
        gamma_pp = 2.2 / length
        gamma = KerrCoefficient(gamma=gamma_pp / p_p, k_cell=0.04,
                                i_star=10e-3, z0=50.0)
        mism = PhaseMismatch(-2 * gamma_pp, 0.0)
        seed = math.sqrt(p_p * 10 ** (seed_db / 10))
        s0 = ModeState(a_p=math.sqrt(p_p), a_s=seed, a_i=0.0, a_3=0.0,
                       f_p=f_p, f_s=f_p + f_s_offset)
        opts = IntegrationOptions(undepleted=False, include_third_harmonic=thg,
                                  rtol=1e-10, atol=1e-16)
        out = propagate_modes(s0, gamma, mism, length, opts, delta_k_3=0.02)
        return s0, out

    def test_manley_rowe_triplet(self):
        s0, out = self.run_depleted()
        f_s, f_i, f_p = s0.f_s, s0.f_i, s0.f_p
        dn_s = (abs(out.a_s) ** 2 - abs(s0.a_s) ** 2) / f_s
        dn_i = (abs(out.a_i) ** 2 - abs(s0.a_i) ** 2) / f_i
        dn_p = (abs(s0.a_p) ** 2 - abs(out.a_p) ** 2) / (2 * f_p)
        scale = max(abs(dn_s), abs(dn_i), abs(dn_p))
        assert scale > 0  # the pump really depleted
        assert abs(dn_s - dn_i) / scale < 1e-6
        assert abs(dn_s - dn_p) / scale < 1e-6

    def test_depletion_is_significant_in_the_fixture(self):
        s0, out = self.run_depleted()
        assert abs(out.a_p) ** 2 < 0.97 * abs(s0.a_p) ** 2

    def test_total_power_conserved_with_third_harmonic(self):
        s0, out = self.run_depleted(thg=True)
        p0 = abs(s0.a_p) ** 2 + abs(s0.a_s) ** 2
        p1 = (abs(out.a_p) ** 2 + abs(out.a_s) ** 2 + abs(out.a_i) ** 2
              + abs(out.a_3) ** 2)
        assert p1 == pytest.approx(p0, rel=1e-8)

    def test_pump_alone_only_self_phase_modulates(self):
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch

        p_p, length = 100e-6, 5000.0
        gamma = kerr_coefficient(0.04, 10e-3)
        s0 = ModeState(a_p=math.sqrt(p_p), a_s=0.0, a_i=0.0, a_3=0.0,
                       f_p=6e9, f_s=6.5e9)
        out = propagate_modes(s0, gamma, PhaseMismatch(0.0, 0.0), length)
        assert abs(out.a_p) == pytest.approx(math.sqrt(p_p), rel=1e-9)
        assert out.a_s == 0.0 and out.a_i == 0.0
        # SPM phase: gamma * P * L
        expected = gamma.gamma * p_p * length
        assert np.angle(out.a_p) == pytest.approx(
            (expected + np.pi) % (2 * np.pi) - np.pi, abs=1e-6)


@pytest.fixture(scope="module")
def curve():
    grid = FrequencyGrid(0.1e9, 26e9, 5001)
    net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=3))
    return device_dispersion(net, grid)


class TestCoupledModeRhs:
    def test_external_integration_matches_propagator(self):
        # drive the public RHS through scipy directly; it must agree with
        # the packaged propagation path
        from scipy.integrate import solve_ivp
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch, coupled_mode_rhs

        p_p, length = 100e-6, 1500.0
        gamma_pp = 1.9 / length
        gamma = KerrCoefficient(gamma=gamma_pp / p_p, k_cell=0.04,
                                i_star=10e-3, z0=50.0)
        mism = PhaseMismatch(-2.3 * gamma_pp, -0.3 * gamma_pp)
        seed = math.sqrt(p_p * 1e-4)
        s0 = ModeState(a_p=math.sqrt(p_p), a_s=seed, a_i=0.0, a_3=0.0,
                       f_p=6e9, f_s=6.8e9)

        def rhs(z, y):
            st = ModeState(a_p=y[0], a_s=y[1], a_i=y[2], a_3=y[3],
                           f_p=s0.f_p, f_s=s0.f_s)
            return coupled_mode_rhs(z, st, gamma, mism)

        sol = solve_ivp(rhs, (0, length),
                        np.array([s0.a_p, s0.a_s, s0.a_i, 0.0], complex),
                        rtol=1e-10, atol=1e-16)
        out = propagate_modes(s0, gamma, mism, length,
                              IntegrationOptions(rtol=1e-10, atol=1e-16))
        assert abs(sol.y[1, -1]) == pytest.approx(abs(out.a_s), rel=1e-7)
        assert abs(sol.y[0, -1]) == pytest.approx(abs(out.a_p), rel=1e-7)

    def test_third_harmonic_channel_active(self):
        from kitwpa.fwm import KerrCoefficient, PhaseMismatch, coupled_mode_rhs

        gamma = kerr_coefficient(0.2, 10e-3)
        s = ModeState(a_p=1e-2, a_s=0.0, a_i=0.0, a_3=0.0, f_p=6e9, f_s=6.5e9)
        d = coupled_mode_rhs(0.0, s, gamma, PhaseMismatch(0.0, 0.0),
                             include_third_harmonic=True, delta_k_3=0.01)
        assert d[3] != 0.0   # pump alone feeds the harmonic
        d0 = coupled_mode_rhs(0.0, s, gamma, PhaseMismatch(0.0, 0.0))
        assert d0[3] == 0.0  # channel disabled


def reference_rhs(z, y, n, gp, gs, gi, g3, dk, dk3, ap_al, as_al, ai_al,
                  a3_al, undepleted, thg):
    """The coupled-mode RHS written out term by term, as the propagator's
    RHS must evaluate it (same operations, same order)."""
    ap = y[0 * n:1 * n]
    as_ = y[1 * n:2 * n]
    ai = y[2 * n:3 * n]
    a3 = y[3 * n:4 * n] if thg else None

    pp = ap.real**2 + ap.imag**2
    ps = as_.real**2 + as_.imag**2
    pi_ = ai.real**2 + ai.imag**2
    p3 = (a3.real**2 + a3.imag**2) if thg else 0.0

    e = np.exp(-1j * dk * z)
    if undepleted:
        dap = (1j * gp * pp - ap_al) * ap
        das = 1j * gs * (2.0 * pp * as_ + ap * ap * np.conj(ai) * e) - as_al * as_
        dai = 1j * gi * (2.0 * pp * ai + ap * ap * np.conj(as_) * e) - ai_al * ai
        if thg:
            e3 = np.exp(-1j * dk3 * z)
            da3 = (1j * g3 * (2.0 * pp) - a3_al) * a3 \
                + 1j * (g3 / 3.0) * ap**3 * e3
            return np.concatenate([dap, das, dai, da3])
        return np.concatenate([dap, das, dai])

    dap = 1j * gp * ((pp + 2.0 * ps + 2.0 * pi_ + 2.0 * p3) * ap
                     + 2.0 * as_ * ai * np.conj(ap) * np.conj(e)) - ap_al * ap
    das = 1j * gs * ((ps + 2.0 * pp + 2.0 * pi_ + 2.0 * p3) * as_
                     + ap * ap * np.conj(ai) * e) - as_al * as_
    dai = 1j * gi * ((pi_ + 2.0 * pp + 2.0 * ps + 2.0 * p3) * ai
                     + ap * ap * np.conj(as_) * e) - ai_al * ai
    if thg:
        e3 = np.exp(-1j * dk3 * z)
        dap = dap + 1j * gp * np.conj(ap)**2 * a3 * np.conj(e3)
        da3 = 1j * g3 * ((p3 + 2.0 * pp + 2.0 * ps + 2.0 * pi_) * a3
                         + ap**3 * e3 / 3.0) - a3_al * a3
        return np.concatenate([dap, das, dai, da3])
    return np.concatenate([dap, das, dai])


class TestPropagatorRhs:
    @pytest.mark.parametrize("undepleted", [False, True])
    @pytest.mark.parametrize("thg", [False, True])
    def test_matches_reference_bit_for_bit(self, undepleted, thg):
        from kitwpa.fwm import _Propagator

        rng = np.random.default_rng(3)
        n = 57
        f_s = np.sort(rng.uniform(4e9, 8e9, n))
        g = 1e3 * rng.uniform(0.5, 2.0)
        gammas = (g, g * f_s / 6e9, g * (12e9 - f_s) / 6e9, 3.0 * g)
        dk = rng.normal(0.0, 1e-3, n)
        dk3 = float(rng.normal(0.0, 1e-2))
        alphas = (float(rng.uniform(0, 1e-5)), rng.uniform(0, 1e-5, n),
                  rng.uniform(0, 1e-5, n), float(rng.uniform(0, 1e-4)))
        prop = _Propagator(n, gammas, dk, dk3, alphas,
                           IntegrationOptions(undepleted=undepleted,
                                              include_third_harmonic=thg))
        modes = 4 if thg else 3
        for _ in range(20):
            y = (rng.normal(0, 1e-2, modes * n)
                 + 1j * rng.normal(0, 1e-2, modes * n))
            z = float(rng.uniform(0, 5000))
            want = reference_rhs(z, y, n, *gammas, dk, dk3, *alphas,
                                 undepleted, thg)
            got = prop._rhs(z, y)
            assert np.array_equal(got.view(float), want.view(float))

    def test_solver_garbage_freed_without_the_collector(self, small_fishbone,
                                                        small_leaf):
        # a scipy ODE solver is a reference cycle; the propagator frees each
        # one itself rather than leave its stage arrays to the cyclic
        # collector, also when a line is solved in several segments (leaf)
        from scipy.integrate import OdeSolver

        for (net, curve), pump in ((small_fishbone, PUMPS["small_fishbone"]),
                                   (small_leaf, PUMPS["small_leaf"])):
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                integrate_gain(net, curve, pump, np.array([pump[0] - 0.22e9]))
                left = [o for o in gc.get_objects() if isinstance(o, OdeSolver)]
            finally:
                if enabled:
                    gc.enable()
            assert left == []


class TestPhaseMismatch:
    def test_degenerate_point_zero(self, curve):
        gamma = kerr_coefficient(float(curve.k_cell(6.22e9)), 10e-3)
        m = phase_mismatch(curve, 6.22e9, 6.22e9, gamma, 100e-6)
        assert m.delta_k_linear == 0.0
        assert m.delta_k_total == pytest.approx(2 * gamma.gamma * 100e-6)

    def test_uniform_line_mismatch_tiny_and_positive_total(self):
        grid = FrequencyGrid(0.1e9, 26e9, 5001)
        curve = uniform_cell_dispersion(50e-12, 20e-15, grid)
        gamma = kerr_coefficient(float(curve.k_cell(6e9)), 10e-3)
        m = phase_mismatch(curve, 6e9, 7.5e9, gamma, 100e-6)
        assert abs(m.delta_k_linear) < 0.1 * 2 * gamma.gamma * 100e-6
        assert m.delta_k_total > 0

    def test_pump_below_stopband_gives_negative_linear_mismatch(self, curve):
        # pump just below the narrow band edge picks up extra phase
        report = find_stopbands(curve)
        narrow = report.bands_in(6e9, 8e9)[0]
        f_p = narrow.f_low - 30e6
        gamma = kerr_coefficient(float(curve.k_cell(f_p)), 10e-3)
        m = phase_mismatch(curve, f_p, f_p - 1.2e9, gamma, 100e-6)
        assert m.delta_k_linear < 0

    def test_stopband_flagging(self, curve):
        report = find_stopbands(curve)
        narrow = report.bands_in(6e9, 8e9)[0]
        gamma = kerr_coefficient(float(curve.k_cell(6.22e9)), 10e-3)
        m = phase_mismatch(curve, 6.22e9, narrow.center, gamma, 100e-6)
        assert m.signal_in_stopband and not m.idler_in_stopband


@pytest.fixture(scope="module")
def small_fishbone():
    # 90 supercells (~1/6 of a chip): fast but shows all features
    net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=90))
    grid = FrequencyGrid(0.1e9, 26e9, 8001)
    return net, device_dispersion(net, grid)


@pytest.fixture(scope="module")
def small_leaf():
    # 4 resonator blocks of 340 cells: the line is solved in 4 segments
    net = expand_leaf(LeafSpec(base_cell=LEAF_CELL, cells_per_block_period=340,
                               resonator=ResonatorSpec(6.2e9, 70.0),
                               num_blocks=4))
    grid = FrequencyGrid(0.1e9, 20e9, 3001)
    return net, device_dispersion(net, grid)


# a pump (frequency, power) in a passband of each small device
PUMPS = {"small_fishbone": (6.22e9, 100e-6), "small_leaf": (5.92e9, 60e-6)}


class TestIntegrator:
    @pytest.mark.parametrize("device", ["small_fishbone", "small_leaf"])
    def test_default_tolerance_within_error_budget(self, request, device):
        # the default options stay within 1e-6 dB of a tight-tolerance run
        net, curve = request.getfixturevalue(device)
        pump = PUMPS[device]
        f = np.linspace(pump[0] - 1.7e9, pump[0] + 1.5e9, 41)
        got = integrate_gain(net, curve, pump, f, stopband_curve=curve)
        ref = integrate_gain(net, curve, pump, f, IntegrationOptions(rtol=1e-12),
                             stopband_curve=curve)
        assert np.max(got.gain_db) > 1.0
        assert np.max(np.abs(got.gain_db - ref.gain_db)) < 1e-6

    def test_step_size_carried_across_blocks(self, small_fishbone, monkeypatch):
        # blocks whose corrections are exactly 1 only cut the line into
        # segments: each segment must pick up the step size the previous one
        # reached instead of searching for it again
        import kitwpa.fwm as fwm

        net, curve = small_fishbone
        f_p, p_p = PUMPS["small_fishbone"]
        f = np.linspace(5.0e9, 7.4e9, 41)
        line = fwm.prepare_line(net, curve, f_p, f, stopband_curve=curve)
        cells = line.total_cells
        blocked = dataclasses.replace(
            line, blocks=tuple(b * cells / 8 for b in range(8)),
            block_factors=(1.0, np.ones(f.size), np.ones(f.size), 1.0))

        solve_ivp = fwm.solve_ivp

        def solve(line, restart=False):
            """Gain, RHS evaluations and segments of one solve; ``restart``
            drops the carried step, so each segment searches afresh."""
            nfev = []

            def counting(*args, **kwargs):
                if restart:
                    kwargs["first_step"] = None
                sol = solve_ivp(*args, **kwargs)
                nfev.append(sol.nfev)
                return sol

            monkeypatch.setattr(fwm, "solve_ivp", counting)
            gain = fwm.solve_gain(line, net.i_star, p_p).gain_db
            return gain, sum(nfev), len(nfev)

        whole, _, segments = solve(line)
        assert segments == 1
        carried, carried_evals, segments = solve(blocked)
        assert segments == 8
        _, restarted_evals, _ = solve(blocked, restart=True)
        assert np.max(np.abs(carried - whole)) < 1e-7
        # measured 237 carried against 496 restarted
        assert carried_evals < 0.6 * restarted_evals


class TestIntegrateGain:
    def test_zero_pump_identically_zero(self, small_fishbone):
        net, curve = small_fishbone
        grid = FrequencyGrid(4e9, 8e9, 41)
        prof = integrate_gain(net, curve, (6.22e9, 0.0), grid)
        assert np.all(prof.gain_db == 0.0)

    def test_pump_in_stopband_rejected(self, small_fishbone):
        net, curve = small_fishbone
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        with pytest.raises(NumericError, match="stopband"):
            integrate_gain(net, curve, (narrow.center, 100e-6),
                           FrequencyGrid(4e9, 8e9, 11))

    def test_pump_point_excluded_from_grid(self, small_fishbone):
        net, curve = small_fishbone
        f = np.array([6.0e9, 6.22e9, 6.5e9])
        prof = integrate_gain(net, curve, (6.22e9, 10e-6), f)
        assert prof.frequencies.size == 2

    def test_gain_positive_and_symmetricish_near_pump(self, small_fishbone):
        net, curve = small_fishbone
        f = np.array([6.0e9, 6.44e9])  # mirror pair about 6.22
        prof = integrate_gain(net, curve, (6.22e9, 100e-6), f)
        assert np.all(prof.gain_db > 0.5)
        assert prof.gain_db[0] == pytest.approx(prof.gain_db[1], abs=0.5)

    def test_seed_level_does_not_change_gain(self, small_fishbone,
                                             monkeypatch):
        net, curve = small_fishbone
        f = np.array([6.0e9])
        a = integrate_gain(net, curve, (6.22e9, 100e-6), f)
        monkeypatch.setattr(kitwpa.fwm, "SEED_LEVEL_DB", -80.0)
        b = integrate_gain(net, curve, (6.22e9, 100e-6), f)
        assert a.gain_db[0] == pytest.approx(b.gain_db[0], abs=1e-3)

    def test_convergence_in_tolerance(self, small_fishbone):
        net, curve = small_fishbone
        f = np.array([5.6e9, 6.8e9])
        a = integrate_gain(net, curve, (6.22e9, 100e-6), f,
                           IntegrationOptions(rtol=1e-8))
        b = integrate_gain(net, curve, (6.22e9, 100e-6), f,
                           IntegrationOptions(rtol=1e-10))
        assert np.max(np.abs(a.gain_db - b.gain_db)) < 0.001

    def test_signal_in_stopband_flagged_and_dipped(self, small_fishbone):
        net, curve = small_fishbone
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        f = np.array([narrow.center, narrow.center - 1.0e9])
        prof = integrate_gain(net, curve, (6.22e9, 100e-6), f)
        assert prof.in_stopband[0] and not prof.in_stopband[1]
        assert prof.gain_db[0] < prof.gain_db[1] - 3.0

    def test_leaf_gain_with_block_corrections(self):
        # resonator phase shifters push the gain above the bare quadratic
        # level at detunings where the per-block kick cancels the Kerr
        # mismatch
        net = expand_leaf(LeafSpec(base_cell=LEAF_CELL,
                                   cells_per_block_period=340,
                                   resonator=ResonatorSpec(6.2e9, 70.0),
                                   num_blocks=12))
        grid = FrequencyGrid(0.1e9, 20e9, 6001)
        curve = device_dispersion(net, grid)
        f = np.linspace(4.2e9, 5.6e9, 29)
        prof = integrate_gain(net, curve, (5.92e9, 60e-6), f,
                              stopband_curve=curve)
        bare = expand_leaf(LeafSpec(base_cell=LEAF_CELL,
                                    cells_per_block_period=340,
                                    resonator=ResonatorSpec(
                                        6.2e9, 70.0, pairs_per_block=0),
                                    num_blocks=12))
        bare_curve = device_dispersion(bare, grid)
        prof0 = integrate_gain(bare, bare_curve, (5.92e9, 60e-6), f)
        assert np.max(prof.gain_db) > np.max(prof0.gain_db) + 1.0

    def test_third_harmonic_flag_changes_little_when_suppressed(self):
        # pump placed so 3 f_p falls in the wide loading stopband
        net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=90))
        grid = FrequencyGrid(0.1e9, 26e9, 8001)
        curve = device_dispersion(net, grid)
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        f_p = narrow.f_low - 0.1e9
        assert bool(curve.stopband_at(3 * f_p)[0])
        f = np.array([f_p - 0.9e9, f_p - 0.5e9])
        a = integrate_gain(net, curve, (f_p, 60e-6), f,
                           IntegrationOptions(include_third_harmonic=False))
        b = integrate_gain(net, curve, (f_p, 60e-6), f,
                           IntegrationOptions(include_third_harmonic=True))
        assert np.max(np.abs(a.gain_db - b.gain_db)) < 0.1


class TestThirdHarmonicScan:
    def test_dispersionless_reference_grows_most(self):
        # leaf's intrinsic low-pass dispersion suppresses harmonic conversion
        # by >= 10 dB against an equal dispersionless line
        f_p, p_p = 5.92e9, 60e-6
        net = expand_leaf(LeafSpec(
            base_cell=LEAF_CELL, cells_per_block_period=340,
            resonator=ResonatorSpec(6.2e9, 70.0, pairs_per_block=0),
            num_blocks=12))
        grid = FrequencyGrid(0.1e9, 20e9, 2001)
        curve = uniform_cell_dispersion(290e-12, 116e-15, grid)
        scan = third_harmonic_scan(net, curve, (f_p, p_p))

        # dispersionless oracle: same line, linear k (same k at the pump,
        # zero mismatch for the harmonic)
        f = grid.frequencies()
        k_lin = f * float(curve.k_cell(f_p)) / f_p
        flat = DispersionCurve(f, k_lin, np.zeros_like(f),
                               np.zeros(f.size, dtype=bool), 1)
        ref = third_harmonic_scan(net, flat, (f_p, p_p))
        assert db(scan.conversion_efficiency) <= db(ref.conversion_efficiency) - 10

    def test_fishbone_harmonic_decays_in_stopband(self):
        net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=90))
        grid = FrequencyGrid(0.1e9, 26e9, 8001)
        curve = device_dispersion(net, grid)
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        f_p = narrow.f_low - 0.1e9
        assert bool(curve.stopband_at(3 * f_p)[0])
        scan = third_harmonic_scan(net, curve, (f_p, 100e-6))
        assert scan.p_third[-1] < 0.9 * np.max(scan.p_third)

    def test_scan_with_resonator_blocks(self):
        # kicks at block boundaries must leave the sampled trajectory
        # contiguous and keep the pump healthy below resonance
        net = expand_leaf(LeafSpec(base_cell=LEAF_CELL,
                                   cells_per_block_period=340,
                                   resonator=ResonatorSpec(6.2e9, 70.0),
                                   num_blocks=4))
        grid = FrequencyGrid(0.1e9, 20e9, 3001)
        curve = device_dispersion(net, grid)
        scan = third_harmonic_scan(net, curve, (5.92e9, 60e-6))
        assert scan.z_cells[0] == 0.0 and scan.z_cells[-1] == net.total_cells
        assert np.all(np.diff(scan.z_cells) >= 0)
        assert scan.p_pump[-1] > 0.95 * scan.p_pump[0]

    def test_harmonic_grows_monotonically_without_mismatch(self):
        net = uniform_line(FISH_CELL, 2000)
        f = np.linspace(0.1e9, 26e9, 1001)
        k_lin = f * 2 * np.pi * np.sqrt(50e-12 * 20e-15)
        flat = DispersionCurve(f, k_lin, np.zeros_like(f),
                               np.zeros(f.size, dtype=bool), 1)
        scan = third_harmonic_scan(net, flat, (6e9, 100e-6))
        assert scan.p_third[-1] == np.max(scan.p_third)
        assert np.all(np.diff(scan.p_third) >= -1e-20)

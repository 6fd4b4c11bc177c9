import dataclasses
import gc
import math
from pathlib import Path

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
from kitwpa.analysis import expand_design
from kitwpa.config import load_config
from kitwpa.errors import NumericError
from kitwpa.fwm import (
    IntegrationOptions,
    integrate_gain,
    kerr_coefficient,
    signal_frequencies,
    third_harmonic_scan,
)
from oracles import (
    StackedPropagator,
    analytic_gain_undepleted,
    reference_rhs,
    run_triplet,
    undepleted_ode_gain,
)

PRESETS = Path(__file__).resolve().parents[1] / "src" / "kitwpa" / "presets"
FISH_CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
LEAF_CELL = UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3), 116e-15)


def db(x):
    return 10 * np.log10(x)


class TestKerrCoefficient:
    def test_value_and_invariant(self):
        g = kerr_coefficient(k_cell=0.04, i_star=10e-3, z0=50.0)
        assert g == pytest.approx(0.04 / (2 * (10e-3) ** 2 * 50.0), rel=1e-12)

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


def degenerate_triplet(p_p, gamma, mism, length, seed_db=-60.0, **kwargs):
    """Output [a_p, a_s, a_i] of the oracle's degenerate triplet (f_s = f_p,
    so all mode Kerr coefficients agree), seeded seed_db below the pump."""
    seed = math.sqrt(p_p * 10 ** (seed_db / 10))
    return run_triplet(math.sqrt(p_p), seed, 6e9, 6e9, gamma, mism, length,
                       **kwargs)


class TestIntegratorOracleParity:
    def test_depletion_off_vs_on_at_tiny_seed(self):
        # with a -90 dB seed the depleted equations agree with the
        # undepleted limit
        p_p, length = 100e-6, 2000.0
        gamma_pp = 2.0 / length
        gamma = gamma_pp / p_p
        mism = -2 * gamma_pp
        a = degenerate_triplet(p_p, gamma, mism, length, seed_db=-90.0,
                               undepleted=True)
        b = degenerate_triplet(p_p, gamma, mism, length, seed_db=-90.0)
        assert db(abs(a[1]) ** 2) == pytest.approx(db(abs(b[1]) ** 2), abs=1e-3)

    def test_idler_photon_flux_gain(self):
        # |a_i(L)|^2 / f_i = (G - 1) * |a_s(0)|^2 / f_s
        p_p, length = 100e-6, 2000.0
        gamma_pp = 1.7 / length
        gamma = gamma_pp / p_p
        mism = -2 * gamma_pp
        out = degenerate_triplet(p_p, gamma, mism, length, undepleted=True)
        g = analytic_gain_undepleted(gamma_pp, 0.0, length)
        assert abs(out[2]) ** 2 == pytest.approx((g - 1) * p_p * 1e-6,
                                                 rel=1e-4)


class TestConservation:
    F_P, F_S, P_P = 6e9, 6.7e9, 100e-6
    SEED = math.sqrt(P_P * 10 ** (-25.0 / 10))

    def run_depleted(self):
        length = 3000.0
        gamma_pp = 2.2 / length
        return run_triplet(math.sqrt(self.P_P), self.SEED, self.F_P, self.F_S,
                           gamma_pp / self.P_P, -2 * gamma_pp, length,
                           IntegrationOptions(rtol=1e-10, atol=1e-16))

    def test_manley_rowe_triplet(self):
        f_p, f_s = self.F_P, self.F_S
        out = self.run_depleted()
        dn_s = (abs(out[1]) ** 2 - self.SEED ** 2) / f_s
        dn_i = abs(out[2]) ** 2 / (2 * f_p - f_s)
        dn_p = (self.P_P - abs(out[0]) ** 2) / (2 * f_p)
        scale = max(abs(dn_s), abs(dn_i), abs(dn_p))
        assert scale > 0  # the pump really depleted
        assert abs(dn_s - dn_i) / scale < 1e-6
        assert abs(dn_s - dn_p) / scale < 1e-6

    def test_depletion_is_significant_in_the_fixture(self):
        out = self.run_depleted()
        assert abs(out[0]) ** 2 < 0.97 * self.P_P

    def test_pump_alone_only_self_phase_modulates(self):
        p_p, length = 100e-6, 5000.0
        gamma = kerr_coefficient(0.04, 10e-3)
        out = run_triplet(math.sqrt(p_p), 0.0, 6e9, 6.5e9, gamma, 0.0, length)
        assert abs(out[0]) == pytest.approx(math.sqrt(p_p), rel=1e-9)
        assert out[1] == 0.0 and out[2] == 0.0
        # SPM phase: gamma * P * L
        expected = gamma * p_p * length
        assert np.angle(out[0]) == pytest.approx(
            (expected + np.pi) % (2 * np.pi) - np.pi, abs=1e-6)


def reference_harmonic_scan(network, dispersion, pump, options=None):
    """The harmonic scan on the stacked four-mode engine: the pump, a zero-power
    placeholder signal at f_p/2, its idler and the third harmonic, as
    third_harmonic_scan integrated them before it dropped the two zero
    modes.  Returns (z_cells, p_pump, p_third)."""
    options = dataclasses.replace(options or IntegrationOptions(),
                                  include_third_harmonic=True)
    f_p, p_p = pump
    f_s = np.array([f_p / 2.0])
    f_i = 2.0 * f_p - f_s
    k, alpha, blocks, fac = kitwpa.fwm._pump_modes(
        network, dispersion, np.concatenate([[f_p], f_s, f_i, [3.0 * f_p]]),
        "modes", options.z0, on_device_grid=False)
    k_p = float(k[0])
    dk = k[1:2] + k[2:3] - 2.0 * k_p
    dk3 = float(k[3] - 3.0 * k_p)
    alphas = (float(alpha[0]), alpha[1:2], alpha[2:3], float(alpha[3]))
    factors = None if fac is None else (fac[0], fac[1:2], fac[2:3], fac[3])
    g = kerr_coefficient(k_p, network.i_star, options.z0)
    prop = StackedPropagator(1, (g, g * f_s / f_p, g * f_i / f_p, 3.0 * g),
                             dk, dk3, alphas, options,
                             float(network.total_cells), blocks, factors)
    z, y = prop.run(np.array([math.sqrt(p_p), 0.0, 0.0, 0.0], dtype=complex),
                    kitwpa.fwm.HARMONIC_SAMPLES)
    return z, np.abs(y[0]) ** 2, np.abs(y[3]) ** 2


def rhs_defect(draws):
    """Worst difference between the propagator's scalar RHS and
    reference_rhs at n = 1, over random draws, relative to the sum of the
    moduli of the terms of each component.

    The reference holds the signal and idler at zero and gives the pump
    and third-harmonic rows.  numpy fuses its complex products and Python
    does not, so the two differ at the rounding level.  Where terms cancel,
    that difference is large against the result (measured up to 5.2e-15 of
    |reference|) but not against the terms.  Their sum of moduli is
    reference_rhs on |y| with no phase and the attenuations times -1j:
    every term then points along +i."""
    from kitwpa.fwm import _Propagator

    rng = np.random.default_rng(3)
    rows = [0, 3]
    worst = 0.0
    for _ in range(draws):
        g = 1e3 * rng.uniform(0.5, 2.0)
        f_s = rng.uniform(4e9, 8e9)
        gammas = (g, g * f_s / 6e9, g * (12e9 - f_s) / 6e9, 3.0 * g)
        dk, dk3 = float(rng.normal(0.0, 1e-3)), float(rng.normal(0.0, 1e-2))
        alphas = (rng.uniform(0, 1e-5), rng.uniform(0, 1e-5),
                  rng.uniform(0, 1e-5), rng.uniform(0, 1e-4))
        y = rng.normal(0, 1e-2, 4) + 1j * rng.normal(0, 1e-2, 4)
        z = float(rng.uniform(0, 5000))
        y[1:3] = 0.0
        prop = _Propagator(tuple(gammas[k] for k in rows),
                           tuple(alphas[k] for k in rows),
                           IntegrationOptions(), dk=dk3)
        got = prop._rhs(z, y[rows])
        want = reference_rhs(z, y, 1, *gammas, dk, dk3, *alphas, False,
                             True)[rows]
        terms = np.abs(reference_rhs(
            z, np.abs(y), 1, *gammas, 0.0, 0.0,
            *(-1j * a for a in alphas), False, True))[rows]
        worst = max(worst, np.max(np.abs(got - want) / terms))
    return worst


class TestPropagatorRhs:
    def test_two_mode_rhs_matches_reference_at_zero_signal(self):
        # the scan's pump and third harmonic: measured worst 2.4e-16
        assert rhs_defect(3000) <= 1e-15

    def test_solves_leave_no_garbage_cycles(self, small_fishbone, small_leaf):
        # the stepper is plain local state, so a solve leaves nothing for the
        # cyclic collector, also when a line is solved in several segments
        # (leaf): with the collector off, a collection afterwards finds no
        # unreachable object.  The oracle's triplet runs on the same
        # segment loop and stepper
        p_p = 100e-6
        for solve, args in (
                (third_harmonic_scan, (*small_fishbone, PUMPS["small_fishbone"])),
                (third_harmonic_scan, (*small_leaf, PUMPS["small_leaf"])),
                (degenerate_triplet, (p_p, 1.5 / 2000.0 / p_p, 0.0, 2000.0))):
            gc.collect()
            enabled = gc.isenabled()
            gc.disable()
            try:
                solve(*args)
                assert gc.collect() == 0
            finally:
                if enabled:
                    gc.enable()


class TestPhaseMismatch:
    def test_pump_below_stopband_gives_negative_linear_mismatch(self):
        # pump just below the narrow band edge picks up extra phase, which
        # the fishbone's loading uses to phase-match
        net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=3))
        curve = device_dispersion(net, FrequencyGrid(0.1e9, 26e9, 5001))
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
        f_p = narrow.f_low - 30e6
        line = kitwpa.fwm.prepare_line(net, curve, f_p,
                                       np.array([f_p - 1.2e9]))
        assert line.delta_k[0] < 0


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


def preset(name):
    """(config, network, Bloch curve) of a shipped preset."""
    cfg = load_config(PRESETS / f"{name}.cfg")
    net = expand_design(cfg.design)
    return cfg, net, device_dispersion(net, cfg.frequency_grid)


def preset_line(name):
    """(line, I*, pump power) of a shipped preset's gain run."""
    cfg, net, curve = preset(name)
    line = kitwpa.fwm.prepare_line(net, curve, cfg.pump[0], cfg.signal_grid,
                                   cfg.integrator)
    return line, net.i_star, cfg.pump[1]


def reference_transfer(line, g_p, p_p):
    """The closed form's transfer (T00, T10) in the lab frame, segment by
    segment in complex arithmetic: the kernel the pump-frame _transfer
    replaced.

    On each segment between blocks the lossless pump is
    a0 exp(i g_p P (z - z0)), and in a frame rotating at kappa/2,
    kappa = 2 g_p P - dk, the pair (a_s, conj a_i) obeys d/dz (A, B) =
    M (A, B) with the constant

        M = [[2i g_s P - i kappa/2 - alpha_s,  i g_s c],
             [-i g_i conj(c),  -2i g_i P + i kappa/2 - alpha_i]],

    c = a0^2 exp(-i dk z0).  The segment's matrix is exp(ML) =
    e^((m+g)L) [(1 + q)/2 I + (1 - q)/(2g) N], m = tr(M)/2, N = M - mI,
    g^2 = -det N, Re g >= 0, q = exp(-2gL), followed by the turn back from
    the rotating frame.  A block scales the signal by its factor, the
    conjugate idler by the conjugate of its factor and the pump by its
    factor.
    """
    f_p, f_s = line.pump_frequency, line.signal_frequencies
    g_s = g_p * f_s / f_p
    g_i = g_p * (2.0 * f_p - f_s) / f_p
    _, alpha_s, alpha_i = line.alphas
    dk = line.delta_k
    a0 = complex(math.sqrt(p_p))
    t_s = np.ones(f_s.size, dtype=complex)
    t_i = np.zeros(f_s.size, dtype=complex)
    z = 0.0
    stops = [*line.blocks, line.total_cells]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, z1 in enumerate(stops):
            if z1 > z:
                length = z1 - z
                p = a0.real**2 + a0.imag**2
                kappa = 2.0 * g_p * p - dk
                c = a0 * a0 * np.exp(-1j * dk * z)
                m11 = 2j * g_s * p - 0.5j * kappa - alpha_s
                m22 = -2j * g_i * p + 0.5j * kappa - alpha_i
                m12 = 1j * g_s * c
                m21 = -1j * g_i * np.conj(c)
                m = 0.5 * (m11 + m22)
                d = 0.5 * (m11 - m22)
                g = np.sqrt(d * d + m12 * m21)
                gl = g * length
                grow = np.exp(m * length + gl)
                one_minus_q = -np.expm1(-2.0 * gl)
                cosh_part = grow * (1.0 - 0.5 * one_minus_q)
                sinh_part = np.full(f_s.size, complex(length))
                np.divide(0.5 * one_minus_q, g, out=sinh_part, where=gl != 0)
                sinh_part *= grow
                turn = np.exp(0.5j * kappa * length)
                t_s, t_i = (
                    turn * ((cosh_part + sinh_part * d) * t_s
                            + sinh_part * m12 * t_i),
                    np.conj(turn) * (sinh_part * m21 * t_s
                                     + (cosh_part - sinh_part * d) * t_i))
                a0 *= np.exp(1j * g_p * p * length)
                z = z1
            if i < len(line.blocks):
                fp_fac, fs_fac, fi_fac = line.block_factors
                a0 *= fp_fac
                t_s = t_s * fs_fac
                t_i = t_i * np.conj(fi_fac)
    return t_s, t_i


class TestIntegrator:
    @pytest.mark.parametrize("device", ["small_fishbone", "small_leaf",
                                        "fishbone-paper", "leaf-paper-gain"])
    def test_closed_form_matches_undepleted_ode(self, request, device):
        # measured worst differences: 3.7e-11 dB (fishbone-paper) and
        # 5.0e-10 dB (leaf-paper-gain).  They are the ODE's error: its
        # rtol-1e-13 solve lies closer to the closed form (2.7e-11 and
        # 2.5e-10 dB), and differs from the rtol-1e-12 one by 1.0e-11 and
        # 2.4e-10 dB
        if device in PUMPS:
            net, curve = request.getfixturevalue(device)
            f_p, p_p = PUMPS[device]
            f = np.linspace(f_p - 1.7e9, f_p + 1.5e9, 41)
            line = kitwpa.fwm.prepare_line(net, curve, f_p, f)
            i_star = net.i_star
        else:
            line, i_star, p_p = preset_line(device)
        got = kitwpa.fwm.solve_gain(line, i_star, p_p).gain_db
        assert np.max(got) > 1.0
        assert np.max(np.abs(got - undepleted_ode_gain(line, i_star, p_p))) < 1e-8

    @pytest.mark.parametrize("scale", [1, 16, 256])
    def test_manley_rowe_on_blockless_lossless_lines(self, small_fishbone,
                                                     scale):
        # photon flux: |T00|^2 - (f_s/f_i)|T10|^2 = 1 wherever neither the
        # signal nor the idler is attenuated; the uniform line has no
        # stopband below its cutoff.  The bound is relative to |T00|^2, the
        # size of the terms that cancel: measured 1e-15 of it at every scale
        # (9e-13 absolute at 16x, 1.2e-10 at 256x, ~54 dB of gain)
        uniform = uniform_line(FISH_CELL, 5000)
        uniform_curve = uniform_cell_dispersion(
            50e-12, 20e-15, FrequencyGrid(0.1e9, 26e9, 5001))
        f_p, p_p = PUMPS["small_fishbone"]
        checked = 0
        for net, curve in (small_fishbone, (uniform, uniform_curve)):
            line = kitwpa.fwm.prepare_line(net, curve, f_p,
                                           np.linspace(4.0e9, 8.4e9, 401))
            assert line.blocks == ()
            gamma = kerr_coefficient(line.k_pump, net.i_star)
            t_s, t_i = kitwpa.fwm._transfer(line, gamma, scale * p_p)
            f_s = line.signal_frequencies
            lossless = (line.alphas[1] == 0) & (line.alphas[2] == 0)
            flux = np.abs(t_s) ** 2 - f_s / (2 * f_p - f_s) * np.abs(t_i) ** 2
            assert np.max(np.abs(flux - 1)[lossless]) < 1e-12 * np.max(
                np.abs(t_s[lossless]) ** 2)
            checked += lossless.sum()
        assert checked > 700

    @pytest.mark.parametrize("device", ["fishbone-paper", "leaf-paper-gain"])
    @pytest.mark.parametrize("scale", [1, 4, 16])
    def test_pump_frame_matches_the_reference(self, device, scale):
        # measured on fishbone-paper: 4.8e-14, 2.4e-12 and 5.3e-11 dB at
        # 1x, 4x and 16x; on leaf-paper-gain 4.6e-14, 6.8e-13, 4.5e-12 dB
        line, i_star, p_p = preset_line(device)
        unequal = line.alphas[1] != line.alphas[2]
        # the fishbone's stopband points take the complex formula
        assert unequal.any() == (device == "fishbone-paper")
        gamma = kerr_coefficient(line.k_pump, i_star)
        t_s, t_i = kitwpa.fwm._transfer(line, gamma, scale * p_p)
        r_s, r_i = reference_transfer(line, gamma, scale * p_p)
        assert np.all(np.abs(t_s - r_s) <= 1e-10 * np.abs(r_s))
        assert np.all(np.abs(t_i - r_i) <= 1e-10 * np.abs(r_s))
        gain_err = np.abs(20 * np.log10(np.abs(t_s) / np.abs(r_s)))
        assert np.max(gain_err) < (1e-9 if scale == 16 else 1e-10)

    def test_blocks_of_one_leave_the_transfer_as_it_is(self, small_fishbone,
                                                       monkeypatch):
        # a blockless line cut into 8 segments by blocks whose factors are
        # exactly 1: the frame's bookkeeping across a block must cancel
        import kitwpa.fwm as fwm

        net, curve = small_fishbone
        f_p, p_p = PUMPS["small_fishbone"]
        f = np.linspace(4.0e9, 8.4e9, 401)
        whole_line = fwm.prepare_line(net, curve, f_p, f)
        assert whole_line.blocks == ()
        gamma = kerr_coefficient(whole_line.k_pump, net.i_star)
        whole = fwm._transfer(whole_line, gamma, 4 * p_p)

        def cut(network, frequencies, z0):
            cells = float(network.total_cells)
            return (tuple(b * cells / 8 for b in range(8)),
                    np.ones(frequencies.size))

        monkeypatch.setattr(fwm, "_block_corrections", cut)
        cut_line = fwm.prepare_line(net, curve, f_p, f)
        assert len(cut_line.blocks) == 8
        pieces = fwm._transfer(cut_line, gamma, 4 * p_p)
        # both formulas run: stopband points have unequal losses
        assert (cut_line.alphas[1] != cut_line.alphas[2]).any()
        scale = np.abs(whole[0])
        for got, want in zip(pieces, whole):
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_step_size_carried_across_blocks(self, small_fishbone, monkeypatch):
        # blocks whose corrections are exactly 1 only cut the line into
        # segments: each segment must pick up the step size the previous one
        # reached instead of searching for it again
        import kitwpa.fwm as fwm

        net, curve = small_fishbone
        pump = PUMPS["small_fishbone"]
        solve_ivp = fwm.solve_ivp

        def solve(segments, restart=False):
            """Output pump and third-harmonic powers in dB, RHS evaluations
            and segments of one harmonic scan cut into ``segments`` pieces;
            ``restart`` drops the carried step, so each segment searches
            afresh."""
            nfev = []

            def counting(*args, **kwargs):
                if restart:
                    kwargs["first_step"] = None
                sol = solve_ivp(*args, **kwargs)
                nfev.append(sol.nfev)
                return sol

            def cut(network, frequencies, z0):
                cells = float(network.total_cells)
                return (tuple(b * cells / segments for b in range(segments)),
                        np.ones(frequencies.size))

            monkeypatch.setattr(fwm, "solve_ivp", counting)
            monkeypatch.setattr(fwm, "_block_corrections", cut)
            scan = fwm.third_harmonic_scan(net, curve, pump)
            out = db(np.array([scan.p_pump[-1], scan.p_third[-1]]))
            return out, sum(nfev), len(nfev)

        whole, _, segments = solve(1)
        assert segments == 1
        carried, carried_evals, segments = solve(8)
        assert segments == 8
        _, restarted_evals, _ = solve(8, restart=True)
        assert np.max(np.abs(carried - whole)) < 1e-7
        # measured 309 carried against 631 restarted
        assert carried_evals < 0.6 * restarted_evals


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.ascontiguousarray(a).tobytes()
            == np.ascontiguousarray(b).tobytes())


def recording(fun):
    """fun, and the list of the t of every call to it, in call order."""
    times = []

    def wrapped(t, y):
        times.append(t)
        return fun(t, y)
    return wrapped, times


def scipy_solve(fun, t_span, y0, t_eval=None, **kwargs):
    """scipy's solve_ivp as the propagator reads a solve, plus the t of
    every RHS evaluation in ``rhs_times``.  With t_eval, scipy's result
    holds the samples only, so the steps and the end state come from a
    solve without it, which takes the same steps."""
    from scipy.integrate import solve_ivp as reference

    counted, times = recording(fun)
    sol = reference(counted if t_eval is None else fun, t_span, y0, **kwargs)
    sol.y_end = sol.y[:, -1].copy()
    sol.y_eval = None
    steps = np.diff(sol.t)
    sol.steps = steps.size
    sol.h_carry = steps[-2] if steps.size > 1 else steps[-1]
    if t_eval is not None:
        sampled = reference(counted, t_span, y0, t_eval=t_eval, **kwargs)
        sol.y_eval, sol.nfev = sampled.y, sampled.nfev
    sol.rhs_times = times
    return sol


class TestStepperParity:
    """The in-package DOP853 stepper against scipy's solve_ivp, its oracle,
    on the propagator's own segments."""

    def test_segments_bitwise_equal_to_scipy(self, small_fishbone, small_leaf,
                                             monkeypatch):
        ported = kitwpa.fwm.solve_ivp
        first_steps = []

        def both(fun, t_span, y0, **kwargs):
            # the t of every RHS evaluation pins every stage of every step
            # tried, not only the ends of the steps taken
            counted, times = recording(fun)
            ours = ported(counted, t_span, y0, **kwargs)
            ref = scipy_solve(fun, t_span, y0, **kwargs)
            assert ours.nfev == ref.nfev
            assert same_bits(times, ref.rhs_times)
            assert ours.steps == ref.steps
            assert same_bits(ours.h_carry, ref.h_carry)
            assert same_bits(ours.y_end, ref.y_end)
            assert same_bits(ours.y_eval, ref.y_eval)
            first_steps.append(kwargs["first_step"])
            return ours

        monkeypatch.setattr(kitwpa.fwm, "solve_ivp", both)
        net, curve = small_fishbone
        third_harmonic_scan(net, curve, PUMPS["small_fishbone"])
        assert first_steps == [None]            # one segment
        first_steps.clear()
        net, curve = small_leaf
        third_harmonic_scan(net, curve, PUMPS["small_leaf"])
        # one segment per block, each after the first from a carried step
        assert len(first_steps) == 4 and first_steps[0] is None
        assert all(h is not None for h in first_steps[1:])

    @pytest.mark.parametrize("device", ["small_fishbone", "small_leaf"])
    def test_harmonic_scan_bitwise_equal_to_scipy(self, request, device,
                                                  monkeypatch):
        net, curve = request.getfixturevalue(device)
        pump = PUMPS[device]
        ours = third_harmonic_scan(net, curve, pump)
        monkeypatch.setattr(kitwpa.fwm, "solve_ivp", scipy_solve)
        ref = third_harmonic_scan(net, curve, pump)
        for name in ("z_cells", "p_pump", "p_third"):
            assert same_bits(getattr(ours, name), getattr(ref, name)), name

    def test_memory_does_not_grow_with_the_pump(self):
        # only a segment's end state and samples are kept, not every step's
        # state, dense output or time: a pump that needs many more steps
        # needs no more memory
        import tracemalloc

        p_p, length = 100e-6, 2000.0
        gamma = 1.5 / length / p_p

        def modes(scale):
            degenerate_triplet(scale * p_p, gamma, 0.0, length)

        # 79, 292 and 1 129 steps: while the stepper kept every step's
        # dense output, the scan's peak grew from 0.144 to 0.304 MB at 4x;
        # while it kept the step times, from 86 to 103 kB at 16x
        cfg, net, curve = preset("fishbone-paper")

        def scan(scale):
            third_harmonic_scan(net, curve,
                                (cfg.pump[0], scale * cfg.pump[1]))

        for run, scales, bound in ((modes, (1, 16), 1.5),
                                   (scan, (1, 4, 16), 1.05)):
            peaks = []
            for scale in scales:
                tracemalloc.start()
                try:
                    run(scale)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert max(peaks[1:]) < bound * peaks[0], (run.__name__, peaks)


class TestIntegrateGain:
    def test_zero_pump_identically_zero(self, small_fishbone):
        net, curve = small_fishbone
        grid = FrequencyGrid(4e9, 8e9, 41)
        prof = integrate_gain(net, curve, (6.22e9, 0.0), grid)
        assert np.all(prof.gain_db == 0.0)

    def test_pump_in_stopband_rejected(self, small_fishbone):
        net, curve = small_fishbone
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
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

    def test_signal_in_stopband_flagged_and_dipped(self, small_fishbone):
        net, curve = small_fishbone
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
        f = np.array([narrow.center - 1.0e9, narrow.center])
        prof = integrate_gain(net, curve, (6.22e9, 100e-6), f)
        assert prof.in_stopband[1] and not prof.in_stopband[0]
        assert prof.gain_db[1] < prof.gain_db[0] - 3.0

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
        prof = integrate_gain(net, curve, (5.92e9, 60e-6), f)
        bare = expand_leaf(LeafSpec(base_cell=LEAF_CELL,
                                    cells_per_block_period=340,
                                    resonator=ResonatorSpec(
                                        6.2e9, 70.0, pairs_per_block=0),
                                    num_blocks=12))
        bare_curve = device_dispersion(bare, grid)
        prof0 = integrate_gain(bare, bare_curve, (5.92e9, 60e-6), f)
        assert np.max(prof.gain_db) > np.max(prof0.gain_db) + 1.0

    def test_leaf_background_closed_form_against_the_old_table(self):
        # a resonator design's modes take k and alpha from the bare ladder's
        # closed form at their own frequencies; before, they were
        # interpolated on a 4 097-point table of it reaching 3.03 f_p,
        # rebuilt here.  Measured on leaf-paper-gain: 2.83e-10 rad/cell and
        # 1.48e-5 dB apart
        _, _, curve = preset("leaf-paper-gain")
        line, i_star, p_p = preset_line("leaf-paper-gain")
        f_p, f_s = line.pump_frequency, line.signal_frequencies
        n = f_s.size
        modes = np.concatenate([[f_p], f_s, 2.0 * f_p - f_s])
        closed = 2.0 * np.arcsin(np.pi * modes * np.sqrt(290e-12 * 116e-15))
        assert line.k_pump == closed[0]
        assert np.array_equal(
            line.delta_k, closed[1:n + 1] + closed[n + 1:] - 2.0 * closed[0])
        assert all(np.all(a == 0.0) for a in line.alphas)

        table = uniform_cell_dispersion(290e-12, 116e-15, FrequencyGrid(
            curve.frequencies[0], max(curve.frequencies[-1], 3.03 * f_p), 4097))
        k_old = table.k_cell(modes)
        assert np.all(table.alpha_cell(modes) == 0.0)
        assert np.max(np.abs(closed - k_old)) < 3e-10
        old_line = dataclasses.replace(
            line, k_pump=float(k_old[0]),
            delta_k=k_old[1:n + 1] + k_old[n + 1:] - 2.0 * k_old[0])
        old = kitwpa.fwm.solve_gain(old_line, i_star, p_p).gain_db
        new = kitwpa.fwm.solve_gain(line, i_star, p_p).gain_db
        assert np.max(np.abs(new - old)) < 2e-5

    @pytest.mark.parametrize("solve", ["integrate_gain", "solve_gain"])
    def test_third_harmonic_flag_refused(self, small_fishbone, solve):
        # the small-signal gain carries no third harmonic; the harmonic scan
        # integrates it.  prepare_line takes the options, solve_gain refuses
        net, curve = small_fishbone
        (f_p, p_p), f = PUMPS["small_fishbone"], np.array([5.6e9, 6.8e9])
        options = IntegrationOptions(include_third_harmonic=True)
        with pytest.raises(ValueError,
                           match="include_third_harmonic.*third_harmonic_scan"):
            if solve == "integrate_gain":
                integrate_gain(net, curve, (f_p, p_p), f, options)
            else:
                line = kitwpa.fwm.prepare_line(net, curve, f_p, f, options)
                kitwpa.fwm.solve_gain(line, net.i_star, p_p)

    def test_pump_within_a_grid_step_of_a_stopband_rejected(self,
                                                            small_fishbone):
        # just above a stopband's top grid point the pump is not flagged,
        # but its interpolated attenuation is nonzero
        net, curve = small_fishbone
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
        step = curve.frequencies[1] - curve.frequencies[0]
        f_p = narrow.f_high + step / 2
        assert not curve.stopband_at(f_p)[0] and curve.alpha_cell(f_p) > 0
        with pytest.raises(NumericError, match="stopband.*attenuation"):
            integrate_gain(net, curve, (f_p, 100e-6),
                           np.array([f_p - 0.5e9, f_p - 0.3e9]))

    @pytest.mark.parametrize("signals, message", [
        ([5e9, math.nan, 5.5e9, 6e9], "finite"),
        ([7e9, 5e9, 6e9, 5.5e9, 6.5e9], "increase strictly"),
        ([5e9, 5.5e9, 5.5e9, 6e9], "increase strictly"),
    ], ids=["nan", "unordered", "repeated"])
    def test_bad_signal_arrays_refused(self, small_fishbone, signals,
                                       message):
        # a NaN signal was dropped with the pump point, and an unordered
        # grid was smoothed in array order
        net, curve = small_fishbone
        with pytest.raises(ValueError, match=message):
            signal_frequencies(np.array(signals), 6.22e9)
        with pytest.raises(ValueError, match=message):
            integrate_gain(net, curve, (6.22e9, 100e-6), np.array(signals))

    def test_stopband_curve_must_be_the_dispersion_curve(self, small_fishbone):
        net, curve = small_fishbone
        f = np.array([5.6e9, 6.8e9])
        pump = (6.22e9, 100e-6)
        same = integrate_gain(net, curve, pump, f, stopband_curve=curve)
        assert same_bits(same.gain_db,
                         integrate_gain(net, curve, pump, f).gain_db)
        other = dataclasses.replace(curve)
        with pytest.raises(ValueError, match="stopband_curve"):
            integrate_gain(net, curve, pump, f, stopband_curve=other)


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
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
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

    @pytest.mark.parametrize("device", ["small_fishbone", "small_leaf"])
    def test_two_modes_match_the_four_mode_scan(self, request, device):
        # dropping the zero signal and idler changes the error norm and the
        # RHS's rounding, not the solution: measured 5.4e-9 (fishbone) and
        # 1.2e-8 (leaf) of peak p_third apart, and 1.8e-10 and 5.9e-10 of
        # the pump power
        net, curve = request.getfixturevalue(device)
        pump = PUMPS[device]
        scan = third_harmonic_scan(net, curve, pump)
        z, p_pump, p_third = reference_harmonic_scan(net, curve, pump)
        assert same_bits(scan.z_cells, z)
        assert np.max(np.abs(scan.p_third - p_third)) <= 1e-7 * np.max(p_third)
        assert np.max(np.abs(scan.p_pump - p_pump)) <= 1e-7 * pump[1]

    @pytest.mark.parametrize("device", ["small_fishbone", "small_leaf",
                                        "fishbone-paper", "leaf-paper-gain"])
    def test_within_1e_7_of_a_tight_solve(self, request, device):
        # measured 3.3e-9, 9.4e-9, 4.3e-9 and 1.2e-8 of peak p_third, in
        # the order of the parameters; the four-mode scan is 3.9e-9,
        # 1.3e-8, 5.8e-9 and 1.8e-8 off
        if device in PUMPS:
            net, curve = request.getfixturevalue(device)
            pump, options = PUMPS[device], IntegrationOptions()
        else:
            cfg, net, curve = preset(device)
            pump, options = cfg.pump, cfg.integrator
        scan = third_harmonic_scan(net, curve, pump, options)
        tight = third_harmonic_scan(net, curve, pump,
                                    dataclasses.replace(options, rtol=1e-13))
        assert np.max(tight.p_third) > 1e-3 * pump[1]
        assert np.max(np.abs(scan.p_third - tight.p_third)) <= \
            1e-7 * np.max(tight.p_third)

    def test_harmonic_grows_monotonically_without_mismatch(self):
        net = uniform_line(FISH_CELL, 2000)
        f = np.linspace(0.1e9, 26e9, 1001)
        k_lin = f * 2 * np.pi * np.sqrt(50e-12 * 20e-15)
        flat = DispersionCurve(f, k_lin, np.zeros_like(f),
                               np.zeros(f.size, dtype=bool), 1)
        scan = third_harmonic_scan(net, flat, (6e9, 100e-6))
        assert scan.p_third[-1] == np.max(scan.p_third)
        assert np.all(np.diff(scan.p_third) >= -1e-20)

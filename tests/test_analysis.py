from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from kitwpa.analysis import (
    GainMetrics,
    _smooth,
    OperatingPoint,
    SweepAxis,
    calibrate_istar,
    compare_designs,
    gain_metrics,
    metrics_report_rows,
    simulate_gain,
    sweep,
    sweep_csv_rows,
)
from kitwpa.circuit import (
    FishboneSpec,
    LeafSpec,
    NonlinearInductorSpec,
    ResonatorSpec,
    UnitCellSpec,
)
from kitwpa.dispersion import FrequencyGrid
from kitwpa.errors import NumericError
from kitwpa.fwm import GainProfile

FISH_CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
SMALL_FISHBONE = FishboneSpec(base_cell=FISH_CELL, num_periods=90)
DISP_GRID = FrequencyGrid(0.1e9, 26e9, 8001)
PARITY_FISHBONE = FishboneSpec(base_cell=FISH_CELL, num_periods=30)
PARITY_LEAF = LeafSpec(
    base_cell=UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3), 116e-15),
    cells_per_block_period=60, resonator=ResonatorSpec(6.2e9, 70.0),
    num_blocks=3)


def synthetic_profile(f, gain_db, f_p=6e9, p_p=100e-6):
    n = len(f)
    return GainProfile(
        frequencies=np.asarray(f, dtype=float),
        gain_db=np.asarray(gain_db, dtype=float),
        pump_frequency=f_p,
        pump_power=p_p,
        delta_k_linear=np.zeros(n),
        delta_k_total=np.zeros(n),
        in_stopband=np.zeros(n, dtype=bool),
        i_star=10e-3,
    )


class TestGainMetrics:
    def test_flat_15db_profile(self):
        f = np.linspace(4.5e9, 7.5e9, 3001)
        m = gain_metrics(synthetic_profile(f, np.full(f.size, 15.0)))
        df = f[1] - f[0]
        assert m.peak_gain_db == pytest.approx(15.0, abs=1e-12)
        assert m.double_sided_bw_3db_hz == pytest.approx(3e9, abs=2 * df)
        assert m.ripple_db == 0.0
        assert m.dip_frequencies_hz == ()

    def test_frequency_shift_invariance(self):
        f = np.linspace(4.0e9, 8.0e9, 2001)
        rng = np.random.default_rng(7)
        g = 12.0 + 2.0 * np.sin(f / 2e8) + 0.3 * rng.standard_normal(f.size)
        m0 = gain_metrics(synthetic_profile(f, g, f_p=6e9))
        m1 = gain_metrics(synthetic_profile(f + 5e9, g, f_p=11e9))
        assert m1.peak_gain_db == pytest.approx(m0.peak_gain_db, abs=1e-12)
        assert m1.double_sided_bw_3db_hz == pytest.approx(
            m0.double_sided_bw_3db_hz, abs=1e-3)
        assert m1.ripple_db == pytest.approx(m0.ripple_db, abs=1e-12)
        assert m1.peak_frequency_hz == pytest.approx(
            m0.peak_frequency_hz + 5e9, abs=1.0)

    def test_low_profile_warns_zero_bandwidth(self):
        f = np.linspace(4e9, 8e9, 501)
        with pytest.warns(UserWarning, match="3 dB"):
            m = gain_metrics(synthetic_profile(f, np.full(f.size, 1.0)))
        assert m.double_sided_bw_3db_hz == 0.0

    def test_ripple_measures_deviation_from_smooth(self):
        f = np.linspace(5e9, 7e9, 2001)
        df = f[1] - f[0]
        # fast ripple (period 20 MHz << 100 MHz window) of +-1 dB on 15 dB
        g = 15.0 + 1.0 * np.sin(2 * np.pi * f / 20e6)
        m = gain_metrics(synthetic_profile(f, g))
        assert m.ripple_db == pytest.approx(1.0, rel=0.1)

    @pytest.mark.parametrize("points", [2, 3, 100, 101])
    def test_smooth_keeps_profile_length(self, points):
        # a 100 MHz window over a 50 MHz grid is longer than the profile
        f = np.linspace(6.0e9, 6.05e9, points)
        g = np.linspace(1.0, 2.0, points)
        smooth = _smooth(f, g, 100e6)
        assert smooth.shape == g.shape
        assert np.all((smooth >= 1.0) & (smooth <= 2.0))

    def test_smoothing_window_override(self):
        f = np.linspace(5e9, 7e9, 2001)
        g = 15.0 + 1.0 * np.sin(2 * np.pi * f / 20e6)
        m = gain_metrics(synthetic_profile(f, g), smoothing_window_hz=1.0)
        assert m.ripple_db == 0.0  # no smoothing, no residual


class TestSimulateGain:
    def test_pipeline_returns_consistent_objects(self):
        grid = np.linspace(5.2e9, 7.2e9, 101)  # contains the pump point
        profile, metrics, stopbands = simulate_gain(
            SMALL_FISHBONE, (6.22e9, 100e-6), grid, DISP_GRID)
        assert profile.frequencies.size == 100  # pump excluded
        assert 6.22e9 not in profile.frequencies
        assert metrics.peak_gain_db > 0
        assert len(stopbands.bands_in(6e9, 8e9)) == 1

    def test_dips_reported_near_stopband_and_mirror(self):
        grid = np.linspace(4.4e9, 8.02e9, 301)
        profile, metrics, stopbands = simulate_gain(
            SMALL_FISHBONE, (6.22e9, 100e-6), grid, DISP_GRID)
        narrow = stopbands.bands_in(6e9, 8e9)[0]
        mirror = 2 * 6.22e9 - narrow.center
        dips = np.array(metrics.dip_frequencies_hz)
        assert np.any(np.abs(dips - narrow.center) < 0.3e9)
        assert np.any(np.abs(dips - mirror) < 0.3e9)


class TestCalibration:
    def test_peak_monotone_decreasing_in_istar(self):
        from kitwpa.analysis import design_with_istar
        grid = np.linspace(5.7e9, 6.7e9, 41)
        peaks = []
        for istar in (8e-3, 12e-3, 18e-3):
            d = design_with_istar(SMALL_FISHBONE, istar)
            _, m, _ = simulate_gain(d, (6.22e9, 100e-6), grid, DISP_GRID)
            peaks.append(m.peak_gain_db)
        assert peaks[0] > peaks[1] > peaks[2]

    def test_calibration_hits_target(self):
        grid = np.linspace(5.7e9, 6.7e9, 41)
        res = calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0, grid,
                              DISP_GRID)
        assert res.residual_db < 0.1
        assert res.metrics.peak_gain_db == pytest.approx(6.0, abs=0.1)
        assert 1e-3 < res.i_star < 100e-3
        # the probes share one linear setup; the result is still exactly
        # the gain of the design at the returned I*
        from kitwpa.analysis import design_with_istar, expand_design
        from kitwpa.dispersion import device_dispersion
        from kitwpa.fwm import integrate_gain
        net = expand_design(design_with_istar(SMALL_FISHBONE, res.i_star))
        curve = device_dispersion(net, DISP_GRID)
        direct = integrate_gain(net, curve, (6.22e9, 100e-6), grid,
                                stopband_curve=curve)
        assert np.array_equal(res.profile.gain_db, direct.gain_db)
        assert np.array_equal(res.profile.delta_k_total, direct.delta_k_total)
        assert res.profile.i_star == direct.i_star

    def test_calibration_deterministic(self):
        grid = np.linspace(5.7e9, 6.7e9, 41)
        a = calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0, grid,
                            DISP_GRID)
        b = calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0, grid,
                            DISP_GRID)
        assert a.i_star == b.i_star  # bit-identical

    def test_degenerate_zero_target_rejected(self):
        grid = np.linspace(5.7e9, 6.7e9, 21)
        with pytest.raises(NumericError, match="achievable range"):
            calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 0.0, grid,
                            DISP_GRID)

    def test_zero_pump_rejected(self):
        with pytest.raises(ValueError):
            calibrate_istar(SMALL_FISHBONE, (6.22e9, 0.0), 15.0,
                            np.linspace(5.7e9, 6.7e9, 21), DISP_GRID)


class TestSweep:
    def test_single_point_axis_equals_direct_call(self):
        grid = np.linspace(5.7e9, 6.7e9, 31)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("pump_power", (100e-6,)), grid, DISP_GRID)
        _, direct, _ = simulate_gain(SMALL_FISHBONE, (6.22e9, 100e-6), grid,
                                     DISP_GRID)
        assert res.metrics["peak_gain_db"][0] == direct.peak_gain_db

    def test_power_sweep_asymptotically_linear_in_db(self):
        # pump just below the narrow stopband: peak gain in the exponential
        # regime grows linearly in P_p on a dB scale, bounded above by the
        # perfectly matched slope 2 * 8.686 * gamma * L dB per watt
        from kitwpa.analysis import expand_design
        from kitwpa.dispersion import device_dispersion, find_stopbands
        from kitwpa.fwm import kerr_coefficient

        net = expand_design(SMALL_FISHBONE)
        curve = device_dispersion(net, DISP_GRID)
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        f_p = narrow.f_low - 30e6
        grid = np.concatenate([
            np.linspace(f_p - 2.5e9, f_p - 0.35e9, 40),
            np.linspace(f_p + 0.35e9, f_p + 2.5e9, 40)])
        powers = (300e-6, 400e-6, 500e-6)
        res = sweep(SMALL_FISHBONE, (f_p, powers[0]),
                    SweepAxis("pump_power", powers), grid, DISP_GRID)
        g = np.array(res.metrics["peak_gain_db"])
        d1, d2 = g[1] - g[0], g[2] - g[1]
        assert d1 > 0 and d2 > 0
        assert abs(d2 - d1) < 0.25 * d1  # close to dB-linear
        gamma = kerr_coefficient(float(curve.k_cell(f_p)), 10e-3)
        bound = 2 * 8.686 * gamma.gamma * net.total_cells
        assert 0 < (g[2] - g[0]) / (powers[2] - powers[0]) <= bound

    def test_pump_placement_sweep_and_failure_recording(self):
        from kitwpa.analysis import expand_design
        from kitwpa.dispersion import device_dispersion, find_stopbands

        net = expand_design(SMALL_FISHBONE)
        curve = device_dispersion(net, DISP_GRID)
        narrow = find_stopbands(curve).bands_in(6e9, 8e9)[0]
        # last value sits inside the stopband and must fail but not abort
        fps = (narrow.f_low - 1.2e9, narrow.f_low - 0.5e9,
               narrow.f_low - 0.08e9, narrow.center)
        grid = np.linspace(4.8e9, 7.8e9, 61)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("pump_frequency", fps), grid, DISP_GRID)
        assert len(res.failures) == 1 and res.failures[0][:2] == (3, "NumericError")
        assert "stopband" in res.failures[0][2]
        g = np.array(res.metrics["peak_gain_db"][:3])
        # peak gain grows as the pump approaches the stopband from below
        assert g[2] == np.nanmax(g)

    def test_istar_axis_and_csv(self):
        grid = np.linspace(5.9e9, 6.5e9, 21)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("i_star", (10e-3, 14e-3)), grid, DISP_GRID)
        rows = sweep_csv_rows(res)
        assert rows[0].startswith("i_star,peak_gain_db")
        assert len(rows) == 3

    def test_programming_error_propagates(self):
        # a TypeError is a bug, not a failing operating point
        with pytest.raises(TypeError):
            sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                  SweepAxis("num_periods", (90, None)),
                  np.linspace(5.7e9, 6.7e9, 11), DISP_GRID)

    def test_integer_field_takes_integral_floats(self):
        # a config gives every sweep value as a float
        grid = np.linspace(5.7e9, 6.7e9, 11)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("num_periods", (np.float64(90.0), 90.5)),
                    grid, DISP_GRID)
        _, direct, _ = simulate_gain(SMALL_FISHBONE, (6.22e9, 100e-6), grid,
                                     DISP_GRID)
        assert res.metrics["peak_gain_db"][0] == direct.peak_gain_db
        assert res.failures == (
            (1, "ValueError", "num_periods must be an integer, got 90.5"),)

    @pytest.mark.parametrize("design, pump, axis, rebuilds", [
        (PARITY_FISHBONE, (6.22e9, 100e-6),
         SweepAxis("pump_power", (60e-6, 100e-6, 60e-6)), (1, 1)),
        (PARITY_FISHBONE, (6.22e9, 100e-6),
         SweepAxis("i_star", (9e-3, 12e-3)), (1, 1)),
        (PARITY_FISHBONE, (6.22e9, 100e-6),
         SweepAxis("pump_frequency", (6.0e9, 6.22e9)), (1, 2)),
        (PARITY_FISHBONE, (6.22e9, 100e-6),
         SweepAxis("num_periods", (30, 33)), (2, 2)),
        (PARITY_LEAF, (5.92e9, 60e-6),
         SweepAxis("pump_power", (40e-6, 60e-6)), (1, 1)),
        (PARITY_LEAF, (5.92e9, 60e-6),
         SweepAxis("i_star", (9e-3, 12e-3)), (1, 1)),
        (PARITY_LEAF, (5.92e9, 60e-6),
         SweepAxis("pump_frequency", (5.85e9, 5.92e9)), (1, 2)),
        (PARITY_LEAF, (5.92e9, 60e-6),
         SweepAxis("num_blocks", (3, 4)), (2, 2)),
    ], ids=[f"{d}-{a}" for d in ("fishbone", "leaf")
            for a in ("pump_power", "i_star", "pump_frequency", "design_field")])
    def test_shared_points_equal_fresh_points(self, monkeypatch, design, pump,
                                              axis, rebuilds):
        # points that share the expanded device or the pumped line give the
        # numbers of a fresh simulate_gain, bit for bit
        import kitwpa.analysis as analysis
        from kitwpa.analysis import _apply_parameter

        calls = {"expand": 0, "prepare": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        names = ("peak_gain_db", "peak_frequency_hz",
                 "double_sided_bw_3db_hz", "ripple_db")
        grid = np.linspace(pump[0] - 0.6e9, pump[0] + 0.6e9, 13)
        disp = FrequencyGrid(0.1e9, 26e9, 2001)
        with monkeypatch.context() as m:
            m.setattr(analysis, "expand_design",
                      counting("expand", analysis.expand_design))
            m.setattr(analysis, "prepare_line",
                      counting("prepare", analysis.prepare_line))
            res = sweep(design, pump, axis, grid, disp, metric_names=names)
        assert (calls["expand"], calls["prepare"]) == rebuilds
        assert not res.failures
        for i, v in enumerate(axis.values):
            d, p = _apply_parameter(design, pump, axis.parameter, v)
            _, fresh, _ = simulate_gain(d, p, grid, disp)
            for name in names:
                assert res.metrics[name][i] == getattr(fresh, name)

    @pytest.mark.parametrize("design", [SMALL_FISHBONE, PARITY_LEAF],
                             ids=["fishbone", "leaf"])
    def test_accepts_the_pump_i_star_and_the_spec_scalar_fields(self, design):
        def scalars(spec):
            return {f.name for f in fields(spec)
                    if not is_dataclass(getattr(spec, f.name))}

        expected = {"pump_frequency", "pump_power", "i_star"} | scalars(design)
        if isinstance(design, LeafSpec):
            expected |= scalars(design.resonator)
        names = expected | {f.name for spec in (FishboneSpec, LeafSpec,
                                                ResonatorSpec, UnitCellSpec,
                                                NonlinearInductorSpec)
                            for f in fields(spec)}
        accepted = set()
        for name in names:
            try:
                # an empty axis checks the parameter and solves nothing
                sweep(design, (6.22e9, 100e-6), SweepAxis(name, ()),
                      np.linspace(5.7e9, 6.7e9, 11), DISP_GRID)
            except ValueError as exc:
                assert "unknown sweep parameter" in str(exc)
            else:
                accepted.add(name)
        assert accepted == expected

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameter"):
            sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                  SweepAxis("bogus", (1.0,)), np.linspace(5e9, 7e9, 11),
                  DISP_GRID)

    def test_resonator_field_sweep_on_leaf(self):
        from kitwpa.circuit import LeafSpec, ResonatorSpec
        leaf = LeafSpec(
            base_cell=UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3),
                                   116e-15),
            resonator=ResonatorSpec(6.2e9, 70.0), num_blocks=4)
        grid = np.linspace(4.6e9, 5.6e9, 17)
        res = sweep(leaf, (5.92e9, 60e-6),
                    SweepAxis("resonant_frequency", (6.2e9, 6.35e9)),
                    grid, FrequencyGrid(0.1e9, 20e9, 4001))
        assert not res.failures
        assert all(np.isfinite(v) for v in res.metrics["peak_gain_db"])


class TestCompareDesigns:
    def op(self, label="a", **kw):
        defaults = dict(pump_frequency=6.22e9, pump_power=100e-6,
                        i_star=13e-3, total_cells=24992,
                        k_cell_at_pump=0.0391)
        defaults.update(kw)
        return OperatingPoint(label=label, **defaults)

    def metrics(self, **kw):
        defaults = dict(peak_gain_db=15.0, peak_frequency_hz=6.2e9,
                        double_sided_bw_3db_hz=1.6e9, ripple_db=0.4,
                        dip_frequencies_hz=(4.5e9, 7.95e9))
        defaults.update(kw)
        return GainMetrics(**defaults)

    def test_identical_inputs_zero_deltas(self):
        m, o = self.metrics(), self.op()
        rep = compare_designs(m, o, m, self.op(label="b"))
        for _, a, b in rep.rows:
            assert a == b

    def test_derived_quantities(self):
        rep = compare_designs(self.metrics(), self.op(),
                              self.metrics(), self.op(label="b"))
        d = rep.as_dict()
        assert d["electrical_length_wavelengths"]["a"] == pytest.approx(
            24992 * 0.0391 / (2 * np.pi))
        assert d["nonlinearity_level"]["a"] == pytest.approx(
            100e-6 / (50.0 * (13e-3) ** 2))

    def test_format_renders_table(self):
        rep = compare_designs(self.metrics(), self.op("fishbone"),
                              self.metrics(), self.op("leaf"))
        text = rep.format()
        assert "fishbone" in text and "leaf" in text
        assert "pump_power_w" in text

    def test_metrics_report_rows(self):
        text, csv = metrics_report_rows(self.metrics(), self.op())
        assert any(line.startswith("peak_gain_db") for line in text)
        assert csv[0].split(",")[0] == "peak_gain_db"
        assert len(csv) == 2

    def test_artificial_line_vs_cpw_parameter_model(self):
        # CPW-parameter stand-in: 200 ohm uniform line, ~400 wavelengths at
        # 6 GHz, operated at its published 200 uW; the 50 ohm loaded line is
        # operated at 100 uW.  At matched 15 dB the pump-power ratio lands
        # in the 2-3x range and the artificial line runs at a higher
        # nonlinearity level.
        from kitwpa.analysis import expand_design
        from kitwpa.dispersion import device_dispersion

        cpw_cell = UnitCellSpec(NonlinearInductorSpec(400e-12, 10e-3), 10e-15)
        k_cpw = 2 * np.pi * 6e9 * np.sqrt(400e-12 * 10e-15)
        n_cells = int(round(400 * 2 * np.pi / k_cpw))
        cpw = FishboneSpec(base_cell=cpw_cell, cells_per_period=2,
                           loaded_cells=0, loaded_cells_every_third=0,
                           num_periods=n_cells // 2)
        grid = np.linspace(5.0e9, 7.0e9, 51)
        cal_cpw = calibrate_istar(cpw, (6e9, 200e-6), 15.0, grid,
                                  FrequencyGrid(0.1e9, 20e9, 2001))

        fishbone = FishboneSpec(base_cell=FISH_CELL, num_periods=1136)
        cal_fb = calibrate_istar(fishbone, (6.22e9, 100e-6), 15.0,
                                 np.linspace(5.5e9, 7.0e9, 51), DISP_GRID)

        ratio = 200e-6 / 100e-6
        assert 2.0 <= ratio <= 3.0

        net_fb = expand_design(fishbone)
        net_cpw = expand_design(cpw)
        curve_fb = device_dispersion(net_fb, DISP_GRID)
        curve_cpw = device_dispersion(net_cpw, FrequencyGrid(0.1e9, 20e9, 2001))
        op_fb = OperatingPoint("fishbone", 6.22e9, 100e-6, cal_fb.i_star,
                               net_fb.total_cells,
                               float(curve_fb.k_cell(6.22e9)))
        op_cpw = OperatingPoint("cpw", 6e9, 200e-6, cal_cpw.i_star,
                                net_cpw.total_cells,
                                float(curve_cpw.k_cell(6e9)), z0=200.0)
        rep = compare_designs(cal_fb.metrics, op_fb, cal_cpw.metrics, op_cpw)
        d = rep.as_dict()
        assert d["electrical_length_wavelengths"]["cpw"] == pytest.approx(400, rel=0.02)
        assert d["electrical_length_wavelengths"]["fishbone"] == pytest.approx(150, rel=0.05)
        # shorter phase length at equal gain -> higher drive nonlinearity
        assert d["nonlinearity_level"]["fishbone"] > 1.5 * d["nonlinearity_level"]["cpw"]

import math
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

import kitwpa.analysis
from kitwpa.analysis import (
    GainMetrics,
    _median_step,
    _smooth,
    OperatingPoint,
    SweepAxis,
    _GainPipeline,
    brentq,
    calibrate_istar,
    expand_design,
    gain_metrics,
    sweep,
)
from kitwpa.circuit import (
    FishboneSpec,
    LeafSpec,
    NonlinearInductorSpec,
    ResonatorSpec,
    UnitCellSpec,
)
from kitwpa.config import load_config
from kitwpa.dispersion import (
    FrequencyGrid,
    Stopband,
    device_dispersion,
    find_stopbands,
)
from kitwpa.errors import NumericError
from kitwpa.fwm import GainProfile, integrate_gain, signal_frequencies
from kitwpa.runner import _metrics_rows, _sweep_rows

FISH_CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
SMALL_FISHBONE = FishboneSpec(base_cell=FISH_CELL, num_periods=90)
DISP_GRID = FrequencyGrid(0.1e9, 26e9, 8001)
PARITY_FISHBONE = FishboneSpec(base_cell=FISH_CELL, num_periods=30)
PARITY_LEAF = LeafSpec(
    base_cell=UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3), 116e-15),
    cells_per_block_period=60, resonator=ResonatorSpec(6.2e9, 70.0),
    num_blocks=3)
PRESETS = Path(kitwpa.analysis.__file__).parent / "presets"


def pipeline_gain(design, pump, signal_grid, dispersion_grid, options=None,
                  dip_exclusion_width_hz=None):
    """(profile, metrics, stopbands) of a design through one gain pipeline."""
    pipeline = _GainPipeline(expand_design(design), dispersion_grid,
                             signal_grid, options, dip_exclusion_width_hz)
    profile, metrics = pipeline(design.base_cell.inductor.i_star, pump)
    return profile, metrics, pipeline.stopbands


def fresh_gain(design, pump, signal_grid, dispersion_grid):
    """(profile, metrics) of a design from a fresh expand_design,
    device_dispersion, integrate_gain and gain_metrics."""
    net = expand_design(design)
    curve = device_dispersion(net, dispersion_grid)
    profile = integrate_gain(net, curve, pump, signal_grid)
    return profile, gain_metrics(profile, find_stopbands(curve))


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

    @pytest.mark.parametrize("raised", ["lower", "upper"])
    def test_mirror_peaks_report_the_lower_frequency(self, raised):
        # two lobes mirrored about the pump; either raised by 1e-15 dB, as
        # rounding raises one of a preset's mirror signals, the peak is the
        # lower one.  A sub-step window leaves the curve unsmoothed
        f = np.linspace(5.0e9, 7.0e9, 201)
        g = 15.0 - ((np.abs(f - 6e9) - 0.4e9) / 0.2e9) ** 2
        lower, upper = np.flatnonzero(g == g.max())
        assert f[lower] + f[upper] == 12e9
        g[lower if raised == "lower" else upper] += 1e-15
        assert g[lower] != g[upper]
        m = gain_metrics(synthetic_profile(f, g, f_p=6e9),
                         smoothing_window_hz=1.0)
        assert m.peak_frequency_hz == f[lower]
        assert m.peak_gain_db == g.max()
        # with the default window the smoothed mirror peaks tie or nearly so
        assert gain_metrics(synthetic_profile(f, g, f_p=6e9)
                            ).peak_frequency_hz == f[lower]

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
        smooth = _smooth(g, _median_step(f), 100e6)
        assert smooth.shape == g.shape
        assert np.all((smooth >= 1.0) & (smooth <= 2.0))

    @pytest.mark.parametrize("f", [
        np.array([1.0, 2.0]),
        np.array([0.0, 1.0, 3.0]),
        np.array([0.0, 1.0, 3.0, 3.5]),
        np.array([5.0, 1.0, 4.0, 4.0, -2.0, 7.5]),       # unsorted steps
        np.cumsum(np.random.default_rng(3).uniform(0.5, 2.0, 1000)),
        np.cumsum(np.random.default_rng(4).normal(0.0, 1.0, 1001)),
        np.delete(np.linspace(4.42e9, 8.02e9, 2000), 999),   # a pump point
    ], ids=["2-points", "3-points", "4-points", "unsorted", "odd-count",
            "even-count", "grid-with-gap"])
    def test_median_step_is_numpy_median_bitwise(self, f):
        want = float(np.median(np.diff(f)))
        assert np.float64(_median_step(f)).view(np.uint64) == \
            np.float64(want).view(np.uint64)

    def test_median_step_of_preset_signal_grids(self):
        # the presets' signal grids with their pump point dropped, as
        # gain_metrics receives them
        for path in sorted(PRESETS.glob("*.cfg")):
            cfg = load_config(path)
            f = signal_frequencies(cfg.signal_grid, cfg.pump[0])
            want = float(np.median(np.diff(f)))
            assert np.float64(_median_step(f)).view(np.uint64) == \
                np.float64(want).view(np.uint64)

    def test_smoothing_window_override(self):
        f = np.linspace(5e9, 7e9, 2001)
        g = 15.0 + 1.0 * np.sin(2 * np.pi * f / 20e6)
        m = gain_metrics(synthetic_profile(f, g), smoothing_window_hz=1.0)
        assert m.ripple_db == 0.0  # no smoothing, no residual

    def test_exclusions_covering_the_grid_are_numeric_error(self):
        # a 4 GHz stopband centred on the pump: it and its mirror about the
        # pump coincide, and their one merged zone covers the whole 5-7 GHz
        # signal grid
        f = np.linspace(5e9, 7e9, 201)
        band = Stopband(4e9, 8e9, 6e9, 1.0)
        with pytest.raises(NumericError, match=r"1 exclusion zone\(s\) about "
                           r"the pump at 6e\+09 Hz"):
            gain_metrics(synthetic_profile(f, np.full(f.size, 15.0), f_p=6e9),
                         (band,))


class TestGainPipeline:
    def test_pipeline_returns_consistent_objects(self):
        grid = np.linspace(5.2e9, 7.2e9, 101)  # contains the pump point
        profile, metrics, stopbands = pipeline_gain(
            SMALL_FISHBONE, (6.22e9, 100e-6), grid, DISP_GRID)
        assert profile.frequencies.size == 100  # pump excluded
        assert 6.22e9 not in profile.frequencies
        assert metrics.peak_gain_db > 0
        assert len([b for b in stopbands if 6e9 <= b.center <= 8e9]) == 1

    def test_dips_reported_near_stopband_and_mirror(self):
        grid = np.linspace(4.4e9, 8.02e9, 301)
        profile, metrics, stopbands = pipeline_gain(
            SMALL_FISHBONE, (6.22e9, 100e-6), grid, DISP_GRID)
        narrow = next(b for b in stopbands if 6e9 <= b.center <= 8e9)
        mirror = 2 * 6.22e9 - narrow.center
        dips = np.array(metrics.dip_frequencies_hz)
        assert np.any(np.abs(dips - narrow.center) < 0.3e9)
        assert np.any(np.abs(dips - mirror) < 0.3e9)

    def test_leaf_dips_distinct_and_increasing(self):
        # the leaf's Bragg gaps, guards and idler mirrors overlap; one dip
        # per merged zone leaves no repeat and none out of order
        cfg = load_config(PRESETS / "leaf-paper-gain.cfg")
        _, metrics, stopbands = pipeline_gain(
            cfg.design, cfg.pump, cfg.signal_grid, cfg.frequency_grid,
            cfg.integrator, cfg.dip_exclusion_width_hz)
        dips = np.array(metrics.dip_frequencies_hz)
        assert len(stopbands) > dips.size > 1
        assert np.all(np.diff(dips) > 0)


class TestCalibration:
    def test_peak_monotone_decreasing_in_istar(self):
        from kitwpa.analysis import design_with_istar
        grid = np.linspace(5.7e9, 6.7e9, 41)
        peaks = []
        for istar in (8e-3, 12e-3, 18e-3):
            d = design_with_istar(SMALL_FISHBONE, istar)
            _, m = fresh_gain(d, (6.22e9, 100e-6), grid, DISP_GRID)
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
        from kitwpa.analysis import design_with_istar
        direct, _ = fresh_gain(design_with_istar(SMALL_FISHBONE, res.i_star),
                               (6.22e9, 100e-6), grid, DISP_GRID)
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

    @pytest.mark.parametrize("kwargs, message", [
        (dict(tol_db=0.0), "tolerance_db"),
        (dict(bracket=(0.2, 0.1)), "bracket_low"),
        (dict(bracket=(-1.0, 0.1)), "bracket_low"),
    ], ids=["zero-tolerance", "bracket-low-above-high", "negative-bracket"])
    def test_spec_checks_the_arguments(self, kwargs, message):
        # the same check as a config's calibration section, before any solve
        with pytest.raises(ValueError, match=message):
            calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0,
                            np.linspace(5.7e9, 6.7e9, 21), DISP_GRID,
                            **kwargs)


class TestBrentq:
    """The ported root finder against scipy.optimize.brentq, its oracle."""

    @pytest.mark.parametrize("f, a, b", [
        (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
        (lambda x: math.cos(x) - x, 0.0, 1.0),
    ], ids=["cubic", "cos-fixed-point"])
    @pytest.mark.parametrize("xtol, rtol", [
        (2e-12, 4 * np.finfo(float).eps), (1e-8, 1e-12), (1e-3, 1e-6)])
    def test_closed_form_root_bitwise_equal_to_scipy(self, f, a, b, xtol, rtol):
        from scipy.optimize import brentq as reference

        root = brentq(f, a, b, xtol, rtol)
        assert type(root) is float
        assert root.hex() == reference(f, a, b, xtol=xtol, rtol=rtol).hex()

    def test_calibration_root_bitwise_equal_to_scipy(self, monkeypatch):
        from scipy.optimize import brentq as reference

        grid = np.linspace(5.7e9, 6.7e9, 41)
        ours = calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0, grid,
                               DISP_GRID)
        monkeypatch.setattr(kitwpa.analysis, "brentq", reference)
        ref = calibrate_istar(SMALL_FISHBONE, (6.22e9, 100e-6), 6.0, grid,
                              DISP_GRID)
        assert ours.i_star.hex() == ref.i_star.hex()

    def test_nan_and_no_convergence_are_numeric_errors(self):
        with pytest.raises(NumericError, match="NaN"):
            brentq(lambda x: math.nan if x > 2.5 else x - 2.7, 2.0, 3.0,
                   1e-12, 1e-12)
        with pytest.raises(NumericError, match="did not converge"):
            brentq(lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-12, 1e-12,
                   maxiter=2)

    def test_same_sign_rejected(self):
        with pytest.raises(ValueError, match="different signs"):
            brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12, 1e-12)


class TestSweep:
    def test_single_point_axis_equals_direct_call(self):
        grid = np.linspace(5.7e9, 6.7e9, 31)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("pump_power", (100e-6,)), grid, DISP_GRID)
        _, direct = fresh_gain(SMALL_FISHBONE, (6.22e9, 100e-6), grid,
                               DISP_GRID)
        assert res.metrics["peak_gain_db"][0] == direct.peak_gain_db

    def test_power_sweep_asymptotically_linear_in_db(self):
        # pump just below the narrow stopband: peak gain in the exponential
        # regime grows linearly in P_p on a dB scale, bounded above by the
        # perfectly matched slope 2 * 8.686 * gamma * L dB per watt
        from kitwpa.fwm import kerr_coefficient

        net = expand_design(SMALL_FISHBONE)
        curve = device_dispersion(net, DISP_GRID)
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
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
        bound = 2 * 8.686 * gamma * net.total_cells
        assert 0 < (g[2] - g[0]) / (powers[2] - powers[0]) <= bound

    def test_pump_placement_sweep_and_failure_recording(self):
        net = expand_design(SMALL_FISHBONE)
        curve = device_dispersion(net, DISP_GRID)
        narrow = next(b for b in find_stopbands(curve) if 6e9 <= b.center <= 8e9)
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

    def test_fully_excised_point_is_recorded_as_numeric_error(self):
        grid = np.linspace(5.9e9, 6.5e9, 21)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("i_star", (10e-3,)), grid, DISP_GRID,
                    dip_exclusion_width_hz=100e9)
        assert res.failures[0][:2] == (0, "NumericError")
        assert "dip exclusions removed the whole profile" in res.failures[0][2]

    def test_point_off_the_dispersion_grid_is_recorded_as_numeric_error(self):
        # pumped at 6.6 GHz, the idlers of 5.9-6.5 GHz signals reach 7.3 GHz,
        # past the grid, where k and alpha used to be the grid's end values
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("pump_frequency", (6.22e9, 6.6e9)),
                    np.linspace(5.9e9, 6.5e9, 21), FrequencyGrid(0.1e9, 7e9, 2001))
        assert [f[:2] for f in res.failures] == [(1, "NumericError")]
        assert "5.90-7.30 GHz needed" in res.failures[0][2]
        assert "extend analysis.frequency_grid" in res.failures[0][2]
        assert not math.isnan(res.metrics["peak_gain_db"][0])
        assert math.isnan(res.metrics["peak_gain_db"][1])

    def test_istar_axis_and_csv(self):
        grid = np.linspace(5.9e9, 6.5e9, 21)
        res = sweep(SMALL_FISHBONE, (6.22e9, 100e-6),
                    SweepAxis("i_star", (10e-3, 14e-3)), grid, DISP_GRID)
        rows = b"".join(_sweep_rows(res)).decode().splitlines()
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
        _, direct = fresh_gain(SMALL_FISHBONE, (6.22e9, 100e-6), grid,
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
        # numbers of a fresh expand_design, device_dispersion,
        # integrate_gain and gain_metrics, bit for bit
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
            _, fresh = fresh_gain(d, p, grid, disp)
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
    def op(self):
        return OperatingPoint(pump_frequency=6.22e9, pump_power=100e-6,
                              i_star=13e-3, total_cells=24992,
                              k_cell_at_pump=0.0391)

    def metrics(self, **kw):
        defaults = dict(peak_gain_db=15.0, peak_frequency_hz=6.2e9,
                        double_sided_bw_3db_hz=1.6e9, ripple_db=0.4,
                        dip_frequencies_hz=(4.5e9, 7.95e9))
        defaults.update(kw)
        return GainMetrics(**defaults)

    def test_derived_quantities(self):
        op = self.op()
        assert op.electrical_length_wavelengths == pytest.approx(
            24992 * 0.0391 / (2 * np.pi))
        assert op.nonlinearity_level == pytest.approx(
            100e-6 / (50.0 * (13e-3) ** 2))

    def test_metrics_report_rows(self):
        text, csv = (b"".join(chunks).decode().splitlines()
                     for chunks in _metrics_rows(self.metrics(), self.op()))
        assert any(line.startswith("peak_gain_db") for line in text)
        assert csv[0].split(",")[0] == "peak_gain_db"
        assert len(csv) == 2

    def test_artificial_line_vs_cpw_parameter_model(self):
        # CPW-parameter stand-in: 200 ohm uniform line, ~400 wavelengths at
        # 6 GHz, operated at its published 200 uW; the 50 ohm loaded line is
        # operated at 100 uW.  At matched 15 dB the pump-power ratio lands
        # in the 2-3x range and the artificial line runs at a higher
        # nonlinearity level.
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
        op_fb = OperatingPoint(6.22e9, 100e-6, cal_fb.i_star,
                               net_fb.total_cells,
                               float(curve_fb.k_cell(6.22e9)))
        op_cpw = OperatingPoint(6e9, 200e-6, cal_cpw.i_star,
                                net_cpw.total_cells,
                                float(curve_cpw.k_cell(6e9)), z0=200.0)
        assert op_cpw.electrical_length_wavelengths == pytest.approx(400, rel=0.02)
        assert op_fb.electrical_length_wavelengths == pytest.approx(150, rel=0.05)
        # shorter phase length at equal gain -> higher drive nonlinearity
        assert op_fb.nonlinearity_level > 1.5 * op_cpw.nonlinearity_level

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
import kitwpa.dispersion as dispersion
from kitwpa.analysis import expand_design
from kitwpa.config import load_config
from kitwpa.dispersion import (
    TWO_PI,
    DispersionCurve,
    FrequencyGrid,
    Stopband,
    _unfold_bloch_phase,
    device_dispersion,
    find_stopbands,
    resonator_phase_shift,
    uniform_cell_dispersion,
)
from kitwpa.errors import NumericError
from kitwpa.twoport import (TwoPortMatrix, network_matrix, to_s_parameters,
                            walk_period)

FISH_CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
LEAF_CELL = UnitCellSpec(NonlinearInductorSpec(290e-12, 10e-3), 116e-15)
PRESETS = Path(__file__).resolve().parents[1] / "src" / "kitwpa" / "presets"


@pytest.fixture(scope="module")
def fishbone_curve():
    net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL, num_periods=3))
    grid = FrequencyGrid(0.1e9, 26e9, 10_001)
    return device_dispersion(net, grid)


class TestUniformLadder:
    def test_low_frequency_phase_limit(self):
        # below f_c/20 the per-cell phase matches omega*sqrt(LC) within 1%
        fc = 318.3e9
        grid = FrequencyGrid(0.1e9, fc / 20, 2001)
        net = uniform_line(FISH_CELL, 1)
        curve = device_dispersion(net, grid)
        f = curve.frequencies
        telegrapher = 2 * np.pi * f * np.sqrt(50e-12 * 20e-15)
        rel = np.abs(curve.phase_per_period - telegrapher) / telegrapher
        assert np.max(rel) < 0.01

    def test_band_edge_at_cutoff(self):
        # first band edge of the ladder at 1/(pi*sqrt(LC)) within one step
        fc = 1 / (np.pi * np.sqrt(50e-12 * 20e-15))
        grid = FrequencyGrid(200e9, 400e9, 4001)
        curve = device_dispersion(uniform_line(FISH_CELL, 1), grid)
        edge = curve.frequencies[np.argmax(curve.in_stopband)]
        assert abs(edge - fc) <= grid.step

    def test_phase_pi_at_cutoff(self):
        fc = 1 / (np.pi * np.sqrt(50e-12 * 20e-15))
        grid = FrequencyGrid(fc * 0.999, fc * 1.001, 21)
        curve = device_dispersion(uniform_line(FISH_CELL, 1), grid)
        mid = np.searchsorted(curve.frequencies, fc)
        assert curve.phase_per_period[mid] == pytest.approx(np.pi, rel=1e-3)

    def test_no_stopbands_below_cutoff(self):
        grid = FrequencyGrid(0.1e9, 30e9, 2001)
        curve = device_dispersion(uniform_line(FISH_CELL, 1), grid)
        assert len(find_stopbands(curve)) == 0

    def test_closed_form_matches_matrix_path(self):
        grid = FrequencyGrid(0.1e9, 30e9, 501)
        numeric = device_dispersion(uniform_line(FISH_CELL, 1), grid)
        closed = uniform_cell_dispersion(50e-12, 20e-15, grid)
        assert np.allclose(numeric.phase_per_period, closed.phase_per_period,
                           atol=1e-9)


def reference_unfold(folded):
    """The unfold loop as first written: per-step candidate tuples and
    min(key=...), kept as the reference for the scalar walk."""
    out = np.empty_like(folded)
    out[0] = folded[0]
    m, descending = 0, False
    for i in range(1, folded.size):
        tf = folded[i]
        if not descending:
            cands = ((TWO_PI * m + tf, m, False), (TWO_PI * (m + 1) - tf, m, True))
        else:
            cands = ((TWO_PI * (m + 1) - tf, m, True), (TWO_PI * (m + 1) + tf, m + 1, False))
        ok = [c for c in cands if c[0] >= out[i - 1] - 1e-9]
        val, m, descending = min(ok or cands, key=lambda c: abs(c[0] - out[i - 1]))
        out[i] = val
    return out


# a fold value: anywhere in [0, pi], or one of the edge values the unfold
# must treat exactly as the loop does
FOLD_VALUES = st.one_of(
    st.floats(0.0, np.pi),
    st.sampled_from([0.0, -0.0, np.nan, np.pi, np.nextafter(np.pi, 4.0)]))


def real_fold(t):
    """The folded Bloch phase bloch_dispersion unfolds: arccos of the
    half-trace t clipped to [-1, 1]."""
    return np.arccos(np.clip(t, -1.0, 1.0))


def complex_route(t):
    """(folded phase, attenuation) from numpy's principal arccosh of the
    half-trace cast to complex with a +0 imaginary part: the reference for
    the real route."""
    gamma = np.arccosh(t.astype(complex))
    return gamma.imag, np.abs(gamma.real)


def preset_half_trace(name, grid=None):
    """The half-trace of a preset's period, on its own grid by default."""
    cfg = load_config(PRESETS / f"{name}.cfg")
    grid = grid or cfg.frequency_grid
    period, _ = walk_period(expand_design(cfg.design), grid.frequencies())
    return period.trace_half()


def preset_fold(name):
    """The folded Bloch phase of a preset's period on its own grid."""
    return real_fold(preset_half_trace(name))


class TestUnfold:
    def assert_matches_reference(self, folded):
        got = _unfold_bloch_phase(folded)
        assert got.dtype == np.float64 and got.shape == folded.shape
        assert np.array_equal(got.view(np.uint64),
                              reference_unfold(folded).view(np.uint64))

    @pytest.mark.parametrize("name", ["fishbone-paper", "leaf-paper-gain",
                                      "leaf-paper"])
    def test_preset_folds(self, name):
        for grid in (None, FrequencyGrid(1e9, 26e9, 3001)):
            t = preset_half_trace(name, grid)
            self.assert_matches_reference(real_fold(t))
            self.assert_matches_reference(complex_route(t)[0])

    def test_random_and_special_folds(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            self.assert_matches_reference(rng.uniform(0.0, np.pi, 500))
        # a folded sine, values on both sides of zero, ties and NaNs
        x = np.linspace(0.0, 40.0, 2001)
        self.assert_matches_reference(np.arccos(np.cos(x)))
        self.assert_matches_reference(np.array(
            [0.0, -0.0, 1e-12, -1e-3, np.pi, np.pi, 0.0, np.nan, 1.0, np.pi / 2,
             np.nan, np.nan, 3.0, 0.5, -0.0, np.pi]))

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(st.lists(st.tuples(FOLD_VALUES, st.integers(1, 4)),
                    min_size=1, max_size=40))
    def test_runs_signed_zeros_nans_and_pi_match_reference(self, runs):
        # runs of equal values, +-0.0, NaN runs and one ulp above pi
        values, counts = zip(*runs)
        self.assert_matches_reference(np.repeat(values, counts))

    @pytest.mark.parametrize("i", [2611, 3150, 3390, 4141, 4391])
    def test_leaf_turns_on_an_ulp_at_the_band_edge(self, i):
        # stepping from point i to the band edge at pi, both candidates are
        # ahead and equal but for the rounding of their branch offsets; the
        # descending one is nearer by those ulps, so the walk turns there
        fold = preset_fold("leaf-paper-gain")
        got = _unfold_bloch_phase(fold)
        m = int(got[i] // TWO_PI)
        ascending = TWO_PI * m + fold[i + 1]
        turned = TWO_PI * (m + 1) - fold[i + 1]
        assert fold[i + 1] == np.pi and ascending != turned
        assert got[i] <= turned < ascending
        assert got[i + 1] == turned == reference_unfold(fold)[i + 1]


class TestRealRoute:
    """bloch_dispersion on the real half-trace against the complex arccosh."""

    @pytest.mark.parametrize("name", ["fishbone-paper", "leaf-paper-gain",
                                      "leaf-paper"])
    def test_presets_match_the_complex_arccosh(self, name, monkeypatch):
        # measured: the folds differ by <= 4.44e-16 and are equal at 86-88 %
        # of the points; the attenuations differ by <= 2.2e-16 of
        # max(1, attenuation), 8.9e-16 at 7.4 nepers, and are equal at
        # 96-99 %
        cfg = load_config(PRESETS / f"{name}.cfg")
        grid = cfg.frequency_grid
        period, _ = walk_period(expand_design(cfg.design), grid.frequencies())
        t = period.trace_half()
        folds = []
        unfold = dispersion._unfold_bloch_phase
        monkeypatch.setattr(dispersion, "_unfold_bloch_phase",
                            lambda f: folds.append(f) or unfold(f))
        curve = dispersion.bloch_dispersion(period, grid, 1)
        fold, atten = complex_route(t)
        assert np.max(np.abs(folds[0] - fold)) <= 4.5e-16
        got = curve.attenuation_per_period
        assert np.all(np.abs(got - atten) <= 4.5e-16 * np.maximum(1.0, atten))
        assert np.array_equal(curve.in_stopband, atten > 0.0)
        assert curve.in_stopband.any()
        assert np.all(got[~curve.in_stopband] == 0.0)

    def test_nonfinite_period_refused_before_the_unfold(self, monkeypatch):
        def unfold(folded):
            raise AssertionError("a non-finite half-trace reached the unfold")

        monkeypatch.setattr(dispersion, "_unfold_bloch_phase", unfold)
        inf = np.inf
        # half-traces 1, nan (inf - inf) and inf
        period = TwoPortMatrix(np.array([1.0, inf, inf]), np.zeros(3),
                               np.zeros(3), np.array([1.0, -inf, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=(
                    r"the Bloch curve is not finite at 2 of 3 frequencies, "
                    r"the first at 2\.0000 GHz")):
                dispersion.bloch_dispersion(
                    period, FrequencyGrid(1e9, 3e9, 3), 1)


class TestBlochProperties:
    def test_phase_monotone(self, fishbone_curve):
        assert np.all(np.diff(fishbone_curve.phase_per_period) >= -1e-12)

    def test_attenuation_nonnegative(self, fishbone_curve):
        assert np.all(fishbone_curve.attenuation_per_period >= 0)

    def test_stopband_criterion_matches_flags(self, fishbone_curve):
        # lossless: in_stopband <=> attenuation > 0 (|cosh| > 1)
        has_atten = fishbone_curve.attenuation_per_period > 1e-12
        assert np.array_equal(fishbone_curve.in_stopband, has_atten)

    def test_cascade_phase_matches_bloch(self, fishbone_curve):
        # arg(s21) of N periods = -N * bloch phase (mod 2*pi) within 1e-3 rad
        # at passband points away from band edges
        n_periods = 12
        net = expand_fishbone(FishboneSpec(base_cell=FISH_CELL,
                                           num_periods=3 * n_periods))
        # above ~12 GHz the 50 ohm port-termination ripple alone exceeds
        # 1e-3 rad, so the identity is checked over the amplifier band
        f = np.array([2e9, 3e9, 5e9, 6.5e9, 10e9])
        sp = to_s_parameters(network_matrix(net, f), f)
        bloch = np.interp(f, fishbone_curve.frequencies,
                          fishbone_curve.phase_per_period)
        mismatch = (np.angle(sp.s21) + n_periods * bloch) % (2 * np.pi)
        mismatch = np.minimum(mismatch, 2 * np.pi - mismatch)
        assert np.max(mismatch) < 1e-3


class TestFishboneStopbands:
    def test_narrow_band_in_6_to_8_ghz(self, fishbone_curve):
        report = find_stopbands(fishbone_curve)
        narrow = [b for b in report if 6e9 <= b.center <= 8e9]
        assert len(narrow) == 1
        assert 100e6 < narrow[0].width < 450e6  # order 100-300 MHz

    def test_wide_band_at_three_times_narrow(self, fishbone_curve):
        report = find_stopbands(fishbone_curve)
        narrow = next(b for b in report if 6e9 <= b.center <= 8e9)
        wide = max(report, key=lambda b: b.width)
        assert wide.center / narrow.center == pytest.approx(3.0, abs=0.1)
        assert wide.width > 5 * narrow.width

    def test_min_depth_filters_bands(self, fishbone_curve):
        all_bands = find_stopbands(fishbone_curve)
        deep = find_stopbands(fishbone_curve, min_depth=0.5)
        assert len(deep) < len(all_bands)
        assert all(b.max_attenuation_per_period >= 0.5 for b in deep)

    def test_bands_sorted_and_disjoint(self, fishbone_curve):
        bands = list(find_stopbands(fishbone_curve))
        for a, b in zip(bands, bands[1:]):
            assert a.f_high < b.f_low


def reference_find_stopbands(curve, min_depth=0.0):
    """find_stopbands as a loop over the grid points."""
    flags = curve.in_stopband.copy()
    interior = flags[:-2] & ~flags[1:-1] & flags[2:]
    flags[1:-1] |= interior
    bands = []
    f = curve.frequencies
    n = flags.size
    i = 0
    while i < n:
        if flags[i]:
            j = i
            while j < n and flags[j]:
                j += 1
            peak = float(np.max(curve.attenuation_per_period[i:j]))
            if peak >= min_depth:
                bands.append(Stopband(
                    f_low=float(f[i]),
                    f_high=float(f[j - 1]),
                    center=float(0.5 * (f[i] + f[j - 1])),
                    max_attenuation_per_period=peak,
                ))
            i = j
        else:
            i += 1
    return tuple(bands)


def flag_curve(flags, attenuation):
    n = len(flags)
    return DispersionCurve(
        frequencies=np.linspace(1e9, 2e9, n), phase_per_period=np.zeros(n),
        attenuation_per_period=np.asarray(attenuation, dtype=float),
        in_stopband=np.asarray(flags, dtype=bool), cells_per_period=1)


class TestFindStopbandsReference:
    """The vectorised run search against the loop over the grid points."""

    @pytest.mark.parametrize("name", ["fishbone-paper", "leaf-paper-gain",
                                      "leaf-paper"])
    @pytest.mark.parametrize("min_depth", [0.0, 0.05, 0.5])
    def test_presets(self, name, min_depth):
        cfg = load_config(PRESETS / f"{name}.cfg")
        curve = device_dispersion(expand_design(cfg.design),
                                  cfg.frequency_grid)
        assert len(find_stopbands(curve)) > 0
        got = find_stopbands(curve, min_depth)
        assert got == reference_find_stopbands(curve, min_depth)

    @pytest.mark.parametrize("flags", [
        [0] * 7, [1] * 7, [1, 0, 1, 0, 1, 0, 1], [1, 1, 0, 0, 1, 1],
        [0, 1, 0, 0, 1, 0], [1, 0], [0, 1], [1], [0], [1, 0, 0, 1]])
    def test_edge_patterns(self, flags):
        curve = flag_curve(flags, np.arange(len(flags)) % 3 * 0.25)
        for min_depth in (0.0, 0.3):
            got = find_stopbands(curve, min_depth)
            assert got == reference_find_stopbands(curve, min_depth)

    @settings(derandomize=True, max_examples=200, deadline=None,
              database=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0.0, 5.0)),
                    min_size=1, max_size=60),
           st.floats(0.0, 5.0))
    def test_random_patterns(self, points, min_depth):
        curve = flag_curve([p[0] for p in points], [p[1] for p in points])
        got = find_stopbands(curve, min_depth)
        assert got == reference_find_stopbands(curve, min_depth)


class TestLeafStopband:
    def test_resonator_band_width_order_300_mhz(self):
        net = expand_leaf(LeafSpec(base_cell=LEAF_CELL, num_blocks=1,
                                   resonator=ResonatorSpec(6e9, 70.0)))
        grid = FrequencyGrid(5.5e9, 6.6e9, 8001)
        curve = device_dispersion(net, grid)
        report = find_stopbands(curve, min_depth=0.05)
        assert len(report) >= 1
        # total evanescent span near resonance: a few hundred MHz
        total = sum(b.width for b in report
                    if 5.7e9 <= b.center <= 6.5e9)
        assert 100e6 < total < 600e6


class TestResonatorPhaseShift:
    def block(self, fr=6e9):
        return expand_leaf(LeafSpec(base_cell=LEAF_CELL, num_blocks=1,
                                    resonator=ResonatorSpec(fr, 70.0)))

    def test_far_below_resonance_negligible(self):
        shift, loss = resonator_phase_shift(self.block(), 2.4e9)
        assert abs(np.degrees(shift)) < 2.0
        assert abs(loss) < 0.01

    def test_30_degrees_with_low_loss_somewhere(self):
        # scan detunings below f_r for a ~30 deg shift at < 0.1 dB
        f = np.linspace(5.2e9, 5.9e9, 141)
        shift, loss = resonator_phase_shift(self.block(), f)
        deg = np.degrees(shift)
        hit = (deg >= 25) & (deg <= 35) & (loss < 0.1)
        assert hit.any()

    def test_shift_grows_toward_resonance(self):
        f = np.linspace(5.0e9, 5.8e9, 30)
        shift, _ = resonator_phase_shift(self.block(), f)
        assert np.all(np.diff(shift) > 0)

    def test_on_resonance_rejected(self):
        with pytest.raises(ValueError, match="operating region"):
            resonator_phase_shift(self.block(), 6e9)

    def test_six_blocks_monotone_cumulative(self):
        f_op = 5.7e9
        single, _ = resonator_phase_shift(self.block(), f_op)
        shifts = []
        for n in range(1, 7):
            net = expand_leaf(LeafSpec(base_cell=LEAF_CELL, num_blocks=n,
                                       resonator=ResonatorSpec(6e9, 70.0)))
            plain = uniform_line(LEAF_CELL, net.total_cells)
            f = np.array([f_op])
            sp_l = to_s_parameters(network_matrix(net, f), f)
            sp_p = to_s_parameters(network_matrix(plain, f), f)
            d = np.unwrap([0.0, np.angle(sp_p.s21[0]) - np.angle(sp_l.s21[0])])[1]
            # cumulative extra delay, unwrapped against the single-block value
            total = d + 2 * np.pi * round((n * single - d) / (2 * np.pi))
            shifts.append(total)
        assert np.all(np.diff(shifts) > 0)
        assert shifts[5] == pytest.approx(6 * single, rel=0.05)


class TestElectricalLength:
    def test_single_chip_spans_70_to_80_wavelengths(self, fishbone_curve):
        # 568 supercells of 22 cells at 8 um: ~10 cm physical, and the
        # accumulated phase at 6 GHz is 70-80 pump wavelengths
        spec = FishboneSpec(base_cell=FISH_CELL, num_periods=568)
        net = expand_fishbone(spec)
        assert net.total_cells * 8e-6 == pytest.approx(0.10, rel=0.01)
        wavelengths = net.total_cells * float(
            fishbone_curve.k_cell(6e9)) / (2 * np.pi)
        assert 70 <= wavelengths <= 80


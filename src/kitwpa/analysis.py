"""Figures of merit, parameter sweeps, and nonlinearity calibration.

The raw gain profile is smoothed with a moving average before metrics are
taken, mirroring how measured gain curves are summarized.  Stopband dips
(and their idler-mirror images about the pump) are excised from the
bandwidth measure and reported separately.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.optimize import brentq

# with_i_star and integrate_gain are not called in this module; they are
# imported into it because bench/tracing.py rebinds them here to record spans
from .circuit import (
    FishboneSpec,
    LeafSpec,
    expand_fishbone,
    expand_leaf,
    with_i_star,  # noqa: F401
)
from .dispersion import (
    DEFAULT_GRID,
    FrequencyGrid,
    device_dispersion,
    find_stopbands,
    StopbandReport,
)
from .errors import KitwpaError, NumericError
from .fwm import (
    GainProfile,
    IntegrationOptions,
    integrate_gain,  # noqa: F401
    prepare_line,
    solve_gain,
)
from .twoport import report_lines, table_lines

__all__ = [
    "GainMetrics",
    "CalibrationSpec",
    "CalibrationResult",
    "SweepAxis",
    "SweepResult",
    "OperatingPoint",
    "ComparisonReport",
    "gain_metrics",
    "simulate_gain",
    "calibrate_istar",
    "sweep",
    "compare_designs",
]

SMOOTHING_WINDOW_HZ = 100e6
RIPPLE_WINDOW_HZ = 1e9
DIP_GUARD_HZ = 100e6
GAMMA_PPL_CAP = 8.0  # ~70 dB matched gain; calibration never needs more


@dataclass(frozen=True)
class GainMetrics:
    peak_gain_db: float
    peak_frequency_hz: float
    double_sided_bw_3db_hz: float
    ripple_db: float
    dip_frequencies_hz: tuple


def _smooth(f: np.ndarray, g: np.ndarray, window_hz: float) -> np.ndarray:
    """Moving average with edge renormalization (no zero-pad bias)."""
    df = float(np.median(np.diff(f)))
    n = max(1, int(round(window_hz / df)))
    if n % 2 == 0:
        n += 1
    # np.convolve's "same" output is as long as the longer input, so keep the
    # kernel within the profile: the largest odd length that fits
    n = min(n, g.size - 1 + g.size % 2)
    if n == 1:
        return g.copy()
    kernel = np.ones(n)
    num = np.convolve(g, kernel, mode="same")
    den = np.convolve(np.ones_like(g), kernel, mode="same")
    return num / den


def _exclusion_zones(profile: GainProfile, stopbands: StopbandReport | None,
                     width_hz: float | None) -> list:
    """Dip exclusion intervals: every stopband overlapping the signal range,
    plus its mirror about the pump."""
    if stopbands is None:
        return []
    f = profile.frequencies
    f_lo, f_hi = float(f[0]), float(f[-1])
    f_p = profile.pump_frequency
    zones = []
    for band in stopbands:
        for center in (band.center, 2.0 * f_p - band.center):
            w = width_hz if width_hz is not None else band.width + DIP_GUARD_HZ
            lo, hi = center - w / 2.0, center + w / 2.0
            if hi >= f_lo and lo <= f_hi:
                zones.append((lo, hi))
    zones.sort()
    return zones


def gain_metrics(profile: GainProfile, stopbands: StopbandReport | None = None,
                 dip_exclusion_width_hz: float | None = None,
                 smoothing_window_hz: float = SMOOTHING_WINDOW_HZ) -> GainMetrics:
    """Summary metrics of a gain profile.

    Peak and bandwidth are taken from the smoothed curve outside the dip
    exclusion zones; the double-sided bandwidth is the total measure of
    frequencies whose smoothed gain stays within 3 dB of the peak.
    """
    f = profile.frequencies
    if f.size < 3:
        raise ValueError("profile too short for metrics")
    smooth = _smooth(f, profile.gain_db, smoothing_window_hz)
    zones = _exclusion_zones(profile, stopbands, dip_exclusion_width_hz)
    keep = np.ones(f.size, dtype=bool)
    for lo, hi in zones:
        keep &= ~((f >= lo) & (f <= hi))
    if not keep.any():
        raise ValueError("dip exclusions removed the whole profile")

    peak_idx = int(np.argmax(np.where(keep, smooth, -np.inf)))
    peak = float(smooth[peak_idx])
    peak_f = float(f[peak_idx])

    df = float(np.median(np.diff(f)))
    if peak < 3.0:
        warnings.warn("profile never reaches 3 dB; reporting zero bandwidth")
        bw = 0.0
    else:
        bw = float(np.sum((smooth >= peak - 3.0) & keep) * df)

    # dips: smoothed minimum inside each exclusion zone
    dips = []
    for lo, hi in zones:
        inside = (f >= lo) & (f <= hi)
        if inside.any():
            dips.append(float(f[inside][np.argmin(smooth[inside])]))

    ripple_sel = keep & (np.abs(f - peak_f) <= RIPPLE_WINDOW_HZ)
    if ripple_sel.sum() >= 2:
        resid = profile.gain_db[ripple_sel] - smooth[ripple_sel]
        ripple = float(0.5 * (np.max(resid) - np.min(resid)))
    else:
        ripple = 0.0

    return GainMetrics(
        peak_gain_db=peak,
        peak_frequency_hz=peak_f,
        double_sided_bw_3db_hz=bw,
        ripple_db=ripple,
        dip_frequencies_hz=tuple(dips),
    )


# --------------------------------------------------------------------------
# design-level pipeline

def expand_design(design):
    if isinstance(design, FishboneSpec):
        return expand_fishbone(design)
    if isinstance(design, LeafSpec):
        return expand_leaf(design)
    raise TypeError(f"unknown design type {type(design).__name__}")


def design_with_istar(design, i_star: float):
    cell = design.base_cell
    return replace(design, base_cell=replace(
        cell, inductor=replace(cell.inductor, i_star=i_star)))


class _GainPipeline:
    """Expand, analyze, pump and summarize designs, one point at a time.

    It keeps the last device (network, Bloch curve, stopbands) and the last
    pumped line, and reuses them for the next point when they are the same:
    the device when the design differs at most in I*, the line when the pump
    frequency is unchanged as well.  Nothing linear depends on I* (a series
    inductor at zero bias is l0 * (1 + 0) whatever its I*), so a reused
    device or line gives the numbers a fresh one would.
    """

    def __init__(self, signal_grid, dispersion_grid, options,
                 dip_exclusion_width_hz):
        self.signal_grid = signal_grid
        self.dispersion_grid = dispersion_grid
        self.options = options
        self.dip_exclusion_width_hz = dip_exclusion_width_hz
        self._device = None   # (design at unit I*, network, curve, stopbands)
        self._line = None     # PumpedLine of that device

    def __call__(self, design, pump: tuple):
        f_p, p_p = pump
        key = design_with_istar(design, 1.0)
        if self._device is None or self._device[0] != key:
            network = expand_design(design)
            curve = device_dispersion(network, self.dispersion_grid)
            self._device = (key, network, curve, find_stopbands(curve))
            self._line = None
        _, network, curve, stopbands = self._device
        if self._line is None or self._line.pump_frequency != f_p:
            self._line = prepare_line(network, curve, f_p, self.signal_grid,
                                      self.options, stopband_curve=curve)
        profile = solve_gain(self._line, design.base_cell.inductor.i_star, p_p)
        metrics = gain_metrics(profile, stopbands,
                               dip_exclusion_width_hz=self.dip_exclusion_width_hz)
        return profile, metrics, stopbands


def simulate_gain(design, pump: tuple, signal_grid,
                  dispersion_grid: FrequencyGrid = DEFAULT_GRID,
                  options: IntegrationOptions | None = None,
                  dip_exclusion_width_hz: float | None = None):
    """Expand, analyze, pump, and summarize one design.

    Returns (profile, metrics, stopbands).  The device Bloch curve supplies
    both the propagation constants and the stopband report; for resonator
    designs the coupled-mode engine falls back to the bare-ladder background
    internally and treats the blocks as lumped phase shifters.
    """
    pipeline = _GainPipeline(signal_grid, dispersion_grid, options,
                             dip_exclusion_width_hz)
    return pipeline(design, pump)


@dataclass(frozen=True)
class CalibrationSpec:
    target_peak_db: float
    tolerance_db: float = 0.1
    bracket_low: float = 1e-3
    bracket_high: float = 100e-3


@dataclass(frozen=True)
class CalibrationResult:
    i_star: float
    residual_db: float
    target_peak_db: float
    pump_frequency: float
    pump_power: float
    profile: GainProfile
    metrics: GainMetrics


def calibrate_istar(design, pump: tuple, target_peak_db: float, signal_grid,
                    dispersion_grid: FrequencyGrid = DEFAULT_GRID,
                    options: IntegrationOptions | None = None,
                    dip_exclusion_width_hz: float | None = None,
                    bracket: tuple = (CalibrationSpec.bracket_low,
                                      CalibrationSpec.bracket_high),
                    tol_db: float = CalibrationSpec.tolerance_db
                    ) -> CalibrationResult:
    """Root-find the nonlinearity scale so the smoothed peak gain hits the
    target.

    Peak gain decreases monotonically in i_star (gamma ~ 1/i_star^2), so a
    bracketed scalar solve is exact and deterministic.  The lower bracket is
    clipped so gamma*P_p*L never exceeds ~8 (the matched gain would overflow
    the integrator long before that bound matters for realistic targets).
    """
    options = options or IntegrationOptions()
    f_p, p_p = pump
    if p_p <= 0:
        raise ValueError("calibration requires nonzero pump power")
    network = expand_design(design)
    curve = device_dispersion(network, dispersion_grid)
    stopbands = find_stopbands(curve)

    k_p = float(curve.k_cell(f_p))
    i_min_cap = math.sqrt(k_p * p_p * network.total_cells /
                          (2.0 * options.z0 * GAMMA_PPL_CAP))
    lo = max(bracket[0], i_min_cap)
    hi = bracket[1]
    if lo >= hi:
        raise NumericError(
            f"calibration bracket [{bracket[0]:g}, {bracket[1]:g}] A collapsed "
            f"after the overflow clip at {i_min_cap:g} A")

    # one linear setup serves every probe: nothing in it depends on I*
    line = prepare_line(network, curve, f_p, signal_grid, options,
                        stopband_curve=curve)
    cache: dict = {}

    def peak_at(i_star: float) -> float:
        if i_star not in cache:
            profile = solve_gain(line, i_star, p_p)
            with warnings.catch_warnings():
                # bracketing probes far from the target trip the low-profile
                # bandwidth warning; only the peak matters here
                warnings.simplefilter("ignore", UserWarning)
                metrics = gain_metrics(profile, stopbands,
                                       dip_exclusion_width_hz=dip_exclusion_width_hz)
            cache[i_star] = (profile, metrics)
        return cache[i_star][1].peak_gain_db

    f_lo = peak_at(lo) - target_peak_db
    f_hi = peak_at(hi) - target_peak_db
    if f_lo * f_hi > 0:
        raise NumericError(
            f"target {target_peak_db:g} dB outside the achievable range "
            f"[{f_hi + target_peak_db:.2f}, {f_lo + target_peak_db:.2f}] dB "
            f"over i_star in [{lo:g}, {hi:g}] A")

    i_star = brentq(lambda i: peak_at(i) - target_peak_db, lo, hi,
                    xtol=1e-8, rtol=1e-12)
    peak_at(i_star)
    profile, metrics = cache[i_star]
    residual = abs(metrics.peak_gain_db - target_peak_db)
    if residual > tol_db:
        raise NumericError(
            f"calibration stalled: residual {residual:.3f} dB > {tol_db:g} dB")
    return CalibrationResult(
        i_star=i_star, residual_db=residual, target_peak_db=target_peak_db,
        pump_frequency=f_p, pump_power=p_p, profile=profile, metrics=metrics)


# --------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepAxis:
    parameter: str   # one of _sweep_parameters(design)
    values: tuple


@dataclass(frozen=True)
class SweepResult:
    parameter: str
    values: tuple
    metrics: dict          # metric name -> tuple of values (nan on failure)
    failures: tuple        # (index, exception class name, message)


def _scalar_fields(spec) -> dict:
    """{name: declared type} of the int and float fields of a spec."""
    return {f.name: f.type for f in fields(spec) if f.type in ("int", "float")}


def _sweep_parameters(design) -> set:
    """The pump's frequency and power, I*, and every scalar field of the
    design spec and of its resonator."""
    names = {"pump_frequency", "pump_power", "i_star", *_scalar_fields(design)}
    if isinstance(design, LeafSpec):
        names.update(_scalar_fields(design.resonator))
    return names


def _with_field(spec, name, value):
    """Copy of spec with one field replaced.  Sweep values arrive as floats
    from a config; an integer field takes only integral ones, as ints."""
    if _scalar_fields(spec)[name] == "int":
        if value != int(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    return replace(spec, **{name: value})


def _apply_parameter(design, pump, name, value):
    """(design, pump) with one of _sweep_parameters(design) set to value."""
    if name == "pump_frequency":
        return design, (value, pump[1])
    if name == "pump_power":
        return design, (pump[0], value)
    if name == "i_star":
        return design_with_istar(design, value), pump
    if name in _scalar_fields(design):
        return _with_field(design, name, value), pump
    return replace(design, resonator=_with_field(design.resonator,
                                                 name, value)), pump


def sweep(design, pump: tuple, axis: SweepAxis, signal_grid,
          dispersion_grid: FrequencyGrid = DEFAULT_GRID,
          options: IntegrationOptions | None = None,
          dip_exclusion_width_hz: float | None = None,
          metric_names: tuple = ("peak_gain_db", "double_sided_bw_3db_hz")
          ) -> SweepResult:
    """Evaluate the gain pipeline across one axis, point by point in axis
    order.  A point that fails with a toolkit, value or arithmetic error is
    recorded with its exception class and the sweep continues; any other
    exception propagates.

    Consecutive points share what does not change between them: the
    expanded network, its Bloch curve and stopbands when the design differs
    at most in I* (``pump_power``, ``i_star`` and ``pump_frequency`` axes),
    and the prepared pumped line when the pump frequency is also the same
    (``pump_power`` and ``i_star`` axes).  A design-field axis rebuilds both
    at every point.  Shared or not, each point's numbers are those of
    simulate_gain at that point.
    """
    if axis.parameter not in _sweep_parameters(design):
        raise ValueError(f"unknown sweep parameter {axis.parameter!r}")
    values = list(axis.values)
    pipeline = _GainPipeline(signal_grid, dispersion_grid, options,
                             dip_exclusion_width_hz)

    results: list = [None] * len(values)
    failures = []
    for i, v in enumerate(values):
        try:
            d, p = _apply_parameter(design, pump, axis.parameter, v)
            _, results[i], _ = pipeline(d, p)
        except (KitwpaError, ValueError, ArithmeticError) as exc:
            failures.append((i, type(exc).__name__, str(exc)))

    metrics = {
        name: tuple(
            float(getattr(r, name)) if r is not None else float("nan")
            for r in results)
        for name in metric_names
    }
    return SweepResult(parameter=axis.parameter, values=tuple(values),
                       metrics=metrics, failures=tuple(failures))


def sweep_csv_rows(result: SweepResult):
    return table_lines(",".join([result.parameter, *result.metrics]),
                       [result.values, *result.metrics.values()])


# --------------------------------------------------------------------------
# design comparison

@dataclass(frozen=True)
class OperatingPoint:
    label: str
    pump_frequency: float
    pump_power: float
    i_star: float
    total_cells: int
    k_cell_at_pump: float    # rad/cell
    z0: float = 50.0

    @property
    def electrical_length_wavelengths(self) -> float:
        return self.total_cells * self.k_cell_at_pump / (2.0 * math.pi)

    @property
    def nonlinearity_level(self) -> float:
        """Time-averaged I_rms^2 / I*^2 at the pump drive."""
        return self.pump_power / (self.z0 * self.i_star**2)


@dataclass(frozen=True)
class ComparisonReport:
    rows: tuple  # (quantity, value_a, value_b)
    label_a: str
    label_b: str

    def format(self) -> str:
        w = max(len(r[0]) for r in self.rows) + 2
        head = f"{'quantity':<{w}}{self.label_a:>18}{self.label_b:>18}"
        lines = [head, "-" * len(head)]
        for name, a, b in self.rows:
            lines.append(f"{name:<{w}}{a:>18.6g}{b:>18.6g}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {name: {self.label_a: a, self.label_b: b}
                for name, a, b in self.rows}


def compare_designs(metrics_a: GainMetrics, op_a: OperatingPoint,
                    metrics_b: GainMetrics, op_b: OperatingPoint) -> ComparisonReport:
    """Side-by-side metric table with derived operating quantities."""
    rows = (
        ("peak_gain_db", metrics_a.peak_gain_db, metrics_b.peak_gain_db),
        ("peak_frequency_hz", metrics_a.peak_frequency_hz, metrics_b.peak_frequency_hz),
        ("double_sided_bw_3db_hz", metrics_a.double_sided_bw_3db_hz,
         metrics_b.double_sided_bw_3db_hz),
        ("ripple_db", metrics_a.ripple_db, metrics_b.ripple_db),
        ("pump_frequency_hz", op_a.pump_frequency, op_b.pump_frequency),
        ("pump_power_w", op_a.pump_power, op_b.pump_power),
        ("i_star_a", op_a.i_star, op_b.i_star),
        ("electrical_length_wavelengths",
         op_a.electrical_length_wavelengths, op_b.electrical_length_wavelengths),
        ("nonlinearity_level", op_a.nonlinearity_level, op_b.nonlinearity_level),
    )
    return ComparisonReport(rows=rows, label_a=op_a.label, label_b=op_b.label)


def metrics_report_rows(metrics: GainMetrics, op: OperatingPoint | None = None):
    """Flat key-value lines plus a machine-readable CSV pair of rows."""
    kv = [
        ("peak_gain_db", metrics.peak_gain_db),
        ("peak_frequency_hz", metrics.peak_frequency_hz),
        ("double_sided_bw_3db_hz", metrics.double_sided_bw_3db_hz),
        ("ripple_db", metrics.ripple_db),
        ("num_dips", float(len(metrics.dip_frequencies_hz))),
    ]
    for i, fd in enumerate(metrics.dip_frequencies_hz):
        kv.append((f"dip_{i}_hz", fd))
    if op is not None:
        kv += [
            ("pump_frequency_hz", op.pump_frequency),
            ("pump_power_w", op.pump_power),
            ("i_star_a", op.i_star),
            ("electrical_length_wavelengths", op.electrical_length_wavelengths),
            ("nonlinearity_level", op.nonlinearity_level),
        ]
    csv = table_lines(",".join(k for k, _ in kv), [[v] for _, v in kv])
    return report_lines(kv), csv

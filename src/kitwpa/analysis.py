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
)
from .errors import KitwpaError, NumericError
from .fwm import (
    GainProfile,
    IntegrationOptions,
    integrate_gain,  # noqa: F401
    prepare_line,
    solve_gain,
)

__all__ = [
    "GainMetrics",
    "CalibrationSpec",
    "CalibrationResult",
    "SweepAxis",
    "SweepResult",
    "OperatingPoint",
    "gain_metrics",
    "calibrate_istar",
    "sweep",
]

SMOOTHING_WINDOW_HZ = 100e6
RIPPLE_WINDOW_HZ = 1e9
DIP_GUARD_HZ = 100e6
PEAK_TIE_DB = 1e-9   # smoothed gains this close to the peak tie with it
# lower clip of the calibration bracket: gamma*P_p*L <= 8, ~70 dB of matched
# gain, which no realistic target needs; the value sets Brent's probes, and
# so the calibrated I*
GAMMA_PPL_CAP = 8.0


@dataclass(frozen=True)
class GainMetrics:
    """Summary of one gain profile (gain_metrics), outside the dip
    exclusion zones: the smoothed curve's peak_gain_db (dB) at
    peak_frequency_hz (Hz), the lowest frequency within PEAK_TIE_DB of it;
    double_sided_bw_3db_hz, the measure of frequencies within 3 dB of that
    peak (Hz); ripple_db, half the peak-to-peak residual about the smoothed
    curve within 1 GHz of the peak (dB); and dip_frequencies_hz, where the
    smoothed gain is lowest in each merged exclusion zone, increasing (Hz)."""

    peak_gain_db: float
    peak_frequency_hz: float
    double_sided_bw_3db_hz: float
    ripple_db: float
    dip_frequencies_hz: tuple


def _median_step(f: np.ndarray) -> float:
    """The median spacing of a grid, bitwise float(np.median(np.diff(f))).

    np.median differs only where a step is NaN, and its check for that
    imports numpy.ma on the first call of a process.  A profile's signals
    are finite (FrequencyGrid refuses a non-finite bound, signal_frequencies
    a non-finite signal), so that branch is never reached.
    """
    steps = np.sort(np.diff(f))
    mid = steps.size // 2
    if steps.size % 2:
        return float(steps[mid])
    return float((steps[mid - 1] + steps[mid]) / 2.0)


def _smooth(g: np.ndarray, df: float, window_hz: float) -> np.ndarray:
    """Moving average over a grid of median step df, with edge
    renormalization (no zero-pad bias)."""
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


def _exclusion_zones(profile: GainProfile, stopbands: tuple,
                     width_hz: float | None) -> list:
    """Dip exclusion intervals, disjoint and in frequency order: every
    stopband overlapping the signal range, plus its mirror about the pump,
    with overlapping intervals merged."""
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
    merged = []
    for lo, hi in zones:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def gain_metrics(profile: GainProfile, stopbands: tuple = (),
                 dip_exclusion_width_hz: float | None = None,
                 smoothing_window_hz: float = SMOOTHING_WINDOW_HZ) -> GainMetrics:
    """Summary metrics of a gain profile.

    ``stopbands`` are the device's Stopbands (find_stopbands).  Peak and
    bandwidth are taken from the smoothed curve outside the dip
    exclusion zones; the double-sided bandwidth is the total measure of
    frequencies whose smoothed gain stays within 3 dB of the peak.
    """
    f = profile.frequencies
    if f.size < 3:
        raise ValueError("profile too short for metrics")
    df = _median_step(f)
    smooth = _smooth(profile.gain_db, df, smoothing_window_hz)
    zones = _exclusion_zones(profile, stopbands, dip_exclusion_width_hz)
    # each zone's signals f[start:stop], lo <= f <= hi, on the increasing grid
    bounds = np.array(zones, dtype=float).reshape(-1, 2)
    starts = np.searchsorted(f, bounds[:, 0], side="left").tolist()
    stops = np.searchsorted(f, bounds[:, 1], side="right").tolist()
    keep = np.ones(f.size, dtype=bool)
    for start, stop in zip(starts, stops):
        keep[start:stop] = False
    if not keep.any():
        raise NumericError(
            f"dip exclusions removed the whole profile: {len(zones)} "
            f"exclusion zone(s) about the pump at {profile.pump_frequency:g} "
            "Hz cover every signal frequency")

    kept = np.where(keep, smooth, -np.inf)
    peak = float(np.max(kept))
    # the lowest kept frequency that ties with the peak, as mirror signals can
    peak_f = float(f[np.argmax(kept >= peak - PEAK_TIE_DB)])

    if peak < 3.0:
        warnings.warn("profile never reaches 3 dB; reporting zero bandwidth")
        bw = 0.0
    else:
        bw = float(np.sum((smooth >= peak - 3.0) & keep) * df)

    # dips: smoothed minimum inside each exclusion zone
    dips = [float(f[start + np.argmin(smooth[start:stop])])
            for start, stop in zip(starts, stops) if stop > start]

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
    """The one gain path: an expanded network's Bloch curve and stopbands,
    found once, then a profile and its metrics per operating point.

    It keeps the pumped line while the pump frequency is unchanged.  The
    linear model never reads I* (it enters only the Kerr coefficient), so
    one pipeline serves every I* of its network, and a kept line gives the
    numbers a fresh one would.
    """

    def __init__(self, network, dispersion_grid, signal_grid, options,
                 dip_exclusion_width_hz):
        self.network = network
        self.curve = device_dispersion(network, dispersion_grid)
        self.stopbands = find_stopbands(self.curve)
        self.signal_grid = signal_grid
        self.options = options
        self.dip_exclusion_width_hz = dip_exclusion_width_hz
        self._line = None

    def __call__(self, i_star: float, pump: tuple) -> tuple:
        """(profile, metrics) at I* (A) and pump (Hz, W)."""
        f_p, p_p = pump
        if self._line is None or self._line.pump_frequency != f_p:
            self._line = prepare_line(self.network, self.curve, f_p,
                                      self.signal_grid, self.options)
        profile = solve_gain(self._line, i_star, p_p)
        return profile, gain_metrics(profile, self.stopbands,
                                     self.dip_exclusion_width_hz)


@dataclass(frozen=True)
class CalibrationSpec:
    """Calibration target: the smoothed peak gain target_peak_db (dB), to
    within tolerance_db (dB), with I* searched in [bracket_low,
    bracket_high] (A)."""

    target_peak_db: float
    tolerance_db: float = 0.1
    bracket_low: float = 1e-3
    bracket_high: float = 100e-3

    def __post_init__(self):
        if not self.tolerance_db > 0:
            raise ValueError(f"tolerance_db must be positive, got {self.tolerance_db}")
        if not 0 < self.bracket_low < self.bracket_high:
            raise ValueError(f"need 0 < bracket_low < bracket_high, got "
                             f"{self.bracket_low} and {self.bracket_high}")


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of calibrate_istar: the calibrated i_star (A), the residual_db
    |peak - target| (dB), and the gain profile and metrics at that I*."""

    i_star: float
    residual_db: float
    profile: GainProfile
    metrics: GainMetrics


def brentq(f, a: float, b: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of f in [a, b], where f(a) and f(b) differ in sign, to within
    xtol + rtol*|root|.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps where they shrink the bracket
    fast enough, bisection where they do not.  A port of scipy's C brentq
    that does the same arithmetic in the same order, so its roots are
    bitwise equal to scipy.optimize.brentq's.  Raises NumericError when f
    returns NaN or maxiter steps do not converge.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise NumericError(f"root finding: f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (
                math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise NumericError(f"root finding did not converge in {maxiter} steps")


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
    clipped so gamma*P_p*L never exceeds GAMMA_PPL_CAP, which keeps the
    probes near gains a realistic target can have.  Raises ValueError for a
    tolerance or bracket that CalibrationSpec refuses.
    """
    spec = CalibrationSpec(target_peak_db, tol_db, *bracket)
    options = options or IntegrationOptions()
    f_p, p_p = pump
    if p_p <= 0:
        raise ValueError("calibration requires nonzero pump power")
    network = expand_design(design)
    pipeline = _GainPipeline(network, dispersion_grid, signal_grid, options,
                             dip_exclusion_width_hz)

    k_p = float(pipeline.curve.k_cell(f_p))
    i_min_cap = math.sqrt(k_p * p_p * network.total_cells /
                          (2.0 * options.z0 * GAMMA_PPL_CAP))
    lo = max(spec.bracket_low, i_min_cap)
    hi = spec.bracket_high
    if lo >= hi:
        raise NumericError(
            f"calibration bracket [{spec.bracket_low:g}, {hi:g}] A collapsed "
            f"after the gamma*P_p*L clip at {i_min_cap:g} A")

    # every probe shares the pipeline's device and pumped line: only I*
    # changes, and the pump frequency is fixed
    cache: dict = {}

    def peak_at(i_star: float) -> float:
        if i_star not in cache:
            with warnings.catch_warnings():
                # bracketing probes far from the target trip the low-profile
                # bandwidth warning; only the peak matters here
                warnings.simplefilter("ignore", UserWarning)
                cache[i_star] = pipeline(i_star, pump)
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
    if residual > spec.tolerance_db:
        raise NumericError(f"calibration stalled: residual {residual:.3f} dB "
                           f"> {spec.tolerance_db:g} dB")
    return CalibrationResult(i_star=i_star, residual_db=residual,
                             profile=profile, metrics=metrics)


# --------------------------------------------------------------------------
# sweeps

@dataclass(frozen=True)
class SweepAxis:
    """One sweep axis: a parameter name and the values it takes, in the
    parameter's own unit (Hz, W, A, or the design field's)."""

    parameter: str   # one of _sweep_parameters(design)
    values: tuple


@dataclass(frozen=True)
class SweepResult:
    """Outcome of sweep: the parameter and its values as given, metric name
    -> one value per point (each metric in its GainMetrics unit, NaN where
    the point failed), and one (index, exception class name, message) per
    failed point."""

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


def check_sweep_parameter(design, name) -> None:
    """Raise ValueError, listing the valid names, unless name is one of
    _sweep_parameters(design)."""
    names = _sweep_parameters(design)
    if not isinstance(name, str) or name not in names:
        raise ValueError(f"unknown sweep parameter {name!r}; valid: "
                         f"{', '.join(sorted(names))}")


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

    Consecutive points share what does not change between them: the gain
    pipeline (expanded network, Bloch curve and stopbands) when the design
    differs at most in I* (``pump_power``, ``i_star`` and
    ``pump_frequency`` axes), and the prepared pumped line when the pump
    frequency is also the same (``pump_power`` and ``i_star`` axes).  A
    design-field axis rebuilds both at every point.  Shared or not, each
    point's numbers are those of a fresh pipeline at that point.
    """
    check_sweep_parameter(design, axis.parameter)
    values = list(axis.values)
    key = None

    results: list = [None] * len(values)
    failures = []
    for i, v in enumerate(values):
        try:
            d, p = _apply_parameter(design, pump, axis.parameter, v)
            # the linear model never reads I*, so a design that differs at
            # most in I* keeps the pipeline
            unit = design_with_istar(d, 1.0)
            if unit != key:
                pipeline = _GainPipeline(expand_design(d), dispersion_grid,
                                         signal_grid, options,
                                         dip_exclusion_width_hz)
                key = unit
            _, results[i] = pipeline(d.base_cell.inductor.i_star, p)
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


# --------------------------------------------------------------------------
# operating point

@dataclass(frozen=True)
class OperatingPoint:
    """Pump drive of a device: pump_frequency (Hz), pump_power (W), i_star
    (A), total_cells, the Bloch wavenumber k_cell_at_pump (rad/cell) and
    the line impedance z0 (ohm)."""

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


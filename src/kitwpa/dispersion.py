"""Floquet-Bloch dispersion of periodic ladders and stopband detection.

The per-period propagation constant gamma solves cosh(gamma) = (a + d)/2 of
the period's lossless chain matrix, whose half-trace is real.  numpy's
arccosh of it, cast to a complex number with a +0 imaginary part, returns
the principal branch (Re >= 0, Im folded into [0, pi]); the folded phase
is unfolded into a monotone curve by tracking the branch from DC upward,
which also resolves the sign ambiguity at band edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import LadderNetwork, bare_ladder
from .errors import nonfinite_error
from .twoport import (
    FrequencyGrid,
    TwoPortMatrix,
    network_matrix,
    to_s_parameters,
)

__all__ = [
    "DispersionCurve",
    "Stopband",
    "StopbandReport",
    "bloch_dispersion",
    "device_dispersion",
    "uniform_cell_dispersion",
    "find_stopbands",
    "resonator_phase_shift",
    "DEFAULT_GRID",
]

DEFAULT_GRID = FrequencyGrid(0.1e9, 20e9, 10_001)

TWO_PI = 2.0 * np.pi


def _unfold_bloch_phase(folded: np.ndarray) -> np.ndarray:
    """Reconstruct the monotone unwrapped phase from its [0, pi] fold.

    Walks the grid keeping a branch index m and fold parity; each output
    value is exactly 2*pi*m +/- folded[i] on the chosen branch, so no error
    accumulates away from band edges.  Of the two candidates on the current
    branch, the one that does not step back is taken; when both or neither
    do, the nearer one, the first on a tie.
    """
    values = folded.tolist()
    prev = values[0]
    out = [prev]
    m, descending = 0, False
    for tf in values[1:]:
        if descending:
            first = TWO_PI * (m + 1) - tf
            second = TWO_PI * (m + 1) + tf
        else:
            first = TWO_PI * m + tf
            second = TWO_PI * (m + 1) - tf
        floor = prev - 1e-9
        if (first >= floor) != (second >= floor):
            take_second = second >= floor
        else:
            take_second = abs(second - prev) < abs(first - prev)
        if take_second:
            prev = second
            if descending:
                m += 1
            descending = not descending
        else:
            prev = first
        out.append(prev)
    return np.array(out)


@dataclass(frozen=True)
class DispersionCurve:
    """Bloch phase and attenuation per period over a frequency grid."""

    frequencies: np.ndarray
    phase_per_period: np.ndarray      # rad, unwrapped from DC
    attenuation_per_period: np.ndarray  # nepers, >= 0
    in_stopband: np.ndarray           # bool
    cells_per_period: int

    def k_cell(self, f) -> np.ndarray:
        """Bloch wavenumber in rad/cell, interpolated."""
        return np.interp(f, self.frequencies, self.phase_per_period) / self.cells_per_period

    def alpha_cell(self, f) -> np.ndarray:
        """Bloch attenuation in nepers/cell, interpolated."""
        return np.interp(f, self.frequencies, self.attenuation_per_period) / self.cells_per_period

    def stopband_at(self, f) -> np.ndarray:
        idx = np.clip(
            np.searchsorted(self.frequencies, np.atleast_1d(f)), 0,
            self.frequencies.size - 1,
        )
        return self.in_stopband[idx]


def bloch_dispersion(period_matrix: TwoPortMatrix, grid: FrequencyGrid,
                     cells_per_period: int) -> DispersionCurve:
    """Dispersion curve from the chain matrix of one full period.

    A point lies in a stopband where |(a + d)/2| > 1.
    """
    t = period_matrix.trace_half()
    gamma = np.arccosh(t.astype(complex))
    return DispersionCurve(
        frequencies=grid.frequencies(),
        phase_per_period=_unfold_bloch_phase(gamma.imag),
        attenuation_per_period=np.abs(gamma.real),
        in_stopband=np.abs(t) > 1.0,
        cells_per_period=cells_per_period,
    )


def device_dispersion(network: LadderNetwork,
                      grid: FrequencyGrid = DEFAULT_GRID) -> DispersionCurve:
    """Bloch curve of the network's period.

    Raises NumericError where the curve is not finite: deep above the cell
    cutoff the period's chain matrix leaves the float range.
    """
    m = network_matrix(network.one_period(), grid.frequencies())
    # the infinite entries of such a period are reported below, not warned
    # about on the way
    with np.errstate(invalid="ignore"):
        curve = bloch_dispersion(m, grid, network.cells_per_period)
    bad = ~np.isfinite(curve.attenuation_per_period)
    if bad.any():
        raise nonfinite_error("the Bloch curve is", bad, curve.frequencies)
    return curve


def uniform_cell_dispersion(l0: float, c: float,
                            grid: FrequencyGrid) -> DispersionCurve:
    """Closed-form Bloch curve of the uniform LC ladder, one cell per period.

    k = 2*asin(pi*f*sqrt(LC)) below cutoff; evanescent above with the phase
    pinned at pi.  Used as the smooth propagation background for designs
    whose discrete phase shifters are applied as lumped corrections.
    """
    f = grid.frequencies()
    x = np.pi * f * np.sqrt(l0 * c)
    phase = np.where(x < 1.0, 2.0 * np.arcsin(np.minimum(x, 1.0)), np.pi)
    atten = np.where(x >= 1.0, 2.0 * np.arccosh(np.maximum(x, 1.0)), 0.0)
    return DispersionCurve(
        frequencies=f,
        phase_per_period=phase,
        attenuation_per_period=atten,
        in_stopband=x >= 1.0,
        cells_per_period=1,
    )


@dataclass(frozen=True)
class Stopband:
    f_low: float
    f_high: float
    center: float
    max_attenuation_per_period: float

    @property
    def width(self) -> float:
        return self.f_high - self.f_low


@dataclass(frozen=True)
class StopbandReport:
    bands: tuple

    def __iter__(self):
        return iter(self.bands)

    def __len__(self):
        return len(self.bands)

    def widest(self) -> Stopband:
        return max(self.bands, key=lambda b: b.width)

    def bands_in(self, f_low: float, f_high: float) -> list:
        return [b for b in self.bands if f_low <= b.center <= f_high]


def find_stopbands(curve: DispersionCurve, min_depth: float = 0.0) -> StopbandReport:
    """Contiguous stopband runs with peak attenuation >= min_depth.

    Runs separated by a single passband grid point are merged.
    """
    flags = curve.in_stopband.copy()
    # merge across single-point gaps
    interior = flags[:-2] & ~flags[1:-1] & flags[2:]
    flags[1:-1] |= interior
    # run k covers [starts[k], ends[k]); runs are at least two points apart
    steps = np.diff(flags.astype(np.int8), prepend=0, append=0)
    starts = np.flatnonzero(steps == 1)
    ends = np.flatnonzero(steps == -1)
    if not starts.size:
        return StopbandReport(bands=())
    # maxima over [start, end) and over the gaps between, alternately; a run
    # reaching the last point is the final segment
    edges = np.column_stack([starts, ends]).ravel()
    if edges[-1] == flags.size:
        edges = edges[:-1]
    peaks = np.maximum.reduceat(curve.attenuation_per_period, edges)[::2]
    f = curve.frequencies
    lows, highs = f[starts], f[ends - 1]
    bands = tuple(
        Stopband(f_low=lo, f_high=hi, center=mid, max_attenuation_per_period=p)
        for lo, hi, mid, p in zip(lows.tolist(), highs.tolist(),
                                  (0.5 * (lows + highs)).tolist(),
                                  peaks.tolist())
        if p >= min_depth)
    return StopbandReport(bands=bands)


def s21_over_bare(block: LadderNetwork, f, z_ref: float = 50.0) -> np.ndarray:
    """s21 of a block over s21 of the equal-length ladder with its
    resonators removed, at each frequency of ``f``."""
    f = np.atleast_1d(np.asarray(f, dtype=float))
    loaded = to_s_parameters(network_matrix(block, f), f, z_ref).s21
    plain = to_s_parameters(network_matrix(bare_ladder(block), f), f, z_ref).s21
    return loaded / plain


def resonator_phase_shift(block: LadderNetwork, f, z_ref: float = 50.0):
    """Extra pump phase and insertion loss of one resonator block.

    Compares s21 of the block against an equal-length ladder with the
    resonators removed.  Returns (phase_shift_rad, insertion_loss_db); the
    phase shift is positive for added delay (operating region below f_r,
    where the shunt branches are capacitive).

    Raises ValueError at or above the resonator frequency, where the block
    is outside its phase-shifter operating region.
    """
    if not block.has_resonators():
        raise ValueError("block contains no resonators")
    f_r = min(e.f_r for e in block.period if hasattr(e, "f_r"))
    f_arr = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f_arr >= f_r):
        raise ValueError(
            f"phase shifter operated at or above resonance ({f_r:.4g} Hz); "
            "outside the operating region"
        )
    ratio = s21_over_bare(block, f_arr, z_ref)
    dphi = (np.angle(ratio) + np.pi) % TWO_PI - np.pi
    shift = -dphi  # extra delay counted positive
    loss_db = -20.0 * np.log10(np.abs(ratio))
    if np.isscalar(f) or np.asarray(f).ndim == 0:
        return float(shift[0]), float(loss_db[0])
    return shift, loss_db

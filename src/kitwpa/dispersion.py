"""Floquet-Bloch dispersion of periodic ladders and stopband detection.

The per-period propagation constant gamma solves cosh(gamma) = (a + d)/2 of
the period's chain matrix.  numpy's arccosh returns the principal branch
(Re >= 0, Im folded into [0, pi]); the folded phase is unfolded into a
monotone curve by tracking the branch from DC upward, which also resolves
the sign ambiguity at band edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import LadderNetwork, bare_ladder
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
                     cells_per_period: int, lossless: bool = True) -> DispersionCurve:
    """Dispersion curve from the chain matrix of one full period.

    For the lossless case the stopband criterion is |Re((a+d)/2)| > 1; with
    loss present points are flagged where the attenuation exceeds ten times
    the passband median.
    """
    t = period_matrix.trace_half()
    gamma = np.arccosh(t.astype(complex))
    atten = np.abs(gamma.real)
    phase = _unfold_bloch_phase(gamma.imag)
    if lossless:
        in_stop = np.abs(t.real) > 1.0
    else:
        floor = np.median(atten)
        in_stop = atten > 10.0 * max(floor, 1e-30)
    return DispersionCurve(
        frequencies=grid.frequencies(),
        phase_per_period=phase,
        attenuation_per_period=atten,
        in_stopband=in_stop,
        cells_per_period=cells_per_period,
    )


def device_dispersion(network: LadderNetwork, grid: FrequencyGrid = DEFAULT_GRID,
                      bias_current: float = 0.0,
                      loss_tangent: float = 0.0) -> DispersionCurve:
    """Bloch curve of the network's period."""
    m = network_matrix(network.one_period(), grid.frequencies(),
                       bias_current, loss_tangent)
    return bloch_dispersion(m, grid, network.cells_per_period,
                            lossless=(loss_tangent == 0.0))


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
    return StopbandReport(bands=tuple(bands))


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

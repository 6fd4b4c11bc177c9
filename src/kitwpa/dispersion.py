"""Floquet-Bloch dispersion of periodic ladders and stopband detection.

The per-period propagation constant gamma solves cosh(gamma) = t, the real
half-trace (a + d)/2 of a lossless period's chain matrix (Pozar, Microwave
Engineering, 8.1): a passband, |t| <= 1, has the phase arccos(t) folded
into [0, pi] and no attenuation, a stopband the attenuation arccosh(|t|).
The fold is unwound into a monotone curve by tracking the branch from DC
upward, which also resolves the sign ambiguity at band edges.
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
    walk_period,
)

__all__ = [
    "DispersionCurve",
    "Stopband",
    "bloch_dispersion",
    "device_dispersion",
    "uniform_cell_dispersion",
    "find_stopbands",
    "resonator_phase_shift",
    "DEFAULT_GRID",
]

DEFAULT_GRID = FrequencyGrid(0.1e9, 20e9, 10_001)

TWO_PI = 2.0 * np.pi


def _takes_second(prev, first, second) -> np.ndarray:
    """Where a step from ``prev`` takes its second candidate: the one of the
    two that does not step back, or when both or neither do, the nearer
    one, the first on a tie."""
    floor = prev - 1e-9
    second_ok = second >= floor
    return np.where((first >= floor) != second_ok, second_ok,
                    np.abs(second - prev) < np.abs(first - prev))


def _sheets(folded: np.ndarray, m: np.ndarray) -> tuple:
    """The sheet (descending, branch) at every point of the fold, when the
    step from point i - 1 to point i is judged at the trial branch m[i - 1];
    the branch returned counts the turns those choices make."""
    before, after = folded[:-1], folded[1:]
    low, high = TWO_PI * m, TWO_PI * (m + 1.0)
    # the descending sheet's first candidate is the ascending one's second
    down = high - after
    turn_up = _takes_second(low + before, low + after, down)
    turn_down = _takes_second(high - before, down, high + after)
    # entry 0 stands for DC: a constant step to the ascending parity
    const = np.concatenate(([True], turn_up != turn_down))
    const_to = np.concatenate(([False], turn_up))
    swaps = np.concatenate(([0], np.cumsum(turn_up & turn_down)))
    last = np.maximum.accumulate(np.where(const, np.arange(folded.size), 0))
    descending = const_to[last] ^ ((swaps - swaps[last]) % 2 == 1)
    branch = np.concatenate(([0.0], np.cumsum(descending[:-1] & turn_down)))
    return descending, branch


def _unfold_bloch_phase(folded: np.ndarray) -> np.ndarray:
    """Reconstruct the monotone unwrapped phase from its [0, pi] fold.

    The phase runs on a sheet of branch m and parity: ascending
    2*pi*m + folded or descending 2*pi*(m + 1) - folded, from the ascending
    sheet m = 0 at DC.  Stepping to point i, the sheet's two candidates
    are judged against its own value at point i - 1 (_takes_second).  The
    first keeps the sheet; the second turns its parity and, from a
    descending sheet, raises m.  Each output value is exactly its sheet's
    expression, so no error accumulates away from band edges.

    The choice at step i depends only on the entering (m, parity),
    folded[i - 1] and folded[i].  So for a trial m per step, both parities'
    choices are evaluated at once.  Each step then maps the parity by
    identity, swap or a constant, and the parities follow from a scan: the
    last constant step (maximum.accumulate) and the swaps since (cumsum).
    The m those choices imply replaces the trial until it stops changing
    (_sheets).  A trial right up to step j gives an m right through step
    j + 1, so at most len(folded) passes run; m enters the choices only
    through rounding, and the presets' folds take two.
    """
    f = np.asarray(folded, dtype=float)
    m = np.zeros(f.size - 1)   # trial branch entering steps 1 .. n-1
    while True:
        descending, branch = _sheets(f, m)
        if np.array_equal(branch[:-1], m):
            break
        m = branch[:-1]
    out = np.where(descending, TWO_PI * (branch + 1.0) - f,
                   TWO_PI * branch + f)
    out[0] = f[0]
    return out


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

    A point lies in a stopband where |t| > 1, t = (a + d)/2.  Raises
    NumericError where t is not finite: deep above the cell cutoff the
    period's chain matrix leaves the float range.
    """
    f = grid.frequencies()
    with np.errstate(invalid="ignore"):   # inf - inf, refused below
        t = period_matrix.trace_half()
    bad = ~np.isfinite(t)
    if bad.any():
        raise nonfinite_error("the Bloch curve is", bad, f)
    mag = np.abs(t)
    return DispersionCurve(
        frequencies=f,
        phase_per_period=_unfold_bloch_phase(np.arccos(np.clip(t, -1.0, 1.0))),
        attenuation_per_period=np.arccosh(np.maximum(mag, 1.0)),
        in_stopband=mag > 1.0,
        cells_per_period=cells_per_period,
    )


def device_dispersion(network: LadderNetwork,
                      grid: FrequencyGrid = DEFAULT_GRID) -> DispersionCurve:
    """Bloch curve of the network's period; raises NumericError where it
    is not finite (bloch_dispersion)."""
    period, _ = walk_period(network.one_period(), grid.frequencies())
    return bloch_dispersion(period, grid, network.cells_per_period)


def _uniform_cell_bloch(l0: float, c: float, f) -> tuple:
    """(phase, attenuation, in_stopband) per cell of the uniform LC ladder
    at the frequencies f, x = pi*f*sqrt(LC): 2*asin(x) and 0 below the
    cutoff x = 1, pi and 2*arccosh(x) at and above it."""
    x = np.pi * f * np.sqrt(l0 * c)
    above = x >= 1.0
    phase = np.where(above, np.pi, 2.0 * np.arcsin(np.minimum(x, 1.0)))
    atten = np.where(above, 2.0 * np.arccosh(np.maximum(x, 1.0)), 0.0)
    return phase, atten, above


def uniform_cell_dispersion(l0: float, c: float,
                            grid: FrequencyGrid) -> DispersionCurve:
    """Closed-form Bloch curve of the uniform LC ladder, one cell per period
    (_uniform_cell_bloch): evanescent above the cutoff, with the phase
    pinned at pi.  Resonator designs propagate on this closed form, taken
    at their modes, with the phase shifters applied as lumped corrections.
    """
    f = grid.frequencies()
    return DispersionCurve(f, *_uniform_cell_bloch(l0, c, f), 1)


@dataclass(frozen=True)
class Stopband:
    """One stopband run of a Bloch curve: its first and last flagged grid
    frequencies f_low and f_high and their midpoint center (Hz), and its
    peak max_attenuation_per_period (nepers)."""

    f_low: float
    f_high: float
    center: float
    max_attenuation_per_period: float

    @property
    def width(self) -> float:
        return self.f_high - self.f_low


def find_stopbands(curve: DispersionCurve, min_depth: float = 0.0) -> tuple:
    """Contiguous stopband runs with peak attenuation >= min_depth, a tuple
    of Stopband in frequency order.

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
        return ()
    # maxima over [start, end) and over the gaps between, alternately; a run
    # reaching the last point is the final segment
    edges = np.column_stack([starts, ends]).ravel()
    if edges[-1] == flags.size:
        edges = edges[:-1]
    peaks = np.maximum.reduceat(curve.attenuation_per_period, edges)[::2]
    f = curve.frequencies
    lows, highs = f[starts], f[ends - 1]
    return tuple(
        Stopband(f_low=lo, f_high=hi, center=mid, max_attenuation_per_period=p)
        for lo, hi, mid, p in zip(lows.tolist(), highs.tolist(),
                                  (0.5 * (lows + highs)).tolist(),
                                  peaks.tolist())
        if p >= min_depth)


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

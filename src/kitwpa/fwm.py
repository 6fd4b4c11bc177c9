"""Degenerate-pump four-wave-mixing propagation along the nonlinear ladder.

The coupled-mode equations evolve envelope amplitudes normalized so |a|^2 is
power in watts, over a continuous cell coordinate z in [0, total_cells].
The per-cell Kerr coefficient of each mode scales with its frequency,
gamma_j = gamma_pump * f_j / f_p, which makes the Manley-Rowe photon-flux
relations exact for the integrated trajectories.

Resonator phase-shifter blocks are not smeared into the continuous
dispersion: each block applies a lumped complex correction (extra pump
phase, insertion magnitude) to every mode at its position along the line.

The small-signal gain (solve_gain) is the limit of a pump that does not
deplete, in closed form: a product of 2x2 signal-idler transfer matrices,
one per segment between blocks.  The coupled-mode ODE serves the
third-harmonic scan alone: third_harmonic_scan integrates the pump and its
harmonic, segment by segment, with a scalar RHS in Python complex
arithmetic (_scan_rhs).  The pump/signal/idler ODE, the stacked numpy RHS
over many systems and their own segment loop are the tests' oracle
(tests/oracles.py).  The stepper samples the scan as it steps (t_eval), so
the scan's memory does not grow with the pump's step count.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import LadderNetwork, SeriesInductor, ShuntCapacitor
from .dispersion import DispersionCurve, _uniform_cell_bloch, s21_over_bare
# solve_ivp is looked up here at every call: bench/tracing.py rebinds it
from .dop853 import MIN_RTOL, solve_ivp
from .errors import NumericError
# network_matrix is not called in this module; it is imported into it because
# bench/tracing.py rebinds it here to record spans
from .twoport import Z0, FrequencyGrid, network_matrix  # noqa: F401

__all__ = [
    "IntegrationOptions",
    "GainProfile",
    "HarmonicScan",
    "kerr_coefficient",
    "PumpedLine",
    "signal_frequencies",
    "prepare_line",
    "solve_gain",
    "integrate_gain",
    "third_harmonic_scan",
]

GAIN_FLOOR_DB = -300.0
HARMONIC_SAMPLES = 1024   # about this many points along a harmonic scan


def kerr_coefficient(k_cell: float, i_star: float) -> float:
    """gamma = k_cell / (2 * i_star^2 * Z0), the nonlinear phase per cell per
    watt at the pump frequency, in rad / (cell * W).

    Follows from L(I) = L0 (1 + I^2/I*^2): the wavenumber scales as sqrt(L),
    so dk/k = I_rms^2 / (2 I*^2), and P = I_rms^2 Z0 converts current to
    power on the Z0 line.  Raises NumericError unless i_star and gamma are
    positive and finite (a k_cell of 0, an i_star^2 past the float range).
    """
    try:
        gamma = k_cell / (2.0 * i_star**2 * Z0)
    except (OverflowError, ZeroDivisionError):   # i_star^2 past the floats
        gamma = math.inf if i_star < 1.0 else 0.0
    if not (i_star > 0 and 0 < gamma < math.inf):
        raise NumericError(
            f"Kerr coefficient gamma = k_p / (2 I*^2 Z0) = {gamma:g} "
            f"rad/(cell W) at k_p = {k_cell:g} rad/cell and I* = {i_star:g} "
            "A; gamma and I* must be positive and finite")
    return gamma


# --------------------------------------------------------------------------
# device-level propagation

@dataclass(frozen=True)
class IntegrationOptions:
    """Coupled-mode settings: the DOP853 rtol and atol (atol in sqrt(W),
    the mode amplitudes' unit), which only third_harmonic_scan reads, and
    include_third_harmonic, a flag nothing integrates with:
    third_harmonic_scan always carries the third harmonic and ignores it,
    and integrate_gain, whose small-signal gain carries none, refuses it."""

    include_third_harmonic: bool = False
    rtol: float = 1e-9
    atol: float = 1e-14

    def __post_init__(self):
        # below MIN_RTOL the step error estimate is rounding noise; refused
        # here rather than raised to the floor, as scipy would do silently
        if not MIN_RTOL <= self.rtol < math.inf:
            raise ValueError(f"rtol must be finite and >= {MIN_RTOL:.3g}, "
                             f"got {self.rtol}")
        # modes that start at exactly zero (the idler, the third harmonic)
        # need atol > 0 for a finite step error estimate
        if not 0 < self.atol < math.inf:
            raise ValueError(f"atol must be positive and finite, got {self.atol}")


@dataclass(frozen=True)
class GainProfile:
    """Small-signal gain over the signal grid: frequencies (Hz, pump point
    dropped), gain_db (dB), the pump_frequency (Hz), the linear and total
    phase mismatch per signal (rad/cell), and where the signal or its idler
    lies in a stopband."""

    frequencies: np.ndarray
    gain_db: np.ndarray
    pump_frequency: float
    delta_k_linear: np.ndarray
    delta_k_total: np.ndarray
    in_stopband: np.ndarray


@dataclass(frozen=True)
class HarmonicScan:
    """Powers along the line: sample positions z_cells (cells from the
    input), pump and third-harmonic powers there (W), and the input
    pump_power (W)."""

    z_cells: np.ndarray
    p_pump: np.ndarray
    p_third: np.ndarray
    pump_power: float

    @property
    def conversion_efficiency(self) -> float:
        """|a_3(L)|^2 / P_p at the output."""
        return float(self.p_third[-1] / self.pump_power)


def _smooth_background(network: LadderNetwork) -> tuple:
    """Unique (L, C) of the uniform base cells; NumericError if cells differ."""
    l0 = {e.l0 for e in network.period if isinstance(e, SeriesInductor)}
    cs = {e.c for e in network.period if isinstance(e, ShuntCapacitor)}
    if len(l0) != 1 or len(cs) != 1:
        raise NumericError("resonator design must have uniform base cells")
    return (l0.pop(), cs.pop())


def _scan_rhs(gamma: float, alpha_p: float, alpha_3: float, dk: float):
    """The RHS of the scan's state [a_p, a_3] at Kerr coefficient gamma,
    attenuations alpha_p and alpha_3 and mismatch dk = k_3 - 3 k_p.

    The scan injects no signal, so the zero signal and idler drop out of
    every term.  The RHS is Python complex arithmetic: on two entries a
    numpy RHS costs its per-call overhead many times over.
    """
    # factors that do not change along the line, formed once; each is the
    # leading sub-expression of its term (1j * g * ..., -1j * dk * z), so
    # forming it here changes no rounding
    jgp, jg3, mjdk = 1j * gamma, 1j * (3.0 * gamma), -1j * dk

    def rhs(z, y):
        ap, a3 = y.tolist()
        pp = ap.real * ap.real + ap.imag * ap.imag
        p3 = a3.real * a3.real + a3.imag * a3.imag
        apap = ap * ap
        e3 = cmath.exp(mjdk * z)
        dap = (jgp * ((pp + 2.0 * p3) * ap) - alpha_p * ap
               + jgp * apap.conjugate() * a3 * e3.conjugate())
        # a product with 1/3, as numpy divides a complex by 3
        da3 = (jg3 * ((p3 + 2.0 * pp) * a3 + apap * ap * e3 * (1.0 / 3.0))
               - alpha_3 * a3)
        return np.array([dap, da3])
    return rhs


@dataclass(frozen=True)
class PumpedLine:
    """The linear part of a device pumped at one frequency.

    Everything the small-signal gain needs that depends only on the network,
    the dispersion, the pump frequency and the signal grid.
    None of it depends on I*, which the linear model never reads (I* enters
    only the Kerr coefficient), or on the pump power, so one line serves
    every operating point at its pump frequency; see solve_gain.
    """

    pump_frequency: float
    signal_frequencies: np.ndarray   # the grid without the pump point
    k_pump: float                    # rad/cell
    delta_k: np.ndarray              # k_s + k_i - 2 k_p, rad/cell
    alphas: tuple                    # nepers/cell: pump, signals, idlers
    in_stopband: np.ndarray          # signal or idler inside a stopband
    total_cells: float
    blocks: tuple                    # cell positions of the block corrections
    block_factors: tuple | None      # pump, signals, idlers; None: no blocks


def signal_frequencies(signal_grid, pump_frequency: float) -> np.ndarray:
    """The signal grid without the pump point (any point within 1e-9·f_p).

    Raises ValueError unless the pump frequency is positive, every signal
    is finite, the signals increase strictly and every other signal lies in
    (0, 2·f_p).
    """
    f_p = pump_frequency
    if f_p <= 0:
        raise ValueError("pump frequency must be positive")
    if isinstance(signal_grid, FrequencyGrid):
        f_s = signal_grid.frequencies()
    else:
        f_s = np.asarray(signal_grid, dtype=float)
    if not np.isfinite(f_s).all():
        raise ValueError("signal frequencies must be finite")
    if np.any(np.diff(f_s) <= 0):
        raise ValueError("signal frequencies must increase strictly")
    f_s = f_s[np.abs(f_s - f_p) > 1e-9 * f_p]
    if np.any(f_s <= 0) or np.any(f_s >= 2 * f_p):
        raise ValueError(f"signal frequencies must lie in (0, 2*f_p) = "
                         f"(0, {2 * f_p:g}) Hz")
    return f_s


def _require_on_grid(what: str, f: np.ndarray, curve: DispersionCurve):
    """Raise NumericError unless the frequencies f lie on the curve's grid:
    past its ends the curve's k, alpha and stopband flags are its end
    values, not the mode's."""
    lo, hi = float(f.min()), float(f.max())
    span = f"{lo / 1e9:.2f}" + (f"-{hi / 1e9:.2f}" if hi > lo else "")
    start, stop = float(curve.frequencies[0]), float(curve.frequencies[-1])
    if lo < start or hi > stop:
        raise NumericError(
            f"{what}: {span} GHz needed, but the dispersion grid spans "
            f"{start / 1e9:.2f}-{stop / 1e9:.2f} GHz; extend "
            "analysis.frequency_grid")


def _block_corrections(network: LadderNetwork, frequencies: np.ndarray) -> tuple:
    """(cell positions of the resonator blocks, factor of one block at each
    frequency); ((), None) for a network without resonators."""
    if not network.has_resonators():
        return (), None
    cells = network.cells_per_period
    blocks = tuple(float(b * cells) for b in range(network.repeats))
    # one cascade of the block serves every mode frequency; the factor is
    # the conjugate of s21(block) / s21(bare ladder) because the amplitudes
    # use the physics phasor convention, where extra delay is a positive
    # phase
    return blocks, np.conj(s21_over_bare(network.one_period(), frequencies))


def _pump_modes(network: LadderNetwork, dispersion: DispersionCurve,
                modes: np.ndarray, what: str, on_device_grid: bool) -> tuple:
    """(k in rad/cell, alpha in nepers/cell, block positions, block factors)
    at the modes of a line pumped at modes[0].

    The modes propagate on ``dispersion``, or, for a resonator design, on
    the closed-form curve of its bare ladder taken at the modes themselves,
    with the resonators as block corrections (_block_corrections).  Raises
    ValueError for a pump frequency that is not positive, and NumericError
    for a pump off the grid of ``dispersion`` or inside one of its
    stopbands, a mode off that grid where the modes propagate on it (or
    wherever ``on_device_grid``), or a resonator design without uniform
    base cells.
    """
    f_p = float(modes[0])
    if f_p <= 0:
        raise ValueError("pump frequency must be positive")
    _require_on_grid("pump", modes[:1], dispersion)
    if bool(dispersion.stopband_at(f_p)[0]):
        raise NumericError(
            f"pump at {f_p / 1e9:.4f} GHz lies inside a stopband; "
            "move it into a passband below the band edge"
        )
    resonators = network.has_resonators()
    if on_device_grid or not resonators:
        _require_on_grid(what, modes, dispersion)
    if resonators:
        k, alpha, _ = _uniform_cell_bloch(*_smooth_background(network), modes)
    else:
        k, alpha = dispersion.k_cell(modes), dispersion.alpha_cell(modes)
    return (k, alpha, *_block_corrections(network, modes))


def prepare_line(network: LadderNetwork, dispersion: DispersionCurve,
                 pump_frequency: float, signal_grid) -> PumpedLine:
    """The linear setup of integrate_gain for one pump frequency.

    The arguments mean what they mean for integrate_gain; any signal point
    at the pump frequency is dropped.  Raises NumericError for a pump inside
    a stopband, a pump, signal or idler off the grid of ``dispersion``, or a
    resonator design without uniform base cells, and ValueError for a
    signal grid signal_frequencies refuses or leaves empty.
    """
    f_p = pump_frequency
    f_s = signal_frequencies(signal_grid, f_p)
    if f_s.size == 0:
        raise ValueError("signal grid is empty after excluding the pump")

    n = f_s.size
    f_i = 2.0 * f_p - f_s
    modes = np.concatenate([[f_p], f_s, f_i])
    k, alpha, blocks, fac = _pump_modes(network, dispersion, modes,
                                        "pump, signals and idlers",
                                        on_device_grid=True)
    k_p = float(k[0])
    block_factors = None if fac is None else (fac[0], fac[1:n + 1], fac[n + 1:])
    stop_flags = (np.asarray(dispersion.stopband_at(f_s))
                  | np.asarray(dispersion.stopband_at(f_i)))
    return PumpedLine(
        pump_frequency=f_p, signal_frequencies=f_s, k_pump=k_p,
        delta_k=k[1:n + 1] + k[n + 1:] - 2.0 * k_p,
        alphas=(float(alpha[0]), alpha[1:n + 1], alpha[n + 1:]),
        in_stopband=stop_flags, total_cells=float(network.total_cells),
        blocks=blocks, block_factors=block_factors)


def _transfer(line: PumpedLine, g_p: float, p_p: float):
    """Output signal and conjugate idler per unit input signal, (T00, T10).

    The small-signal limit of the coupled-mode equations, whose pump does
    not deplete (Chaudhuri, Gao & Irwin, arXiv:1506.00646), exact on each
    segment between block corrections.  There the lossless pump is
    a0 exp(i g_p P (z - z0)), and the pair (a_s, conj a_i) obeys
    d/dz (A, B) = M (A, B) in a frame rotating at kappa/2,
    kappa = 2 g_p P - dk, with the constant

        M = [[2i g_s P - i kappa/2 - alpha_s,  i g_s c],
             [-i g_i conj(c),  -2i g_i P + i kappa/2 - alpha_i]],

    c = a0^2 exp(-i dk z0) = P e^(i psi).  With D = diag(e^(i psi/2),
    e^(-i psi/2)), M = D (m I + N) D^-1, where m = i P (g_s - g_i) -
    (alpha_s + alpha_i)/2 and N = [[d, i g_s P], [-i g_i P, -d]],
    d = i delta - (alpha_s - alpha_i)/2, delta = P (g_s + g_i) - g_p P +
    dk/2: N depends on the segment's pump power P alone.  The pair is
    carried in the frame of D and the rotation; from one segment's frame
    to the next, the pump's phases and the e^(-i dk z) cancel, so a block
    correction (the lumped resonant phase matching of O'Brien et al., PRL
    113, 157001 (2014)) acts as the constant diagonal (f_s e^(-i arg f_p),
    conj(f_i) e^(i arg f_p)), and its pump factor f_p sets the next P.
    The frame's exit phase, arg a0(Z) - dk Z/2, turns the pair back once
    after the last segment.

    A segment's matrix in the frame is exp(NL) = cosh(gL) I + sinh(gL)/g N,
    g^2 = -det N.  Where alpha_s = alpha_i, g^2 = g_s g_i P^2 - delta^2 is
    real: cosh and sinh(gL)/g are those of r = sqrt|g^2|, or cos and
    sin(rL)/r for g^2 < 0 (L at r = 0), all in real arithmetic, and
    e^(mL), a multiple of the identity, is applied once with the exit
    phase.  Elsewhere g is complex (principal root, Re g >= 0) and, with
    q = exp(-2gL), the segment is e^((m+g)L) [(1 + q)/2 I + (1 - q)/(2g) N]:
    e^(mL) stays in each segment, where the loss in m offsets Re g, so the
    product leaves the float range only when the gain itself does.

    Raises NumericError when the transfer is not finite.
    """
    f_p, f_s = line.pump_frequency, line.signal_frequencies
    g_s = g_p * f_s / f_p
    g_i = g_p * (2.0 * f_p - f_s) / f_p
    _, alpha_s, alpha_i = line.alphas
    dk = line.delta_k
    # the signals with equal losses, whose segments are real, and the rest,
    # carried apart
    equal = alpha_s == alpha_i
    real, cplx = np.flatnonzero(equal), np.flatnonzero(~equal)
    gs_r, gi_r, half_dk_r = g_s[real], g_i[real], 0.5 * dk[real]
    gsum_r, gsgi_r = gs_r + gi_r - g_p, gs_r * gi_r
    gs_c, gi_c, half_dk_c = g_s[cplx], g_i[cplx], 0.5 * dk[cplx]
    gsum_c, gdiff_c = gs_c + gi_c - g_p, gs_c - gi_c
    loss_sum_c = 0.5 * (alpha_s[cplx] + alpha_i[cplx])
    loss_diff_c = 0.5 * (alpha_s[cplx] - alpha_i[cplx])
    if line.block_factors is not None:
        fp_fac, fs_fac, fi_fac = line.block_factors
        # a block in the frame: the pump's phase leaves both modes
        block_phase = cmath.phase(fp_fac)
        turn = cmath.exp(1j * block_phase)
        block_s, block_i = fs_fac * turn.conjugate(), np.conj(fi_fac) * turn
        block_s_r, block_i_r = block_s[real], block_i[real]
        block_s_c, block_i_c = block_s[cplx], block_i[cplx]
        block_p = abs(fp_fac) ** 2
    us_r, ui_r = np.ones(real.size, complex), np.zeros(real.size, complex)
    us_c, ui_c = np.ones(cplx.size, complex), np.zeros(cplx.size, complex)
    p = p_p          # the segment's pump power
    phase = 0.0      # arg a0, from the real a0 = sqrt(p_p) at the input
    pl = 0.0         # sum of P L over the segments
    gl_max = 0.0
    z = 0.0
    stops = [*line.blocks, line.total_cells]
    with np.errstate(over="ignore", invalid="ignore"):
        for i, z1 in enumerate(stops):
            if z1 > z:
                length = z1 - z
                if real.size:
                    delta = p * gsum_r + half_dk_r
                    g2 = (p * p) * gsgi_r - delta * delta
                    r = np.sqrt(np.abs(g2))
                    # cos(rL) and sin(rL) from one tangent of the half
                    # angle, t = tan(rL/2): a real tan costs a fraction of
                    # a real cos or sin
                    t = np.tan((0.5 * length) * r)
                    t2 = t * t
                    inv = 1.0 / (1.0 + t2)
                    cos_part, sin_part = (1.0 - t2) * inv, (2.0 * inv) * t
                    grows = g2 > 0
                    if grows.any():
                        rl = r[grows] * length
                        gl_max = max(gl_max, float(rl.max()))
                        cos_part[grows] = np.cosh(rl)
                        sin_part[grows] = np.sinh(rl)
                    # sinh(rL)/r or sin(rL)/r, whose limit at r = 0 is L
                    np.divide(sin_part, r, out=sin_part, where=r != 0)
                    if not r.all():
                        sin_part[r == 0] = length
                    b = sin_part * delta
                    y, w = sin_part * (p * gs_r), sin_part * (p * gi_r)
                    us_r, ui_r = ((cos_part + 1j * b) * us_r + (1j * y) * ui_r,
                                  (cos_part - 1j * b) * ui_r - (1j * w) * us_r)
                if cplx.size:
                    d = 1j * (p * gsum_c + half_dk_c) - loss_diff_c
                    m12, m21 = 1j * p * gs_c, -1j * p * gi_c
                    g = np.sqrt(d * d + m12 * m21)   # principal root: Re g >= 0
                    gl = g * length
                    gl_max = max(gl_max, float(np.max(gl.real)))
                    grow = np.exp((1j * p * gdiff_c - loss_sum_c) * length + gl)
                    one_minus_q = -np.expm1(-2.0 * gl)
                    cosh_part = grow * (1.0 - 0.5 * one_minus_q)
                    # (1 - q)/(2g), whose limit at g = 0 is the length
                    sinh_part = np.full(cplx.size, complex(length))
                    np.divide(0.5 * one_minus_q, g, out=sinh_part, where=gl != 0)
                    sinh_part *= grow
                    us_c, ui_c = (
                        (cosh_part + sinh_part * d) * us_c + sinh_part * m12 * ui_c,
                        sinh_part * m21 * us_c + (cosh_part - sinh_part * d) * ui_c)
                phase += g_p * p * length
                pl += p * length
                z = z1
            if i < len(line.blocks):
                us_r, ui_r = us_r * block_s_r, ui_r * block_i_r
                us_c, ui_c = us_c * block_s_c, ui_c * block_i_c
                p *= block_p
                phase += block_phase
        # out of the frame: the exit phase, and on the real subset the
        # multiple of the identity e^(sum of mL)
        exit_phase = phase - 0.5 * dk * z
        ident = ((1j * pl) * (gs_r - gi_r)
                 - 0.5 * (alpha_s[real] + alpha_i[real]) * z)
        t_s = np.empty(f_s.size, dtype=complex)
        t_i = np.empty(f_s.size, dtype=complex)
        t_s[real] = us_r * np.exp(ident + 1j * exit_phase[real])
        t_i[real] = ui_r * np.exp(ident - 1j * exit_phase[real])
        t_s[cplx] = us_c * np.exp(1j * exit_phase[cplx])
        t_i[cplx] = ui_c * np.exp(-1j * exit_phase[cplx])
    if not (np.isfinite(t_s).all() and np.isfinite(t_i).all()):
        raise NumericError(
            f"small-signal gain overflows at pump power {p_p:.6g} W: the "
            f"largest segment exponent Re(gL) is {gl_max:.4g}, past the "
            "float range")
    return t_s, t_i


def solve_gain(line: PumpedLine, i_star: float, pump_power: float) -> GainProfile:
    """Small-signal gain profile of a prepared line at one operating point.

    ``integrate_gain(network, ...)`` is ``solve_gain(prepare_line(network,
    ...), network.i_star, pump_power)``.  The gain is 20 log10 |T00| of the
    small-signal signal-idler transfer (_transfer), so it needs no seed and
    no integrator tolerance.  Raises ValueError for a negative pump power,
    and NumericError for an attenuated pump or a gain past the float range.
    The profile's arrays are its own.
    """
    p_p = pump_power
    if p_p < 0:
        raise ValueError("pump power must be >= 0")
    alpha_p = line.alphas[0]
    if alpha_p != 0.0:
        raise NumericError(
            f"pump at {line.pump_frequency / 1e9:.4f} GHz lies within one grid "
            f"step of a stopband (attenuation {alpha_p:.3g} nepers/cell); "
            "move it into a passband below the band edge")
    gamma = kerr_coefficient(line.k_pump, i_star)
    f_s, dk = line.signal_frequencies, line.delta_k
    if p_p == 0.0:
        return GainProfile(f_s.copy(), np.zeros(f_s.size), line.pump_frequency,
                           dk.copy(), dk.copy(), line.in_stopband.copy())

    t_s, _ = _transfer(line, gamma, p_p)
    gain_db = 20.0 * np.log10(np.maximum(np.abs(t_s), 1e-300))
    gain_db = np.maximum(gain_db, GAIN_FLOOR_DB)
    return GainProfile(
        frequencies=f_s.copy(),
        gain_db=gain_db,
        pump_frequency=line.pump_frequency,
        delta_k_linear=dk.copy(),
        delta_k_total=dk + 2.0 * gamma * p_p,
        in_stopband=line.in_stopband.copy(),
    )


def integrate_gain(network: LadderNetwork, dispersion: DispersionCurve,
                   pump: tuple, signal_grid, options: IntegrationOptions | None = None,
                   stopband_curve: DispersionCurve | None = None) -> GainProfile:
    """Signal gain profile of a pumped device.

    ``dispersion`` supplies the continuous propagation constants for the
    coupled-mode phases and the stopband flags used for pump validation and
    per-point annotation; for resonator-embedded designs the resonators
    enter as lumped per-block corrections instead, computed from the
    network, and the modes propagate on the bare ladder's closed-form curve
    instead.  ``stopband_curve`` may only be ``dispersion`` itself
    (ValueError otherwise).  Of ``options`` only include_third_harmonic
    is read, to refuse it (ValueError): the small-signal gain takes no
    integrator settings.

    Gain is the small-signal 20*log10 |a_s(L)/a_s(0)| with Bloch
    attenuation folded in, from solve_gain; a zero-power pump short-circuits
    to an identically zero profile.
    """
    if stopband_curve is not None and stopband_curve is not dispersion:
        raise ValueError("stopband_curve must be the dispersion curve itself")
    if options is not None and options.include_third_harmonic:
        raise ValueError("include_third_harmonic applies to "
                         "third_harmonic_scan only; the small-signal gain has "
                         "no third harmonic")
    f_p, p_p = pump
    line = prepare_line(network, dispersion, f_p, signal_grid)
    return solve_gain(line, network.i_star, p_p)


def third_harmonic_scan(network: LadderNetwork, dispersion: DispersionCurve,
                        pump: tuple, options: IntegrationOptions | None = None
                        ) -> HarmonicScan:
    """Pump and third-harmonic powers along the line (no signal injected).

    Only the pump and its third harmonic are integrated: with no signal
    injected, the signal and idler would stay zero.  Raises ValueError for
    a pump that is not positive, NumericError as prepare_line does for the
    pump and, for a design without resonators, for a third harmonic off the
    grid of ``dispersion``.  The include_third_harmonic option is not read.

    The line is integrated segment by segment between the block
    corrections, each applied at its position, and sampled on about
    HARMONIC_SAMPLES points by the stepper as it steps.  Each segment
    starts from the step size the previous one had reached: a block
    correction is a jump in the amplitudes, not in the smoothness of the
    RHS, and error control still rejects a carried step that is too large.
    """
    options = options or IntegrationOptions()
    f_p, p_p = pump
    if p_p <= 0:
        raise ValueError("harmonic scan requires a nonzero pump")
    k, alpha, blocks, block_factors = _pump_modes(
        network, dispersion, np.array([f_p, 3.0 * f_p]),
        "pump and third harmonic", on_device_grid=False)
    k_p = float(k[0])
    rhs = _scan_rhs(kerr_coefficient(k_p, network.i_star), float(alpha[0]),
                    float(alpha[1]), float(k[1] - 3.0 * k_p))
    total = float(network.total_cells)
    y = np.array([math.sqrt(p_p), 0.0], dtype=complex)
    z, h = 0.0, None
    zs, powers = [], []
    for i, z1 in enumerate([*blocks, total]):
        if z1 > z:
            pts = max(2, int(round(HARMONIC_SAMPLES * (z1 - z) / total)))
            zs.append(np.linspace(z, z1, pts))
            sol = solve_ivp(rhs, (z, z1), y, method="DOP853",
                            rtol=options.rtol, atol=options.atol,
                            first_step=None if h is None else min(h, z1 - z),
                            t_eval=zs[-1])
            if not sol.success:
                raise NumericError(
                    f"coupled-mode integration failed on z in [{z:g}, "
                    f"{z1:g}] cells: {sol.message}"
                )
            # the last step may be clipped at z1; carry the one before it
            if sol.steps > 1 or h is None:
                h = sol.h_carry
            powers.append(np.abs(sol.y_eval) ** 2)
            y = sol.y_end
            z = z1
        if i < len(blocks):
            y = y * block_factors
    p_pump, p_third = np.concatenate(powers, axis=1)
    return HarmonicScan(
        z_cells=np.concatenate(zs),
        p_pump=p_pump,
        p_third=p_third,
        pump_power=p_p,
    )


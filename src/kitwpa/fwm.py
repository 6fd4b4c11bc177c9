"""Degenerate-pump four-wave-mixing propagation along the nonlinear ladder.

The coupled-mode equations evolve envelope amplitudes normalized so |a|^2 is
power in watts, over a continuous cell coordinate z in [0, total_cells].
The per-cell Kerr coefficient of each mode scales with its frequency,
gamma_j = gamma_pump * f_j / f_p, which makes the Manley-Rowe photon-flux
relations exact for the integrated trajectories.

Resonator phase-shifter blocks are not smeared into the continuous
dispersion: each block applies a lumped complex correction (extra pump
phase, insertion magnitude) to every mode at its position along the line.

The small-signal gain (solve_gain) is the undepleted limit in closed form:
a product of 2x2 signal-idler transfer matrices, one per segment between
blocks.  The coupled-mode ODE serves the third-harmonic scan, which
integrates the pump and its harmonic alone, and propagate_modes, which
carries all four modes with the pump's depletion.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .circuit import LadderNetwork, SeriesInductor, ShuntCapacitor
from .dispersion import DispersionCurve, s21_over_bare, uniform_cell_dispersion
# solve_ivp is looked up here at every call: bench/tracing.py rebinds it
from .dop853 import MIN_RTOL, solve_ivp
from .errors import NumericError
# network_matrix is not called in this module; it is imported into it because
# bench/tracing.py rebinds it here to record spans
from .twoport import FrequencyGrid, network_matrix, table_lines  # noqa: F401

__all__ = [
    "KerrCoefficient",
    "PhaseMismatch",
    "ModeState",
    "IntegrationOptions",
    "GainProfile",
    "HarmonicScan",
    "kerr_coefficient",
    "propagate_modes",
    "analytic_gain_undepleted",
    "PumpedLine",
    "signal_frequencies",
    "prepare_line",
    "solve_gain",
    "integrate_gain",
    "third_harmonic_scan",
    "gain_profile_csv_rows",
    "harmonic_scan_csv_rows",
]

GAIN_FLOOR_DB = -300.0
HARMONIC_SAMPLES = 1024   # about this many points along a harmonic scan


@dataclass(frozen=True)
class KerrCoefficient:
    """Nonlinear phase per cell per watt at the pump frequency."""

    gamma: float          # rad / (cell * W)

    def at(self, f: float, f_p: float) -> float:
        """Kerr coefficient of a mode at frequency f (scales as f / f_p)."""
        return self.gamma * f / f_p


def kerr_coefficient(k_cell: float, i_star: float, z0: float = 50.0) -> KerrCoefficient:
    """gamma = k_cell / (2 * i_star^2 * z0).

    Follows from L(I) = L0 (1 + I^2/I*^2): the wavenumber scales as sqrt(L),
    so dk/k = I_rms^2 / (2 I*^2), and P = I_rms^2 Z0 converts current to
    power.
    """
    if k_cell <= 0 or i_star <= 0 or z0 <= 0:
        raise ValueError("k_cell, i_star and z0 must be positive")
    return KerrCoefficient(gamma=k_cell / (2.0 * i_star**2 * z0))


@dataclass(frozen=True)
class PhaseMismatch:
    delta_k_linear: float   # rad/cell, k_s + k_i - 2 k_p
    delta_k_total: float    # rad/cell, linear + 2 gamma P_p


@dataclass
class ModeState:
    """Complex amplitudes of the four interacting tones; |a|^2 in watts."""

    a_p: complex
    a_s: complex
    a_i: complex
    a_3: complex
    f_p: float
    f_s: float

    @property
    def f_i(self) -> float:
        return 2.0 * self.f_p - self.f_s


def propagate_modes(state: ModeState, gamma: KerrCoefficient,
                    mismatch: PhaseMismatch, length: float,
                    options: IntegrationOptions | None = None,
                    delta_k_3: float = 0.0,
                    attenuation=(0.0, 0.0, 0.0, 0.0),
                    undepleted: bool = False) -> ModeState:
    """Integrate one pump/signal/idler(/third) system over ``length`` cells.

    The mismatch and attenuations are taken as given, which makes this the
    direct integration counterpart of analytic_gain_undepleted.  With
    ``undepleted`` only the pump drives the signal and idler, and the pump
    evolves by its own self-phase modulation alone: the small-signal limit
    that analytic_gain_undepleted and solve_gain take.
    """
    options = options or IntegrationOptions()
    f_p, f_s, f_i = state.f_p, state.f_s, state.f_i
    thg = options.include_third_harmonic
    gammas = (gamma.gamma, gamma.at(f_s, f_p), gamma.at(f_i, f_p),
              gamma.at(3 * f_p, f_p))
    n_modes = 4 if thg else 3
    y0 = np.array([state.a_p, state.a_s, state.a_i, state.a_3],
                  dtype=complex)[:n_modes]
    prop = _Propagator(
        1, gammas, np.array([mismatch.delta_k_linear]), delta_k_3,
        tuple(np.atleast_1d(a).astype(float) for a in attenuation),
        options, float(length), undepleted=undepleted)
    y = prop.run(y0)
    return ModeState(
        a_p=complex(y[0]), a_s=complex(y[1]), a_i=complex(y[2]),
        a_3=complex(y[3]) if thg else 0.0,
        f_p=f_p, f_s=f_s,
    )


def analytic_gain_undepleted(gamma_pp: float, delta_k_total: float,
                             length: float) -> float:
    """Closed-form undepleted signal power gain (ratio, not dB).

    G = 1 + (gamma*P_p / g)^2 sinh^2(g L) with
    g^2 = (gamma*P_p)^2 - (delta_k_total / 2)^2; for g^2 < 0 the sinh turns
    into an oscillatory sin, and g = 0 degenerates to G = 1 + (gamma*P_p*L)^2.
    The idler photon-flux gain is G - 1 exactly.
    """
    if length < 0:
        raise ValueError("length must be >= 0")
    g2 = complex(gamma_pp**2 - (delta_k_total / 2.0) ** 2)
    g = np.sqrt(g2)
    gl = g * length
    if abs(gl) < 1e-8:
        sh_over_g = length * (1.0 + gl * gl / 6.0)
    else:
        sh_over_g = np.sinh(gl) / g
    return float(1.0 + (gamma_pp * abs(sh_over_g)) ** 2)


# --------------------------------------------------------------------------
# device-level propagation

@dataclass(frozen=True)
class IntegrationOptions:
    include_third_harmonic: bool = False
    rtol: float = 1e-9
    atol: float = 1e-14
    z0: float = 50.0               # line impedance for the power-current map

    def __post_init__(self):
        # below MIN_RTOL the step error estimate is rounding noise; refused
        # here rather than raised to the floor, as scipy would do silently
        if not self.rtol >= MIN_RTOL:
            raise ValueError(f"rtol must be >= {MIN_RTOL:.3g}, got {self.rtol}")
        # modes that start at exactly zero (the idler, the third harmonic)
        # need atol > 0 for a finite step error estimate
        if not self.atol > 0:
            raise ValueError(f"atol must be positive, got {self.atol}")
        if not self.z0 > 0:
            raise ValueError(f"z0 must be positive, got {self.z0}")


@dataclass(frozen=True)
class GainProfile:
    frequencies: np.ndarray
    gain_db: np.ndarray
    pump_frequency: float
    pump_power: float
    delta_k_linear: np.ndarray
    delta_k_total: np.ndarray
    in_stopband: np.ndarray
    i_star: float


@dataclass(frozen=True)
class HarmonicScan:
    z_cells: np.ndarray
    p_pump: np.ndarray
    p_signal: np.ndarray
    p_idler: np.ndarray
    p_third: np.ndarray
    pump_frequency: float
    pump_power: float

    @property
    def conversion_efficiency(self) -> float:
        """|a_3(L)|^2 / P_p at the output."""
        return float(self.p_third[-1] / self.pump_power)


def _smooth_background(network: LadderNetwork) -> tuple | None:
    """Unique (L, C) of the uniform base cells; None if cells differ."""
    l0 = {e.l0 for e in network.period if isinstance(e, SeriesInductor)}
    cs = {e.c for e in network.period if isinstance(e, ShuntCapacitor)}
    if len(l0) == 1 and len(cs) == 1:
        return (l0.pop(), cs.pop())
    return None


class _Propagator:
    """Piecewise ensemble integration with lumped block corrections.

    The state stacks n independent systems as one flat complex vector,
    [pump | signals | idlers (| third harmonics)], n entries each.
    """

    def __init__(self, n, gammas, dk, dk3, alphas, options, total_cells=0.0,
                 blocks=(), block_factors=None, undepleted=False):
        gp, gs, gi, g3 = gammas
        self.n = n
        # factors of the RHS that do not change along the line, formed once;
        # each is the leading sub-expression of its term (1j * g * ...,
        # -1j * dk * z), so forming it here changes no rounding
        self.jgp, self.jgs, self.jgi, self.jg3 = 1j * gp, 1j * gs, 1j * gi, 1j * g3
        self.jg3_third = 1j * (g3 / 3.0)
        self.mjdk = -1j * dk
        self.mjdk3 = -1j * dk3
        self.alphas = alphas
        self.total_cells = total_cells
        self.blocks = blocks
        self.block_factors = block_factors  # (fp_fac, fs_fac, fi_fac, f3_fac)
        self.undepleted = undepleted
        self.thg = options.include_third_harmonic
        self.rtol = options.rtol
        self.atol = options.atol

    def _rhs(self, z, y):
        n = self.n
        ap_al, as_al, ai_al, a3_al = self.alphas
        ap = y[0 * n:1 * n]
        as_ = y[1 * n:2 * n]
        ai = y[2 * n:3 * n]
        out = np.empty_like(y)
        dap, das, dai = out[0 * n:1 * n], out[1 * n:2 * n], out[2 * n:3 * n]

        pp = ap.real**2 + ap.imag**2
        pp2 = 2.0 * pp
        apap = ap * ap
        e = np.exp(self.mjdk * z)
        if self.thg:
            a3 = y[3 * n:4 * n]
            da3 = out[3 * n:4 * n]
            e3 = np.exp(self.mjdk3 * z)

        if self.undepleted:
            np.multiply(self.jgp * pp - ap_al, ap, out=dap)
            np.subtract(self.jgs * (pp2 * as_ + apap * np.conj(ai) * e),
                        as_al * as_, out=das)
            np.subtract(self.jgi * (pp2 * ai + apap * np.conj(as_) * e),
                        ai_al * ai, out=dai)
            if self.thg:
                np.add((self.jg3 * pp2 - a3_al) * a3,
                       self.jg3_third * ap**3 * e3, out=da3)
            return out

        ps = as_.real**2 + as_.imag**2
        pi_ = ai.real**2 + ai.imag**2
        ps2 = 2.0 * ps
        pi2 = 2.0 * pi_
        # cross-phase sums; the third harmonic's 2*p3 is added last
        sp = pp + ps2 + pi2
        ss = ps + pp2 + pi2
        si = pi_ + pp2 + ps2
        if self.thg:
            p3 = a3.real**2 + a3.imag**2
            p32 = 2.0 * p3
            sp += p32
            ss += p32
            si += p32
        np.subtract(self.jgp * (sp * ap + 2.0 * as_ * ai * np.conj(ap) * np.conj(e)),
                    ap_al * ap, out=dap)
        np.subtract(self.jgs * (ss * as_ + apap * np.conj(ai) * e),
                    as_al * as_, out=das)
        np.subtract(self.jgi * (si * ai + apap * np.conj(as_) * e),
                    ai_al * ai, out=dai)
        if self.thg:
            dap += self.jgp * np.conj(ap)**2 * a3 * np.conj(e3)
            np.subtract(self.jg3 * ((p3 + pp2 + ps2 + pi2) * a3 + ap**3 * e3 / 3.0),
                        a3_al * a3, out=da3)
        return out

    def _apply_block(self, y):
        n = self.n
        fp_fac, fs_fac, fi_fac, f3_fac = self.block_factors
        y[0 * n:1 * n] *= fp_fac
        y[1 * n:2 * n] *= fs_fac
        y[2 * n:3 * n] *= fi_fac
        if self.thg:
            y[3 * n:4 * n] *= f3_fac
        return y

    def run(self, y0, n_samples=None):
        """Integrate over the whole line, applying each block correction at
        its position.  Returns the output state; with ``n_samples``, the
        trajectory (z, y) sampled on about that many points instead.

        Each segment between blocks starts from the step size the previous
        one had reached: a block correction is a jump in the amplitudes, not
        in the smoothness of the RHS, and error control still rejects a
        carried step that is too large."""
        y = y0.copy()
        z = 0.0
        h = None
        zs, ys = [], []
        stops = [*self.blocks, self.total_cells]
        for i, z1 in enumerate(stops):
            if z1 > z:
                sol = solve_ivp(self._rhs, (z, z1), y, method="DOP853",
                                rtol=self.rtol, atol=self.atol,
                                first_step=None if h is None else min(h, z1 - z),
                                dense_output=n_samples is not None)
                if not sol.success:
                    raise NumericError(
                        f"coupled-mode integration failed on z in [{z:g}, "
                        f"{z1:g}] cells: {sol.message}"
                    )
                steps = np.diff(sol.t)
                # the last step may be clipped at z1; carry the one before it
                if steps.size > 1:
                    h = steps[-2]
                elif h is None:
                    h = steps[-1]
                if n_samples is not None:
                    pts = max(2, int(round(n_samples * (z1 - z) / self.total_cells)))
                    zs.append(np.linspace(z, z1, pts))
                    ys.append(sol.sol(zs[-1]))
                y = sol.y_end
                z = z1
            if i < len(self.blocks):
                y = self._apply_block(y)
        if n_samples is None:
            return y
        return np.concatenate(zs), np.concatenate(ys, axis=1)


class _HarmonicPropagator(_Propagator):
    """The pump and its third harmonic alone, y = [a_p, a_3].

    These are _Propagator's equations for one system at zero signal and
    idler, which stay zero, in Python complex arithmetic: on two entries a
    numpy RHS costs its per-call overhead many times over.  They round
    differently, since numpy fuses the products of complex numbers.
    """

    def __init__(self, gamma, dk3, alphas, options, total_cells, blocks,
                 block_factors):
        self.n = 1
        self.jgp, self.jg3 = 1j * gamma, 1j * (3.0 * gamma)
        self.mjdk3 = -1j * dk3
        self.alphas = alphas                # pump, third
        self.total_cells = total_cells
        self.blocks = blocks
        self.block_factors = block_factors  # [pump, third]; None: no blocks
        self.rtol = options.rtol
        self.atol = options.atol

    def _rhs(self, z, y):
        ap, a3 = y.tolist()
        ap_al, a3_al = self.alphas
        pp = ap.real * ap.real + ap.imag * ap.imag
        p3 = a3.real * a3.real + a3.imag * a3.imag
        apap = ap * ap
        e3 = cmath.exp(self.mjdk3 * z)
        dap = (self.jgp * ((pp + 2.0 * p3) * ap) - ap_al * ap
               + self.jgp * apap.conjugate() * a3 * e3.conjugate())
        # a product with 1/3, as numpy divides a complex by 3
        da3 = (self.jg3 * ((p3 + 2.0 * pp) * a3
                           + apap * ap * e3 * (1.0 / 3.0))
               - a3_al * a3)
        return np.array([dap, da3])

    def _apply_block(self, y):
        return y * self.block_factors


@dataclass(frozen=True)
class PumpedLine:
    """The linear part of a device pumped at one frequency.

    Everything the small-signal gain needs that depends only on the network,
    the dispersion, the pump frequency, the signal grid and the options.
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
    options: IntegrationOptions


def signal_frequencies(signal_grid, pump_frequency: float) -> np.ndarray:
    """The signal grid without the pump point (any point within 1e-9·f_p).

    Raises ValueError unless the pump frequency is positive and every other
    signal lies in (0, 2·f_p).
    """
    f_p = pump_frequency
    if f_p <= 0:
        raise ValueError("pump frequency must be positive")
    if isinstance(signal_grid, FrequencyGrid):
        f_s = signal_grid.frequencies()
    else:
        f_s = np.asarray(signal_grid, dtype=float)
    f_s = f_s[np.abs(f_s - f_p) > 1e-9 * f_p]
    if np.any(f_s <= 0) or np.any(f_s >= 2 * f_p):
        raise ValueError(f"signal frequencies must lie in (0, 2*f_p) = "
                         f"(0, {2 * f_p:g}) Hz")
    return f_s


def _propagation_curve(network: LadderNetwork, dispersion: DispersionCurve,
                       f_p: float, flag_curve: DispersionCurve
                       ) -> DispersionCurve:
    """The curve whose k and alpha the coupled modes propagate with.

    Raises NumericError for a pump inside a stopband of ``flag_curve`` and
    for a resonator design without uniform base cells.  A resonator design
    propagates on its bare-ladder curve, extended to the third harmonic;
    the resonators enter as block corrections (_block_corrections).
    """
    if bool(flag_curve.stopband_at(f_p)[0]):
        raise NumericError(
            f"pump at {f_p / 1e9:.4f} GHz lies inside a stopband; "
            "move it into a passband below the band edge"
        )
    if not network.has_resonators():
        return dispersion
    base = _smooth_background(network)
    if base is None:
        raise NumericError("resonator design must have uniform base cells")
    l0, c0 = base
    grid = FrequencyGrid(dispersion.frequencies[0],
                         max(dispersion.frequencies[-1], 3.0 * f_p * 1.01), 4097)
    return uniform_cell_dispersion(l0, c0, grid)


def _block_corrections(network: LadderNetwork, frequencies: np.ndarray,
                       z0: float) -> tuple:
    """(cell positions of the resonator blocks, factor of one block at each
    frequency); ((), None) for a network without resonators."""
    if not network.has_resonators():
        return (), None
    blocks = tuple(float(b * network.cells_per_period)
                   for b in range(network.repeats))
    # one cascade of the block serves every mode frequency; the factor is
    # the conjugate of s21(block) / s21(bare ladder) because the amplitudes
    # use the physics phasor convention, where extra delay is a positive
    # phase
    return blocks, np.conj(s21_over_bare(network.one_period(), frequencies, z0))


def prepare_line(network: LadderNetwork, dispersion: DispersionCurve,
                 pump_frequency: float, signal_grid,
                 options: IntegrationOptions | None = None,
                 stopband_curve: DispersionCurve | None = None) -> PumpedLine:
    """The linear setup of integrate_gain for one pump frequency.

    The arguments mean what they mean for integrate_gain; any signal point
    at the pump frequency is dropped.  Raises NumericError for a pump inside
    a stopband or a resonator design without uniform base cells, and
    ValueError for a signal grid signal_frequencies refuses or leaves empty.
    """
    options = options or IntegrationOptions()
    f_p = pump_frequency
    f_s = signal_frequencies(signal_grid, f_p)
    if f_s.size == 0:
        raise ValueError("signal grid is empty after excluding the pump")

    flag_curve = stopband_curve if stopband_curve is not None else dispersion
    k_curve = _propagation_curve(network, dispersion, f_p, flag_curve)
    k_p = float(k_curve.k_cell(f_p))
    f_i = 2.0 * f_p - f_s
    dk = k_curve.k_cell(f_s) + k_curve.k_cell(f_i) - 2.0 * k_p
    alphas = (float(k_curve.alpha_cell(f_p)), k_curve.alpha_cell(f_s),
              k_curve.alpha_cell(f_i))

    n = f_s.size
    blocks, fac = _block_corrections(
        network, np.concatenate([[f_p], f_s, f_i]), options.z0)
    block_factors = None if fac is None else (fac[0], fac[1:n + 1], fac[n + 1:])

    stop_flags = (np.asarray(flag_curve.stopband_at(f_s))
                  | np.asarray(flag_curve.stopband_at(f_i)))
    return PumpedLine(
        pump_frequency=f_p, signal_frequencies=f_s, k_pump=k_p, delta_k=dk,
        alphas=alphas, in_stopband=stop_flags,
        total_cells=float(network.total_cells), blocks=blocks,
        block_factors=block_factors, options=options)


def _transfer(line: PumpedLine, gamma: KerrCoefficient, p_p: float):
    """Output signal and conjugate idler per unit input signal, (T00, T10).

    The undepleted small-signal limit of the coupled-mode equations
    (Chaudhuri, Gao & Irwin, arXiv:1506.00646), exact on each segment
    between block corrections.  There the lossless pump is
    a0 exp(i g_p P (z - z0)), and in a frame rotating at kappa/2,
    kappa = 2 g_p P - dk, the pair (a_s, conj a_i) obeys d/dz (A, B) =
    M (A, B) with the constant

        M = [[2i g_s P - i kappa/2 - alpha_s,  i g_s c],
             [-i g_i conj(c),  -2i g_i P + i kappa/2 - alpha_i]],

    c = a0^2 exp(-i dk z0), one M per signal.  The segment's matrix is
    exp(ML) = e^(mL) [cosh(gL) I + sinh(gL)/g N], m = tr(M)/2, N = M - mI,
    g^2 = -det N; taking Re g >= 0 and q = exp(-2gL), it is evaluated as
    e^((m+g)L) [(1 + q)/2 I + (1 - q)/(2g) N], which leaves the float range
    only when the gain itself does.  A block correction (the
    lumped resonant phase matching of O'Brien et al., PRL 113, 157001
    (2014)) scales the signal by its factor, the conjugate idler by the
    conjugate of its factor, and the pump by its factor, which sets the
    next segment's P.

    Raises NumericError when the transfer is not finite.
    """
    f_p, f_s = line.pump_frequency, line.signal_frequencies
    g_p = gamma.gamma
    g_s = g_p * f_s / f_p
    g_i = g_p * (2.0 * f_p - f_s) / f_p
    _, alpha_s, alpha_i = line.alphas
    dk = line.delta_k
    a0 = complex(math.sqrt(p_p))
    t_s = np.ones(f_s.size, dtype=complex)
    t_i = np.zeros(f_s.size, dtype=complex)
    gl_max = 0.0
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
                d = 0.5 * (m11 - m22)              # N = [[d, m12], [m21, -d]]
                g = np.sqrt(d * d + m12 * m21)     # principal root: Re g >= 0
                gl = g * length
                gl_max = max(gl_max, float(np.max(gl.real)))
                grow = np.exp(m * length + gl)
                one_minus_q = -np.expm1(-2.0 * gl)
                cosh_part = grow * (1.0 - 0.5 * one_minus_q)
                # (1 - q)/(2g), whose limit at g = 0 is the length
                sinh_part = np.full(f_s.size, complex(length))
                np.divide(0.5 * one_minus_q, g, out=sinh_part, where=gl != 0)
                sinh_part *= grow
                # back from the rotating frame: e^(+-i kappa L/2)
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
    undepleted signal-idler transfer (_transfer), so it needs no seed and
    no integrator tolerance.  Raises ValueError for a negative pump power
    or a line prepared with the third harmonic, and NumericError for an
    attenuated pump or a gain past the float range.  The profile's arrays
    are its own.
    """
    p_p = pump_power
    if p_p < 0:
        raise ValueError("pump power must be >= 0")
    if line.options.include_third_harmonic:
        raise ValueError("include_third_harmonic applies to the harmonic "
                         "scan only; the small-signal gain has no third "
                         "harmonic")
    alpha_p = line.alphas[0]
    if alpha_p != 0.0:
        raise NumericError(
            f"pump at {line.pump_frequency / 1e9:.4f} GHz lies within one grid "
            f"step of a stopband (attenuation {alpha_p:.3g} nepers/cell); "
            "move it into a passband below the band edge")
    gamma = kerr_coefficient(line.k_pump, i_star, line.options.z0)
    f_s, dk = line.signal_frequencies, line.delta_k
    if p_p == 0.0:
        return GainProfile(f_s.copy(), np.zeros(f_s.size), line.pump_frequency,
                           0.0, dk.copy(), dk.copy(), line.in_stopband.copy(),
                           i_star)

    t_s, _ = _transfer(line, gamma, p_p)
    gain_db = 20.0 * np.log10(np.maximum(np.abs(t_s), 1e-300))
    gain_db = np.maximum(gain_db, GAIN_FLOOR_DB)
    return GainProfile(
        frequencies=f_s.copy(),
        gain_db=gain_db,
        pump_frequency=line.pump_frequency,
        pump_power=p_p,
        delta_k_linear=dk.copy(),
        delta_k_total=dk + 2.0 * gamma.gamma * p_p,
        in_stopband=line.in_stopband.copy(),
        i_star=i_star,
    )


def integrate_gain(network: LadderNetwork, dispersion: DispersionCurve,
                   pump: tuple, signal_grid, options: IntegrationOptions | None = None,
                   stopband_curve: DispersionCurve | None = None) -> GainProfile:
    """Signal gain profile of a pumped device.

    ``dispersion`` supplies the continuous propagation constants for the
    coupled-mode phases; for resonator-embedded designs the resonators enter
    as lumped per-block corrections instead, computed from the network, and
    the continuous part falls back to the bare-ladder curve automatically.
    ``stopband_curve`` (default: ``dispersion``) provides the stopband flags
    used for pump validation and per-point annotation.

    Gain is the small-signal 20*log10 |a_s(L)/a_s(0)| with Bloch
    attenuation folded in, from solve_gain; a zero-power pump short-circuits
    to an identically zero profile.
    """
    f_p, p_p = pump
    line = prepare_line(network, dispersion, f_p, signal_grid, options,
                        stopband_curve)
    return solve_gain(line, network.i_star, p_p)


def third_harmonic_scan(network: LadderNetwork, dispersion: DispersionCurve,
                        pump: tuple, options: IntegrationOptions | None = None,
                        stopband_curve: DispersionCurve | None = None
                        ) -> HarmonicScan:
    """Pump and third-harmonic powers along the line (no signal injected).

    Only the pump and its third harmonic are integrated; with no signal the
    signal and idler stay zero, so p_signal and p_idler are one array of
    zeros.  Raises ValueError for a pump that is not positive, NumericError
    as prepare_line does and for a third harmonic beyond the dispersion
    grid.  The include_third_harmonic option is not read.
    """
    options = options or IntegrationOptions()
    f_p, p_p = pump
    if p_p <= 0:
        raise ValueError("harmonic scan requires a nonzero pump")
    if f_p <= 0:
        raise ValueError("pump frequency must be positive")
    flag_curve = stopband_curve if stopband_curve is not None else dispersion
    k_curve = _propagation_curve(network, dispersion, f_p, flag_curve)
    f_3 = 3.0 * f_p
    if f_3 > k_curve.frequencies[-1]:
        raise NumericError(
            f"dispersion grid ends at {k_curve.frequencies[-1] / 1e9:.2f} GHz "
            f"but the third harmonic needs {f_3 / 1e9:.2f} GHz; extend the grid"
        )
    k_p = float(k_curve.k_cell(f_p))
    blocks, block_factors = _block_corrections(network, np.array([f_p, f_3]),
                                               options.z0)
    gamma = kerr_coefficient(k_p, network.i_star, options.z0)
    prop = _HarmonicPropagator(
        gamma.gamma, float(k_curve.k_cell(f_3) - 3.0 * k_p),
        (float(k_curve.alpha_cell(f_p)), float(k_curve.alpha_cell(f_3))),
        options, float(network.total_cells), blocks, block_factors)
    z, y = prop.run(np.array([math.sqrt(p_p), 0.0], dtype=complex),
                    HARMONIC_SAMPLES)
    zeros = np.zeros(z.size)
    return HarmonicScan(
        z_cells=z,
        p_pump=np.abs(y[0]) ** 2,
        p_signal=zeros,
        p_idler=zeros,
        p_third=np.abs(y[1]) ** 2,
        pump_frequency=f_p,
        pump_power=p_p,
    )


# --------------------------------------------------------------------------
# CSV emission

def gain_profile_csv_rows(profile: GainProfile):
    return table_lines(
        "freq_hz,gain_db,delta_k_linear,delta_k_total,in_stopband",
        [profile.frequencies, profile.gain_db, profile.delta_k_linear,
         profile.delta_k_total, profile.in_stopband])


def harmonic_scan_csv_rows(scan: HarmonicScan):
    return table_lines(
        "z_cells,p_pump_w,p_signal_w,p_idler_w,p_third_w",
        [scan.z_cells, scan.p_pump, scan.p_signal, scan.p_idler, scan.p_third])

"""Degenerate-pump four-wave-mixing propagation along the nonlinear ladder.

The coupled-mode equations evolve envelope amplitudes normalized so |a|^2 is
power in watts, over a continuous cell coordinate z in [0, total_cells].
The per-cell Kerr coefficient of each mode scales with its frequency,
gamma_j = gamma_pump * f_j / f_p, which makes the Manley-Rowe photon-flux
relations exact for the integrated trajectories.

Resonator phase-shifter blocks are not smeared into the continuous
dispersion: each block applies a lumped complex correction (extra pump
phase, insertion magnitude) to every mode at its position along the line.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp

from .circuit import LadderNetwork, SeriesInductor, ShuntCapacitor
from .dispersion import DispersionCurve, s21_over_bare, uniform_cell_dispersion
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
    "phase_mismatch",
    "coupled_mode_rhs",
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
# signal seed power relative to the pump; IntegrationOptions(undepleted=True)
# gives the seed-free small-signal gain
SEED_LEVEL_DB = -60.0


@dataclass(frozen=True)
class KerrCoefficient:
    """Nonlinear phase per cell per watt at the pump frequency."""

    gamma: float          # rad / (cell * W)
    k_cell: float         # rad/cell at the pump
    i_star: float
    z0: float

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
    return KerrCoefficient(gamma=k_cell / (2.0 * i_star**2 * z0),
                           k_cell=k_cell, i_star=i_star, z0=z0)


@dataclass(frozen=True)
class PhaseMismatch:
    delta_k_linear: float   # rad/cell, k_s + k_i - 2 k_p
    delta_k_total: float    # rad/cell, linear + 2 gamma P_p
    signal_in_stopband: bool = False
    idler_in_stopband: bool = False


def phase_mismatch(dispersion: DispersionCurve, f_p: float, f_s: float,
                   gamma: KerrCoefficient, p_p: float) -> PhaseMismatch:
    """Linear and pump-corrected mismatch for a signal at f_s."""
    f_i = 2.0 * f_p - f_s
    if f_i <= 0:
        raise ValueError("idler frequency 2*f_p - f_s must be positive")
    k = dispersion.k_cell
    dk_lin = float(k(f_s) + k(f_i) - 2.0 * k(f_p))
    return PhaseMismatch(
        delta_k_linear=dk_lin,
        delta_k_total=dk_lin + 2.0 * gamma.gamma * p_p,
        signal_in_stopband=bool(dispersion.stopband_at(f_s)[0]),
        idler_in_stopband=bool(dispersion.stopband_at(f_i)[0]),
    )


@dataclass
class ModeState:
    """Complex amplitudes of the four interacting tones; |a|^2 in watts."""

    a_p: complex
    a_s: complex
    a_i: complex
    a_3: complex
    f_p: float
    f_s: float
    k_p: float = 0.0
    k_s: float = 0.0
    k_i: float = 0.0
    k_3: float = 0.0

    @property
    def f_i(self) -> float:
        return 2.0 * self.f_p - self.f_s

    @property
    def f_3(self) -> float:
        return 3.0 * self.f_p


def coupled_mode_rhs(z: float, state: ModeState, gamma: KerrCoefficient,
                     mismatch: PhaseMismatch, include_third_harmonic: bool = False,
                     delta_k_3: float = 0.0,
                     attenuation=(0.0, 0.0, 0.0, 0.0)) -> np.ndarray:
    """Derivative [da_p, da_s, da_i, da_3]/dz of a single mode system."""
    f_p, f_s, f_i = state.f_p, state.f_s, state.f_i
    gammas = (gamma.gamma, gamma.at(f_s, f_p), gamma.at(f_i, f_p),
              gamma.at(3 * f_p, f_p))
    y = np.array([state.a_p, state.a_s, state.a_i, state.a_3], dtype=complex)
    y = y if include_third_harmonic else y[:3]
    prop = _Propagator(
        1, gammas, np.array([mismatch.delta_k_linear]), np.array([delta_k_3]),
        attenuation,
        IntegrationOptions(include_third_harmonic=include_third_harmonic))
    out = prop._rhs(z, y)
    if include_third_harmonic:
        return out
    return np.concatenate([out, [0.0 + 0.0j]])


def propagate_modes(state: ModeState, gamma: KerrCoefficient,
                    mismatch: PhaseMismatch, length: float,
                    options: IntegrationOptions | None = None,
                    delta_k_3: float = 0.0,
                    attenuation=(0.0, 0.0, 0.0, 0.0)) -> ModeState:
    """Integrate one pump/signal/idler(/third) system over ``length`` cells.

    The mismatch and attenuations are taken as given, which makes this the
    direct integration counterpart of analytic_gain_undepleted.
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
        options, float(length))
    y = prop.run(y0)
    return ModeState(
        a_p=complex(y[0]), a_s=complex(y[1]), a_i=complex(y[2]),
        a_3=complex(y[3]) if thg else 0.0,
        f_p=f_p, f_s=f_s,
        k_p=state.k_p, k_s=state.k_s, k_i=state.k_i, k_3=state.k_3,
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
    undepleted: bool = False
    include_third_harmonic: bool = False
    rtol: float = 1e-9
    atol: float = 1e-14
    z0: float = 50.0               # line impedance for the power-current map


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
                 blocks=(), block_factors=None):
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
        self.undepleted = options.undepleted
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
                y = sol.y[:, -1].copy()
                z = z1
            if i < len(self.blocks):
                y = self._apply_block(y)
        # each solver is a reference cycle (its RHS closure holds it), so its
        # stage arrays wait for the cyclic collector; free them now
        gc.collect(1)
        if n_samples is None:
            return y
        return np.concatenate(zs), np.concatenate(ys, axis=1)


@dataclass(frozen=True)
class PumpedLine:
    """The linear part of a device pumped at one frequency.

    Everything the coupled-mode solve needs that depends only on the network
    at zero bias, the dispersion, the pump frequency, the signal grid and
    the options.  None of it depends on I* (a series inductor at zero bias
    is l0 * (1 + 0) whatever its I*) or on the pump power, so one line
    serves every operating point at its pump frequency; see solve_gain.
    """

    pump_frequency: float
    signal_frequencies: np.ndarray   # the grid without the pump point
    k_pump: float                    # rad/cell
    delta_k: np.ndarray              # k_s + k_i - 2 k_p, rad/cell
    delta_k_3: float                 # k(3 f_p) - 3 k_p; 0 without the harmonic
    alphas: tuple                    # nepers/cell: pump, signals, idlers, third
    in_stopband: np.ndarray          # signal or idler inside a stopband
    total_cells: float
    blocks: tuple                    # cell positions of the block corrections
    block_factors: tuple | None      # pump, signals, idlers, third; None: no blocks
    options: IntegrationOptions

    def _propagator(self, gamma: KerrCoefficient) -> _Propagator:
        f_p, f_s = self.pump_frequency, self.signal_frequencies
        f_i = 2.0 * f_p - f_s
        gammas = (gamma.gamma,
                  gamma.gamma * f_s / f_p,
                  gamma.gamma * f_i / f_p,
                  3.0 * gamma.gamma)
        return _Propagator(f_s.size, gammas, self.delta_k, self.delta_k_3,
                           self.alphas, self.options, self.total_cells,
                           self.blocks, self.block_factors)


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


def prepare_line(network: LadderNetwork, dispersion: DispersionCurve,
                 pump_frequency: float, signal_grid,
                 options: IntegrationOptions | None = None,
                 stopband_curve: DispersionCurve | None = None) -> PumpedLine:
    """The linear setup of integrate_gain for one pump frequency.

    The arguments mean what they mean for integrate_gain; any signal point
    at the pump frequency is dropped.  Raises NumericError for a pump inside
    a stopband, a resonator design without uniform base cells, or a third
    harmonic beyond the dispersion grid, and ValueError for a signal grid
    signal_frequencies refuses or leaves empty.
    """
    options = options or IntegrationOptions()
    f_p = pump_frequency
    f_s = signal_frequencies(signal_grid, f_p)
    if f_s.size == 0:
        raise ValueError("signal grid is empty after excluding the pump")

    flag_curve = stopband_curve if stopband_curve is not None else dispersion
    if bool(flag_curve.stopband_at(f_p)[0]):
        raise NumericError(
            f"pump at {f_p / 1e9:.4f} GHz lies inside a stopband; "
            "move it into a passband below the band edge"
        )

    thg = options.include_third_harmonic
    f_3 = 3.0 * f_p
    has_res = network.has_resonators()

    if has_res:
        base = _smooth_background(network)
        if base is None:
            raise NumericError("resonator design must have uniform base cells")
        l0, c0 = base
        grid = FrequencyGrid(dispersion.frequencies[0],
                             max(dispersion.frequencies[-1], f_3 * 1.01), 4097)
        k_curve = uniform_cell_dispersion(l0, c0, grid)
    else:
        k_curve = dispersion
    if thg and f_3 > k_curve.frequencies[-1]:
        raise NumericError(
            f"dispersion grid ends at {k_curve.frequencies[-1] / 1e9:.2f} GHz "
            f"but the third harmonic needs {f_3 / 1e9:.2f} GHz; extend the grid"
        )

    k_p = float(k_curve.k_cell(f_p))
    f_i = 2.0 * f_p - f_s
    k_s = k_curve.k_cell(f_s)
    k_i = k_curve.k_cell(f_i)
    dk = k_s + k_i - 2.0 * k_p
    dk3 = float(k_curve.k_cell(f_3) - 3.0 * k_p) if thg else 0.0

    alphas = (
        float(k_curve.alpha_cell(f_p)),
        k_curve.alpha_cell(f_s),
        k_curve.alpha_cell(f_i),
        float(k_curve.alpha_cell(f_3)) if thg else 0.0,
    )

    if has_res:
        blocks = tuple(float(b * network.cells_per_period)
                       for b in range(network.repeats))
        # one cascade of the block serves every mode frequency; the factor
        # is the conjugate of s21(block) / s21(bare ladder) because the
        # amplitudes use the physics phasor convention, where extra delay
        # is a positive phase
        n = f_s.size
        fac = np.conj(s21_over_bare(
            network.one_period(),
            np.concatenate([[f_p], f_s, f_i, [f_3] if thg else []]), options.z0))
        block_factors = (fac[0], fac[1:n + 1], fac[n + 1:2 * n + 1],
                         fac[2 * n + 1] if thg else 1.0)
    else:
        blocks = ()
        block_factors = None

    stop_flags = (np.asarray(flag_curve.stopband_at(f_s))
                  | np.asarray(flag_curve.stopband_at(f_i)))
    return PumpedLine(
        pump_frequency=f_p, signal_frequencies=f_s, k_pump=k_p, delta_k=dk,
        delta_k_3=dk3, alphas=alphas, in_stopband=stop_flags,
        total_cells=float(network.total_cells), blocks=blocks,
        block_factors=block_factors, options=options)


def solve_gain(line: PumpedLine, i_star: float, pump_power: float) -> GainProfile:
    """Signal gain profile of a prepared line at one operating point.

    ``integrate_gain(network, ...)`` is ``solve_gain(prepare_line(network,
    ...), network.i_star, pump_power)``.  The profile's arrays are its own.
    """
    p_p = pump_power
    if p_p < 0:
        raise ValueError("pump power must be >= 0")
    options = line.options
    gamma = kerr_coefficient(line.k_pump, i_star, options.z0)
    f_s, dk = line.signal_frequencies, line.delta_k
    n = f_s.size
    if p_p == 0.0:
        return GainProfile(f_s.copy(), np.zeros(n), line.pump_frequency, 0.0,
                           dk.copy(), dk.copy(), line.in_stopband.copy(), i_star)

    seed_p = p_p * 10.0 ** (SEED_LEVEL_DB / 10.0)
    seed_amp = math.sqrt(seed_p)
    y0 = np.concatenate([
        np.full(n, math.sqrt(p_p), dtype=complex),
        np.full(n, seed_amp, dtype=complex),
        np.zeros(n, dtype=complex),
    ] + ([np.zeros(n, dtype=complex)] if options.include_third_harmonic else []))

    y = line._propagator(gamma).run(y0)
    amp = np.abs(y[n:2 * n])
    with np.errstate(divide="ignore"):
        gain_db = 20.0 * np.log10(np.maximum(amp / seed_amp, 1e-300))
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

    Gain is 20*log10 |a_s(L)/a_s(0)| with Bloch attenuation folded in; a
    zero-power pump short-circuits to an identically zero profile.
    """
    f_p, p_p = pump
    line = prepare_line(network, dispersion, f_p, signal_grid, options,
                        stopband_curve)
    return solve_gain(line, network.i_star, p_p)


def third_harmonic_scan(network: LadderNetwork, dispersion: DispersionCurve,
                        pump: tuple, options: IntegrationOptions | None = None,
                        stopband_curve: DispersionCurve | None = None,
                        n_samples: int = 1024) -> HarmonicScan:
    """Pump and third-harmonic powers along the line (no signal injected)."""
    options = options or IntegrationOptions()
    options = replace(options, include_third_harmonic=True)
    f_p, p_p = pump
    if p_p <= 0:
        raise ValueError("harmonic scan requires a nonzero pump")
    # one placeholder signal mode, seeded with zero power
    line = prepare_line(network, dispersion, f_p, np.array([f_p / 2.0]),
                        options, stopband_curve)
    gamma = kerr_coefficient(line.k_pump, network.i_star, options.z0)
    y0 = np.array([math.sqrt(p_p), 0.0, 0.0, 0.0], dtype=complex)
    z, y = line._propagator(gamma).run(y0, n_samples)
    return HarmonicScan(
        z_cells=z,
        p_pump=np.abs(y[0]) ** 2,
        p_signal=np.abs(y[1]) ** 2,
        p_idler=np.abs(y[2]) ** 2,
        p_third=np.abs(y[3]) ** 2,
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

"""The tests' own coupled-mode engine: the references the package's solvers
are checked against.

reference_rhs is the coupled-mode RHS of the pump, signal, idler and,
optionally, third harmonic, written out term by term in numpy over n
stacked systems.  StackedPropagator integrates it on the package's segment
loop, and run_triplet runs one pump/signal/idler system on it, with or
without the pump's depletion.  analytic_gain_undepleted is the textbook
closed form of the small-signal gain of a uniform lossless line, and
undepleted_ode_gain the small-signal gain of a prepared line by
integration.  Nothing in the package runs any of them.
"""

import math

import numpy as np

import kitwpa.fwm
from kitwpa.fwm import IntegrationOptions, kerr_coefficient


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


def reference_rhs(z, y, n, gp, gs, gi, g3, dk, dk3, ap_al, as_al, ai_al,
                  a3_al, undepleted, thg):
    """The coupled-mode RHS written out term by term, as the propagator's
    RHS must evaluate it (same operations, same order)."""
    ap = y[0 * n:1 * n]
    as_ = y[1 * n:2 * n]
    ai = y[2 * n:3 * n]
    a3 = y[3 * n:4 * n] if thg else None

    pp = ap.real**2 + ap.imag**2
    ps = as_.real**2 + as_.imag**2
    pi_ = ai.real**2 + ai.imag**2
    p3 = (a3.real**2 + a3.imag**2) if thg else 0.0

    e = np.exp(-1j * dk * z)
    if undepleted:
        dap = (1j * gp * pp - ap_al) * ap
        das = 1j * gs * (2.0 * pp * as_ + ap * ap * np.conj(ai) * e) - as_al * as_
        dai = 1j * gi * (2.0 * pp * ai + ap * ap * np.conj(as_) * e) - ai_al * ai
        if thg:
            e3 = np.exp(-1j * dk3 * z)
            da3 = (1j * g3 * (2.0 * pp) - a3_al) * a3 \
                + 1j * (g3 / 3.0) * ap**3 * e3
            return np.concatenate([dap, das, dai, da3])
        return np.concatenate([dap, das, dai])

    dap = 1j * gp * ((pp + 2.0 * ps + 2.0 * pi_ + 2.0 * p3) * ap
                     + 2.0 * as_ * ai * np.conj(ap) * np.conj(e)) - ap_al * ap
    das = 1j * gs * ((ps + 2.0 * pp + 2.0 * pi_ + 2.0 * p3) * as_
                     + ap * ap * np.conj(ai) * e) - as_al * as_
    dai = 1j * gi * ((pi_ + 2.0 * pp + 2.0 * ps + 2.0 * p3) * ai
                     + ap * ap * np.conj(as_) * e) - ai_al * ai
    if thg:
        e3 = np.exp(-1j * dk3 * z)
        dap = dap + 1j * gp * np.conj(ap)**2 * a3 * np.conj(e3)
        da3 = 1j * g3 * ((p3 + 2.0 * pp + 2.0 * ps + 2.0 * pi_) * a3
                         + ap**3 * e3 / 3.0) - a3_al * a3
        return np.concatenate([dap, das, dai, da3])
    return np.concatenate([dap, das, dai])


class StackedPropagator(kitwpa.fwm._Propagator):
    """n independent systems in one state vector, [pump | signals | idlers
    (| third harmonics)] with n entries each, on the package's segment loop:
    the ensemble engine the package integrated with before it took one
    system at a time, kept as the oracle of the closed form and of the
    scan.  Its RHS is reference_rhs.  ``gammas``, ``alphas`` and
    ``block_factors`` hold (pump, signal, idler, third) entries, those of
    the signal and idler arrays of n like ``dk``; the options say whether
    the third harmonic is carried, and ``undepleted`` whether the pump
    alone drives the signal and idler and evolves by its own self-phase
    modulation."""

    def __init__(self, n, gammas, dk, dk3, alphas, options, total_cells=0.0,
                 blocks=(), block_factors=None, undepleted=False):
        super().__init__(gammas, alphas, options, total_cells, blocks,
                         block_factors, dk)
        self.n = n
        thg = options.include_third_harmonic
        self.modes = 4 if thg else 3
        self.args = (n, *gammas, dk, dk3, *alphas, undepleted, thg)

    def _rhs(self, z, y):
        return reference_rhs(z, y, *self.args)

    def _apply_block(self, y):
        n = self.n
        for k, fac in enumerate(self.block_factors[:self.modes]):
            y[k * n:(k + 1) * n] *= fac
        return y


def run_triplet(a_p, a_s, f_p, f_s, gamma, delta_k, length, options=None,
                undepleted=False):
    """Output [a_p, a_s, a_i] of one lossless pump/signal/idler system,
    |a|^2 in watts, whose idler starts at zero, after ``length`` cells.
    ``gamma`` is the pump's Kerr coefficient; a mode at f has gamma f / f_p.
    ``delta_k`` = k_s + k_i - 2 k_p (rad/cell) is taken as given."""
    f_i = 2.0 * f_p - f_s
    prop = StackedPropagator(
        1, (gamma, gamma * f_s / f_p, gamma * f_i / f_p, 0.0), delta_k, 0.0,
        (0.0,) * 4, options or IntegrationOptions(), length,
        undepleted=undepleted)
    return prop.run(np.array([a_p, a_s, 0.0], dtype=complex))


def undepleted_ode_gain(line, i_star, p_p, rtol=1e-12):
    """The closed form's oracle: gain in dB of the undepleted coupled-mode
    ODE on a prepared line, every signal stacked in one solve.  The
    undepleted signal and idler are linear, so any seed gives the gain; one
    as large as the pump keeps the error norm balanced."""
    f_p, f_s = line.pump_frequency, line.signal_frequencies
    n = f_s.size
    g = kerr_coefficient(line.k_pump, i_star)
    # the line has no third harmonic: its dk3, attenuation and block factor
    # are those of a mode that stays zero
    factors = (None if line.block_factors is None
               else (*line.block_factors, 1.0))
    prop = StackedPropagator(
        n, (g, g * f_s / f_p, g * (2 * f_p - f_s) / f_p, 3 * g), line.delta_k,
        0.0, (*line.alphas, 0.0), IntegrationOptions(rtol=rtol),
        line.total_cells, line.blocks, factors, undepleted=True)
    a = np.full(n, math.sqrt(p_p), dtype=complex)
    y = prop.run(np.concatenate([a, a, np.zeros(n, dtype=complex)]))
    return 20 * np.log10(np.abs(y[n:2 * n]) / math.sqrt(p_p))

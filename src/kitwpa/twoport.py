"""Chain (ABCD) two-port algebra and S-parameter conversion.

Matrices are held as four complex arrays over a frequency grid, with a
power-of-two exponent per frequency for long cascades, so every operation
is vectorized; a single frequency is just a length-1 grid.  The
engineering phasor convention exp(+j*omega*t) is used throughout, so a
matched line has arg(s21) = -beta*l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import (
    LadderNetwork,
    SeriesInductor,
    ShuntCapacitor,
    ShuntResonator,
)

__all__ = [
    "TwoPortMatrix",
    "FrequencyGrid",
    "SParameterSet",
    "identity_matrix",
    "element_matrix",
    "cascade",
    "matrix_power",
    "walk_period",
    "cascade_periods",
    "network_matrix",
    "to_s_parameters",
    "table_lines",
    "report_lines",
    "write_touchstone",
    "read_touchstone",
    "sparams_to_csv_rows",
]

RESONATOR_ENVIRONMENT_OHMS = 25.0  # 50 ohm line seen both ways from a shunt node


@dataclass(frozen=True)
class FrequencyGrid:
    """Linearly spaced analysis grid in Hz."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if self.start <= 0:
            raise ValueError("start must be positive")
        if self.stop <= self.start:
            raise ValueError("stop must exceed start")
        if self.points < 2:
            raise ValueError("points must be >= 2")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.points - 1)


@dataclass(frozen=True)
class TwoPortMatrix:
    """Chain matrix [[a, b], [c, d]] * 2**exponent; entries are complex
    arrays over a grid, exponent an integer per frequency (or 0).

    Long cascades carry their scale in the exponent so the entries neither
    overflow nor underflow; scaling by a power of two is exact.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    exponent: np.ndarray | int = 0

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        return TwoPortMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
            exponent=self.exponent + other.exponent,
        )

    def det(self) -> np.ndarray:
        return _ldexp(self.a * self.d - self.b * self.c, 2 * self.exponent)

    def trace_half(self) -> np.ndarray:
        return _ldexp(0.5 * (self.a + self.d), self.exponent)


def _ldexp(x: np.ndarray, e) -> np.ndarray:
    """x * 2**e for complex x, exact: both parts are scaled by ldexp."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def identity_matrix(n: int) -> TwoPortMatrix:
    one = np.ones(n, dtype=complex)
    zero = np.zeros(n, dtype=complex)
    return TwoPortMatrix(one, zero, zero, one)


def resonator_elements(f_r: float, q: float) -> tuple[float, float]:
    """(L_r, C_r) of the series-LC shunt realizing resonance f_r at loaded
    quality factor q against the 25 ohm environment."""
    w0 = 2.0 * np.pi * f_r
    l_r = q * RESONATOR_ENVIRONMENT_OHMS / w0
    return l_r, 1.0 / (w0 * w0 * l_r)


def _positive(f) -> np.ndarray:
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    return f


def _element_term(element, f: np.ndarray) -> tuple:
    """(True, series impedance in ohms) of a series inductor, (False, shunt
    admittance in siemens) of a shunt element, at positive frequencies f."""
    if isinstance(element, SeriesInductor):
        return True, 1j * 2.0 * np.pi * f * element.l0
    w = 2.0 * np.pi * f
    if isinstance(element, ShuntCapacitor):
        return False, 1j * w * element.c
    if isinstance(element, ShuntResonator):
        l_r, c_r = resonator_elements(element.f_r, element.q)
        reactance = w * l_r - 1.0 / (w * c_r)
        # a grid point exactly on resonance would divide by zero; the branch
        # is a short there, so clamp to a huge admittance instead
        reactance = np.where(np.abs(reactance) < 1e-30,
                             np.copysign(1e-30, reactance + 1e-300), reactance)
        return False, element.multiplicity / (1j * reactance)
    raise TypeError(f"not a network element: {element!r}")


def element_matrix(element, f: np.ndarray) -> TwoPortMatrix:
    """Chain matrix of a single ideal element at frequencies f; a series
    inductor is taken at zero current, where its inductance is l0."""
    series, term = _element_term(element, _positive(f))
    one, zero = np.ones_like(term), np.zeros_like(term)
    if series:
        return TwoPortMatrix(one, term, zero, one)
    return TwoPortMatrix(one, zero, term, one)


def cascade(matrices) -> TwoPortMatrix:
    """Ordered product of chain matrices, input port first."""
    matrices = list(matrices)
    if not matrices:
        raise ValueError("cascade of an empty list")
    out = matrices[0]
    for m in matrices[1:]:
        out = out @ m
    return out


_EXPONENT_LIMIT = 64   # a power's entries are rescaled past 2**+-64


def _normalized(m: TwoPortMatrix) -> TwoPortMatrix:
    """m with each frequency whose largest entry has left 2**+-_EXPONENT_LIMIT
    rescaled by a power of two to a largest entry in [0.5, 1)."""
    parts = [np.abs(x) for v in (m.a, m.b, m.c, m.d) for x in (v.real, v.imag)]
    _, top = np.frexp(np.maximum.reduce(parts))
    shift = np.where(np.abs(top) > _EXPONENT_LIMIT, top, 0)
    if not shift.any():
        return m
    return TwoPortMatrix(_ldexp(m.a, -shift), _ldexp(m.b, -shift),
                         _ldexp(m.c, -shift), _ldexp(m.d, -shift),
                         m.exponent + shift)


def matrix_power(m: TwoPortMatrix, n: int) -> TwoPortMatrix:
    """m @ m @ ... (n times) by binary exponentiation.

    Every product is renormalized into the exponent, so any power is finite
    where the true one is; each frequency not rescaled gets the bytes of
    the unscaled products.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    result = identity_matrix(len(np.atleast_1d(m.a)))
    base = m
    while n:
        if n & 1:
            result = _normalized(result @ base)
        n >>= 1
        if n:
            base = _normalized(base @ base)
    return result


def walk_period(network: LadderNetwork, f: np.ndarray) -> tuple:
    """(period, tail): the chain matrix of the network's period over
    frequencies f, and that of the tail (None when there is none).

    Each distinct element's impedance or admittance is evaluated once.  The
    walk multiplies element by element without forming element matrices: a
    series z adds a*z to b and c*z to d, a shunt y adds b*y to a and d*y to
    c.  That drops only the products by an element's exact ones and zeros.
    Starting from the identity, no entry ever holds a -0 part (a sum is -0
    only when both addends are), and for such entries x*1 + y*0 == x, so the
    result has the bytes of the full 2x2 product, signed zeros included.
    The tail, a prefix of the period, is the partial product at its length.
    """
    f = _positive(f)
    terms: dict = {}
    for e in network.period:
        if e not in terms:
            terms[e] = _element_term(e, f)
    a, b, c, d = (np.ones(len(f), complex), np.zeros(len(f), complex),
                  np.zeros(len(f), complex), np.ones(len(f), complex))
    tmp = np.empty(len(f), complex)
    tail = None
    for i, e in enumerate(network.period):
        if i == len(network.tail) and network.tail:
            tail = TwoPortMatrix(a.copy(), b.copy(), c.copy(), d.copy())
        series, term = terms[e]
        if series:
            b += np.multiply(a, term, out=tmp)
            d += np.multiply(c, term, out=tmp)
        else:
            a += np.multiply(b, term, out=tmp)
            c += np.multiply(d, term, out=tmp)
    return TwoPortMatrix(a, b, c, d), tail


def cascade_periods(period: TwoPortMatrix, repeats: int,
                    tail: TwoPortMatrix | None = None) -> TwoPortMatrix:
    """Chain matrix of ``repeats`` periods followed by the tail."""
    # a single repeat stays the plain chain: matrix_power would multiply it
    # by the identity, which can flip the sign of zero imaginary parts that
    # the Bloch branch choice depends on
    out = matrix_power(period, repeats) if repeats > 1 else period
    return out if tail is None else out @ tail


def network_matrix(network: LadderNetwork, f: np.ndarray) -> TwoPortMatrix:
    """Chain matrix of a full ladder network over frequencies f: its
    period, raised to the repeat count, then its tail."""
    period, tail = walk_period(network, f)
    return cascade_periods(period, network.repeats, tail)


@dataclass(frozen=True)
class SParameterSet:
    """Two-port scattering data on a frequency grid at a real reference."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    reference_impedance: float = 50.0


def to_s_parameters(m: TwoPortMatrix, f: np.ndarray,
                    z_ref: float = 50.0) -> SParameterSet:
    """Convert a chain matrix to S-parameters at a real reference impedance.

    The two-port is taken as reciprocal, as every series/shunt ladder is:
    S12 is S21.
    """
    if z_ref <= 0:
        raise ValueError("z_ref must be positive")
    f = np.atleast_1d(np.asarray(f, dtype=float))
    # the entries' common scale 2**exponent cancels from the ratios s11 and
    # s22; s21 is scaled by it afterwards, exactly
    den = m.a + m.b / z_ref + m.c * z_ref + m.d
    with np.errstate(over="ignore"):
        if np.any(np.ldexp(np.abs(den), m.exponent) < 1e-300):
            raise ArithmeticError(
                "singular ABCD-to-S denominator (pathological network)")
        s21 = _ldexp(2.0 / den, -m.exponent)
    s11 = (m.a + m.b / z_ref - m.c * z_ref - m.d) / den
    s22 = (-m.a + m.b / z_ref - m.c * z_ref + m.d) / den
    return SParameterSet(f, s11, s21, s21, s22, z_ref)


# --------------------------------------------------------------------------
# Touchstone / CSV emission

def table_lines(header: str, columns, sep: str = ",") -> list:
    """Lines of a data table: the header, then one row per column index.

    Boolean columns print as 0/1 and every other column as %.12e, integers
    included, so identical data always gives identical bytes.
    """
    columns = [np.asarray(c) for c in columns]
    row = sep.join("%d" if c.dtype == bool else "%.12e" for c in columns)
    return [header] + [row % values
                       for values in zip(*(c.tolist() for c in columns))]


def report_lines(pairs) -> list:
    """``key = value`` lines of a text report, values as %.12e."""
    return ["%s = %.12e" % (key, value) for key, value in pairs]


def write_touchstone(sp: SParameterSet, path) -> None:
    """Two-port Touchstone file, real/imaginary format, frequency in Hz."""
    columns = [sp.frequencies]
    for s in (sp.s11, sp.s21, sp.s12, sp.s22):
        columns += [s.real, s.imag]
    lines = table_lines(f"# HZ S RI R {sp.reference_impedance:g}", columns,
                        sep=" ")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_touchstone(path) -> SParameterSet:
    with open(path) as fh:
        raw = [ln.strip() for ln in fh if ln.strip()]
    if not raw or not raw[0].startswith("#"):
        raise ValueError(f"{path}: missing Touchstone option line")
    opts = raw[0][1:].split()
    if [o.upper() for o in opts[:3]] != ["HZ", "S", "RI"]:
        raise ValueError(f"{path}: only 'HZ S RI' Touchstone data is supported")
    z_ref = 50.0
    if "R" in [o.upper() for o in opts]:
        z_ref = float(opts[[o.upper() for o in opts].index("R") + 1])
    rows = [[float(x) for x in ln.split()] for ln in raw[1:]]
    if not rows:
        raise ValueError(f"{path}: no data lines after the option line")
    if any(len(row) != 9 for row in rows):
        raise ValueError(f"{path}: expected 9 columns per data line")
    data = np.array(rows)
    f = data[:, 0]
    s = data[:, 1::2] + 1j * data[:, 2::2]
    return SParameterSet(f, s[:, 0], s[:, 1], s[:, 2], s[:, 3], z_ref)


def sparams_to_csv_rows(sp: SParameterSet, bloch_phase, bloch_atten,
                        in_stopband):
    """Rows of the dispersion CSV: S-parameters and the Bloch curve.

    Columns: freq_hz, s11_re, s11_im, s21_re, s21_im, bloch_phase,
    bloch_atten, in_stopband.
    """
    return table_lines(
        "freq_hz,s11_re,s11_im,s21_re,s21_im,bloch_phase,bloch_atten,in_stopband",
        [sp.frequencies, sp.s11.real, sp.s11.imag, sp.s21.real, sp.s21.imag,
         bloch_phase, bloch_atten, in_stopband])

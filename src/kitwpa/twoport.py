"""Chain (ABCD) two-port algebra and S-parameter conversion.

Matrices are held as four complex arrays over a frequency grid, with a
power-of-two exponent per frequency for long cascades, so every operation
is vectorized; a single frequency is just a length-1 grid.  The
engineering phasor convention exp(+j*omega*t) is used throughout, so a
matched line has arg(s21) = -beta*l.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .circuit import (
    LadderNetwork,
    SeriesInductor,
    ShuntCapacitor,
    ShuntResonator,
    write_chunks,
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
    "TableLines",
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


def _lossless(m: TwoPortMatrix) -> list:
    """[a, b, c, d] of m = [[a, i*b], [i*c, d]] with a, b, c, d real, as
    views of m's arrays; ValueError for any other m."""
    a, b, c, d = (np.atleast_1d(v) for v in (m.a, m.b, m.c, m.d))
    if a.imag.any() or b.real.any() or c.real.any() or d.imag.any():
        raise ValueError("not a lossless chain matrix: a and d must be real "
                         "and b and c imaginary")
    return [a.real, b.imag, c.imag, d.real]


def _product(x: list, y: list, t: np.ndarray) -> list:
    """x @ y in the real form [a, b, c, d] of _lossless, as new arrays; t is
    a work array.  Each entry rounds as the complex product's nonzero part
    does, whose other terms are exact zeros."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    a = a1 * a2
    a -= np.multiply(b1, c2, out=t)
    b = a1 * b2
    b += np.multiply(b1, d2, out=t)
    c = c1 * a2
    c += np.multiply(d1, c2, out=t)
    d = d1 * d2
    d -= np.multiply(c1, b2, out=t)
    return [a, b, c, d]


def _rescale(m: list, exponent):
    """Rescale in place each frequency of m (real form) whose largest entry
    has left 2**+-_EXPONENT_LIMIT by a power of two, to a largest entry in
    [0.5, 1); returns the exponent that carries the scale."""
    top = np.maximum(np.maximum(np.abs(m[0]), np.abs(m[1])),
                     np.maximum(np.abs(m[2]), np.abs(m[3])))
    _, top = np.frexp(top)
    shift = np.where(np.abs(top) > _EXPONENT_LIMIT, top, 0)
    if not shift.any():
        return exponent
    for v in m:
        np.ldexp(v, -shift, out=v)
    return exponent + shift


def _power(m: list, exponent, n: int) -> tuple:
    """(m**n, its exponent) for m = [a, b, c, d] in the real form, scaled
    by 2**exponent, and n >= 1, by binary exponentiation.

    The base and every product are rescaled into the exponent, so any power
    of a finite m is finite where the true one is.  Squares take the general
    product, so each frequency not rescaled gets the bytes of the unscaled
    complex products.
    """
    t = np.empty_like(m[0])
    # a base entry past ~1e154 would overflow in the first squaring
    base = [v.copy() for v in m]
    base_e = _rescale(base, exponent)
    result = None
    while True:
        if n & 1:
            if result is None:
                result, result_e = base, base_e
            else:
                result = _product(result, base, t)
                result_e = _rescale(result, result_e + base_e)
        n >>= 1
        if not n:
            return result, result_e
        base = _product(base, base, t)
        base_e = _rescale(base, 2 * base_e)


def _from_real(m: list, exponent=0) -> TwoPortMatrix:
    """The complex TwoPortMatrix of m = [a, b, c, d] in the real form; each
    array is released from the list m once converted, which bounds the peak
    memory."""
    return TwoPortMatrix(*(_complex(m.pop(0), k in (1, 2)) for k in range(4)),
                         exponent)


def matrix_power(m: TwoPortMatrix, n: int) -> TwoPortMatrix:
    """m @ m @ ... (n times) by binary exponentiation, for a lossless m:
    [[a, i*b], [i*c, d]] with a, b, c, d real, as every ladder of ideal
    elements gives.

    The power runs on the four real arrays (see _power), with the scale in
    the exponent, so any power of a finite m is finite where the true one
    is.  Its entries and exponents equal, bit for bit, those of the complex
    products rescaled the same way, and so those of the unscaled products
    wherever no rescaling took place.  Raises ValueError for an m that is
    not lossless.
    """
    parts = _lossless(m)
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return identity_matrix(len(parts[0]))
    return _from_real(*_power(parts, m.exponent, n))


# A run of at least this many identical consecutive element pairs is raised
# to its power by squaring instead of walked.  At 10 001 points (x86-64,
# numpy 2.4) powering an (L, C) run is 2.2x faster than walking it at 16
# pairs and 3.8x at 32.  The floor sits above the fishbone presets' runs (at
# most 21 pairs), so those keep the exact walk and their bytes.
_POWER_FLOOR = 32


def _runs(ids: list, tail_len: int) -> dict:
    """{start: pair count} of each maximal run of at least _POWER_FLOOR
    repeats of one element pair in the sequence ``ids``; a run ends at the
    tail's length, where the walk takes its snapshot."""
    runs = {}
    n = len(ids)
    i = 0
    while i + 1 < n:
        end = tail_len if i < tail_len else n
        j = i + 2
        while j + 1 < end and ids[j] == ids[i] and ids[j + 1] == ids[i + 1]:
            j += 2
        if j > end:             # the first pair itself crosses the tail's end
            i += 1
            continue
        if (j - i) // 2 >= _POWER_FLOOR:
            runs[i] = (j - i) // 2
            i = j
        else:
            i = max(j - 1, i + 1)
    return runs


def _step(m: list, series: bool, x: np.ndarray, tmp: np.ndarray):
    """m <- m @ (one element), m = [a, b, c, d] standing for the matrix
    [[a, i*b], [i*c, d]]: a series i*x adds a*x to b and takes c*x from d,
    a shunt i*x takes b*x from a and adds d*x to c."""
    a, b, c, d = m
    if series:
        b += np.multiply(a, x, out=tmp)
        d -= np.multiply(c, x, out=tmp)
    else:
        a -= np.multiply(b, x, out=tmp)
        c += np.multiply(d, x, out=tmp)


def _power_into(m: list, pair: tuple, k: int, buffers: list):
    """m <- m @ P**k, P the product of the two elements of ``pair``, in the
    real form of _step, by binary exponentiation.  The powers of P commute,
    so m takes each set bit's square as it comes.  ``buffers`` holds six
    arrays; m's entries may trade places with the fifth."""
    base = buffers[:4]
    t1, t2 = buffers[4:]
    for v, one in zip(base, (1.0, 0.0, 0.0, 1.0)):
        v.fill(one)
    for series, x in pair:
        _step(base, series, x, t1)
    ba, bb, bc, bd = base
    while True:
        if k & 1:
            a, b, c, d = m
            # [[a, ib], [ic, d]] @ [[ba, i bb], [i bc, bd]]
            np.multiply(a, bb, out=t1)
            t1 += np.multiply(b, bd, out=t2)
            a *= ba
            a -= np.multiply(b, bc, out=t2)
            b, t1 = t1, b
            np.multiply(d, bc, out=t1)
            t1 += np.multiply(c, ba, out=t2)
            d *= bd
            d -= np.multiply(c, bb, out=t2)
            c, t1 = t1, c
            m[:] = a, b, c, d
            buffers[4] = t1
        k >>= 1
        if not k:
            return
        # the square: a^2 - bc, b(a + d), c(a + d), d^2 - bc
        np.add(ba, bd, out=t1)
        np.multiply(bb, bc, out=t2)
        bb *= t1
        bc *= t1
        ba *= ba
        ba -= t2
        bd *= bd
        bd -= t2


def _complex(x: np.ndarray, imaginary: bool) -> np.ndarray:
    """x or i*x as a complex array, with +0 for the zero part, as the
    complex walk gives it."""
    if not imaginary:
        return x.astype(complex)
    z = np.zeros(len(x), complex)
    z.imag = x
    return z


def walk_period(network: LadderNetwork, f: np.ndarray) -> tuple:
    """(period, tail): the chain matrix of the network's period over
    frequencies f, and that of the tail (None when there is none).

    Each distinct element's impedance or admittance is evaluated once
    (the network finds its distinct elements once, in period_index).
    Every element term is i*x with x real, so the running matrix stays
    [[a, i*b], [i*c, d]] with a, b, c, d real, and the walk carries those
    four real arrays.  It multiplies element by element without forming
    element matrices (see _step).  That leaves out only products by an
    element's exact ones and zeros and by the zero parts, so a walked
    stretch has the bytes of the full complex 2x2 product, signed zeros
    included.  A run of at least _POWER_FLOOR identical element pairs is
    instead raised to its power by squaring (_power_into), which rounds
    differently: a few 1e-14 relative.  The tail, a prefix of the period,
    is the partial product at its length.
    """
    f = _positive(f)
    n = len(f)
    distinct, ids = network.period_index
    terms = []                      # (series, x) per distinct element
    for e in distinct:
        series, term = _element_term(e, f)
        terms.append((series, term.imag.copy()))
    tail_len = len(network.tail)
    runs = _runs(ids, tail_len)
    m = [np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)]
    buffers = [np.empty(n) for _ in range(6 if runs else 1)]
    tail = None
    i = 0
    # deep above the cell cutoff the entries grow past the float range; the
    # caller decides what an infinite entry means
    with np.errstate(over="ignore", invalid="ignore"):
        while i < len(ids):
            if i == tail_len and tail_len:
                tail = _from_real(list(m))
            if i in runs:
                _power_into(m, (terms[ids[i]], terms[ids[i + 1]]), runs[i],
                            buffers)
                i += 2 * runs[i]
            else:
                _step(m, *terms[ids[i]], buffers[-1])
                i += 1
    del buffers, terms
    return _from_real(m), tail


def cascade_periods(period: TwoPortMatrix, repeats: int,
                    tail: TwoPortMatrix | None = None) -> TwoPortMatrix:
    """Chain matrix of ``repeats`` periods followed by the tail, for a
    lossless period and tail as walk_period gives them.

    Several repeats are powered and the tail multiplied on the four real
    arrays of each (see _power), so complex arrays are formed once, for the
    result.
    """
    # a single repeat stays the plain chain, whose zero parts keep their
    # signs, on which the Bloch branch choice depends
    if repeats == 1:
        return period if tail is None else period @ tail
    m, exponent = _power(_lossless(period), period.exponent, repeats)
    if tail is not None:
        m = _product(m, _lossless(tail), np.empty_like(m[0]))
        exponent = exponent + tail.exponent
    return _from_real(m, exponent)


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
#
# Every table number is "%.12e" % x, built as bytes by numpy.  A field is
# the 20 bytes "-d.dddddddddddde+hXX", read as five 4-byte words from
# tables: a positive x leaves the sign byte 0, an exponent below 100 leaves
# the hundreds byte 0, and the table drops every 0 byte.
#
# Exactness.  For finite x != 0 with decade guess E = floor(log10|x|), the
# 13 digits are the integer nearest to Y = |x| * 10**(12 - E).  The kernel
# computes y = ldexp(|x| * s, 12 - E), where s is 5**(12 - E) correctly
# rounded (exact for 0 <= 12 - E <= 22).  That is two roundings, each
# within 2**-53 relative; the ldexp is exact, because |x| * s stays normal in
# every finite double's decade.  So |y - Y| <= Y * (2**-52 + 2**-106),
# which is below y * 2**-51.  Hence d = rint(y) is the correctly rounded
# digit string unless y lies within y * 2**-51 (at most 0.0045) of a
# half-integer.  An element goes to Python's "%.12e" % x when
#   - it is not finite;
#   - |y - d| > 0.5 - y * 2**-51 (a tie, or too close to one to decide
#     from y);
#   - d reaches 10**13 (a carry into the next decade, or E guessed one too
#     low);
#   - y < 10**12 (E guessed one too high).
# If y >= 10**12 while Y < 10**12, then Y > 10**12 - 0.05, and the
# kernel's 1.000000000000e+E is the correct carry out of decade E - 1.  The
# scale table spans the decades of all finite doubles, so no exponent lies
# outside it.  Zeros print from the tables, signed zeros with their sign.
_EXPONENT_LOW, _EXPONENT_HIGH = -324, 308    # decades of finite doubles
_SCALE_LOW = 12 - _EXPONENT_HIGH
_SCALE5 = np.array([float(5 ** k) if k >= 0 else 1 / 5 ** -k
                    for k in range(_SCALE_LOW, 12 - _EXPONENT_LOW + 1)])
_FIELD = 20
# numbers per kernel call: amortizes its ~30 numpy calls over short tables
# and bounds its temporaries (~100 bytes a number) on long ones
_CHUNK = 1 << 13


def _words(texts) -> np.ndarray:
    """4-character ASCII texts as uint32 words, "_" standing for a 0 byte."""
    return np.frombuffer("".join(texts).replace("_", "\0").encode(),
                         np.uint32)


_PAIRS = ["%02d" % v for v in range(100)]
# "_0.0" ... "_9.9", then "-0.0" ... "-9.9": indexed by the leading two
# digits, plus 100 for a negative number
_HEAD = _words([sign + p[0] + "." + p[1] for sign in "_-" for p in _PAIRS])
_DIGITS4 = _words([a + b for a in _PAIRS for b in _PAIRS])
_DIGITS3E = _words(["%03de" % v for v in range(1000)])
# "-324" ... "-100", "-_99" ... "+_99", "+100" ... "+308"
_EXPONENT4 = _words([("-" if e < 0 else "+")
                     + ("%03d" % abs(e) if abs(e) >= 100 else "_%02d" % abs(e))
                     for e in range(_EXPONENT_LOW, _EXPONENT_HIGH + 1)])


def _format_e12(x: np.ndarray) -> np.ndarray:
    """"%.12e" % v for each v of the float array x, as the rows of an
    (n, 20) uint8 array with 0 in each byte the text drops."""
    mag = np.abs(x)
    zero = mag == 0
    fallback = ~np.isfinite(x)
    mag[zero | fallback] = 1.0
    e = np.floor(np.log10(mag))
    k = (12 - e).astype(np.intp)
    y = np.ldexp(mag * _SCALE5[k - _SCALE_LOW], k.astype(np.int32))
    d = np.rint(y)
    fallback |= ((y < 1e12) | (d >= 1e13)
                 | (np.abs(y - d) > 0.5 - y * 2.0 ** -51))
    d[zero | fallback] = 0.0       # fallback rows are overwritten below
    e[zero] = 0.0
    # d is an integer below 2**44: a quotient below that is not an integer
    # lies more than 2**-45 (relative) below the next one, farther than its
    # rounding error of 2**-53, so floor is exact
    a = np.floor(d / 1e3)
    b = np.floor(a / 1e4)
    head = np.floor(b / 1e4)
    words = np.empty((len(x), 5), np.uint32)
    words[:, 0] = _HEAD[head.astype(np.intp) + 100 * np.signbit(x)]
    words[:, 1] = _DIGITS4[(b - head * 1e4).astype(np.intp)]
    words[:, 2] = _DIGITS4[(a - b * 1e4).astype(np.intp)]
    words[:, 3] = _DIGITS3E[(d - a * 1e3).astype(np.intp)]
    words[:, 4] = _EXPONENT4[(e - _EXPONENT_LOW).astype(np.intp)]
    out = words.view(np.uint8)
    bad = np.flatnonzero(fallback)
    if bad.size:
        text = "".join(("%.12e" % v).ljust(_FIELD, "\0")
                       for v in x[bad].tolist())
        out[bad] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _FIELD)
    return out


class TableLines(Sequence):
    """The lines of a data table, made as the bytes of its file in chunks:
    ``chunks()`` yields them afresh on each call, and ``data``, every line
    followed by a newline, joins them on first use (for short tables and
    tests).  It compares equal to the list of its lines, which it splits out
    only when they are read."""

    def __init__(self, chunks):
        self._chunks = chunks

    def chunks(self):
        return self._chunks()

    @cached_property
    def data(self) -> bytes:
        return b"".join(self.chunks())

    @cached_property
    def _lines(self) -> list:
        return self.data.decode().split("\n")[:-1]

    def __len__(self):
        return len(self._lines)

    def __getitem__(self, i):
        return self._lines[i]

    def __iter__(self):
        return iter(self._lines)

    def __eq__(self, other):
        if isinstance(other, TableLines):
            return self.data == other.data
        if isinstance(other, list):
            return self._lines == other
        return NotImplemented

    def __repr__(self):
        return f"TableLines({self._lines!r})"


def table_lines(header: str, columns, sep: str = ",") -> TableLines:
    """Lines of a data table: the header, then one row per column index.

    Boolean columns print as 0/1 and every other column as %.12e, integers
    included, so identical data always gives identical bytes.  The float
    columns are formatted together, a column passed again as the same
    object only once, in one kernel call per _CHUNK numbers; each call's
    rows make one chunk of the table, so a table is never held whole.
    """
    columns = list(columns)
    arrays = [np.asarray(c) for c in columns]
    arrays = [a if a.dtype == bool else a.astype(float, copy=False)
              for a in arrays]
    n = len(arrays[0]) if arrays else 0
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("table columns must be 1-D and of equal length")
    return TableLines(partial(_table_chunks, header, columns, arrays, n, sep))


def _table_chunks(header: str, columns: list, arrays: list, n: int,
                  sep: str):
    """The bytes of table_lines' table of n rows: the header line, then its
    rows, at most _CHUNK formatted numbers a chunk."""
    yield header.encode() + b"\n"
    ends = [sep.encode()] * (len(arrays) - 1) + [b"\n"]
    row = bytearray()   # a row's separators, 0 in each byte a field fills
    bools = []          # (array, offset) of each bool column
    floats: dict = {}   # id of a float column: (array, offsets of its fields)
    for c, a, end in zip(columns, arrays, ends):
        if a.dtype == bool:
            bools.append((a, len(row)))
            row += b"\0"
        else:
            floats.setdefault(id(c), (a, []))[1].append(len(row))
            row += bytes(_FIELD)
        row += end
    row = np.frombuffer(bytes(row), np.uint8)
    rows = max(1, _CHUNK // max(1, len(floats)))
    for r in range(0, n, rows):
        k = min(rows, n - r)
        text = np.tile(row, (k, 1))
        for a, at in bools:
            text[:, at] = ord("0") + a[r:r + k]
        if floats:
            fields = _format_e12(np.stack(
                [a[r:r + k] for a, _ in floats.values()], axis=1).ravel())
            fields = fields.reshape(k, len(floats), _FIELD)
            for j, (_, offsets) in enumerate(floats.values()):
                for at in offsets:
                    text[:, at:at + _FIELD] = fields[:, j]
        yield text.tobytes().translate(None, b"\0")


def report_lines(pairs) -> list:
    """``key = value`` lines of a text report, values as %.12e."""
    return ["%s = %.12e" % (key, value) for key, value in pairs]


def write_touchstone(sp: SParameterSet, path) -> str:
    """Write a two-port Touchstone file, real/imaginary format, frequency in
    Hz, chunk by chunk; returns the sha256 hex digest of the bytes written."""
    columns = [sp.frequencies]
    parts: dict = {}
    for s in (sp.s11, sp.s21, sp.s12, sp.s22):
        # to_s_parameters gives S12 as the S21 array itself: the same column
        # objects let table_lines format them once
        columns += parts.setdefault(id(s), [s.real, s.imag])
    return write_chunks(path, table_lines(
        f"# HZ S RI R {sp.reference_impedance:g}", columns, sep=" ").chunks())


def read_touchstone(path) -> SParameterSet:
    with open(path) as fh:
        raw = [(n, ln.strip()) for n, ln in enumerate(fh, start=1)
               if ln.strip()]
    if not raw or not raw[0][1].startswith("#"):
        raise ValueError(f"{path}: missing Touchstone option line")
    opts = raw[0][1][1:].split()
    if [o.upper() for o in opts[:3]] != ["HZ", "S", "RI"]:
        raise ValueError(f"{path}: only 'HZ S RI' Touchstone data is supported")
    z_ref = 50.0
    if "R" in [o.upper() for o in opts]:
        at = [o.upper() for o in opts].index("R") + 1
        try:
            z_ref = float(opts[at])
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{raw[0][0]}: the option line needs a "
                             "reference impedance after R") from None
    rows = []
    for n, line in raw[1:]:
        try:
            row = [float(x) for x in line.split()]
        except ValueError as exc:
            raise ValueError(f"{path}:{n}: {exc}: {line!r}") from None
        if len(row) != 9:
            raise ValueError(f"{path}:{n}: expected 9 columns per data line, "
                             f"got {len(row)}")
        rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no data lines after the option line")
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

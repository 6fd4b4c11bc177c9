"""Chain (ABCD) two-port algebra, S-parameter conversion and Touchstone I/O.

A lossless chain matrix [[a, i*b], [i*c, d]] is held as its four real
arrays over a frequency grid, with a power-of-two exponent per frequency for
long cascades, so every operation is vectorized; a single frequency is just
a length-1 grid.  Complex arrays appear only in the S-parameters.  The
engineering phasor convention exp(+j*omega*t) is used throughout, so a
matched line has arg(s21) = -beta*l.

table_lines, the byte-exact %.12e table formatter, lives here because
Touchstone is a table format read back here (read_touchstone); runner lays
out the run's other data files with it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .circuit import (
    LadderNetwork,
    SeriesInductor,
    ShuntCapacitor,
    ShuntResonator,
    write_chunks,
)

__all__ = [
    "Z0",
    "TwoPortMatrix",
    "FrequencyGrid",
    "SParameterSet",
    "walk_period",
    "cascade_periods",
    "network_matrix",
    "to_s_parameters",
    "table_lines",
    "write_touchstone",
    "read_touchstone",
]

Z0 = 50.0   # ohm: the line and port impedance of every device modelled
RESONATOR_ENVIRONMENT_OHMS = Z0 / 2   # the line seen both ways from a shunt node


@dataclass(frozen=True)
class FrequencyGrid:
    """Linearly spaced analysis grid in Hz."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if self.start <= 0:
            raise ValueError("start must be positive")
        if self.stop <= self.start:
            raise ValueError("stop must exceed start")
        if not isinstance(self.points, numbers.Integral):
            raise ValueError(f"points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValueError("points must be >= 2")

    def frequencies(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)

    @property
    def step(self) -> float:
        return (self.stop - self.start) / (self.points - 1)


@dataclass(frozen=True)
class TwoPortMatrix:
    """Lossless chain matrix [[a, i*b], [i*c, d]] * 2**exponent: a, b, c and
    d are float64 arrays over a grid, exponent an integer per frequency (or
    0).

    Every ladder of ideal series inductors, shunt capacitors and series-LC
    resonator shunts has a chain matrix of this form (Pozar, Microwave
    Engineering, 4.4).  Long cascades carry their scale in the exponent so
    the entries neither overflow nor underflow; scaling by a power of two is
    exact.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    exponent: np.ndarray | int = 0

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        """The product [a1a2 - b1c2, a1b2 + b1d2, c1a2 + d1c2, d1d2 - c1b2],
        as new arrays.  Each entry rounds as the nonzero part of the full 2x2
        product with i*b and i*c does, whose other terms are exact zeros."""
        return TwoPortMatrix(self.a * other.a - self.b * other.c,
                             self.a * other.b + self.b * other.d,
                             self.c * other.a + self.d * other.c,
                             self.d * other.d - self.c * other.b,
                             self.exponent + other.exponent)

    def det(self) -> np.ndarray:
        return np.ldexp(self.a * self.d + self.b * self.c, 2 * self.exponent)

    def trace_half(self) -> np.ndarray:
        return np.ldexp(0.5 * (self.a + self.d), self.exponent)


def resonator_elements(f_r: float, q: float) -> tuple[float, float]:
    """(L_r, C_r) of the series-LC shunt realizing resonance f_r at loaded
    quality factor q against the RESONATOR_ENVIRONMENT_OHMS environment."""
    w0 = 2.0 * np.pi * f_r
    l_r = q * RESONATOR_ENVIRONMENT_OHMS / w0
    return l_r, 1.0 / (w0 * w0 * l_r)


def _positive(f) -> np.ndarray:
    f = np.atleast_1d(np.asarray(f, dtype=float))
    if np.any(f <= 0):
        raise ValueError("frequencies must be positive")
    return f


def _element_term(element, f: np.ndarray) -> tuple:
    """(True, x) of a series inductor whose impedance is i*x ohms, (False, x)
    of a shunt element whose admittance is i*x siemens, x real, at positive
    frequencies f."""
    if isinstance(element, SeriesInductor):
        return True, 2.0 * np.pi * f * element.l0
    w = 2.0 * np.pi * f
    if isinstance(element, ShuntCapacitor):
        return False, w * element.c
    if isinstance(element, ShuntResonator):
        l_r, c_r = resonator_elements(element.f_r, element.q)
        reactance = w * l_r - 1.0 / (w * c_r)
        # a grid point exactly on resonance would divide by zero; the branch
        # is a short there, so clamp to a huge admittance instead
        reactance = np.where(np.abs(reactance) < 1e-30,
                             np.copysign(1e-30, reactance + 1e-300), reactance)
        # m / (i*X) = -i*m/X; m * (1/X) rounds as numpy's quotient does
        return False, -element.multiplicity * (1.0 / reactance)
    raise TypeError(f"not a network element: {element!r}")


_EXPONENT_LIMIT = 64   # a power's entries are rescaled past 2**+-64


def _rescaled(m: TwoPortMatrix) -> TwoPortMatrix:
    """m with each frequency whose largest entry has left
    2**+-_EXPONENT_LIMIT rescaled by a power of two to a largest entry in
    [0.5, 1), the shift carried by the exponent; m itself if none has."""
    top = np.maximum(np.maximum(np.abs(m.a), np.abs(m.b)),
                     np.maximum(np.abs(m.c), np.abs(m.d)))
    _, top = np.frexp(top)
    shift = np.where(np.abs(top) > _EXPONENT_LIMIT, top, 0)
    if not shift.any():
        return m
    return TwoPortMatrix(*(np.ldexp(v, -shift) for v in (m.a, m.b, m.c, m.d)),
                         np.add(m.exponent, shift, dtype=np.int64))


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
    """m <- m @ (one element), m = [a, b, c, d] of a TwoPortMatrix: a series
    i*x adds a*x to b and takes c*x from d, a shunt i*x takes b*x from a and
    adds d*x to c."""
    a, b, c, d = m
    if series:
        b += np.multiply(a, x, out=tmp)
        d -= np.multiply(c, x, out=tmp)
    else:
        a -= np.multiply(b, x, out=tmp)
        c += np.multiply(d, x, out=tmp)


# The walk's runs and cascade_periods' repeats are powered by two kernels,
# which serve two contracts.  The walk carries no exponent, so a powered run
# must overflow at exactly the points where walking it does: _power_into
# never rescales, works in place and squares by a^2 - bc and b(a + d).  The
# repeats must rescale after every product.  One kernel would have to branch
# on its caller.  Run through the repeats' kernel (allocating general
# products, rescaled, the exponent folded back by ldexp), the walk's runs
# stayed within the tier-1 error bounds (S21 4.1e-14 against 3.8e-14), but
# the leaf walk at 10 001 points went from 1.0-1.5 to 2.6-3.9 ms (x86-64,
# numpy 2.4) and eight leaf data files moved.
def _power_into(m: list, pair: tuple, k: int, buffers: list):
    """m <- m @ P**k, P the product of the two elements of ``pair``, on
    m = [a, b, c, d] as in _step, by binary exponentiation.  The powers of P
    commute, so m takes each set bit's square as it comes.  ``buffers``
    holds six arrays; m's entries may trade places with the fifth."""
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


def walk_period(network: LadderNetwork, f: np.ndarray) -> tuple:
    """(period, tail): the chain matrix of the network's period over
    frequencies f, and that of the tail (None when there is none).

    Each distinct element's impedance or admittance i*x is evaluated once
    (the network finds its distinct elements once, in period_index).  The
    walk multiplies element by element without forming element matrices
    (see _step).  That leaves out only products by an element's exact ones
    and zeros, so a walked stretch has the bytes of the full 2x2 product.
    A run of at least _POWER_FLOOR identical element pairs is instead raised
    to its power by squaring (_power_into), which rounds differently: a few
    1e-14 relative.  The tail, a prefix of the period, is the partial
    product at its length.
    """
    f = _positive(f)
    n = len(f)
    distinct, ids = network.period_index
    tail_len = len(network.tail)
    runs = _runs(ids, tail_len)
    m = [np.ones(n), np.zeros(n), np.zeros(n), np.ones(n)]
    buffers = [np.empty(n) for _ in range(6 if runs else 1)]
    tail = None
    i = 0
    # deep above the cell cutoff, or at huge element values, the entries leave
    # the float range; the caller decides what an infinite entry means
    with np.errstate(over="ignore", invalid="ignore"):
        terms = [_element_term(e, f) for e in distinct]
        while i < len(ids):
            if i == tail_len and tail_len:
                tail = TwoPortMatrix(*(v.copy() for v in m))
            if i in runs:
                _power_into(m, (terms[ids[i]], terms[ids[i + 1]]), runs[i],
                            buffers)
                i += 2 * runs[i]
            else:
                _step(m, *terms[ids[i]], buffers[-1])
                i += 1
    return TwoPortMatrix(*m), tail


def cascade_periods(period: TwoPortMatrix, repeats: int,
                    tail: TwoPortMatrix | None = None) -> TwoPortMatrix:
    """Chain matrix of ``repeats`` >= 1 periods followed by the tail.

    The period is raised to its power by binary exponentiation.  The base
    and every product are rescaled into the exponent (_rescaled), so the
    cascade is finite wherever the period is; a base entry past ~1e154
    would overflow in the first squaring.  Squares take the general
    product, so each frequency never rescaled gets the bytes of the
    unscaled products.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    base = _rescaled(period)
    m = None
    while True:
        if repeats & 1:
            m = base if m is None else _rescaled(m @ base)
        repeats >>= 1
        if not repeats:
            return m if tail is None else m @ tail
        base = _rescaled(base @ base)


def network_matrix(network: LadderNetwork, f: np.ndarray) -> TwoPortMatrix:
    """Chain matrix of a full ladder network over frequencies f: its
    period, raised to the repeat count, then its tail."""
    period, tail = walk_period(network, f)
    return cascade_periods(period, network.repeats, tail)


@dataclass(frozen=True)
class SParameterSet:
    """Two-port scattering data on a frequency grid at a real reference:
    frequencies (Hz), the four S-parameters, and the reference_impedance
    (ohm), Z0 unless a Touchstone file read back names another."""

    frequencies: np.ndarray
    s11: np.ndarray
    s21: np.ndarray
    s12: np.ndarray
    s22: np.ndarray
    reference_impedance: float = Z0

    def __post_init__(self):
        if not 0.0 < self.reference_impedance < math.inf:
            raise ValueError("reference_impedance must be positive and "
                             f"finite, got {self.reference_impedance}")


def to_s_parameters(m: TwoPortMatrix, f: np.ndarray) -> SParameterSet:
    """Convert a chain matrix to S-parameters at the reference Z0.

    The two-port is taken as reciprocal, as every series/shunt ladder is:
    S12 is S21.
    """
    f = np.atleast_1d(np.asarray(f, dtype=float))
    # i*b / Z0 as numpy divides a complex array by a real number: as a
    # product with the reciprocal, which b / Z0 differs from in the last bit
    b = m.b * (1.0 / Z0)
    c = m.c * Z0
    den, n11, n22 = (np.empty(len(b), complex) for _ in range(3))
    den.real, den.imag = m.a + m.d, b + c
    n11.real, n11.imag = m.a - m.d, b - c
    n22.real, n22.imag = m.d - m.a, b - c
    # the entries' common scale 2**exponent cancels from the ratios s11 and
    # s22; s21 is scaled by it afterwards, exactly.  The exponent is an int64
    # sum (~1e10 periods pass 2**31), saturated to int32, where np.ldexp is
    # ~20x faster and past 2**31 gives 0 or inf either way
    exponent = np.clip(m.exponent, 1 - 2**31, 2**31 - 1).astype(np.int32)
    with np.errstate(over="ignore"):
        if np.any(np.ldexp(np.abs(den), exponent) < 1e-300):
            raise ArithmeticError(
                "singular ABCD-to-S denominator (pathological network)")
        s21 = 2.0 / den
        for part in (s21.real, s21.imag):
            np.ldexp(part, -exponent, out=part)
    return SParameterSet(f, n11 / den, s21, s21, n22 / den)


# --------------------------------------------------------------------------
# Table formatting
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


def table_lines(header: str, columns, sep: str = ","):
    """The bytes of a data table, as a generator of chunks: the header
    line, then one row per column index.

    Boolean columns print as 0/1 and every other column as %.12e, integers
    included, so identical data always gives identical bytes.  The float
    columns are formatted together, a column passed again as the same
    object only once, in one kernel call per _CHUNK numbers; each call's
    rows make one chunk of the table, so a table is never held whole.  The
    columns are checked here, before any chunk is made: ValueError unless
    they are 1-D and of equal length.
    """
    columns = list(columns)
    arrays = [np.asarray(c) for c in columns]
    arrays = [a if a.dtype == bool else a.astype(float, copy=False)
              for a in arrays]
    n = len(arrays[0]) if arrays else 0
    if any(a.shape != (n,) for a in arrays):
        raise ValueError("table columns must be 1-D and of equal length")
    return _table_chunks(header, columns, arrays, n, sep)


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


def write_touchstone(sp: SParameterSet, path) -> str:
    """Write a two-port Touchstone file, real/imaginary format, frequency in
    Hz, chunk by chunk; returns the sha256 hex digest of the bytes written.
    The reference impedance is printed with %.17g, so a read-back
    reproduces it exactly ("R 50" at Z0)."""
    columns = [sp.frequencies]
    parts: dict = {}
    for s in (sp.s11, sp.s21, sp.s12, sp.s22):
        # to_s_parameters gives S12 as the S21 array itself: the same column
        # objects let table_lines format them once
        columns += parts.setdefault(id(s), [s.real, s.imag])
    return write_chunks(path, table_lines(
        f"# HZ S RI R {sp.reference_impedance:.17g}", columns, sep=" "))


def read_touchstone(path) -> SParameterSet:
    """Read a two-port 'HZ S RI' Touchstone file, as write_touchstone
    writes it.  The option line names HZ, S and RI in any order and case,
    with an optional ``R <ohms>`` anywhere (50 ohm without it).  Raises
    ValueError naming the file (and line) for text that is not UTF-8, any
    other format, a malformed line or no data."""
    try:
        with open(path, encoding="utf-8") as fh:
            # a Touchstone comment runs from '!' to the end of its line
            lines = ((n, ln.partition("!")[0].strip())
                     for n, ln in enumerate(fh, start=1))
            raw = [(n, ln) for n, ln in lines if ln]
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not raw or not raw[0][1].startswith("#"):
        raise ValueError(f"{path}: missing Touchstone option line")
    opts = raw[0][1][1:].upper().split()
    z_ref = Z0
    if "R" in opts:
        at = opts.index("R")
        try:
            z_ref = float(opts[at + 1])
        except (IndexError, ValueError):
            z_ref = math.nan   # refused below, as a non-positive one is
        if not 0.0 < z_ref < math.inf:
            raise ValueError(f"{path}:{raw[0][0]}: the option line needs a "
                             "positive, finite reference impedance after R")
        del opts[at:at + 2]
    if sorted(opts) != ["HZ", "RI", "S"]:
        raise ValueError(f"{path}: only 'HZ S RI' Touchstone data is supported")
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


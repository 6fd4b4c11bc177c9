import hashlib
import math
import struct
import tracemalloc
from dataclasses import dataclass
from functools import reduce
from operator import matmul
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kitwpa.analysis import expand_design
from kitwpa.circuit import (
    LadderNetwork,
    NonlinearInductorSpec,
    SeriesInductor,
    ShuntCapacitor,
    ShuntResonator,
    UnitCellSpec,
    bare_ladder,
    expand_fishbone,
    FishboneSpec,
    uniform_line,
)
from kitwpa import twoport
from kitwpa.config import load_config
from kitwpa.dispersion import s21_over_bare
from kitwpa.twoport import (
    FrequencyGrid,
    SParameterSet,
    TwoPortMatrix,
    cascade_periods,
    network_matrix,
    read_touchstone,
    table_lines,
    to_s_parameters,
    walk_period,
    write_touchstone,
)

CELL = UnitCellSpec(NonlinearInductorSpec(50e-12, 10e-3), 20e-15)
PRESETS = Path(__file__).resolve().parents[1] / "src" / "kitwpa" / "presets"
PRESET_NAMES = ("fishbone-paper", "leaf-paper-gain", "leaf-paper")


def preset(name):
    """(network, frequencies) of a shipped preset."""
    cfg = load_config(PRESETS / f"{name}.cfg")
    return expand_design(cfg.design), cfg.frequency_grid.frequencies()


def identity(n):
    return TwoPortMatrix(np.ones(n), np.zeros(n), np.zeros(n), np.ones(n))


def single(element, f):
    """Chain matrix of one element, as a network of it alone."""
    return network_matrix(LadderNetwork((element,)), f)


def assert_bitwise_equal(m, ref):
    """All four entries and the exponents equal bit for bit."""
    for name in "abcd":
        x, y = getattr(m, name), getattr(ref, name)
        assert x.shape == y.shape
        assert np.array_equal(x.view(np.uint64), y.view(np.uint64)), name
    assert np.array_equal(np.broadcast_to(m.exponent, m.a.shape),
                          np.broadcast_to(ref.exponent, ref.a.shape))


# --------------------------------------------------------------------------
# The reference: chain matrices in full complex arithmetic, element matrix
# by element matrix, and the complex ABCD-to-S formula.  Every ladder of
# ideal elements gives [[a, i*b], [i*c, d]] with a, b, c, d real, so the
# package's real form must equal the real parts of a and d and the
# imaginary parts of b and c.

@dataclass(frozen=True)
class ComplexMatrix:
    """Chain matrix [[a, b], [c, d]] * 2**exponent of four complex arrays."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    exponent: np.ndarray | int = 0

    def __matmul__(self, other):
        return ComplexMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
            exponent=self.exponent + other.exponent,
        )


def complex_term(element, f):
    """(True, series impedance) of a series inductor, (False, shunt
    admittance) of a shunt element, as complex arrays."""
    if isinstance(element, SeriesInductor):
        return True, 1j * 2.0 * np.pi * f * element.l0
    w = 2.0 * np.pi * f
    if isinstance(element, ShuntCapacitor):
        return False, 1j * w * element.c
    l_r, c_r = twoport.resonator_elements(element.f_r, element.q)
    reactance = w * l_r - 1.0 / (w * c_r)
    reactance = np.where(np.abs(reactance) < 1e-30,
                         np.copysign(1e-30, reactance + 1e-300), reactance)
    return False, element.multiplicity / (1j * reactance)


def element_matrix(element, f):
    series, term = complex_term(element, np.atleast_1d(np.asarray(f, float)))
    one, zero = np.ones_like(term), np.zeros_like(term)
    if series:
        return ComplexMatrix(one, term, zero, one)
    return ComplexMatrix(one, zero, term, one)


def cascade(matrices):
    """Ordered product of chain matrices, input port first."""
    return reduce(matmul, matrices)


def complex_identity(n):
    one, zero = np.ones(n, complex), np.zeros(n, complex)
    return ComplexMatrix(one, zero, zero, one)


def complex_ldexp(x, e):
    """x * 2**e for complex x, exact: both parts are scaled by ldexp."""
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, e)
    out.imag = np.ldexp(x.imag, e)
    return out


def as_complex(m):
    """The ComplexMatrix a real-form m stands for, with +0 zero parts."""
    def imaginary(x):
        z = np.zeros(len(x), complex)
        z.imag = x
        return z
    return ComplexMatrix(m.a.astype(complex), imaginary(m.b), imaginary(m.c),
                         m.d.astype(complex), m.exponent)


def complex_s_parameters(m, z_ref=50.0):
    """(s11, s21, s22) of a ComplexMatrix by the complex formula."""
    den = m.a + m.b / z_ref + m.c * z_ref + m.d
    s11 = (m.a + m.b / z_ref - m.c * z_ref - m.d) / den
    s22 = (-m.a + m.b / z_ref - m.c * z_ref + m.d) / den
    return s11, complex_ldexp(2.0 / den, -m.exponent), s22


def lossless_parts(ref):
    """{entry: its nonzero part} of a ComplexMatrix of a lossless ladder."""
    return {"a": ref.a.real, "b": ref.b.imag, "c": ref.c.imag, "d": ref.d.real}


def assert_equals_oracle(m, ref, where=slice(None)):
    """The real form m equals the real parts of a and d and the imaginary
    parts of b and c of the ComplexMatrix ref bit for bit (at ``where``), and
    its exponents; the other parts of ref are exactly zero."""
    zeros = {"a": ref.a.imag, "b": ref.b.real, "c": ref.c.real, "d": ref.d.imag}
    for name, y in lossless_parts(ref).items():
        x = getattr(m, name)
        assert x.dtype == np.float64 and x.shape == y.shape
        assert np.array_equal(x[where].view(np.uint64),
                              y[where].view(np.uint64)), name
        assert not np.any(zeros[name][where]), name
    n = len(m.a)
    assert np.array_equal(np.broadcast_to(m.exponent, n),
                          np.broadcast_to(ref.exponent, n))


class TestElementMatrices:
    def test_series_inductor_zero_bias(self):
        m = single(SeriesInductor(50e-12, 10e-3), 6e9)
        assert m.b[0] == pytest.approx(2 * np.pi * 6e9 * 50e-12, rel=1e-12)
        assert m.a[0] == 1.0 and m.d[0] == 1.0 and m.c[0] == 0.0

    def test_shunt_capacitor_hand_value(self):
        # Y = j*2*pi*6e9*20e-15 = j*7.5398e-4 S
        m = single(ShuntCapacitor(20e-15), 6e9)
        assert m.c[0] == pytest.approx(7.5398e-4, rel=1e-4)

    def test_resonator_branch_is_short_at_resonance(self):
        # series-LC branch: admittance diverges at f_r
        near = single(ShuntResonator(6e9, 70.0), 6e9 * (1 + 1e-9))
        assert abs(near.c[0]) > 1e3

    def test_resonator_multiplicity_doubles_admittance(self):
        f = np.linspace(1e9, 12e9, 7)
        f = f[np.abs(f - 6e9) > 1e8]
        y1 = single(ShuntResonator(6e9, 70.0, 1), f).c
        y2 = single(ShuntResonator(6e9, 70.0, 2), f).c
        assert np.allclose(y2, 2 * y1, rtol=1e-15)

    def test_terms_are_the_complex_terms_imaginary_parts(self):
        # a multiplicity of 3 tells m * (1/X) from m / X
        f = np.concatenate([np.linspace(0.1e9, 100e9, 2001),
                            6e9 * (1 + np.array([-1e-12, 0.0, 1e-12]))])
        for e in (SeriesInductor(50e-12, 10e-3), ShuntCapacitor(20e-15),
                  *(ShuntResonator(6e9, 70.0, k) for k in (1, 2, 3, 7))):
            series, x = twoport._element_term(e, f)
            ref_series, ref = complex_term(e, f)
            assert series == ref_series and x.dtype == np.float64
            assert not np.any(ref.real)
            assert np.array_equal(x.view(np.uint64), ref.imag.view(np.uint64))

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            single(ShuntCapacitor(20e-15), 0.0)

    def test_determinant_unity(self):
        f = np.linspace(0.5e9, 20e9, 50)
        for el in (SeriesInductor(50e-12, 10e-3), ShuntCapacitor(20e-15),
                   ShuntResonator(6e9, 70.0, 2)):
            m = single(el, f)
            assert np.allclose(m.det(), 1.0, rtol=0, atol=1e-9)


class TestCascade:
    def test_empty_rejected(self):
        m = single(ShuntCapacitor(20e-15), 6e9)
        with pytest.raises(ValueError, match="repeats"):
            cascade_periods(m, 0)

    def test_single_element_is_itself(self):
        m = single(ShuntCapacitor(20e-15), 6e9)
        assert (m.a[0], m.b[0], m.d[0]) == (1.0, 0.0, 1.0)
        assert m.c[0] == 2.0 * np.pi * 6e9 * 20e-15
        assert_bitwise_equal(cascade_periods(m, 1), m)

    def test_cascade_determinant_preserved(self):
        f = np.linspace(1e9, 10e9, 16)
        ms = [single(SeriesInductor(50e-12, 10e-3), f),
              single(ShuntCapacitor(20e-15), f)] * 10
        assert np.allclose(reduce(matmul, ms).det(), 1.0, rtol=0, atol=1e-9)

    def test_matrix_power_matches_repeated_product(self):
        f = np.linspace(1e9, 10e9, 5)
        m = (single(SeriesInductor(50e-12, 10e-3), f)
             @ single(ShuntCapacitor(20e-15), f))
        direct = reduce(matmul, [m] * 13)
        powered = cascade_periods(m, 13)
        assert np.allclose(powered.a, direct.a, rtol=1e-12)
        assert np.allclose(powered.b, direct.b, rtol=1e-12)

    def test_supercell_phase_low_frequency(self):
        # uniform 22-cell supercell at 1 GHz: total phase -> 22*omega*sqrt(LC)
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=1,
                                           loaded_cells=0,
                                           loaded_cells_every_third=0))
        f = np.array([1e9])
        sp = to_s_parameters(network_matrix(net, f), f)
        expected = -22 * 2 * np.pi * 1e9 * np.sqrt(50e-12 * 20e-15)
        assert np.angle(sp.s21[0]) == pytest.approx(expected, rel=1e-2)

    def test_loaded_supercell_phase_low_frequency(self):
        # with 2 loaded cells the per-cell phases add with C -> C/5 in the
        # loaded run; reflections at the steps shift this by only ~1.5%
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=1))
        f = np.array([1e9])
        sp = to_s_parameters(network_matrix(net, f), f)
        w = 2 * np.pi * 1e9
        expected = -(20 * w * np.sqrt(50e-12 * 20e-15)
                     + 2 * w * np.sqrt(50e-12 * 4e-15))
        assert np.angle(sp.s21[0]) == pytest.approx(expected, rel=3e-2)

    def test_network_matrix_power_path_matches_flat(self):
        f = np.linspace(1e9, 30e9, 11)
        # a plain power, and a power followed by a two-supercell tail
        for net in (uniform_line(CELL, 40),
                    expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=8))):
            m1 = network_matrix(net, f)
            m2 = cascade(element_matrix(e, f) for e in net.elements)
            for name, y in lossless_parts(m2).items():
                x = np.ldexp(getattr(m1, name), m1.exponent)
                assert np.allclose(x, y, rtol=1e-10, atol=1e-12 * np.abs(y).max())


def no_power_floor(monkeypatch):
    """Walk every element: no run is long enough to be powered."""
    monkeypatch.setattr(twoport, "_POWER_FLOOR", math.inf)


def runs_of(chain, tail_len=0):
    """The runs walk_period powers in a chain of elements."""
    index = {}
    return twoport._runs([index.setdefault(e, len(index)) for e in chain],
                         tail_len)


def longdouble_walk(chain, f):
    """(a, b, c, d) of the chain [[a, i*b], [i*c, d]] as np.longdouble
    arrays, walked element by element on the same float64 element terms."""
    a, b, c, d = (np.full(len(f), np.longdouble(v)) for v in (1, 0, 0, 1))
    terms = {}
    for e in chain:
        if e not in terms:
            series, x = twoport._element_term(e, f)
            terms[e] = series, x.astype(np.longdouble)
        series, x = terms[e]
        if series:
            b, d = b + a * x, d - c * x
        else:
            a, c = a - b * x, c + d * x
    return a, b, c, d


def longdouble_s21(walk, z_ref=50.0):
    """S21 of a longdouble_walk result."""
    a, b, c, d = walk
    z = np.longdouble(z_ref)
    return 2 / ((a + d) + 1j * (b / z + c * z)).astype(np.clongdouble)


def finite(m):
    return (np.isfinite(m.a) & np.isfinite(m.b) & np.isfinite(m.c)
            & np.isfinite(m.d))


class TestPeriodWalk:
    """The walk's rank-one updates against the full 2x2 product of the
    element matrices in complex arithmetic, compared bit for bit."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_element_cascade_bitwise(self, name, monkeypatch):
        net, f = preset(name)
        if net.has_resonators():
            # the element path: the leaf's uniform runs would otherwise be
            # powered, which rounds differently; the fishbone's runs lie
            # below the floor, so it is walked exactly as it stands
            no_power_floor(monkeypatch)
        chains = {"period": net.period, "bare": bare_ladder(net).period}
        if net.tail:
            chains["tail"] = net.tail
        # one matrix per distinct element keeps the reference quick
        mats = {e: element_matrix(e, f) for e in set(net.period)}
        for chain in chains.values():
            ref = cascade(mats[e] for e in chain)
            got = network_matrix(LadderNetwork(chain), f)
            assert np.all(got.exponent == 0)
            assert_equals_oracle(got, ref)
        # the tail the walk snapshots on its way through the period
        period, tail = walk_period(net, f)
        if net.tail:
            assert_equals_oracle(tail, cascade(mats[e] for e in net.tail))
        else:
            assert tail is None
        # every entry is a float64 array, and so is the determinant
        for m in (period, tail, network_matrix(net, f),
                  cascade_periods(period, 2, tail)):
            if m is not None:
                assert all(getattr(m, k).dtype == np.float64 for k in "abcd")
                assert m.det().dtype == np.float64

    def test_powers_only_the_leaf_runs(self):
        fishbone, _ = preset("fishbone-paper")
        leaf, _ = preset("leaf-paper")
        assert runs_of(fishbone.period, len(fishbone.tail)) == {}
        # the leaf block: 333 cells after the second resonator pair, and its
        # bare ladder, 340 cells
        assert runs_of(leaf.period) == {16: 333}
        assert runs_of(bare_ladder(leaf).period) == {0: 340}

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_powered_walk_within_error_budget(self, name, monkeypatch):
        net, f = preset(name)
        m, _ = walk_period(net, f)
        walk = longdouble_walk(net.period, f)
        # S21 of the period
        s21, s21_ref = to_s_parameters(m, f).s21, longdouble_s21(walk)
        assert np.max(np.abs(s21 - s21_ref) / np.abs(s21_ref)) <= 1e-13
        # the Bloch half-trace
        t, t_ref = m.trace_half(), (walk[0] + walk[3]) / 2
        assert np.max(np.abs(t - t_ref) / np.maximum(1, np.abs(t_ref))) <= 1e-12
        if net.has_resonators():
            block = net.one_period()
            ref = s21_ref / longdouble_s21(
                longdouble_walk(bare_ladder(block).period, f))
            got = s21_over_bare(block, f)
            assert np.max(np.abs(got - ref) / np.abs(ref)) <= 2e-13
        # no stopband flag moves against the exact walk
        no_power_floor(monkeypatch)
        exact, _ = walk_period(net, f)
        assert np.array_equal(np.abs(t) > 1.0, np.abs(exact.trace_half()) > 1.0)

    def test_powered_walk_overflows_where_the_exact_walk_does(
            self, monkeypatch):
        # far above the leaf cells' 55 GHz cutoff the walk overflows
        net, _ = preset("leaf-paper")
        f = np.linspace(0.1e9, 150e9, 2001)
        with np.errstate(all="ignore"):
            powered = (walk_period(net, f)[0], network_matrix(net, f))
            no_power_floor(monkeypatch)
            exact = (walk_period(net, f)[0], network_matrix(net, f))
        for got, ref in zip(powered, exact):
            assert 0 < np.count_nonzero(finite(ref)) < len(f)
            assert np.array_equal(finite(got), finite(ref))

    def test_tail_snapshot_ends_a_run(self):
        # a uniform 100-cell period whose 40-cell tail ends inside the run:
        # two powered runs, 40 and 60 cells
        period = uniform_line(CELL, 1).period * 100
        net = LadderNetwork(period, 2, period[:80])
        assert runs_of(net.period, len(net.tail)) == {0: 40, 80: 60}
        f = np.linspace(1e9, 400e9, 101)     # up past the 318 GHz cutoff
        got, tail = walk_period(net, f)
        mats = {e: element_matrix(e, f) for e in set(period)}
        for m, chain in ((got, net.period), (tail, net.tail)):
            ref = cascade(mats[e] for e in chain)
            for name, y in lossless_parts(ref).items():
                assert np.allclose(getattr(m, name), y, rtol=1e-11,
                                   atol=1e-13 * np.abs(y).max())

    @settings(derandomize=True, max_examples=60, deadline=None,
              database=None)
    @given(st.data())
    def test_exact_on_random_ladders(self, data):
        """Random lossless ladders with no run long enough to be powered, at
        frequencies next to a resonance and above the cells' cutoff."""
        draw = data.draw
        pico, femto = st.floats(20.0, 500.0), st.floats(5.0, 200.0)
        inductors = [SeriesInductor(draw(pico) * 1e-12, 1e-2)
                     for _ in range(draw(st.integers(1, 2)))]
        capacitors = [ShuntCapacitor(draw(femto) * 1e-15)
                      for _ in range(draw(st.integers(1, 2)))]
        resonators = [ShuntResonator(draw(st.floats(2e9, 12e9)),
                                     draw(st.floats(10.0, 300.0)),
                                     draw(st.integers(1, 2)))
                      for _ in range(draw(st.integers(0, 2)))]
        cell = st.tuples(st.sampled_from(inductors), st.lists(
            st.sampled_from(capacitors + resonators), min_size=1, max_size=2))
        cells = draw(st.lists(cell, min_size=1,
                              max_size=twoport._POWER_FLOOR - 1))
        period = tuple(e for l, shunts in cells for e in (l, *shunts))
        tail_len = draw(st.integers(0, len(period) - 1))
        net = LadderNetwork(period, draw(st.integers(1, 3)), period[:tail_len])
        assert runs_of(period, tail_len) == {}

        cutoff = 1 / (np.pi * np.sqrt(max(e.l0 for e in inductors)
                                      * max(e.c for e in capacitors)))
        near = st.floats(1e-6, 1e-2)
        f = [r.f_r * (1 + sign * draw(near))
             for r in resonators for sign in (-1, 1)]
        f += [cutoff * draw(st.floats(1.0, 3.0)) for _ in range(3)]
        f += [draw(st.floats(0.1e9, 100e9)) for _ in range(3)]
        f = np.array(f)

        mats = {e: element_matrix(e, f) for e in set(period)}
        with np.errstate(all="ignore"):
            got, tail = walk_period(net, f)
            pairs = [(got, period)]
            if tail_len:
                pairs.append((tail, period[:tail_len]))
            for m, chain in pairs:
                ref = cascade(mats[e] for e in chain)
                ok = finite(ref)
                assert np.array_equal(finite(m), ok)
                assert_equals_oracle(m, ref, where=ok)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            walk_period(uniform_line(CELL, 2), np.array([1e9, 0.0]))

    def test_hashes_the_period_once_per_network(self, monkeypatch):
        # hashing a frozen element builds a tuple of its fields: 0.2 ms for
        # the leaf's 682, on each of the three walks of a leaf gain
        net, f = preset("leaf-paper")
        f = f[::100]
        hashed = []
        for cls in (SeriesInductor, ShuntCapacitor, ShuntResonator):
            monkeypatch.setattr(cls, "__hash__", lambda e, h=cls.__hash__:
                                hashed.append(e) or h(e))
        block = net.one_period()
        walk_period(block, f)
        assert len(hashed) == len(block.period)
        walk_period(block, f)
        network_matrix(net.one_period(), f)
        assert net.one_period() is block
        assert len(hashed) == len(block.period)


def reference_matrix_power(m, n):
    """Binary exponentiation of a ComplexMatrix without rescaling."""
    result = complex_identity(len(m.a))
    base = m
    while n:
        if n & 1:
            result = result @ base
        base = base @ base
        n >>= 1
    return result


def reference_normalized(m):
    """m with each frequency whose largest entry, real or imaginary part,
    has left 2**+-64 rescaled to a largest entry in [0.5, 1)."""
    parts = [np.abs(x) for v in (m.a, m.b, m.c, m.d) for x in (v.real, v.imag)]
    _, top = np.frexp(np.maximum.reduce(parts))
    shift = np.where(np.abs(top) > 64, top, 0)
    if not shift.any():
        return m
    return ComplexMatrix(*(complex_ldexp(v, -shift)
                           for v in (m.a, m.b, m.c, m.d)), m.exponent + shift)


def reference_scaled_matrix_power(m, n):
    """The power of a ComplexMatrix as complex 2x2 products, the base and
    every product renormalized."""
    result = complex_identity(len(m.a))
    base = reference_normalized(m)
    while n:
        if n & 1:
            result = reference_normalized(result @ base)
        n >>= 1
        if n:
            base = reference_normalized(base @ base)
    return result


class TestRealFormPower:
    """The repeats are powered on the four real arrays of [[a, i*b],
    [i*c, d]]; they must round as the complex power does, exponents
    included."""

    @pytest.mark.parametrize("name, factor", [
        *((name, 1) for name in PRESET_NAMES), ("fishbone-paper", 4),
        ("fishbone-paper", 8), ("leaf-paper", 60)])
    def test_equals_the_complex_power_bit_for_bit(self, name, factor):
        net, f = preset(name)
        period, tail = walk_period(net, f)
        repeats = net.repeats * factor
        ref = reference_scaled_matrix_power(as_complex(period), repeats)
        assert_equals_oracle(cascade_periods(period, repeats), ref)
        if factor > 1:
            assert np.max(ref.exponent) > 1024
        if tail is not None:
            assert_equals_oracle(cascade_periods(period, repeats, tail),
                                 ref @ as_complex(tail))


class TestLongCascades:
    """A power's scale is carried as a per-frequency exponent, so no cascade
    overflows; wherever the unscaled product was finite, the emitted text is
    the same."""

    @pytest.mark.parametrize("name, factor", [
        ("fishbone-paper", 4), ("fishbone-paper", 8), ("leaf-paper", 60)])
    def test_finite_and_unitary(self, name, factor):
        net, f = preset(name)
        long = LadderNetwork(net.period, net.repeats * factor, net.tail)
        m = network_matrix(long, f)
        assert np.max(m.exponent) > 1024    # beyond the float range unscaled
        sp = to_s_parameters(m, f)
        for s in (sp.s11, sp.s21, sp.s12, sp.s22):
            assert np.all(np.isfinite(s))
        power = np.abs(sp.s11) ** 2 + np.abs(sp.s21) ** 2
        assert np.max(np.abs(power - 1.0)) < 1e-9
        # the real-form conversion gives the complex formula's bytes on the
        # matrix m stands for, scaled entries included
        for got, ref in zip((sp.s11, sp.s21, sp.s22),
                            complex_s_parameters(as_complex(m))):
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


    @pytest.mark.parametrize("name, factor", [
        *((name, 1) for name in PRESET_NAMES), ("fishbone-paper", 4)])
    def test_s12_is_s21_and_passive(self, name, factor):
        # a ladder is reciprocal; S12 formed from its rounded determinant
        # would be noise of any size in a deep stopband
        net, f = preset(name)
        long = LadderNetwork(net.period, net.repeats * factor, net.tail)
        sp = to_s_parameters(network_matrix(long, f), f)
        assert np.array_equal(sp.s12, sp.s21)
        assert np.max(np.abs(sp.s12)) <= 1.0 + 1e-9

    def test_rows_unchanged_where_the_unscaled_cascade_was_finite(self):
        net, f = preset("fishbone-paper")
        period, tail = walk_period(net, f)
        repeats = net.repeats * 4
        with np.errstate(all="ignore"):
            m = (reference_matrix_power(as_complex(period), repeats)
                 @ as_complex(tail))
            den = m.a + m.b / 50.0 + m.c * 50.0 + m.d
            s11 = (m.a + m.b / 50.0 - m.c * 50.0 - m.d) / den
            s21 = 2.0 / den
        finite = np.isfinite(s11) & np.isfinite(s21)
        assert 0 < np.count_nonzero(~finite) < f.size
        sp = to_s_parameters(network_matrix(
            LadderNetwork(net.period, repeats, net.tail), f), f)

        def rows(s11, s21):
            # the S11/S21 part of a data line of sparams.s2p or dispersion.csv
            return lines_of(table_lines("", [f, s11.real, s11.imag,
                                             s21.real, s21.imag]))[1:]
        got = rows(sp.s11, sp.s21)
        ref = rows(s11, s21)
        assert [g for g, ok in zip(got, finite) if ok] == \
            [r for r, ok in zip(ref, finite) if ok]

    def test_power_finite_wherever_the_period_is(self):
        # far above the leaf cells' 55 GHz cutoff the walked period's entries
        # pass ~1e154, which overflowed in the first squaring while only
        # products were rescaled: 8 317 finite points of 11 632 on this grid
        net, _ = preset("leaf-paper")
        f = np.linspace(0.1e9, 150e9, 20001)
        period = finite(walk_period(net, f)[0])
        with np.errstate(over="ignore", invalid="ignore"):
            m = network_matrix(net, f)
        assert 0 < np.count_nonzero(period) < f.size
        assert np.array_equal(finite(m), period)

    def test_exponent_scales_determinant_and_trace(self):
        f = np.linspace(1e9, 10e9, 3)
        m = (single(SeriesInductor(50e-12, 10e-3), f)
             @ single(ShuntCapacitor(20e-15), f))
        e = np.array([0, 70, -70])
        scaled = TwoPortMatrix(m.a * 2.0 ** -e, m.b * 2.0 ** -e,
                               m.c * 2.0 ** -e, m.d * 2.0 ** -e, e)
        assert np.array_equal(scaled.det(), m.det())
        assert np.array_equal(scaled.trace_half(), m.trace_half())
        sp, ref = to_s_parameters(scaled, f), to_s_parameters(m, f)
        for name in ("s11", "s21", "s12", "s22"):
            assert np.array_equal(getattr(sp, name), getattr(ref, name))


class TestSParameters:
    def test_identity_matrix(self):
        sp = to_s_parameters(identity(1), np.array([1e9]))
        assert sp.s21[0] == pytest.approx(1.0, abs=1e-15)
        assert sp.s11[0] == pytest.approx(0.0, abs=1e-15)

    def test_matched_line_transmission_and_phase(self):
        # lossless uniform ladder: |s21| = 1 at the image impedance;
        # at 50 ohm reference the Bloch phase -N*2*asin(pi*f*sqrt(LC))
        # still dominates and |s21| stays near 1 far below cutoff
        n = 1000
        net = uniform_line(CELL, n)
        f = np.array([6e9])
        sp = to_s_parameters(network_matrix(net, f), f)
        assert abs(sp.s21[0]) == pytest.approx(1.0, abs=1e-3)
        expected = -n * 2 * np.arcsin(np.pi * 6e9 * np.sqrt(50e-12 * 20e-15))
        phase = np.unwrap([0.0, np.angle(sp.s21[0])])[1]
        # compare modulo 2*pi against the closed-form Bloch phase
        assert (expected - phase) % (2 * np.pi) == pytest.approx(0.0, abs=1e-2) \
            or (expected - phase) % (2 * np.pi) == pytest.approx(2 * np.pi, abs=1e-2)

    def test_lossless_unitarity(self):
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=30))
        f = np.linspace(0.5e9, 20e9, 301)
        sp = to_s_parameters(network_matrix(net, f), f)
        power = np.abs(sp.s11) ** 2 + np.abs(sp.s21) ** 2
        assert np.max(np.abs(power - 1.0)) < 1e-8

    def test_reciprocity_s12_equals_s21(self):
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=9))
        f = np.linspace(1e9, 15e9, 40)
        sp = to_s_parameters(network_matrix(net, f), f)
        assert np.allclose(sp.s12, sp.s21, rtol=1e-9)

    def test_stopband_transmission_suppressed(self):
        # >= 30 periods of the 3-supercell pattern: inside the wide loading
        # stopband (~24 GHz) |s21|^2 sits at least 10 dB under the passband
        # median
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=90))
        f = np.linspace(18e9, 25e9, 701)
        sp = to_s_parameters(network_matrix(net, f), f)
        p = 20 * np.log10(np.abs(sp.s21))
        in_band = (f > 23.5e9) & (f < 24.3e9)
        passband = f < 22e9
        assert np.median(p[in_band]) < np.median(p[passband]) - 10

    def test_rejects_bad_reference(self):
        with pytest.raises(ValueError):
            to_s_parameters(identity(1), np.array([1e9]), z_ref=0.0)


class TestFrequencyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            FrequencyGrid(0.0, 1e9, 10)
        with pytest.raises(ValueError):
            FrequencyGrid(2e9, 1e9, 10)
        with pytest.raises(ValueError):
            FrequencyGrid(1e9, 2e9, 1)
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(float("nan"), 8e9, 11)
        with pytest.raises(ValueError, match="finite"):
            FrequencyGrid(1e9, float("inf"), 11)
        with pytest.raises(ValueError, match="points must be an integer"):
            FrequencyGrid(1e9, 2e9, 2.5)
        # np.linspace takes no float count, integral or not
        with pytest.raises(ValueError, match="points must be an integer"):
            FrequencyGrid(1e9, 2e9, 11.0)
        assert FrequencyGrid(1e9, 2e9, np.int64(11)).frequencies().size == 11

    def test_frequencies(self):
        g = FrequencyGrid(1e9, 2e9, 11)
        f = g.frequencies()
        assert len(f) == 11
        assert f[0] == 1e9 and f[-1] == 2e9
        assert g.step == pytest.approx(1e8)


class TestTouchstone:
    def test_round_trip_within_1e12_relative(self, tmp_path):
        net = expand_fishbone(FishboneSpec(base_cell=CELL, num_periods=6))
        f = np.linspace(1e9, 12e9, 64)
        sp = to_s_parameters(network_matrix(net, f), f)
        p = tmp_path / "dev.s2p"
        write_touchstone(sp, p)
        back = read_touchstone(p)
        for name in ("s11", "s21", "s12", "s22"):
            a = getattr(sp, name)
            b = getattr(back, name)
            scale = np.maximum(np.abs(a), 1e-30)
            assert np.max(np.abs(a - b) / scale) < 1e-12
        assert np.max(np.abs(back.frequencies - f) / f) < 1e-12
        assert back.reference_impedance == 50.0

    def test_header_format(self, tmp_path):
        sp = to_s_parameters(identity(3), np.array([1e9, 2e9, 3e9]))
        p = tmp_path / "dev.s2p"
        write_touchstone(sp, p)
        assert p.read_text().splitlines()[0] == "# HZ S RI R 50"

    def test_emission_memory_does_not_grow_with_the_rows(self, tmp_path):
        # the table is written chunk by chunk and digested as written; held
        # whole, 100 001 rows peaked at ~10x the 10 001-row figure
        p = tmp_path / "dev.s2p"

        def peak(n):
            rng = np.random.default_rng(n)
            s = [rng.standard_normal(n) + 1j * rng.standard_normal(n)
                 for _ in range(3)]
            sp = SParameterSet(np.linspace(1e9, 20e9, n), s[0], s[1], s[1],
                               s[2])
            tracemalloc.start()
            try:
                digest = write_touchstone(sp, p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert digest == hashlib.sha256(p.read_bytes()).hexdigest()
            assert len(p.read_bytes().splitlines()) == n + 1
            return peak

        assert peak(100_001) <= 1.5 * peak(10_001)

    @pytest.mark.parametrize("text", [
        "! a leading comment\n# HZ S RI R 50\n1 0 0 1 0 1 0 0 0\n"
        "2 0 0 0 1 0 1 0 0\n",
        "# HZ S RI R 50 ! option line\n1 0 0 1 0 1 0 0 0 ! first point\n"
        "2 0 0 0 1 0 1 0 0!second\n",
        "!\n# HZ S RI R 50\n  ! comment-only line\n1 0 0 1 0 1 0 0 0\n"
        "!! another\n2 0 0 0 1 0 1 0 0\n!",
        "# RI HZ S R 50 ! reordered\n1 0 0 1 0 1 0 0 0\n2 0 0 0 1 0 1 0 0\n",
        "# R 50 HZ S RI\n1 0 0 1 0 1 0 0 0 ! first\n2 0 0 0 1 0 1 0 0\n",
        "# hz s ri ! R left out: 50 ohm\n1 0 0 1 0 1 0 0 0\n"
        "2 0 0 0 1 0 1 0 0\n",
    ], ids=["leading", "trailing", "comment-only", "ri-first", "r-first",
            "lower-case"])
    def test_comments_are_skipped(self, tmp_path, text):
        # Touchstone treats everything from '!' to the end of a line as a
        # comment, on any line; the option line's fields come in any order
        # and case
        p = tmp_path / "commented.s2p"
        p.write_text(text)
        sp = read_touchstone(p)
        assert np.array_equal(sp.frequencies, [1.0, 2.0])
        assert np.array_equal(sp.s21, [1.0, 1j])
        assert np.array_equal(sp.s12, [1.0, 1j])
        assert np.array_equal(sp.s11, [0.0, 0.0])
        assert np.array_equal(sp.s22, [0.0, 0.0])
        assert sp.reference_impedance == 50.0

    @pytest.mark.parametrize("option", [
        "# GHZ S MA R 50", "# GHZ S RI", "# HZ S MA", "# HZ Y RI", "# RI S",
        "# HZ S RI RI", "# R 50 HZ S RI R 50",
    ], ids=["ghz-ma", "ghz", "ma", "y", "no-hz", "ri-twice", "r-twice"])
    def test_rejects_unknown_format(self, tmp_path, option):
        # any order is accepted, but only of HZ, S and RI, each once
        p = tmp_path / "bad.s2p"
        p.write_text(option + "\n1 0 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match="only 'HZ S RI'"):
            read_touchstone(p)

    @pytest.mark.parametrize("body, message", [
        ("", "no data lines"),
        ("1 0 0 0 0 0 0 0 0\n2 0 0\n", "9 columns"),
        ("1 0 0 0 0 0 0 0 0\n1 x 0 0 0 0 0 0 0\n", r"bad\.s2p:3: .*'x'"),
    ], ids=["option-line-only", "short-line", "bad-token"])
    def test_rejects_missing_data_naming_the_file(self, tmp_path, body,
                                                  message):
        p = tmp_path / "bad.s2p"
        p.write_text("# HZ S RI R 50\n" + body)
        with pytest.raises(ValueError, match=message) as err:
            read_touchstone(p)
        assert "bad.s2p" in str(err.value)

    @pytest.mark.parametrize("option", [
        "# HZ S RI R", "# HZ S RI R fifty", "# HZ S RI R nan",
        "# HZ S RI R inf", "# HZ S RI R 0", "# HZ S RI R -5"])
    def test_rejects_a_reference_impedance_that_is_not_a_number(
            self, tmp_path, option):
        p = tmp_path / "bad.s2p"
        p.write_text(option + "\n1 0 0 0 0 0 0 0 0\n")
        with pytest.raises(ValueError, match=r"bad\.s2p:1: .* after R"):
            read_touchstone(p)


def lines_of(chunks) -> list:
    """The lines of a table's bytes, each without its newline."""
    return b"".join(chunks).decode().split("\n")[:-1]


def reference_table_lines(header, columns, sep=","):
    """The per-row f-string formula the data files were written with before
    table_lines: index each column, 0/1 for a bool column, else .12e."""
    n = len(columns[0])
    lines = [header]
    for i in range(n):
        lines.append(sep.join(
            f"{int(c[i])}" if np.asarray(c).dtype == bool else f"{c[i]:.12e}"
            for c in columns))
    return lines


class TestTableLines:
    SPECIAL = [-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0,
               6.22e9, -2.5e-13]

    @pytest.mark.parametrize("sep", [",", " "])
    def test_matches_per_row_formula(self, sep):
        rng = np.random.default_rng(5)
        n = len(self.SPECIAL)
        columns = [
            np.array(self.SPECIAL),                          # numpy floats
            list(self.SPECIAL[::-1]),                        # Python floats
            rng.normal(0, 1e9, n) * 10.0 ** rng.integers(-300, 290, n),
            (rng.normal(size=n) + 1j * rng.normal(size=n)).imag,
            rng.random(n) > 0.5,                             # bool column
            np.arange(-5, n - 5),                            # int column
            [int(v) for v in range(n)],                      # Python ints
        ]
        got = lines_of(table_lines("h", columns, sep=sep))
        assert got == reference_table_lines("h", columns, sep=sep)
        assert len(got) == n + 1

    @pytest.mark.parametrize("rows, cols", [(1, 15), (40, 4)])
    def test_short_wide_tables_match_per_row_formula(self, rows, cols):
        # the shapes of metrics.csv and stopbands.csv; every float column,
        # the repeated one included, goes through one kernel call
        rng = np.random.default_rng(rows * cols)
        columns = [rng.normal(0, 1e9, rows)
                   * 10.0 ** rng.integers(-300, 290, rows)
                   for _ in range(cols - 2)]
        columns[1:1] = [rng.random(rows) > 0.5, columns[0]]
        assert len(columns) == cols
        assert lines_of(table_lines("h", columns)) == \
            reference_table_lines("h", columns)

    def test_tables_longer_than_a_kernel_call_match_per_row_formula(self):
        # 3 distinct float columns of _CHUNK rows take 4 kernel calls, the
        # last one of 2 rows
        from kitwpa.twoport import _CHUNK

        rng = np.random.default_rng(7)
        x = rng.normal(0, 1e9, _CHUNK) * 10.0 ** rng.integers(-300, 290, _CHUNK)
        columns = [x, rng.random(_CHUNK) > 0.5, rng.normal(size=_CHUNK), x, -x]
        assert lines_of(table_lines("h", columns)) == \
            reference_table_lines("h", columns)

    def test_int_column_prints_as_float_and_bool_as_digit(self):
        lines = lines_of(table_lines("a b", [[3], np.array([True])], sep=" "))
        assert lines == ["a b", "3.000000000000e+00 1"]

    def test_zero_rows_gives_header_alone(self):
        assert list(table_lines("x,y", [[], np.zeros(0, dtype=bool)])) == \
            [b"x,y\n"]
        assert lines_of(table_lines("x,y", [[], []])) == reference_table_lines(
            "x,y", [[], []])

    def test_report_lines(self):
        # the key = value reports (metrics.txt, calibration.txt)
        from kitwpa.runner import _report

        assert _report([("a", 1), ("b", -0.0), ("c", np.float64(np.nan))]) \
            == [b"a = 1.000000000000e+00\nb = -0.000000000000e+00\nc = nan\n"]

    # any float64 bit pattern: subnormals, +-0, +-inf and NaNs with any
    # payload and sign; plus the floats hypothesis finds interesting
    FLOAT64 = st.one_of(
        st.integers(0, 2 ** 64 - 1).map(
            lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0]),
        st.floats())

    @settings(derandomize=True, max_examples=100, deadline=None,
              database=None)
    @given(st.lists(st.tuples(FLOAT64, FLOAT64, st.booleans()), max_size=40),
           st.sampled_from([",", " "]))
    def test_matches_per_row_formula_on_any_float64(self, rows, sep):
        columns = [np.array([r[0] for r in rows], dtype=float),
                   [r[1] for r in rows],
                   np.array([r[2] for r in rows], dtype=bool)]
        assert lines_of(table_lines("h", columns, sep=sep)) == \
            reference_table_lines("h", columns, sep=sep)

    # The kernel cannot decide these from one scaled float; they must come
    # out as Python prints them.
    TIES = [m + 0.5 for m in (1_000_000_000_000, 1_234_567_890_123,
                              9_999_999_999_998, 5_555_555_555_555)] \
        + [10.0 * m + 5 for m in (1_234_567_890_123, 4_444_444_444_444)] \
        + [123_456_789_012.25, 123_456_789_012.75, 2.0 ** 40 + 0.5]
    CARRIES = [9.9999999999995e5, 9999999999999.6, 9.9999999999996e-7,
               9.99999999999951e100, 9.99999999999951e-100,
               9.9999999999996e300, 9.9999999999996e-300]

    @pytest.mark.parametrize("values", [
        TIES,
        CARRIES,
        [1.0e100, 1.234567890123e100, 9.87654321e-100, 1.0e-100, 5.5e99,
         1.0e300, 3.3e300, 1.0e-300, 7.7e-301, 1.7976931348623157e308,
         2.2250738585072014e-308, 5e-324],
    ], ids=["ties", "carries", "exponents-100-300"])
    def test_fallback_classes_match_python(self, values):
        column = np.array(values + [-v for v in values])
        with np.errstate(over="ignore"):   # past the largest double: inf
            column = np.concatenate([column, np.nextafter(column, 0),
                                     np.nextafter(column, 2 * column)])
        assert lines_of(table_lines("h", [column])) == reference_table_lines(
            "h", [column])

    def test_doubles_nearest_to_decimal_ties(self):
        # the double nearest to a 14-digit decimal ending in 5 lies within
        # its rounding error of the tie, on either side: the kernel's scaled
        # value must not decide these
        rng = np.random.default_rng(3)
        digits = rng.integers(10 ** 12, 10 ** 13, 1500)
        exponents = rng.integers(-320, 295, 1500)
        x = np.array([float(f"{m}5e{e}") for m, e in zip(digits, exponents)])
        column = np.concatenate([x, np.nextafter(x, 0),
                                 np.nextafter(x, np.inf)])
        assert lines_of(table_lines("h", [column])) == reference_table_lines(
            "h", [column])

    def test_neighbours_of_powers_of_ten(self):
        exact = [float(10 ** k) if k >= 0 else 1 / 10 ** -k
                 for k in range(-323, 309)]
        p = np.concatenate([exact, 10.0 ** np.arange(-307, 309)])
        column = np.concatenate([p, np.nextafter(p, 0),
                                 np.nextafter(p, np.inf)])
        column = np.concatenate([column, -column])
        assert lines_of(table_lines("h", [column], sep=" ")) == \
            reference_table_lines("h", [column], sep=" ")

    def test_carry_and_tie_print_as_python_does(self):
        lines = lines_of(table_lines("h", [[9.9999999999995e5, 1099511627776.5,
                                            -12345678901235.0]]))
        assert lines[1:] == ["1.000000000000e+06", "1.099511627776e+12",
                             "-1.234567890124e+13"]

    def test_chunks_hold_at_most_a_kernel_call_each(self):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(10_000), rng.standard_normal(10_000)
        flags = x > 0
        chunks = list(table_lines("h", [x, y, flags, x]))
        assert chunks[0] == b"h\n"
        rows = [c.count(b"\n") for c in chunks[1:]]
        assert len(rows) > 2 and sum(rows) == 10_000
        assert max(rows) * 2 <= twoport._CHUNK
        assert lines_of(chunks) == reference_table_lines("h", [x, y, flags, x])

    def test_bad_columns_raise_at_the_call(self):
        # before any chunk is made, so no file is opened for a bad table
        for columns in ([[1.0], [1.0, 2.0]], [np.zeros((2, 2))]):
            with pytest.raises(ValueError, match="equal length"):
                table_lines("h", columns)

    def test_a_column_repeated_as_the_same_object_keeps_its_bytes(self):
        x = np.linspace(-1.0, 1.0, 7) ** 3
        assert lines_of(table_lines("h", [x, x, x.copy()])) == \
            reference_table_lines("h", [x, x, x])

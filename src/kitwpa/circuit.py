"""Device geometry as data: unit cells, design specs, and element chains.

All values are strict SI (henries, farads, hertz, amperes, watts, meters).
Design specs are immutable; expansion functions are pure, so everything here
is safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property

__all__ = [
    "SeriesInductor",
    "ShuntCapacitor",
    "ShuntResonator",
    "UnitCellSpec",
    "FishboneSpec",
    "LeafSpec",
    "PeriodAnnotation",
    "LadderNetwork",
    "characteristic_impedance",
    "cutoff_frequency",
    "expand_fishbone",
    "expand_leaf",
    "uniform_line",
    "bare_ladder",
    "with_i_star",
    "write_netlist",
    "read_netlist",
]

NETLIST_HEADER = "# ki-twpa netlist v1"


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless 0 < value < inf, which NaN fails too."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


# --------------------------------------------------------------------------
# network elements and design specs

@dataclass(frozen=True)
class SeriesInductor:
    """Series kinetic inductor, L(I) = l0 * (1 + I^2 / i_star^2), of linear
    inductance l0 (H) and nonlinearity scale i_star (A)."""

    l0: float
    i_star: float

    def __post_init__(self):
        _require_positive("l0", self.l0)
        _require_positive("i_star", self.i_star)


@dataclass(frozen=True)
class ShuntCapacitor:
    """Shunt capacitor to ground of capacitance c (F)."""

    c: float

    def __post_init__(self):
        _require_positive("c", self.c)


@dataclass(frozen=True)
class ShuntResonator:
    """Series-LC branch to ground realizing (f_r, loaded Q); ``multiplicity``
    counts parallel copies combined at one node (a symmetric pair gives 2)."""

    f_r: float
    q: float
    multiplicity: int = 1

    def __post_init__(self):
        _require_positive("f_r", self.f_r)
        _require_positive("q", self.q)
        if self.multiplicity < 1:
            raise ValueError(
                f"multiplicity must be >= 1, got {self.multiplicity}")


@dataclass(frozen=True)
class UnitCellSpec:
    """One LC cell of the artificial line: series inductor, shunt capacitor.
    The expanders repeat these two objects, so every unloaded cell of a
    network holds them."""

    inductor: SeriesInductor
    capacitor: ShuntCapacitor


@dataclass(frozen=True)
class FishboneSpec:
    """Periodically impedance-loaded line.

    Each supercell is exactly ``cells_per_period`` cells whose final
    ``loaded_cells`` have their shunt capacitance divided by
    ``capacitance_reduction_factor``; inductance is untouched.  In every
    third supercell the loaded run is ``loaded_cells_every_third`` cells
    instead, so the full repeating period is three supercells.
    """

    base_cell: UnitCellSpec
    cells_per_period: int = 22
    loaded_cells: int = 2
    loaded_cells_every_third: int = 4
    capacitance_reduction_factor: float = 5.0
    num_periods: int = 1

    def __post_init__(self):
        if self.num_periods < 1:
            raise ValueError("num_periods must be >= 1")
        if not 0 <= self.loaded_cells < self.cells_per_period:
            raise ValueError("loaded_cells must satisfy 0 <= loaded_cells < cells_per_period")
        if not 0 <= self.loaded_cells_every_third <= self.cells_per_period:
            raise ValueError("loaded_cells_every_third must be <= cells_per_period")
        if not 1.0 < self.capacitance_reduction_factor < math.inf:
            raise ValueError("capacitance_reduction_factor must exceed 1 and "
                             "be finite, got "
                             f"{self.capacitance_reduction_factor}")


@dataclass(frozen=True)
class LeafSpec:
    """Resonator-embedded line: one phase-shifter block every block period.

    Each block carries ``pairs_per_block`` pairs of shunt resonators used as
    pump phase shifters, ``pair_separation_cells`` cells apart, at
    ``resonant_frequency`` (Hz) and ``loaded_q``, which is defined against
    the 25 ohm environment a shunt branch sees on a 50 ohm line (source and
    load in parallel).
    """

    base_cell: UnitCellSpec
    resonant_frequency: float = 6e9
    loaded_q: float = 70.0
    pairs_per_block: int = 2
    pair_separation_cells: int = 6
    cells_per_block_period: int = 340
    num_blocks: int = 1

    def __post_init__(self):
        _require_positive("resonant_frequency", self.resonant_frequency)
        _require_positive("loaded_q", self.loaded_q)
        if not 0 <= self.pairs_per_block <= 2:
            raise ValueError(
                f"pairs_per_block must be 0, 1 or 2, got {self.pairs_per_block}")
        if self.pair_separation_cells < 1:
            raise ValueError("pair_separation_cells must be >= 1, got "
                             f"{self.pair_separation_cells}")
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.cells_per_block_period <= self.pair_separation_cells:
            raise ValueError("cells_per_block_period must exceed "
                             "pair_separation_cells")


@dataclass(frozen=True)
class PeriodAnnotation:
    """Shape of a network's periodic structure (a read-only summary)."""

    elements_per_period: int
    cells_per_period: int
    repeats: int


def _cells(elements) -> int:
    return sum(1 for e in elements if isinstance(e, SeriesInductor))


@dataclass(frozen=True)
class LadderNetwork:
    """A full device as one period of two-port elements, repeated.

    The element chain is ``period`` repeated ``repeats`` times, followed by
    ``tail``: a proper prefix of the period (the cells of an incomplete last
    period).  A device that does not repeat is its whole chain, once.
    """

    period: tuple
    repeats: int = 1
    tail: tuple = ()

    def __post_init__(self):
        if not self.period:
            raise ValueError("network period is empty")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if (len(self.tail) >= len(self.period)
                or self.tail != self.period[: len(self.tail)]):
            raise ValueError("tail must be a proper prefix of the period")
        # alternation: no two series inductors without a shunt between them,
        # including across the seam where one period meets the next
        seam = self.period[:1] if self.repeats > 1 or self.tail else ()
        prev_was_l = False
        for e in self.period + seam:
            is_l = isinstance(e, SeriesInductor)
            if is_l and prev_was_l:
                raise ValueError("series inductor not followed by a shunt group")
            prev_was_l = is_l

    @property
    def cells_per_period(self) -> int:
        return _cells(self.period)

    @property
    def total_cells(self) -> int:
        return self.repeats * self.cells_per_period + _cells(self.tail)

    @property
    def elements(self) -> tuple:
        """The explicit element chain (built on each access)."""
        return self.period * self.repeats + self.tail

    @property
    def periods(self) -> PeriodAnnotation:
        return PeriodAnnotation(elements_per_period=len(self.period),
                                cells_per_period=self.cells_per_period,
                                repeats=self.repeats)

    @property
    def i_star(self) -> float:
        """Common nonlinearity scale of the series inductors."""
        vals = {e.i_star for e in self.period if isinstance(e, SeriesInductor)}
        if len(vals) != 1:
            raise ValueError("network has no unique i_star")
        return vals.pop()

    def has_resonators(self) -> bool:
        return any(isinstance(e, ShuntResonator) for e in self.period)

    @cached_property
    def period_index(self) -> tuple:
        """(the distinct elements of the period in order of first
        appearance, the index among them of each element of the period),
        found once per network: hashing an element builds a tuple of its
        fields."""
        index: dict = {}
        ids = tuple(index.setdefault(e, len(index)) for e in self.period)
        return tuple(index), ids

    def one_period(self) -> "LadderNetwork":
        """The period on its own, as a network of one repeat; the same
        object on every call, so its period_index is found once."""
        return self._one_period

    @cached_property
    def _one_period(self) -> "LadderNetwork":
        return LadderNetwork(self.period)


# --------------------------------------------------------------------------
# closed-form cell relations

def characteristic_impedance(cell: UnitCellSpec) -> float:
    """Line impedance sqrt(L/C) of the unloaded artificial line, in ohms."""
    return math.sqrt(cell.inductor.l0 / cell.capacitor.c)


def cutoff_frequency(cell: UnitCellSpec) -> float:
    """Low-pass cutoff 1 / (pi * sqrt(L*C)) of the LC ladder, in Hz."""
    return 1.0 / (math.pi * math.sqrt(cell.inductor.l0 * cell.capacitor.c))


# --------------------------------------------------------------------------
# design expansion

def _element_ids(chain) -> list:
    """A small-integer id per element of ``chain``, equal for equal
    elements, for the period search.  Each distinct object is hashed once:
    hashing a frozen element builds a tuple of its fields, and comparing
    two compares those tuples."""
    by_value: dict = {}
    by_object: dict = {}
    for e in chain:
        if id(e) not in by_object:
            by_object[id(e)] = by_value.setdefault(e, len(by_value))
    return [by_object[id(e)] for e in chain]


def _primitive(unit: tuple, repeats: int, tail: tuple = ()) -> LadderNetwork:
    """The chain ``unit * repeats + tail`` stored with its shortest period,
    the period read_netlist recovers from the same chain.

    Two copies of the unit and the tail suffice to find it.  A chain at
    least twice the unit long with a period p <= len(unit) also has the
    period gcd(p, len(unit)) (Fine and Wilf), so its shortest period divides
    the unit; a divisor of the unit that is a period of two copies is a
    period of any number of them.
    """
    probe = unit * min(repeats, 2) + tail
    p = _shortest_period(_element_ids(probe))
    total = len(unit) * repeats + len(tail)
    period = probe[:p]
    return LadderNetwork(period, total // p, period[: total % p])


def expand_fishbone(spec: FishboneSpec) -> LadderNetwork:
    """Expand a fishbone spec into its periodic element chain.

    Supercells i = 0, 1, 2, ... end with the loaded cells; every third one
    (i % 3 == 2) carries ``loaded_cells_every_third`` of them, so the chain
    repeats every three supercells.  The stored period is the chain's
    shortest: three supercells, or fewer when the loading repeats sooner
    (one supercell when every supercell is loaded alike, one cell when none
    is loaded).  With fewer than three supercells the chain is reduced the
    same way.
    """
    cell = spec.base_cell
    base = (cell.inductor, cell.capacitor)
    loaded = (cell.inductor, ShuntCapacitor(
        cell.capacitor.c / spec.capacitance_reduction_factor))

    def supercell(idx: int) -> tuple:
        n_loaded = spec.loaded_cells_every_third if idx % 3 == 2 else spec.loaded_cells
        return base * (spec.cells_per_period - n_loaded) + loaded * n_loaded

    triple = supercell(0) + supercell(1) + supercell(2)
    n_triples, leftover = divmod(spec.num_periods, 3)
    tail = triple[: leftover * 2 * spec.cells_per_period]
    if n_triples == 0:
        return _primitive(tail, 1)
    return _primitive(triple, n_triples, tail)


def expand_leaf(spec: LeafSpec) -> LadderNetwork:
    """Expand a leaf spec into its periodic element chain, one block a period.

    Each block period starts with two resonator-pair shunts attached to the
    shunt nodes of cell 1 and cell 1 + pair_separation_cells; a pair at one
    node is a single shunt of doubled admittance.  With pairs_per_block = 0
    the result is a uniform ladder, stored with one cell as its period; in
    general the stored period is the chain's shortest.
    """
    pair = ShuntResonator(spec.resonant_frequency, spec.loaded_q,
                          multiplicity=2)
    pair_cells = [0, spec.pair_separation_cells][: spec.pairs_per_block]

    cell = (spec.base_cell.inductor, spec.base_cell.capacitor)
    block = []
    for i in range(spec.cells_per_block_period):
        block += cell
        if i in pair_cells:
            block.append(pair)

    return _primitive(tuple(block), spec.num_blocks)


def uniform_line(cell: UnitCellSpec, n_cells: int) -> LadderNetwork:
    """Uniform ladder of n identical cells (no loading, no resonators)."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    return LadderNetwork((cell.inductor, cell.capacitor), n_cells)


def bare_ladder(network: LadderNetwork) -> LadderNetwork:
    """The same chain with resonator shunts removed (propagation background)."""
    def strip(elements):
        return tuple(e for e in elements if not isinstance(e, ShuntResonator))
    return LadderNetwork(strip(network.period), network.repeats,
                         strip(network.tail))


# --------------------------------------------------------------------------
# netlist serialization

def _netlist_line(e) -> str:
    if isinstance(e, SeriesInductor):
        return f"L {e.l0:.17g} {e.i_star:.17g}"
    if isinstance(e, ShuntCapacitor):
        return f"C {e.c:.17g}"
    if isinstance(e, ShuntResonator):
        return f"RES {e.f_r:.17g} {e.q:.17g} {e.multiplicity:d}"
    raise TypeError(f"unknown element {e!r}")


def _parse_element(line: str):
    parts = line.split()
    if parts[0] == "L" and len(parts) == 3:
        return SeriesInductor(float(parts[1]), float(parts[2]))
    if parts[0] == "C" and len(parts) == 2:
        return ShuntCapacitor(float(parts[1]))
    if parts[0] == "RES" and len(parts) == 4:
        return ShuntResonator(float(parts[1]), float(parts[2]), int(parts[3]))
    raise ValueError("unrecognized element line")


def _shortest_period(seq) -> int:
    """Smallest p with seq[i] == seq[i + p] wherever both exist: the length
    minus the longest proper border, from the KMP prefix function."""
    border = [0] * len(seq)
    k = 0
    for i in range(1, len(seq)):
        while k and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    return len(seq) - k


def write_chunks(path, chunks) -> str:
    """Write the byte strings ``chunks`` to a file, in order, digesting each
    as it is written; returns the sha256 hex digest of the file's bytes."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for chunk in chunks:
            fh.write(chunk)
            digest.update(chunk)
    return digest.hexdigest()


def write_netlist(network: LadderNetwork, path) -> str:
    """Write the element chain as line-oriented text, one element per line,
    and return the sha256 hex digest of the bytes written.

    The period's text is formed once and written once per repeat.  Values
    are printed with %.17g so a read-back reproduces them exactly.
    """
    period = "".join(_netlist_line(e) + "\n" for e in network.period)
    tail = "".join(_netlist_line(e) + "\n" for e in network.tail)
    return write_chunks(path, [(NETLIST_HEADER + "\n").encode(),
                               *[period.encode()] * network.repeats,
                               tail.encode()])


def read_netlist(path) -> LadderNetwork:
    """Parse a netlist file back into a LadderNetwork.

    The format lists every element; the period is recovered as the shortest
    one the chain has.  A netlist written from a design whose period is its
    shortest (every preset's is) reads back to the design's own period,
    repeat count and tail.  Raises ValueError naming the file for text that
    is not UTF-8, a missing header or no elements, and naming the line too
    for a malformed line or an element the element classes refuse (an L,
    I*, C, f_r or Q that is not positive and finite, a multiplicity below
    1).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    if not raw or raw[0].strip() != NETLIST_HEADER:
        raise ValueError(f"{path}: missing netlist header '{NETLIST_HEADER}'")
    # the period search runs on value ids, one given to each distinct line
    line_ids: dict = {}   # line text -> value id
    value_ids: dict = {}  # element -> value id, in order of first appearance
    ids = []
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line not in line_ids:
            try:
                element = _parse_element(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}: {line!r}") from None
            line_ids[line] = value_ids.setdefault(element, len(value_ids))
        ids.append(line_ids[line])
    if not ids:
        raise ValueError(f"{path}: netlist has no elements")
    distinct = tuple(value_ids)
    p = _shortest_period(ids)
    period = tuple(distinct[i] for i in ids[:p])
    return LadderNetwork(period, len(ids) // p, period[: len(ids) % p])


def with_i_star(network: LadderNetwork, i_star: float) -> LadderNetwork:
    """Copy of the network with every series inductor's i_star replaced."""
    period = tuple(
        replace(e, i_star=i_star) if isinstance(e, SeriesInductor) else e
        for e in network.period
    )
    return LadderNetwork(period, network.repeats, period[: len(network.tail)])

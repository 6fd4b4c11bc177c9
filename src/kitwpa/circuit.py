"""Device geometry as data: unit cells, design specs, and element chains.

All values are strict SI (henries, farads, hertz, amperes, watts, meters).
Design specs are immutable; expansion functions are pure, so everything here
is safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

__all__ = [
    "NonlinearInductorSpec",
    "UnitCellSpec",
    "FishboneSpec",
    "ResonatorSpec",
    "LeafSpec",
    "SeriesInductor",
    "ShuntCapacitor",
    "ShuntResonator",
    "PeriodAnnotation",
    "LadderNetwork",
    "characteristic_impedance",
    "cutoff_frequency",
    "pump_power",
    "pump_current",
    "expand_fishbone",
    "expand_leaf",
    "uniform_line",
    "bare_ladder",
    "with_i_star",
    "write_netlist",
    "read_netlist",
]

NETLIST_HEADER = "# ki-twpa netlist v1"


@dataclass(frozen=True)
class NonlinearInductorSpec:
    """Current-dependent series inductor, L(I) = l0 * (1 + I^2 / i_star^2)."""

    l0: float
    i_star: float

    def __post_init__(self):
        if self.l0 <= 0:
            raise ValueError(f"l0 must be positive, got {self.l0}")
        if self.i_star <= 0:
            raise ValueError(f"i_star must be positive, got {self.i_star}")

    def inductance(self, current: float = 0.0) -> float:
        """Inductance in henries at the given instantaneous current."""
        return self.l0 * (1.0 + (current / self.i_star) ** 2)


@dataclass(frozen=True)
class UnitCellSpec:
    """One LC cell of the artificial line: series inductor, shunt capacitor."""

    inductor: NonlinearInductorSpec
    shunt_capacitance: float

    def __post_init__(self):
        if self.shunt_capacitance <= 0:
            raise ValueError(
                f"shunt_capacitance must be positive, got {self.shunt_capacitance}"
            )


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
        if self.capacitance_reduction_factor <= 1.0:
            raise ValueError("capacitance_reduction_factor must exceed 1")


@dataclass(frozen=True)
class ResonatorSpec:
    """Shunt resonator used as a pump phase shifter.

    ``loaded_q`` is defined against the 25 ohm environment a shunt branch
    sees on a 50 ohm line (source and load in parallel).
    """

    resonant_frequency: float = 6e9
    loaded_q: float = 70.0
    pairs_per_block: int = 2
    pair_separation_cells: int = 6

    def __post_init__(self):
        if self.resonant_frequency <= 0:
            raise ValueError("resonant_frequency must be positive")
        if self.loaded_q <= 0:
            raise ValueError("loaded_q must be positive")
        if not 0 <= self.pairs_per_block <= 2:
            raise ValueError(
                f"pairs_per_block must be 0, 1 or 2, got {self.pairs_per_block}")


@dataclass(frozen=True)
class LeafSpec:
    """Resonator-embedded line: one phase-shifter block every block period."""

    base_cell: UnitCellSpec
    cells_per_block_period: int = 340
    resonator: ResonatorSpec = field(default_factory=ResonatorSpec)
    num_blocks: int = 1

    def __post_init__(self):
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        if self.cells_per_block_period <= self.resonator.pair_separation_cells:
            raise ValueError("pair separation must be smaller than the block period")


# --------------------------------------------------------------------------
# network elements

@dataclass(frozen=True)
class SeriesInductor:
    l0: float
    i_star: float


@dataclass(frozen=True)
class ShuntCapacitor:
    c: float


@dataclass(frozen=True)
class ShuntResonator:
    """Series-LC branch to ground realizing (f_r, loaded Q); ``multiplicity``
    counts parallel copies combined at one node (a symmetric pair gives 2)."""

    f_r: float
    q: float
    multiplicity: int = 1


Element = SeriesInductor | ShuntCapacitor | ShuntResonator


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

    def total_inductance(self) -> float:
        # exact rational sum, rounded once: N identical inductors give
        # exactly N * l0, as a correctly rounded sum over the chain would
        def exact(elements):
            return sum(Fraction(e.l0) for e in elements
                       if isinstance(e, SeriesInductor))
        return float(self.repeats * exact(self.period) + exact(self.tail))

    def has_resonators(self) -> bool:
        return any(isinstance(e, ShuntResonator) for e in self.period)

    def one_period(self) -> "LadderNetwork":
        """The period on its own, as a network of one repeat."""
        return LadderNetwork(self.period)


# --------------------------------------------------------------------------
# closed-form cell relations

def characteristic_impedance(cell: UnitCellSpec) -> float:
    """Line impedance sqrt(L/C) of the unloaded artificial line, in ohms."""
    return math.sqrt(cell.inductor.l0 / cell.shunt_capacitance)


def cutoff_frequency(cell: UnitCellSpec) -> float:
    """Low-pass cutoff 1 / (pi * sqrt(L*C)) of the LC ladder, in Hz."""
    return 1.0 / (math.pi * math.sqrt(cell.inductor.l0 * cell.shunt_capacitance))


def pump_power(i_rms: float, z0: float) -> float:
    """Pump power I_rms^2 * Z0 carried by a tone of rms current i_rms."""
    if i_rms < 0:
        raise ValueError("i_rms must be >= 0")
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    return i_rms * i_rms * z0


def pump_current(p: float, z0: float) -> float:
    """Rms current sqrt(P/Z0) for a tone of power p on impedance z0."""
    if p < 0:
        raise ValueError("p must be >= 0")
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    return math.sqrt(p / z0)


# --------------------------------------------------------------------------
# design expansion

def _cell_elements(cell: UnitCellSpec, c_override: float | None = None) -> list:
    c = cell.shunt_capacitance if c_override is None else c_override
    return [SeriesInductor(cell.inductor.l0, cell.inductor.i_star), ShuntCapacitor(c)]


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
    p = _shortest_period(probe)
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
    c_loaded = spec.base_cell.shunt_capacitance / spec.capacitance_reduction_factor

    def supercell(idx: int) -> list:
        n_loaded = spec.loaded_cells_every_third if idx % 3 == 2 else spec.loaded_cells
        out = []
        for _ in range(spec.cells_per_period - n_loaded):
            out += _cell_elements(spec.base_cell)
        for _ in range(n_loaded):
            out += _cell_elements(spec.base_cell, c_loaded)
        return out

    triple = tuple(supercell(0) + supercell(1) + supercell(2))
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
    res = spec.resonator
    pair = ShuntResonator(res.resonant_frequency, res.loaded_q, multiplicity=2)
    pair_cells = []
    if res.pairs_per_block >= 1:
        pair_cells.append(0)
    if res.pairs_per_block >= 2:
        pair_cells.append(res.pair_separation_cells)

    block = []
    for i in range(spec.cells_per_block_period):
        block += _cell_elements(spec.base_cell)
        if i in pair_cells:
            block.append(pair)

    return _primitive(tuple(block), spec.num_blocks)


def uniform_line(cell: UnitCellSpec, n_cells: int) -> LadderNetwork:
    """Uniform ladder of n identical cells (no loading, no resonators)."""
    if n_cells < 1:
        raise ValueError("n_cells must be >= 1")
    return LadderNetwork(tuple(_cell_elements(cell)), n_cells)


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


def write_netlist(network: LadderNetwork, path) -> None:
    """Write the element chain as line-oriented text, one element per line.

    Values are printed with %.17g so a read-back reproduces them exactly.
    """
    period = [_netlist_line(e) for e in network.period]
    lines = ([NETLIST_HEADER] + period * network.repeats
             + period[: len(network.tail)])
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_netlist(path) -> LadderNetwork:
    """Parse a netlist file back into a LadderNetwork.

    The format lists every element; the period is recovered as the shortest
    one the chain has.  A netlist written from a design whose period is its
    shortest (every preset's is) reads back to the design's own period,
    repeat count and tail.
    """
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or raw[0].strip() != NETLIST_HEADER:
        raise ValueError(f"{path}: missing netlist header '{NETLIST_HEADER}'")
    parsed: dict = {}   # line text -> element
    ids: dict = {}      # element -> small integer, for the period search
    elements, seq = [], []
    for ln, line in enumerate(raw[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line not in parsed:
            try:
                parsed[line] = _parse_element(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}: {line!r}") from None
        elements.append(parsed[line])
        seq.append(ids.setdefault(parsed[line], len(ids)))
    if not elements:
        raise ValueError(f"{path}: netlist has no elements")
    p = _shortest_period(seq)
    period = tuple(elements[:p])
    return LadderNetwork(period, len(seq) // p, period[: len(seq) % p])


def with_i_star(network: LadderNetwork, i_star: float) -> LadderNetwork:
    """Copy of the network with every series inductor's i_star replaced."""
    period = tuple(
        replace(e, i_star=i_star) if isinstance(e, SeriesInductor) else e
        for e in network.period
    )
    return LadderNetwork(period, network.repeats, period[: len(network.tail)])

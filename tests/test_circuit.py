import hashlib
import math

import pytest

from kitwpa.circuit import (
    FishboneSpec,
    LadderNetwork,
    LeafSpec,
    SeriesInductor,
    ShuntCapacitor,
    ShuntResonator,
    UnitCellSpec,
    bare_ladder,
    characteristic_impedance,
    cutoff_frequency,
    expand_fishbone,
    expand_leaf,
    read_netlist,
    uniform_line,
    with_i_star,
    write_netlist,
)
from kitwpa.circuit import _shortest_period


def fishbone_cell(i_star=10e-3):
    return UnitCellSpec(SeriesInductor(50e-12, i_star),
                        ShuntCapacitor(20e-15))


def leaf_cell(i_star=10e-3):
    return UnitCellSpec(SeriesInductor(290e-12, i_star),
                        ShuntCapacitor(116e-15))


class TestClosedFormRelations:
    def test_fishbone_cell_impedance_50_ohm(self):
        assert characteristic_impedance(fishbone_cell()) == pytest.approx(50.0, rel=1e-12)

    def test_leaf_cell_impedance_50_ohm(self):
        assert characteristic_impedance(leaf_cell()) == pytest.approx(50.0, rel=1e-12)

    def test_fishbone_cutoff_318_ghz(self):
        assert cutoff_frequency(fishbone_cell()) == pytest.approx(318.3e9, rel=5e-3)

    def test_leaf_cutoff_55_ghz(self):
        assert cutoff_frequency(leaf_cell()) == pytest.approx(54.9e9, rel=5e-3)

    def test_impedance_scale_invariance(self):
        cell = fishbone_cell()
        scaled = UnitCellSpec(
            SeriesInductor(4 * 50e-12, 10e-3), ShuntCapacitor(4 * 20e-15)
        )
        assert characteristic_impedance(scaled) == pytest.approx(
            characteristic_impedance(cell), rel=1e-12
        )

    def test_cutoff_halves_when_l_and_c_double(self):
        cell = fishbone_cell()
        doubled = UnitCellSpec(SeriesInductor(100e-12, 10e-3),
                               ShuntCapacitor(40e-15))
        assert cutoff_frequency(doubled) == pytest.approx(
            cutoff_frequency(cell) / 2, rel=1e-12
        )

    def test_loaded_cell_impedance_112_ohm(self):
        # reduced capacitance C/5 raises the impedance to sqrt(5)*50 ~ 111.8
        loaded = UnitCellSpec(SeriesInductor(50e-12, 10e-3),
                              ShuntCapacitor(20e-15 / 5))
        assert characteristic_impedance(loaded) == pytest.approx(111.80, rel=1e-3)


class TestSpecValidation:
    def test_rejects_nonpositive_l0(self):
        with pytest.raises(ValueError, match="l0"):
            SeriesInductor(0.0, 10e-3)

    def test_rejects_nonpositive_istar(self):
        with pytest.raises(ValueError, match="i_star"):
            SeriesInductor(50e-12, -1e-3)

    def test_rejects_zero_periods(self):
        with pytest.raises(ValueError):
            FishboneSpec(base_cell=fishbone_cell(), num_periods=0)

    def test_rejects_reduction_factor_at_most_one(self):
        with pytest.raises(ValueError):
            FishboneSpec(base_cell=fishbone_cell(), capacitance_reduction_factor=1.0)

    def test_rejects_loaded_cells_at_period(self):
        with pytest.raises(ValueError):
            FishboneSpec(base_cell=fishbone_cell(), loaded_cells=22)

    @pytest.mark.parametrize("pairs", [-1, 3])
    def test_rejects_pairs_per_block_outside_0_to_2(self, pairs):
        with pytest.raises(ValueError, match="pairs_per_block"):
            LeafSpec(base_cell=leaf_cell(), pairs_per_block=pairs)

    @pytest.mark.parametrize("make, field", [
        (lambda x: SeriesInductor(x, 1e-2), "l0"),
        (lambda x: SeriesInductor(50e-12, x), "i_star"),
        (lambda x: ShuntCapacitor(x), "c"),
        (lambda x: LeafSpec(base_cell=leaf_cell(), resonant_frequency=x),
         "resonant_frequency"),
        (lambda x: LeafSpec(base_cell=leaf_cell(), loaded_q=x), "loaded_q"),
        (lambda x: FishboneSpec(base_cell=fishbone_cell(),
                                capacitance_reduction_factor=x),
         "capacitance_reduction_factor"),
    ], ids=["l0", "i_star", "c", "resonant_frequency",
            "loaded_q", "capacitance_reduction_factor"])
    def test_rejects_a_value_that_is_not_finite(self, make, field):
        # zero and negative values fail too; NaN fails every comparison,
        # so a `value <= 0` test lets it through
        for value in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{field} must .* finite"):
                make(value)

    def test_rejects_separation_beyond_block(self):
        with pytest.raises(ValueError):
            LeafSpec(base_cell=leaf_cell(), cells_per_block_period=340,
                     pair_separation_cells=400)


class TestFishboneExpansion:
    def test_uniform_when_unloaded(self):
        spec = FishboneSpec(
            base_cell=fishbone_cell(), loaded_cells=0, loaded_cells_every_third=0,
            num_periods=1,
        )
        net = expand_fishbone(spec)
        caps = [e.c for e in net.elements if isinstance(e, ShuntCapacitor)]
        assert net.total_cells == 22
        assert len(set(caps)) == 1

    def test_loaded_cell_counts_per_supercell(self):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=3))
        caps = [e.c for e in net.elements if isinstance(e, ShuntCapacitor)]
        c0 = 20e-15
        per_sc = [caps[i * 22:(i + 1) * 22] for i in range(3)]
        assert sum(1 for c in per_sc[0] if c < c0) == 2
        assert sum(1 for c in per_sc[1] if c < c0) == 2
        assert sum(1 for c in per_sc[2] if c < c0) == 4
        # loaded cells sit at the end of each supercell
        assert per_sc[2][-4:] == [c0 / 5] * 4
        assert per_sc[2][:18] == [c0] * 18

    def test_periodicity_over_three_supercells(self):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=9))
        per = 2 * 22  # elements per supercell
        for i in range(6):
            assert net.elements[i * per:(i + 1) * per] == \
                net.elements[(i + 3) * per:(i + 4) * per]

    def test_inductance_unchanged_in_loaded_cells(self):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=3))
        l0s = {e.l0 for e in net.elements if isinstance(e, SeriesInductor)}
        assert l0s == {50e-12}

    def test_remainder_periods_keep_pattern(self):
        # 5 = 3 + 2 leftover supercells: indices 3, 4 repeat the 0, 1 pattern
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=5))
        assert net.total_cells == 110
        caps = [e.c for e in net.elements if isinstance(e, ShuntCapacitor)]
        loaded = sum(1 for c in caps if c < 20e-15)
        assert loaded == 2 + 2 + 4 + 2 + 2


class TestLeafExpansion:
    def reference_spec(self, num_blocks=6):
        return LeafSpec(base_cell=leaf_cell(), cells_per_block_period=340,
                        resonant_frequency=6e9, loaded_q=70.0, num_blocks=num_blocks)

    def test_reference_total_cells(self):
        assert expand_leaf(self.reference_spec()).total_cells == 2040

    def test_two_pairs_per_block_separated_by_six_cells(self):
        net = expand_leaf(self.reference_spec(num_blocks=1))
        res_pos = [i for i, e in enumerate(net.elements)
                   if isinstance(e, ShuntResonator)]
        assert len(res_pos) == 2
        # inductors strictly between the two resonator nodes
        cells_between = sum(
            1 for e in net.elements[res_pos[0]:res_pos[1]]
            if isinstance(e, SeriesInductor)
        )
        assert cells_between == 6

    def test_pairs_are_doubled_admittance(self):
        net = expand_leaf(self.reference_spec(num_blocks=1))
        for e in net.elements:
            if isinstance(e, ShuntResonator):
                assert e.multiplicity == 2

    def test_no_resonators_gives_uniform_ladder(self):
        spec = LeafSpec(
            base_cell=leaf_cell(), cells_per_block_period=340,
            resonant_frequency=6e9, loaded_q=70.0, pairs_per_block=0,
            num_blocks=1,
        )
        net = expand_leaf(spec)
        assert not net.has_resonators()
        assert net.total_cells == 340
        assert (len(net.period), net.repeats) == (2, 340)

    def test_electrical_length_70_wavelengths(self):
        # phase per cell at 6 GHz ~ omega*sqrt(LC) = 0.219 rad
        k = 2 * math.pi * 6e9 * math.sqrt(290e-12 * 116e-15)
        assert k == pytest.approx(0.219, rel=2e-3)
        wavelengths = expand_leaf(self.reference_spec()).total_cells * k / (2 * math.pi)
        assert 65 <= wavelengths <= 80


class TestLadderNetwork:
    def test_alternation_violation_rejected(self):
        ind = SeriesInductor(50e-12, 10e-3)
        cap = ShuntCapacitor(20e-15)
        with pytest.raises(ValueError):
            LadderNetwork((ind, ind))
        # two inductors meet across the seam between repeats
        with pytest.raises(ValueError):
            LadderNetwork((ind, cap, ind), repeats=2)
        assert LadderNetwork((ind, cap, ind)).total_cells == 2

    def test_tail_not_prefix_rejected(self):
        ind, cap = SeriesInductor(50e-12, 10e-3), ShuntCapacitor(20e-15)
        with pytest.raises(ValueError, match="prefix"):
            LadderNetwork((ind, cap), repeats=2, tail=(cap,))
        with pytest.raises(ValueError, match="prefix"):
            LadderNetwork((ind, cap), repeats=2, tail=(ind, cap))
        with pytest.raises(ValueError):
            LadderNetwork((ind, cap), repeats=0)
        net = LadderNetwork((ind, cap), repeats=3, tail=(ind,))
        assert net.total_cells == 4
        assert net.elements == (ind, cap) * 3 + (ind,)

    def test_uniform_line_annotation(self):
        net = uniform_line(fishbone_cell(), 100)
        assert net.total_cells == 100
        assert net.periods.repeats == 100

    def test_bare_ladder_strips_resonators(self):
        net = expand_leaf(LeafSpec(base_cell=leaf_cell(), num_blocks=2,
                                   cells_per_block_period=340))
        bare = bare_ladder(net)
        assert not bare.has_resonators()
        assert bare.total_cells == net.total_cells

    def test_with_i_star_replaces_everywhere(self):
        net = uniform_line(fishbone_cell(), 10)
        assert with_i_star(net, 22e-3).i_star == 22e-3

    def test_with_i_star_keeps_structure(self):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=8))
        out = with_i_star(net, 22e-3)
        assert (len(out.period), out.repeats, len(out.tail)) == (132, 2, 88)
        assert out.periods == net.periods
        assert {e.i_star for e in out.elements if isinstance(e, SeriesInductor)} \
            == {22e-3}

    def test_fishbone_preset_stores_one_period_and_tail(self):
        # 1136 supercells of 22 cells: 378 three-supercell periods (132
        # elements) and a two-supercell tail (88), not 49 984 elements
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=1136))
        assert (len(net.period), net.repeats, len(net.tail)) == (132, 378, 88)
        assert len(net.elements) == 49_984
        assert net.total_cells == 1136 * 22

    def test_short_fishbone_is_its_chain_once(self):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=1))
        assert (len(net.period), net.repeats, net.tail) == (44, 1, ())
        # two supercells loaded alike: one supercell is the period
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=2))
        assert (len(net.period), net.repeats, net.tail) == (44, 2, ())

    @pytest.mark.parametrize("loaded, every_third, num_periods, shape", [
        (2, 2, 45, (44, 45, 0)),     # every supercell alike: one supercell
        (0, 0, 7, (2, 154, 0)),      # unloaded: one cell
    ])
    def test_fishbone_period_is_shortest(self, loaded, every_third,
                                         num_periods, shape):
        net = expand_fishbone(FishboneSpec(
            base_cell=fishbone_cell(), loaded_cells=loaded,
            loaded_cells_every_third=every_third, num_periods=num_periods))
        assert (len(net.period), net.repeats, len(net.tail)) == shape
        assert net.total_cells == 22 * num_periods


    @pytest.mark.parametrize("net", [
        expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=1136)),
        expand_leaf(LeafSpec(base_cell=leaf_cell(), num_blocks=12)),
    ], ids=["fishbone", "leaf"])
    def test_expansion_shares_one_object_per_distinct_element(self, net):
        # the period search runs on ids; equal elements are one object, so
        # each is hashed once
        assert len({id(e) for e in net.period}) == len(set(net.period))
        # the same period as a search comparing the elements themselves
        assert _shortest_period(net.period * 2 + net.tail) == len(net.period)

    def test_expansion_holds_the_specs_own_inductor(self):
        # and its own capacitor: a network holds the spec's elements, not
        # copies built from them
        fish = FishboneSpec(base_cell=fishbone_cell(), num_periods=4)
        leaf = LeafSpec(base_cell=leaf_cell(), num_blocks=2)
        for period, cell in ((expand_fishbone(fish).period, fish.base_cell),
                             (expand_leaf(leaf).period, leaf.base_cell)):
            assert period[0] is cell.inductor
            assert period[1] is cell.capacitor


class TestNetlistRoundTrip:
    def test_round_trip_exact(self, tmp_path):
        spec = LeafSpec(base_cell=leaf_cell(i_star=13.37e-3),
                        cells_per_block_period=17, num_blocks=2,
                        resonant_frequency=6.123456789012e9, loaded_q=71.5,
                        pair_separation_cells=3)
        net = expand_leaf(spec)
        p = tmp_path / "device.net"
        write_netlist(net, p)
        back = read_netlist(p)
        assert back.elements == net.elements
        assert back.total_cells == net.total_cells
        assert back == net   # same period, repeats and tail

    def test_writes_each_repeat_and_returns_the_digest(self, tmp_path):
        net = expand_fishbone(FishboneSpec(base_cell=fishbone_cell(),
                                           num_periods=47))
        assert net.repeats > 1 and net.tail
        p = tmp_path / "device.net"
        digest = write_netlist(net, p)
        data = p.read_bytes()
        assert digest == hashlib.sha256(data).hexdigest()
        lines = data.decode().splitlines()
        assert lines[0] == "# ki-twpa netlist v1"
        assert len(lines) == 1 + len(net.elements)
        period = len(net.period)
        assert lines[1:1 + period] * net.repeats == \
            lines[1:1 + period * net.repeats]
        assert lines[1 + period * net.repeats:] == lines[1:1 + len(net.tail)]

    def test_design_structure_recovered(self, tmp_path):
        p = tmp_path / "device.net"
        for net in (
            expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=47)),
            expand_leaf(LeafSpec(base_cell=leaf_cell(), num_blocks=3)),
            # a single period reads back as an aperiodic chain: the same thing
            expand_fishbone(FishboneSpec(base_cell=fishbone_cell(), num_periods=3)),
        ):
            write_netlist(net, p)
            assert read_netlist(p) == net   # equal period, repeats and tail

    def test_shortest_period_of_hand_written_netlist(self, tmp_path):
        p = tmp_path / "hand.net"
        p.write_text("# ki-twpa netlist v1\n"
                     + "L 5e-11 1e-2\nC 2e-14\n" * 4 + "L 5.0e-11 0.01\n")
        net = read_netlist(p)
        assert (len(net.period), net.repeats, len(net.tail)) == (2, 4, 1)
        p.write_text("# ki-twpa netlist v1\nL 5e-11 1e-2\nC 2e-14\n"
                     "L 5e-11 1e-2\nC 4e-15\n")
        net = read_netlist(p)
        assert (len(net.period), net.repeats, net.tail) == (4, 1, ())

    def test_empty_netlist_rejected(self, tmp_path):
        p = tmp_path / "empty.net"
        p.write_text("# ki-twpa netlist v1\n# no elements\n")
        with pytest.raises(ValueError, match="no elements"):
            read_netlist(p)

    def test_round_trip_awkward_floats(self, tmp_path):
        cell = UnitCellSpec(SeriesInductor(1 / 3 * 1e-12, math.pi * 1e-3),
                            ShuntCapacitor(2 / 7 * 1e-15))
        net = uniform_line(cell, 3)
        p = tmp_path / "device.net"
        write_netlist(net, p)
        back = read_netlist(p)
        for a, b in zip(back.elements, net.elements):
            assert a == b  # bit-exact float round trip via %.17g

    def test_header_required(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("L 5e-11 1e-2\n")
        with pytest.raises(ValueError, match="header"):
            read_netlist(p)

    def test_malformed_line_reports_location(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("# ki-twpa netlist v1\nL 5e-11\n")
        with pytest.raises(ValueError, match="bad.net:2"):
            read_netlist(p)

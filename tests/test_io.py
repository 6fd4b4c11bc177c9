import inspect
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from kitwpa.analysis import CalibrationSpec, calibrate_istar
from kitwpa.circuit import (
    FishboneSpec,
    LeafSpec,
    NonlinearInductorSpec,
    ResonatorSpec,
    UnitCellSpec,
)
from kitwpa.cli import main
from kitwpa.config import load_config
from kitwpa.errors import ConfigError
from kitwpa.fwm import IntegrationOptions
from kitwpa.runner import run
from kitwpa.twoport import read_touchstone

ROOT = Path(__file__).resolve().parents[1]
PRESETS = ROOT / "src" / "kitwpa" / "presets"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


SMALL_FISHBONE_CFG = """
design:
  fishbone:
    l_henries: 50.0e-12
    c_farads: 20.0e-15
    i_star_amperes: 10.0e-3
    num_periods: 45
analysis:
  frequency_grid: {start_hz: 0.1e9, stop_hz: 26.0e9, points: 4001}
  pump: {frequency_hz: 6.22e9, power_watts: 100.0e-6}
  signal_grid: {start_hz: 5.4e9, stop_hz: 7.0e9, points: 41}
  integrator: {rtol: 1.0e-8}
output:
  directory: out
"""


def netlist_cfg(netlist, text=SMALL_FISHBONE_CFG):
    """Config text with the design replaced by a netlist file."""
    analysis = text[text.index("analysis:"):]
    return f"design:\n  netlist: {netlist}\n{analysis}"


class TestLoadConfig:
    def test_fishbone_paper_preset(self):
        cfg = load_config(PRESETS / "fishbone-paper.cfg")
        d = cfg.design
        assert isinstance(d, FishboneSpec)
        assert d.base_cell.inductor.l0 == 50e-12
        assert d.base_cell.shunt_capacitance == 20e-15
        assert d.cells_per_period == 22
        assert d.capacitance_reduction_factor == 5
        assert cfg.pump == (6.22e9, 100e-6)

    def test_leaf_paper_preset(self):
        cfg = load_config(PRESETS / "leaf-paper.cfg")
        d = cfg.design
        assert isinstance(d, LeafSpec)
        assert d.base_cell.inductor.l0 == 290e-12
        assert d.base_cell.shunt_capacitance == 116e-15
        assert d.cells_per_block_period == 340
        assert d.resonator.resonant_frequency == 6e9
        assert d.resonator.loaded_q == 70

    @pytest.mark.parametrize("preset", sorted(p.name for p in PRESETS.glob("*.cfg")))
    def test_every_preset_loads_strictly(self, preset):
        cfg = load_config(PRESETS / preset)
        assert cfg.pump is not None and cfg.signal_grid is not None

    @pytest.mark.parametrize("key", ["formats: [all]", "precision: 12"])
    def test_removed_output_keys_rejected_in_strict_mode(self, tmp_path, key):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG + f"  {key}\n")
        with pytest.raises(ConfigError, match=key.split(":")[0]):
            load_config(p)

    def test_readme_config_example_loads(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        section = readme[readme.index("## Configuration format"):]
        example = section[section.index("```yaml\n") + 8:section.index("```\n")]
        cfg = load_config(write_cfg(tmp_path, example))
        assert isinstance(cfg.design, FishboneSpec)
        assert cfg.integrator == IntegrationOptions()

    @pytest.mark.parametrize("variant, section", [
        ("fishbone", ""), ("fishbone", "design"),
        ("fishbone", "design.fishbone"), ("leaf", "design.leaf"),
        ("fishbone", "analysis"), ("fishbone", "analysis.frequency_grid"),
        ("fishbone", "analysis.signal_grid"), ("fishbone", "analysis.pump"),
        ("fishbone", "analysis.integrator"),
        ("fishbone", "analysis.calibration"), ("fishbone", "analysis.sweep"),
        ("fishbone", "output"), ("netlist", "design"),
    ], ids=lambda v: v or "root")
    def test_unknown_key_in_any_section_is_named(self, tmp_path, variant,
                                                 section):
        doc = yaml.safe_load(SMALL_FISHBONE_CFG)
        doc["analysis"].update(
            calibration={"target_peak_db": 3.0},
            sweep={"parameter": "pump_power", "values": [5e-5, 1e-4]},
            dip_exclusion_width_hz=1e8)
        cell = doc["design"].pop("fishbone")
        if variant == "netlist":
            (tmp_path / "device.net").write_text("")
            doc["design"]["netlist"] = "device.net"
        elif variant == "leaf":
            del cell["num_periods"]
            doc["design"]["leaf"] = {**cell, "num_blocks": 1}
        else:
            doc["design"]["fishbone"] = cell
        load_config(write_cfg(tmp_path, yaml.safe_dump(doc), "ok.cfg"))
        target = doc
        for key in filter(None, section.split(".")):
            target = target[key]
        target["bogus_key"] = 1
        p = write_cfg(tmp_path, yaml.safe_dump(doc))
        path = ".".join(filter(None, ["run.cfg", section]))
        with pytest.raises(ConfigError, match=re.escape(
                f"{path}: unknown key(s) ['bogus_key']")):
            load_config(p)

    @pytest.mark.parametrize("section", ["signal_grid", "frequency_grid"])
    @pytest.mark.parametrize("grid, message", [
        ("{start_hz: 6.0e9, stop_hz: 6.05e9, points: 1}", "points must be >= 2"),
        ("{start_hz: 6.0e9, stop_hz: 6.0e9, points: 11}", "stop must exceed start"),
        ("{start_hz: 7.0e9, stop_hz: 6.0e9, points: 11}", "stop must exceed start"),
        ("{start_hz: 0.0, stop_hz: 6.0e9, points: 11}", "start must be positive"),
        ("{start_hz: -1.0e9, stop_hz: 6.0e9, points: 11}", "start must be positive"),
    ], ids=["one-point", "stop-at-start", "stop-below-start", "start-zero",
            "start-negative"])
    def test_malformed_grid_is_config_error(self, tmp_path, section, grid,
                                            message):
        old = {"signal_grid": "{start_hz: 5.4e9, stop_hz: 7.0e9, points: 41}",
               "frequency_grid": "{start_hz: 0.1e9, stop_hz: 26.0e9, "
                                 "points: 4001}"}[section]
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            f"{section}: {old}", f"{section}: {grid}"))
        with pytest.raises(ConfigError, match=f"analysis.{section}: {message}"):
            load_config(p)

    def test_missing_design_section(self, tmp_path):
        p = write_cfg(tmp_path, "analysis: {}\n")
        with pytest.raises(ConfigError, match="design"):
            load_config(p)

    def test_two_design_variants_rejected(self, tmp_path):
        p = write_cfg(tmp_path, """
design:
  fishbone: {l_henries: 5e-11, c_farads: 2e-14, i_star_amperes: 1e-2,
             num_periods: 3}
  leaf: {l_henries: 2.9e-10, c_farads: 1.16e-13, i_star_amperes: 1e-2,
         num_blocks: 1}
""")
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(p)

    def test_unknown_key_rejected_in_strict_mode(self, tmp_path):
        p = write_cfg(tmp_path, """
design:
  fishbone:
    l_henries: 50.0e-12
    c_farads: 20.0e-15
    i_star_amperes: 10.0e-3
    num_periods: 3
    cells_per_periud: 22
""")
        with pytest.raises(ConfigError, match="cells_per_periud"):
            load_config(p)

    def test_number_strings_coerced(self, tmp_path):
        # bare exponents are strings in YAML; they must still parse
        p = write_cfg(tmp_path, """
design:
  fishbone:
    l_henries: 50e-12
    c_farads: 20e-15
    i_star_amperes: 10e-3
    num_periods: 3
""")
        cfg = load_config(p)
        assert cfg.design.base_cell.inductor.l0 == 50e-12

    def test_integrator_defaults_are_the_options_defaults(self, tmp_path):
        design = """
design:
  fishbone: {l_henries: 5e-11, c_farads: 2e-14, i_star_amperes: 1e-2,
             num_periods: 3}
"""
        bare = load_config(write_cfg(tmp_path, design, "bare.cfg"))
        assert bare.integrator == IntegrationOptions()
        # a section that sets one field leaves the others at their defaults
        partial = load_config(write_cfg(
            tmp_path, design + "analysis:\n  integrator: {undepleted: false}\n",
            "partial.cfg"))
        assert partial.integrator == IntegrationOptions()

    def test_design_defaults_are_the_spec_defaults(self, tmp_path):
        cell = "{l_henries: 5e-11, c_farads: 2e-14, i_star_amperes: 1e-2"
        base = UnitCellSpec(NonlinearInductorSpec(5e-11, 1e-2), 2e-14)

        def design(text, name):
            return load_config(write_cfg(
                tmp_path, f"design:\n  {text}}}\n", name)).design

        assert design(f"fishbone: {cell}, num_periods: 3", "f.cfg") == \
            FishboneSpec(base, num_periods=3)
        assert design(f"leaf: {cell}, num_blocks: 2", "l.cfg") == \
            LeafSpec(base, num_blocks=2)
        # a section that sets one field leaves the others at their defaults
        assert design(f"fishbone: {cell}, num_periods: 3, loaded_cells: 3",
                      "fp.cfg") == FishboneSpec(base, loaded_cells=3,
                                                num_periods=3)
        assert design(f"leaf: {cell}, num_blocks: 2, loaded_q: 50",
                      "lp.cfg") == LeafSpec(
            base, resonator=ResonatorSpec(loaded_q=50.0), num_blocks=2)

    def test_calibration_defaults_are_the_spec_defaults(self, tmp_path):
        design = """
design:
  fishbone: {l_henries: 5e-11, c_farads: 2e-14, i_star_amperes: 1e-2,
             num_periods: 3}
analysis:
"""
        bare = load_config(write_cfg(
            tmp_path, design + "  calibration: {target_peak_db: 15.0}\n",
            "bare.cfg"))
        assert bare.calibration == CalibrationSpec(15.0)
        partial = load_config(write_cfg(
            tmp_path, design + "  calibration: {target_peak_db: 15.0, "
            "tolerance_db: 0.5}\n", "partial.cfg"))
        assert partial.calibration == CalibrationSpec(15.0, tolerance_db=0.5)
        defaults = inspect.signature(calibrate_istar).parameters
        spec = CalibrationSpec(15.0)
        assert defaults["bracket"].default == (spec.bracket_low,
                                               spec.bracket_high)
        assert defaults["tol_db"].default == spec.tolerance_db

    def test_removed_design_key_rejected_in_strict_mode(self, tmp_path):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "num_periods: 45\n",
            "num_periods: 45\n    physical_cell_length_meters: 8.0e-6\n"))
        with pytest.raises(ConfigError, match="physical_cell_length_meters"):
            load_config(p)

    def test_netlist_variant_requires_existing_file(self, tmp_path):
        p = write_cfg(tmp_path, "design:\n  netlist: missing.net\n")
        with pytest.raises(ConfigError, match="not found"):
            load_config(p)

    def test_malformed_yaml_reports_parse_error(self, tmp_path):
        p = write_cfg(tmp_path, "design: [unbalanced\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(p)


class TestRunner:
    def test_design_emits_netlist_roundtrip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        manifest = run("design", cfg, out_dir=tmp_path / "out")
        names = [f["name"] for f in manifest["files"]]
        assert "device.net" in names
        from kitwpa.circuit import read_netlist
        net = read_netlist(tmp_path / "out" / "device.net")
        assert net.total_cells == 45 * 22

    def test_dispersion_outputs_and_stopbands(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        run("dispersion", cfg, out_dir=tmp_path / "out")
        stop = (tmp_path / "out" / "stopbands.csv").read_text().splitlines()
        assert stop[0].startswith("f_low_hz")
        centers = [float(r.split(",")[2]) for r in stop[1:]]
        assert any(6e9 < c < 8e9 for c in centers)

    def test_linear_touchstone_round_trip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 4001", "points: 201")))
        run("linear", cfg, out_dir=tmp_path / "out")
        from kitwpa.twoport import read_touchstone
        sp = read_touchstone(tmp_path / "out" / "sparams.s2p")
        assert sp.frequencies.size == 201
        power = np.abs(sp.s11) ** 2 + np.abs(sp.s21) ** 2
        assert np.max(np.abs(power - 1)) < 1e-6  # lossless, 1e-12-relative file

    def test_linear_writes_touchstone_without_output_section(self, tmp_path):
        text = SMALL_FISHBONE_CFG.replace("points: 4001", "points: 51")
        text = text[:text.index("output:")]
        cfg = load_config(write_cfg(tmp_path, text))
        manifest = run("linear", cfg, out_dir=tmp_path / "out")
        assert [f["name"] for f in manifest["files"]] == [
            "dispersion.csv", "sparams.s2p"]
        assert read_touchstone(tmp_path / "out" / "sparams.s2p").s21.size == 51

    @pytest.mark.parametrize("subcommand", ["sweep", "calibrate"])
    def test_sweep_and_calibrate_expand_the_design_once(self, tmp_path,
                                                       monkeypatch, subcommand):
        from kitwpa import analysis
        calls = []
        expand = analysis.expand_design
        monkeypatch.setattr(analysis, "expand_design",
                            lambda d: calls.append(d) or expand(d))
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 41", "points: 11").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [1.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0, tolerance_db: 0.5}")))
        run(subcommand, cfg, out_dir=tmp_path / "out")
        assert len(calls) == 1

    @pytest.mark.parametrize("subcommand", ["dispersion", "linear"])
    def test_dispersion_and_linear_walk_the_period_once(self, tmp_path,
                                                        monkeypatch, subcommand):
        # one walk gives the Bloch curve and the full cascade
        from kitwpa import analysis, dispersion, fwm, runner, twoport
        calls = []
        walk = twoport.walk_period

        def spy(network, *args, **kwargs):
            calls.append(network)
            return walk(network, *args, **kwargs)
        for module in (twoport, runner, dispersion, fwm, analysis):
            if hasattr(module, "walk_period"):
                monkeypatch.setattr(module, "walk_period", spy)
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        run(subcommand, cfg, out_dir=tmp_path / "out")
        assert len(calls) == 1

    @pytest.mark.parametrize("subcommand", ["sweep", "calibrate"])
    def test_sweep_and_calibrate_refuse_a_netlist(self, tmp_path, subcommand):
        (tmp_path / "hand.net").write_text(
            "# ki-twpa netlist v1\nL 5e-11 1e-2\nC 2e-14\n")
        cfg = load_config(write_cfg(tmp_path, netlist_cfg("hand.net").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [1.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0}"), "net.cfg"))
        with pytest.raises(ConfigError, match=f"'{subcommand}' needs a "
                           "parametric design, not a raw netlist"):
            run(subcommand, cfg, out_dir=tmp_path / "out")

    def test_gain_run_and_manifest_digests(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        manifest = run("gain", cfg, out_dir=tmp_path / "out")
        names = {f["name"] for f in manifest["files"]}
        assert {"gain.csv", "metrics.txt", "metrics.csv"} <= names
        # every listed digest matches the file on disk
        import hashlib
        for entry in manifest["files"]:
            data = (tmp_path / "out" / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    def test_identical_configs_byte_identical_outputs(self, tmp_path):
        cfg1 = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG, "a.cfg"))
        cfg2 = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG, "b.cfg"))
        m1 = run("gain", cfg1, out_dir=tmp_path / "o1")
        m2 = run("gain", cfg2, out_dir=tmp_path / "o2")
        for name in ("gain.csv", "metrics.csv"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()
        d1 = {f["name"]: f["sha256"] for f in m1["files"]}
        d2 = {f["name"]: f["sha256"] for f in m2["files"]}
        assert d1 == d2
        assert m1["config_digest"] == m2["config_digest"]

    def test_harmonics_needs_no_flag(self, tmp_path):
        text = SMALL_FISHBONE_CFG.replace("frequency_hz: 6.22e9",
                                          "frequency_hz: 7.7e9")
        for name, flag in (("without", "false"), ("with", "true")):
            cfg = load_config(write_cfg(tmp_path, text.replace(
                "integrator: {rtol: 1.0e-8}",
                "integrator: {rtol: 1.0e-8, include_third_harmonic: "
                f"{flag}}}"), f"{name}.cfg"))
            run("harmonics", cfg, out_dir=tmp_path / name)
        assert (tmp_path / "without" / "harmonics.csv").read_bytes() == \
            (tmp_path / "with" / "harmonics.csv").read_bytes()

    def test_harmonics_runs_with_flag(self, tmp_path):
        text = SMALL_FISHBONE_CFG.replace(
            "integrator: {rtol: 1.0e-8}",
            "integrator: {rtol: 1.0e-8, include_third_harmonic: true}",
        ).replace("frequency_hz: 6.22e9", "frequency_hz: 7.7e9")
        cfg = load_config(write_cfg(tmp_path, text))
        run("harmonics", cfg, out_dir=tmp_path / "out")
        rows = (tmp_path / "out" / "harmonics.csv").read_text().splitlines()
        assert rows[0] == "z_cells,p_pump_w,p_signal_w,p_idler_w,p_third_w"
        assert len(rows) > 100

    def test_sweep_requires_section(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        with pytest.raises(ConfigError, match="sweep"):
            run("sweep", cfg, out_dir=tmp_path / "out")

    def test_sweep_runs(self, tmp_path):
        text = SMALL_FISHBONE_CFG + (
            "    # appended below via python\n")
        cfg_text = SMALL_FISHBONE_CFG.replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [5.0e-5, 1.0e-4, -1.0e-4]}")
        cfg = load_config(write_cfg(tmp_path, cfg_text))
        run("sweep", cfg, out_dir=tmp_path / "out")
        rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(rows) == 4 and rows[0].startswith("pump_power")
        failures = (tmp_path / "out" / "sweep_failures.txt").read_text()
        assert failures == "index 2: ValueError: pump power must be >= 0\n"

    def test_netlist_design_through_linear(self, tmp_path):
        # one supercell: the netlist's shortest period is the whole chain
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "num_periods: 45", "num_periods: 1")))
        run("design", cfg, out_dir=tmp_path / "made")
        cfg2 = load_config(write_cfg(tmp_path, """
design:
  netlist: made/device.net
analysis:
  frequency_grid: {start_hz: 1.0e9, stop_hz: 10.0e9, points: 51}
""", "net.cfg"))
        # a period that occurs only once is no Bloch period: dispersion is
        # rejected, while the linear cascade works with zero Bloch columns
        with pytest.raises(ConfigError, match="Bloch"):
            run("dispersion", cfg2, out_dir=tmp_path / "out2")
        run("linear", cfg2, out_dir=tmp_path / "out3")
        assert (tmp_path / "out3" / "sparams.s2p").exists()
        data = np.loadtxt(tmp_path / "out3" / "dispersion.csv", delimiter=",",
                          skiprows=1)
        assert not data[:, 5:].any()

    @pytest.mark.parametrize("design", [
        "  fishbone:\n    l_henries: 50.0e-12\n    c_farads: 20.0e-15\n"
        "    i_star_amperes: 10.0e-3\n    num_periods: 47\n",
        "  leaf:\n    l_henries: 290.0e-12\n    c_farads: 116.0e-15\n"
        "    i_star_amperes: 11.5e-3\n    num_blocks: 3\n",
        # degenerate loadings whose period is shorter than the nominal one
        "  fishbone:\n    l_henries: 50.0e-12\n    c_farads: 20.0e-15\n"
        "    i_star_amperes: 10.0e-3\n    num_periods: 45\n"
        "    loaded_cells: 2\n    loaded_cells_every_third: 2\n",
        "  leaf:\n    l_henries: 290.0e-12\n    c_farads: 116.0e-15\n"
        "    i_star_amperes: 11.5e-3\n    num_blocks: 2\n"
        "    pairs_per_block: 0\n",
    ], ids=["fishbone", "leaf", "fishbone-loaded-alike", "leaf-no-pairs"])
    def test_design_netlist_matches_spec_outputs(self, tmp_path, design):
        grid = ("analysis:\n  frequency_grid: "
                "{start_hz: 0.1e9, stop_hz: 20.0e9, points: 801}\n")
        spec = load_config(write_cfg(tmp_path, "design:\n" + design + grid))
        run("design", spec, out_dir=tmp_path / "made")
        net = load_config(write_cfg(
            tmp_path, "design:\n  netlist: made/device.net\n" + grid, "net.cfg"))
        for sub in ("linear", "dispersion"):
            a = run(sub, spec, out_dir=tmp_path / f"spec-{sub}")
            b = run(sub, net, out_dir=tmp_path / f"net-{sub}")
            assert a["files"] == b["files"]   # names and sha256 digests

    def test_malformed_netlist_is_config_error(self, tmp_path):
        (tmp_path / "bad.net").write_text("# ki-twpa netlist v1\nL 5e-11\n")
        cfg = load_config(write_cfg(tmp_path, "design:\n  netlist: bad.net\n"))
        with pytest.raises(ConfigError, match="bad.net:2"):
            run("design", cfg, out_dir=tmp_path / "out")


class TestCli:
    def test_cli_gain_exit_zero(self, tmp_path, capsys):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 41", "points: 11"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gain.csv" in out

    def test_cli_config_error_exit_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "design: {}\n")
        rc = main(["gain", "--config", str(p)])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_cli_more_than_two_resonator_pairs_exit_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "design:\n  leaf:\n    l_henries: 290.0e-12\n"
                      "    c_farads: 116.0e-15\n    i_star_amperes: 11.5e-3\n"
                      "    num_blocks: 2\n    pairs_per_block: 3\n")
        rc = main(["linear", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "pairs_per_block" in capsys.readouterr().err

    def test_cli_missing_file_exit_2(self, tmp_path, capsys):
        rc = main(["gain", "--config", str(tmp_path / "nope.cfg")])
        assert rc == 2

    def test_cli_numeric_error_exit_3(self, tmp_path, capsys):
        # pump placed inside the narrow stopband
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "frequency_hz: 6.22e9", "frequency_hz: 7.97e9"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "stopband" in capsys.readouterr().err

    def test_cli_gain_on_design_netlist_exit_zero(self, tmp_path, capsys):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 41", "points: 11"))
        assert main(["design", "--config", str(p),
                     "--out", str(tmp_path / "made")]) == 0
        netcfg = write_cfg(tmp_path, netlist_cfg("made/device.net", p.read_text()),
                           "net.cfg")
        rc = main(["gain", "--config", str(netcfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "gain.csv" in capsys.readouterr().out

    def test_cli_gain_on_aperiodic_netlist_exit_2(self, tmp_path, capsys):
        (tmp_path / "hand.net").write_text(
            "# ki-twpa netlist v1\nL 5e-11 1e-2\nC 2e-14\n"
            "L 5e-11 1e-2\nC 4e-15\n")
        netcfg = write_cfg(tmp_path, netlist_cfg("hand.net"), "net.cfg")
        rc = main(["gain", "--config", str(netcfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "repeating period" in capsys.readouterr().err

    def test_cli_gain_on_grid_narrower_than_smoothing_window(self, tmp_path):
        # 100 points over 50 MHz: the 100 MHz smoothing window would span 199
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "signal_grid: {start_hz: 5.4e9, stop_hz: 7.0e9, points: 41}",
            "signal_grid: {start_hz: 6.0e9, stop_hz: 6.05e9, points: 100}"))
        with pytest.warns(UserWarning, match="3 dB"):
            rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        lines = (tmp_path / "o" / "metrics.txt").read_text().splitlines()
        values = [float(line.partition("=")[2]) for line in lines]
        assert len(values) > 0 and np.all(np.isfinite(values))

    @pytest.mark.parametrize("subcommand", ["gain", "calibrate"])
    @pytest.mark.parametrize("grid, message", [
        # the pump at 6.22 GHz is dropped, leaving one signal point
        ("{start_hz: 6.0e9, stop_hz: 6.22e9, points: 2}", "at least 3 points"),
        ("{start_hz: 4.0e9, stop_hz: 13.0e9, points: 50}", r"\(0, 2\*f_p\)"),
    ], ids=["one-point-besides-pump", "beyond-twice-pump"])
    def test_cli_signal_grid_outside_pump_range_exit_2(
            self, tmp_path, capsys, monkeypatch, subcommand, grid, message):
        import kitwpa.runner

        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the signal grid was checked")
        monkeypatch.setattr(kitwpa.runner, "integrate_gain", no_solve)
        monkeypatch.setattr(kitwpa.runner, "calibrate_istar", no_solve)
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "signal_grid: {start_hz: 5.4e9, stop_hz: 7.0e9, points: 41}",
            f"signal_grid: {grid}\n  calibration: {{target_peak_db: 3.0}}"))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "analysis.signal_grid" in err
        assert re.search(message, err)

    def test_cli_format_flag_removed(self, tmp_path, capsys):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG)
        for flag in (["--format", "all"], ["--strict"], ["--no-strict"],
                     ["--seed-level-db", "-70"]):
            with pytest.raises(SystemExit) as exc:
                main(["linear", "--config", str(p), *flag])
            assert exc.value.code == 2
            assert flag[0] in capsys.readouterr().err

    def test_cli_io_error_exit_4(self, tmp_path, capsys):
        # output directory path occupied by a regular file
        blocker = tmp_path / "blocked"
        blocker.write_text("")
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG)
        rc = main(["design", "--config", str(p), "--out", str(blocker)])
        assert rc == 4
        assert "i/o error" in capsys.readouterr().err

    def test_manifest_echoes_effective_config(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        manifest = run("design", cfg, out_dir=tmp_path / "out")
        eff = manifest["effective_config"]
        assert eff["design"]["cells_per_period"] == 22  # default filled in
        assert eff["integrator"]["atol"] == 1e-14
        assert eff["pump"]["frequency_hz"] == 6.22e9

    def test_cli_unknown_root_section_exit_2(self, tmp_path, capsys):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG + "\nextra_section: {a: 1}\n")
        rc = main(["design", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "run.cfg: unknown key(s) ['extra_section']" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("subcommand, old, new, key", [
        ("gain", "power_watts: 100.0e-6", "power_watts: -1.0e-6",
         "analysis.pump.power_watts"),
        ("harmonics", "power_watts: 100.0e-6", "power_watts: 0",
         "analysis.pump.power_watts"),
        ("calibrate", "power_watts: 100.0e-6", "power_watts: 0",
         "analysis.pump.power_watts"),
        ("gain", "frequency_hz: 6.22e9", "frequency_hz: -6.22e9",
         "analysis.pump.frequency_hz"),
        ("gain", "output:", "  dip_exclusion_width_hz: -1.0e9\noutput:",
         "analysis.dip_exclusion_width_hz"),
    ], ids=["gain-negative-power", "harmonics-zero-power",
            "calibrate-zero-power", "negative-pump-frequency",
            "negative-dip-width"])
    def test_cli_pump_and_dip_width_values_exit_2(
            self, tmp_path, capsys, subcommand, old, new, key):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(old, new).replace(
            "  integrator:", "  calibration: {target_peak_db: 3.0}\n"
            "  integrator:"))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert key in capsys.readouterr().err

    def test_cli_gain_at_zero_pump_power_exit_zero(self, tmp_path):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "power_watts: 100.0e-6", "power_watts: 0").replace(
            "points: 41", "points: 11"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 0
        rows = (tmp_path / "o" / "gain.csv").read_text().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from kitwpa.analysis import CalibrationSpec, expand_design
from kitwpa.circuit import (
    FishboneSpec,
    LeafSpec,
    SeriesInductor,
    ShuntCapacitor,
    UnitCellSpec,
    read_netlist,
)
from kitwpa.cli import main
from kitwpa import config
from kitwpa.config import load_config
from kitwpa.dispersion import device_dispersion, find_stopbands
from kitwpa.errors import ConfigError
from kitwpa.fwm import IntegrationOptions
from kitwpa.runner import SUBCOMMANDS, run
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


# design sections of a small fishbone and a small leaf
SMALL_FISHBONE = ("  fishbone:\n    l_henries: 50.0e-12\n    c_farads: 20.0e-15\n"
                  "    i_star_amperes: 10.0e-3\n    num_periods: 47\n")
SMALL_LEAF = ("  leaf:\n    l_henries: 290.0e-12\n    c_farads: 116.0e-15\n"
              "    i_star_amperes: 11.5e-3\n    num_blocks: 3\n")


# netlist chains the gain path cannot run: 200 cells whose I* alternates
# between two values, and 200 shunt capacitors alone
TWO_ISTARS = "L 50e-12 0.01\nC 20e-15\nL 50e-12 0.012\nC 20e-15\n" * 100
CAPACITORS = "C 20e-15\n" * 200


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
        assert d.base_cell.capacitor.c == 20e-15
        assert d.cells_per_period == 22
        assert d.capacitance_reduction_factor == 5
        assert cfg.pump == (6.22e9, 100e-6)

    def test_leaf_paper_preset(self):
        cfg = load_config(PRESETS / "leaf-paper.cfg")
        d = cfg.design
        assert isinstance(d, LeafSpec)
        assert d.base_cell.inductor.l0 == 290e-12
        assert d.base_cell.capacitor.c == 116e-15
        assert d.cells_per_block_period == 340
        assert d.resonant_frequency == 6e9
        assert d.loaded_q == 70

    @pytest.mark.parametrize("preset", sorted(p.name for p in PRESETS.glob("*.cfg")))
    def test_every_preset_loads_strictly(self, preset):
        cfg = load_config(PRESETS / preset)
        assert cfg.pump is not None and cfg.signal_grid is not None

    @pytest.mark.parametrize("key", ["formats: [all]", "precision: 12"])
    def test_removed_output_keys_rejected_in_strict_mode(self, tmp_path, key):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG + f"  {key}\n")
        with pytest.raises(ConfigError, match=key.split(":")[0]):
            load_config(p)

    def test_unknown_sweep_parameter_lists_the_design_parameters(self,
                                                                 tmp_path):
        doc = yaml.safe_load(SMALL_FISHBONE_CFG)
        cell = doc["design"].pop("fishbone")
        del cell["num_periods"]
        doc["design"]["leaf"] = {**cell, "num_blocks": 3}
        doc["analysis"]["sweep"] = {"parameter": "q", "values": [70.0]}
        p = write_cfg(tmp_path, yaml.safe_dump(doc))
        with pytest.raises(ConfigError,
                           match="analysis.sweep.parameter") as err:
            load_config(p)
        for name in ("loaded_q", "num_blocks", "pump_power", "i_star"):
            assert name in str(err.value)

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
            sweep={"parameter": "pump_power", "values": [5e-5, 1e-4]})
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
        ("{start_hz: 6.0e9, stop_hz: 6.0e9, points: 11}",
         "stop_hz must exceed start_hz"),
        ("{start_hz: 7.0e9, stop_hz: 6.0e9, points: 11}",
         "stop_hz must exceed start_hz"),
        ("{start_hz: 0.0, stop_hz: 6.0e9, points: 11}",
         "start_hz must be positive"),
        ("{start_hz: -1.0e9, stop_hz: 6.0e9, points: 11}",
         "start_hz must be positive"),
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
            tmp_path,
            design + "analysis:\n  integrator: {include_third_harmonic: false}\n",
            "partial.cfg"))
        assert partial.integrator == IntegrationOptions()

    def test_design_defaults_are_the_spec_defaults(self, tmp_path):
        cell = "{l_henries: 5e-11, c_farads: 2e-14, i_star_amperes: 1e-2"
        base = UnitCellSpec(SeriesInductor(5e-11, 1e-2),
                            ShuntCapacitor(2e-14))

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
            base, loaded_q=50.0, num_blocks=2)

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

    def test_malformed_yaml_exits_2_naming_the_line(self, tmp_path, capsys):
        p = write_cfg(tmp_path, "design:\n  fishbone:\n    c_farads: [1, 2\n")
        assert main(["linear", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {p}: YAML parse error")
        assert "line 3" in err

    @pytest.mark.parametrize("reader, error", [
        (load_config, ConfigError), (read_netlist, ValueError),
        (read_touchstone, ValueError),
    ], ids=["config", "netlist", "touchstone"])
    def test_text_that_is_not_utf8_names_the_file(self, tmp_path, reader,
                                                  error):
        p = tmp_path / "latin.txt"
        p.write_bytes(SMALL_FISHBONE_CFG.encode() + b"# \xff\xfe\n")
        with pytest.raises(error, match=re.escape(f"{p}: not UTF-8 text")):
            reader(p)

    @pytest.mark.parametrize("variant", ["config", "netlist"])
    def test_cli_text_that_is_not_utf8_exits_2(self, tmp_path, capsys,
                                               variant):
        bad = tmp_path / "latin.cfg"
        bad.write_bytes(SMALL_FISHBONE_CFG.encode() + b"# \xff\xfe\n")
        p = bad if variant == "config" else write_cfg(
            tmp_path, netlist_cfg(bad.name))
        assert main(["gain", "--config", str(p)]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {bad}: not UTF-8 text")

    def test_parses_as_safe_load_does(self, tmp_path):
        if yaml.__with_libyaml__:
            assert config._YAML_LOADER is yaml.CSafeLoader
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        paths = sorted(PRESETS.glob("*.cfg"))
        for seed in (0, 17):
            paths += workloads.make_inputs(ROOT / "src", seed,
                                           tmp_path / str(seed)).values()
        for path in paths:
            assert load_config(path).raw == yaml.safe_load(path.read_text())


class TestRunner:
    def test_design_emits_netlist_roundtrip(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        manifest = run("design", cfg, out_dir=tmp_path / "out")
        names = [f["name"] for f in manifest["files"]]
        assert "device.net" in names
        from kitwpa.circuit import read_netlist
        net = read_netlist(tmp_path / "out" / "device.net")
        assert net.total_cells == 45 * 22

    def test_readme_lists_the_csv_columns_runner_writes(self, tmp_path):
        # the **CSV** bullet of the README's file formats names each table's
        # columns as `name.csv` (`column, column, ...`)
        readme = (ROOT / "README.md").read_text()
        bullet = readme[readme.index("* **CSV**"):].split("\n* ", 1)[0]
        listed = dict(re.findall(r"`(\w+\.csv)` \(`([^`]*)`",
                                 " ".join(bullet.split())))
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        for subcommand in ("dispersion", "gain", "harmonics"):
            run(subcommand, cfg, out_dir=tmp_path / subcommand)
            name = f"{subcommand}.csv"
            with open(tmp_path / subcommand / name) as fh:
                header = fh.readline().rstrip("\n")
            assert listed[name].split(", ") == header.split(","), name

    def test_readme_lists_the_files_each_subcommand_writes(self, tmp_path):
        # the README's `| subcommand | files |` table names every file a
        # subcommand writes besides run_manifest.json; this sweep has a
        # failing point, so it writes sweep_failures.txt too
        readme = (ROOT / "README.md").read_text()
        table = readme[readme.index("| subcommand | files |"):]
        listed = {}
        for row in table.split("\n\n", 1)[0].splitlines()[2:]:
            subcommand, files = row.strip("|").split("|")
            listed[subcommand.strip().strip("`")] = set(
                re.findall(r"`([\w.]+)`", files))
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 41", "points: 11").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [1.0e-4, -1.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0, tolerance_db: 0.5}")))
        written = {}
        for subcommand in SUBCOMMANDS:
            out = tmp_path / subcommand
            run(subcommand, cfg, out_dir=out)
            written[subcommand] = {p.name for p in out.iterdir()
                                   if p.name != "run_manifest.json"}
        assert listed == written

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
        assert [f["name"] for f in manifest["files"]] == ["sparams.s2p"]
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

    @pytest.mark.parametrize("subcommand, message", [
        ("sweep", "'sweep' needs a parametric design, not a raw netlist"),
        # calibrate takes a netlist as gain does, so one whose period
        # occurs only once has no Bloch curve
        ("calibrate", "netlist has no repeating period"),
    ], ids=["sweep", "calibrate"])
    def test_sweep_and_calibrate_refuse_a_netlist(self, tmp_path, subcommand,
                                                  message):
        (tmp_path / "hand.net").write_text(
            "# ki-twpa netlist v1\nL 5e-11 1e-2\nC 2e-14\n")
        cfg = load_config(write_cfg(tmp_path, netlist_cfg("hand.net").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [1.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0}"), "net.cfg"))
        with pytest.raises(ConfigError, match=message):
            run(subcommand, cfg, out_dir=tmp_path / "out")

    def test_gain_run_and_manifest_digests(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        manifest = run("gain", cfg, out_dir=tmp_path / "out")
        names = {f["name"] for f in manifest["files"]}
        assert names == {"gain.csv", "metrics.txt"}
        # every listed digest matches the file on disk
        import hashlib
        for entry in manifest["files"]:
            data = (tmp_path / "out" / entry["name"]).read_bytes()
            assert hashlib.sha256(data).hexdigest() == entry["sha256"]

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_manifest_digests_are_those_of_the_files_on_disk(
            self, tmp_path, subcommand):
        # the manifest digests the bytes the run wrote, chunk by chunk
        # without reading them back, and lists every file it wrote; the
        # 4001-point frequency grid spans several chunks of sparams.s2p and
        # dispersion.csv
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "points: 41", "points: 11").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  sweep: {parameter: pump_power, values: [1.0e-4, 2.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0, tolerance_db: 0.5}")))
        manifest = run(subcommand, cfg, out_dir=tmp_path / "out")
        import hashlib
        on_disk = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "out").iterdir()
                   if p.name != "run_manifest.json"}
        assert on_disk
        assert {f["name"]: f["sha256"] for f in manifest["files"]} == on_disk

    def test_identical_configs_byte_identical_outputs(self, tmp_path):
        cfg1 = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG, "a.cfg"))
        cfg2 = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG, "b.cfg"))
        m1 = run("gain", cfg1, out_dir=tmp_path / "o1")
        m2 = run("gain", cfg2, out_dir=tmp_path / "o2")
        for name in ("gain.csv", "metrics.txt"):
            assert (tmp_path / "o1" / name).read_bytes() == \
                (tmp_path / "o2" / name).read_bytes()
        d1 = {f["name"]: f["sha256"] for f in m1["files"]}
        d2 = {f["name"]: f["sha256"] for f in m2["files"]}
        assert d1 == d2
        assert m1["config_digest"] == m2["config_digest"]

    @pytest.mark.parametrize("subcommand", ["gain", "calibrate", "sweep"])
    def test_integrator_settings_move_no_gain_byte(self, tmp_path, subcommand):
        # the small-signal gain is a closed form; rtol and atol are the
        # harmonic scan's alone
        text = SMALL_FISHBONE_CFG.replace("points: 41", "points: 11").replace(
            "  integrator: {rtol: 1.0e-8}\n",
            "  sweep: {parameter: pump_power, values: [5.0e-5, 1.0e-4]}\n"
            "  calibration: {target_peak_db: 3.0, tolerance_db: 0.5}\n")
        loose = "  integrator: {rtol: 1.0e-6, atol: 1.0e-10}\noutput:"
        written = {}
        for name, cfg_text in (("defaults", text),
                               ("loose", text.replace("output:", loose))):
            cfg = load_config(write_cfg(tmp_path, cfg_text, f"{name}.cfg"))
            run(subcommand, cfg, out_dir=tmp_path / name)
            written[name] = {p.name: p.read_bytes()
                             for p in (tmp_path / name).iterdir()
                             if p.name != "run_manifest.json"}
        assert written["defaults"]
        assert written["loose"] == written["defaults"]

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
        assert rows[0] == "z_cells,p_pump_w,p_third_w"
        assert len(rows) > 100

    def test_sweep_requires_section(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        with pytest.raises(ConfigError, match="sweep"):
            run("sweep", cfg, out_dir=tmp_path / "out")

    def test_sweep_runs(self, tmp_path):
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
        # rejected, while the linear cascade needs none
        with pytest.raises(ConfigError, match="Bloch"):
            run("dispersion", cfg2, out_dir=tmp_path / "out2")
        run("linear", cfg2, out_dir=tmp_path / "out3")
        sp = read_touchstone(tmp_path / "out3" / "sparams.s2p")
        assert sp.s21.size == 51
        assert np.array_equal(sp.s12, sp.s21)
        assert np.allclose(abs(sp.s11) ** 2 + abs(sp.s21) ** 2, 1.0,
                           rtol=0, atol=1e-9)

    @pytest.mark.parametrize("design", [SMALL_FISHBONE, SMALL_LEAF],
                             ids=["fishbone", "leaf"])
    def test_linear_prints_the_numbers_of_dispersion(self, tmp_path, design):
        # the freq, S11 and S21 tokens of dispersion.csv are the first five
        # of each line of sparams.s2p, as printed
        cfg = load_config(write_cfg(tmp_path, "design:\n" + design + (
            "analysis:\n  frequency_grid: "
            "{start_hz: 0.1e9, stop_hz: 20.0e9, points: 801}\n")))
        run("linear", cfg, out_dir=tmp_path / "lin")
        run("dispersion", cfg, out_dir=tmp_path / "disp")
        s2p = (tmp_path / "lin" / "sparams.s2p").read_text().splitlines()
        csv = (tmp_path / "disp" / "dispersion.csv").read_text().splitlines()
        assert len(s2p) == len(csv) == 802
        assert [ln.split(" ")[:5] for ln in s2p[1:]] == \
            [ln.split(",")[:5] for ln in csv[1:]]

    @pytest.mark.parametrize("design", [
        SMALL_FISHBONE,
        SMALL_LEAF,
        # degenerate loadings whose period is shorter than the nominal one
        "  fishbone:\n    l_henries: 50.0e-12\n    c_farads: 20.0e-15\n"
        "    i_star_amperes: 10.0e-3\n    num_periods: 45\n"
        "    loaded_cells: 2\n    loaded_cells_every_third: 2\n",
        "  leaf:\n    l_henries: 290.0e-12\n    c_farads: 116.0e-15\n"
        "    i_star_amperes: 11.5e-3\n    num_blocks: 2\n"
        "    pairs_per_block: 0\n",
    ], ids=["fishbone", "leaf", "fishbone-loaded-alike", "leaf-no-pairs"])
    def test_design_netlist_matches_spec_outputs(self, tmp_path, design):
        # the pump lies off the leaf's micro-gaps on this grid (5.92 GHz is
        # flagged), and its third harmonic on the grid
        grid = ("analysis:\n  frequency_grid: "
                "{start_hz: 0.1e9, stop_hz: 20.0e9, points: 801}\n"
                "  pump: {frequency_hz: 5.5e9, power_watts: 100.0e-6}\n"
                "  signal_grid: "
                "{start_hz: 4.5e9, stop_hz: 6.5e9, points: 41}\n")
        spec = load_config(write_cfg(tmp_path, "design:\n" + design + grid))
        run("design", spec, out_dir=tmp_path / "made")
        net = load_config(write_cfg(
            tmp_path, "design:\n  netlist: made/device.net\n" + grid, "net.cfg"))
        for sub in ("linear", "dispersion", "gain", "harmonics"):
            a = run(sub, spec, out_dir=tmp_path / f"spec-{sub}")
            b = run(sub, net, out_dir=tmp_path / f"net-{sub}")
            assert a["files"] == b["files"]   # names and sha256 digests

    @pytest.mark.parametrize("preset", ["fishbone-paper", "leaf-paper-gain"])
    def test_calibrate_on_the_design_netlist_writes_the_spec_bytes(
            self, tmp_path, preset):
        # calibrate takes the expanded network, a spec's or a netlist's, and
        # the netlist design writes reads back to the spec's network
        spec = load_config(PRESETS / f"{preset}.cfg")
        run("design", spec, out_dir=tmp_path / "made")
        doc = yaml.safe_load((PRESETS / f"{preset}.cfg").read_text())
        doc["design"] = {"netlist": "made/device.net"}
        net = load_config(write_cfg(tmp_path, yaml.safe_dump(doc), "net.cfg"))
        a = run("calibrate", spec, out_dir=tmp_path / "spec")
        b = run("calibrate", net, out_dir=tmp_path / "net")
        assert [f["name"] for f in a["files"]] == [
            "calibration.txt", "gain.csv", "metrics.txt"]
        assert a["files"] == b["files"]   # names and sha256 digests

    def test_no_subcommand_imports_a_module(self, tmp_path):
        # every subcommand's first run in a fresh process: a module imported
        # during a run is start-up cost that lands in the run (np.median's
        # NaN check imports numpy.ma on its first call)
        sweep = yaml.safe_load((PRESETS / "leaf-paper-gain.cfg").read_text())
        sweep["analysis"]["sweep"] = {"parameter": "pump_power", "start": 50e-6,
                                      "stop": 70e-6, "points": 3}
        write_cfg(tmp_path, yaml.safe_dump(sweep), "sweep.cfg")
        script = f"""
import json, sys, warnings
import kitwpa.config, kitwpa.runner
from pathlib import Path
warnings.simplefilter("ignore")
tmp = Path({str(tmp_path)!r})
fishbone = kitwpa.config.load_config({str(PRESETS / "fishbone-paper.cfg")!r})
sweep = kitwpa.config.load_config(tmp / "sweep.cfg")
grew = {{}}
for sub in {list(SUBCOMMANDS)!r}:
    before = set(sys.modules)
    kitwpa.runner.run(sub, sweep if sub == "sweep" else fishbone, tmp / sub)
    grew[sub] = sorted(set(sys.modules) - before)
print(json.dumps(grew))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        grew = json.loads(out.stdout)
        assert list(grew) == list(SUBCOMMANDS)
        assert {sub: mods for sub, mods in grew.items() if mods} == {}

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

    def test_cli_fully_excised_profile_exit_3(self, tmp_path, capsys):
        # every signal lies in the narrow stopband's exclusion zone,
        # 7.82-8.12 GHz, which leaves no signal frequency to measure
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "{start_hz: 5.4e9, stop_hz: 7.0e9, points: 41}",
            "{start_hz: 7.90e9, stop_hz: 7.99e9, points: 10}"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "dip exclusions removed the whole profile" in err
        assert "pump at 6.22e+09 Hz" in err
        assert not (tmp_path / "o" / "gain.csv").exists()

    @pytest.mark.parametrize("subcommand, old, new, message", [
        # I*^2 underflows to 0: ZeroDivisionError, exit 1
        ("gain", "i_star_amperes: 10.0e-3", "i_star_amperes: 1.0e-300",
         "Kerr coefficient gamma = k_p / (2 I*^2 Z0) = inf rad/(cell W) at "
         "k_p = 0.0371616 rad/cell and I* = 1e-300 A"),
        # I*^2 overflows: OverflowError, exit 1
        ("harmonics", "i_star_amperes: 10.0e-3", "i_star_amperes: 1.0e300",
         "= 0 rad/(cell W) at k_p = 0.0371616 rad/cell and I* = 1e+300 A"),
        # the upper bracket probe's I*^2 overflows: OverflowError, exit 1
        ("calibrate", "  integrator:", "  calibration: {target_peak_db: 3.0, "
         "bracket_high_amperes: 1.0e300}\n  integrator:",
         "= 0 rad/(cell W) at k_p = 0.0371616 rad/cell and I* = 1e+300 A"),
        # cos(k) of the pump rounds to 1, so k_p = 0: ValueError, exit 1
        ("gain", "l_henries: 50.0e-12", "l_henries: 1.0e-300",
         "= 0 rad/(cell W) at k_p = 0 rad/cell and I* = 0.01 A"),
        # 1e15 float64 points is 7.11 PiB: numpy refuses the array before
        # it allocates any of it.  Its MemoryError exited 1
        ("linear", "points: 4001", "points: 1.0e15", "memory ran out: "
         "Unable to allocate 7.11 PiB for an array with shape "
         "(1000000000000000,)"),
        ("sweep", "  integrator:", "  sweep: {parameter: pump_power, "
         "start: 1.0e-5, stop: 1.0e-4, points: 1.0e15}\n  integrator:",
         "memory ran out: Unable to allocate 7.11 PiB"),
    ], ids=["tiny-istar", "huge-istar", "huge-bracket", "tiny-inductance",
            "huge-frequency-grid", "huge-sweep"])
    def test_cli_kerr_coefficient_or_memory_out_of_range_exit_3(
            self, tmp_path, capsys, subcommand, old, new, message):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(old, new))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert message in capsys.readouterr().err
        assert not any((tmp_path / "o").glob("*.*"))

    def test_cli_linear_needs_no_bloch_period(self, tmp_path, capsys):
        # one supercell: the netlist's shortest period occurs only once
        made = tmp_path / "made"
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "num_periods: 45", "num_periods: 1"))
        assert main(["design", "--config", str(p), "--out", str(made)]) == 0
        net = write_cfg(tmp_path, netlist_cfg("made/device.net"), "net.cfg")
        rc = main(["linear", "--config", str(net), "--out",
                   str(tmp_path / "linear")])
        assert rc == 0
        assert sorted(f.name for f in (tmp_path / "linear").iterdir()) == [
            "run_manifest.json", "sparams.s2p"]
        capsys.readouterr()
        rc = main(["dispersion", "--config", str(net), "--out",
                   str(tmp_path / "dispersion")])
        assert rc == 2
        assert "Bloch" in capsys.readouterr().err

    def test_cli_gain_overflow_exit_3(self, tmp_path, capsys):
        # the small fishbone's cells, 10 000 supercells long, pumped 0.4 GHz
        # below the band edge at 40 mW: the gain exponent Re(gL) reaches
        # ~1100, past the float range.  No pump overflows the 45-supercell
        # line: its mismatch grows with the pump and caps the gain at ~50 dB
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "num_periods: 45", "num_periods: 10000").replace(
            "pump: {frequency_hz: 6.22e9, power_watts: 100.0e-6}",
            "pump: {frequency_hz: 7.5e9, power_watts: 0.04}"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "overflows at pump power 0.04 W" in err and "Re(gL)" in err
        assert not (tmp_path / "o" / "gain.csv").exists()

    @pytest.mark.parametrize("subcommand",
                             ["linear", "dispersion", "gain", "harmonics"])
    def test_cli_nonfinite_sparameters_exit_3(self, tmp_path, capsys,
                                              subcommand):
        # leaf-paper up to 150 GHz: far above the cells' 55 GHz cutoff one
        # period's chain matrix leaves the float range, and the data file
        # would carry nan; the Bloch curve of gain and harmonics was NaN
        # above ~87 GHz, with a RuntimeWarning and exit 0
        text = (PRESETS / "leaf-paper.cfg").read_text()
        grid = "frequency_grid: {start_hz: 0.1e9, stop_hz: 20.0e9, points: 10001}"
        assert grid in text
        p = write_cfg(tmp_path, text.replace(
            grid, "frequency_grid: {start_hz: 0.1e9, stop_hz: 150.0e9, "
            "points: 2001}"))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert re.search(r"not finite at \d+ of 2001 frequencies, the first "
                         r"at \d+\.\d{4} GHz", err)
        assert not any((tmp_path / "o").glob("*.s2p"))
        assert not any((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("subcommand",
                             ["linear", "dispersion", "gain", "harmonics"])
    def test_cli_nonfinite_from_the_first_frequency_names_the_elements(
            self, tmp_path, capsys, subcommand):
        # an inductance of 1e300 H puts one period past the float range at
        # every frequency; the message advised a lower stop frequency, which
        # cures nothing here
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "num_periods: 45", "num_periods: 30").replace(
            "l_henries: 50.0e-12", "l_henries: 1.0e300"))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "not finite at 4001 of 4001 frequencies" in err
        assert "stop frequency of" not in err
        assert "SeriesInductor(l0=1e+300, i_star=0.01)" in err

    @pytest.mark.parametrize("subcommand", ["linear", "dispersion"])
    @pytest.mark.parametrize("num_periods, expected_rc", [("1e8", 0),
                                                          ("1e10", 3)])
    def test_cli_long_cascade_is_finite_or_refused(
            self, tmp_path, capsys, subcommand, num_periods, expected_rc):
        # the cascade's power-of-two exponent grows by ~0.226 a period: at
        # 1e10 periods it wrapped past 2**31 and the run exited 1 with a
        # singular ABCD-to-S denominator.  Summed without wrapping, the
        # S-parameters stay finite, but their power balance drifts by ~6e-16
        # a repeat, which is refused past 1e-6
        text = (PRESETS / "fishbone-paper.cfg").read_text()
        assert "num_periods: 1136" in text and text.count("points: 10001") == 1
        p = write_cfg(tmp_path, text.replace(
            "num_periods: 1136", f"num_periods: {num_periods}").replace(
            "points: 10001", "points: 401"))
        out = tmp_path / "o"
        rc = main([subcommand, "--config", str(p), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == expected_rc, err
        if expected_rc == 3:
            assert "3333333333 repeats of the period" in err
            assert "power balance" in err
            assert not any(out.glob("*.s2p")) and not any(out.glob("*.csv"))
        elif subcommand == "linear":
            sp = read_touchstone(out / "sparams.s2p")
            assert all(np.all(np.isfinite(v)) for v in (sp.s11, sp.s21))
        else:
            table = np.loadtxt(out / "dispersion.csv", delimiter=",",
                               skiprows=1)
            assert table.shape == (401, 8) and np.all(np.isfinite(table))

    @pytest.mark.parametrize("preset, subcommand, grid, needed", [
        # signals and idlers reach 8.02 GHz: 37.85 dB at 5.365 GHz was
        # written, against 14.94 dB at 6.219 GHz on the full grid
        ("fishbone-paper", "gain", ("stop_hz: 26.0e9", "stop_hz: 7.0e9"),
         "pump, signals and idlers: 4.42-8.02 GHz needed, but the dispersion "
         "grid spans 0.10-7.00 GHz"),
        ("fishbone-paper", "harmonics", ("stop_hz: 26.0e9", "stop_hz: 7.0e9"),
         "pump and third harmonic: 6.22-18.66 GHz needed, but the dispersion "
         "grid spans 0.10-7.00 GHz"),
        ("fishbone-paper", "harmonics", ("stop_hz: 26.0e9", "stop_hz: 6.0e9"),
         "pump: 6.22 GHz needed, but the dispersion grid spans 0.10-6.00 GHz"),
        # signals start at 4.12 GHz: 19.66 dB was written, against 15.52 dB
        ("leaf-paper-gain", "gain", ("start_hz: 0.1e9", "start_hz: 5.0e9"),
         "pump, signals and idlers: 4.12-7.72 GHz needed, but the dispersion "
         "grid spans 5.00-20.00 GHz"),
    ], ids=["fishbone-gain", "fishbone-harmonics", "fishbone-pump", "leaf-gain"])
    def test_cli_mode_off_the_dispersion_grid_exit_3(
            self, tmp_path, capsys, preset, subcommand, grid, needed):
        # past the grid's ends k and alpha were the end values, not the mode's
        text = (PRESETS / f"{preset}.cfg").read_text()
        assert text.count(grid[0]) == 1
        p = write_cfg(tmp_path, text.replace(*grid))
        rc = main([subcommand, "--config", str(p), "--out",
                   str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert needed in err and "extend analysis.frequency_grid" in err
        assert not any((tmp_path / "o").glob("*.csv"))

    @pytest.mark.parametrize("design, code", [
        (SMALL_LEAF, 0),
        (SMALL_FISHBONE.replace("num_periods: 47", "num_periods: 30"), 3),
    ], ids=["leaf", "fishbone"])
    def test_cli_third_harmonic_past_the_grid(self, tmp_path, capsys, design,
                                               code):
        # the grid ends at 10 GHz, below the third harmonic at 16.5 GHz.  A
        # resonator design's harmonic propagates on the closed-form bare
        # ladder curve and through the block's own network, so only its
        # pump must lie on the grid; the fishbone's propagates on the grid
        p = write_cfg(tmp_path, "design:\n" + design + """analysis:
  frequency_grid: {start_hz: 0.1e9, stop_hz: 10.0e9, points: 2001}
  pump: {frequency_hz: 5.5e9, power_watts: 60.0e-6}
output:
  directory: out
""")
        rc = main(["harmonics", "--config", str(p), "--out",
                   str(tmp_path / "o")])
        assert rc == code
        if code:
            assert ("pump and third harmonic: 5.50-16.50 GHz needed"
                    in capsys.readouterr().err)
        else:
            assert (tmp_path / "o" / "harmonics.csv").exists()

    def test_cli_attenuated_pump_exit_3(self, tmp_path, capsys):
        # half a grid step above the narrow stopband's top point: not flagged
        # as inside it, but attenuated
        cfg = load_config(write_cfg(tmp_path, SMALL_FISHBONE_CFG))
        curve = device_dispersion(expand_design(cfg.design), cfg.frequency_grid)
        band = next(b for b in find_stopbands(curve)
                    if 6e9 <= b.center <= 8.5e9)
        f_p = band.f_high + cfg.frequency_grid.step / 2
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "frequency_hz: 6.22e9", f"frequency_hz: {f_p!r}"))
        rc = main(["gain", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "stopband" in err and "attenuation" in err
        assert not (tmp_path / "o" / "gain.csv").exists()

    @pytest.mark.parametrize("subcommand", ["gain", "calibrate", "sweep"])
    def test_cli_gain_family_refuses_third_harmonic(self, tmp_path, capsys,
                                                    subcommand):
        p = write_cfg(tmp_path, SMALL_FISHBONE_CFG.replace(
            "integrator: {rtol: 1.0e-8}",
            "integrator: {rtol: 1.0e-8, include_third_harmonic: true}\n"
            "  calibration: {target_peak_db: 3.0}\n"
            "  sweep: {parameter: pump_power, values: [5.0e-5, 1.0e-4]}"))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "analysis.integrator.include_third_harmonic" in err
        assert "'harmonics' only" in err

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

    @pytest.mark.parametrize("chain, subcommand, cause", [
        (TWO_ISTARS, "gain", "'gain' needs one I* shared by every series "
         "inductor; the netlist's are 0.01, 0.012 A"),
        (TWO_ISTARS, "harmonics", "'harmonics' needs one I* shared"),
        (CAPACITORS, "gain", "'gain' needs series inductors"),
        (CAPACITORS, "harmonics", "'harmonics' needs series inductors"),
        (CAPACITORS, "calibrate", "'calibrate' needs series inductors"),
    ], ids=["two-istars-gain", "two-istars-harmonics", "capacitors-gain",
            "capacitors-harmonics", "capacitors-calibrate"])
    def test_cli_netlist_without_one_istar_exit_2(self, tmp_path, capsys,
                                                  chain, subcommand, cause):
        # before the check, gain and harmonics exited 1 on "network has no
        # unique i_star", and calibrate 3 on an attenuation of nan
        (tmp_path / "hand.net").write_text("# ki-twpa netlist v1\n" + chain)
        netcfg = write_cfg(tmp_path, netlist_cfg("hand.net").replace(
            "  integrator: {rtol: 1.0e-8}",
            "  integrator: {rtol: 1.0e-8}\n"
            "  calibration: {target_peak_db: 3.0}"), "net.cfg")
        rc = main([subcommand, "--config", str(netcfg),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert cause in capsys.readouterr().err
        assert not any((tmp_path / "o").iterdir())

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
        monkeypatch.setattr(kitwpa.runner, "_GainPipeline", no_solve)
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
        # the dip zones have one rule; the key that set their width is gone
        ("gain", "output:", "  dip_exclusion_width_hz: -1.0e9\noutput:",
         "analysis: unknown key(s) ['dip_exclusion_width_hz']"),
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

    @pytest.mark.parametrize("subcommand, section, values, key", [
        ("linear", "analysis.frequency_grid", {"stop_hz": np.inf}, "stop_hz"),
        ("gain", "analysis.pump", {"power_watts": np.inf}, "power_watts"),
        ("linear", "design.fishbone", {"num_periods": np.inf}, "num_periods"),
        ("gain", "analysis.signal_grid", {"start_hz": np.nan}, "start_hz"),
        ("gain", "analysis.integrator", {"atol": -1}, "atol"),
        ("harmonics", "analysis.integrator", {"atol": 0}, "atol"),
        # the line impedance is twoport.Z0, not a setting
        ("gain", "analysis.integrator", {"z0_ohms": 0},
         "unknown key(s) ['z0_ohms']"),
        ("gain", "analysis.integrator", {"rtol": 0}, "rtol"),
        ("gain", "analysis.integrator", {"rtol": -1}, "rtol"),
        ("design", "design.leaf", {"pair_separation_cells": 0},
         "pair_separation_cells"),
        ("design", "design.leaf", {"pair_separation_cells": -3},
         "pair_separation_cells"),
        ("design", "design.leaf",
         {"cells_per_block_period": 0, "pair_separation_cells": -1},
         "pair_separation_cells"),
        ("sweep", "analysis.sweep",
         {"parameter": "pump_power", "values": 5.0e-5}, "values"),
        ("sweep", "analysis.sweep",
         {"parameter": "pump_power", "values": []}, "values"),
        ("sweep", "analysis.sweep",
         {"parameter": "bogus", "values": [5.0e-5]}, "parameter"),
        ("sweep", "analysis.sweep",
         {"parameter": 7, "values": [5.0e-5]}, "parameter"),
        ("sweep", "analysis.sweep", {"parameter": "pump_power", "start": 5e-5,
                                     "stop": 2e-4, "points": -1}, "points"),
        ("design", "design", {"netlist": 5}, "netlist"),
        ("design", "output", {"directory": 5}, "directory"),
        # refused when the config loads, not after a full calibration
        ("calibrate", "analysis.calibration",
         {"target_peak_db": 6.0, "tolerance_db": 0}, "tolerance_db"),
        ("calibrate", "analysis.calibration",
         {"target_peak_db": 6.0, "tolerance_db": -0.1}, "tolerance_db"),
        ("calibrate", "analysis.calibration",
         {"target_peak_db": 6.0, "bracket_high_amperes": 0},
         "bracket_high_amperes"),
        ("calibrate", "analysis.calibration",
         {"target_peak_db": 6.0, "bracket_low_amperes": 0.3,
          "bracket_high_amperes": 0.1}, "bracket_low_amperes"),
        ("calibrate", "analysis.calibration",
         {"target_peak_db": 6.0, "bracket_low_amperes": -1},
         "bracket_low_amperes"),
        ("gain", "analysis.signal_grid", {"start_hz": np.nan}, "start_hz"),
        ("gain", "analysis.signal_grid", {"stop_hz": np.inf}, "stop_hz"),
        ("gain", "analysis.signal_grid", {"points": 2.5}, "points"),
        ("linear", "analysis.frequency_grid", {"points": 2.5}, "points"),
        # YAML reads true, yes and on as a bool, not as the number 1
        ("linear", "design.fishbone", {"num_periods": True}, "num_periods"),
        ("gain", "analysis.pump", {"power_watts": True}, "power_watts"),
        ("sweep", "analysis.sweep",
         {"parameter": "pump_power", "values": [True]}, "values"),
    ], ids=["inf-stop", "inf-power", "inf-periods", "nan-start",
            "negative-atol", "zero-atol", "zero-z0", "zero-rtol",
            "negative-rtol", "zero-separation", "negative-separation",
            "zero-block-period", "scalar-sweep-values", "empty-sweep-values",
            "unknown-sweep-parameter", "numeric-sweep-parameter",
            "negative-sweep-points", "numeric-netlist-path",
            "numeric-output-directory", "zero-calibration-tolerance",
            "negative-calibration-tolerance", "zero-bracket-high",
            "bracket-low-above-high", "negative-bracket-low",
            "nan-signal-start", "inf-signal-stop", "fractional-signal-points",
            "fractional-grid-points", "bool-periods", "bool-power",
            "bool-sweep-values"])
    def test_cli_out_of_range_value_exit_2(self, tmp_path, capsys, subcommand,
                                           section, values, key):
        doc = yaml.safe_load(SMALL_FISHBONE_CFG)
        if section == "design.leaf":
            cell = doc["design"].pop("fishbone")
            del cell["num_periods"]
            doc["design"]["leaf"] = {**cell, "num_blocks": 3}
        if section == "design":
            doc["design"] = {}   # the probe's values are the whole design
        target = doc
        for part in section.split("."):
            target = target.setdefault(part, {})
        target.update(values)
        p = write_cfg(tmp_path, yaml.safe_dump(doc))
        rc = main([subcommand, "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert section in err and key in err

    @pytest.mark.parametrize("line", [
        "L -50e-12 0.01", "L 0 0.01", "L nan 0.01", "L 5e-11 inf",
        "C -2e-14", "C inf", "RES nan 70 2", "RES 6e9 0 2", "RES 6e9 70 0",
    ], ids=["negative-l", "zero-l", "nan-l", "inf-istar", "negative-c",
            "inf-c", "nan-fr", "zero-q", "zero-multiplicity"])
    def test_cli_netlist_element_value_exit_2(self, tmp_path, capsys, line):
        # a netlist's element values are checked as a design's are: one
        # that is not positive and finite names the file and line, before
        # any frequency is evaluated
        (tmp_path / "bad.net").write_text(
            "# ki-twpa netlist v1\nL 5e-11 1e-2\nC 2e-14\n" + line
            + "\nC 2e-14\n" + "L 5e-11 1e-2\nC 2e-14\n" * 4)
        p = write_cfg(tmp_path, netlist_cfg("bad.net"))
        rc = main(["linear", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad.net:4: " in err and repr(line) in err
        assert "frequency_grid" not in err

    @pytest.mark.parametrize("section, values, named, field", [
        ("design.fishbone", {"l_henries": -50e-12}, ("l_henries",), "l0"),
        ("design.leaf", {"cells_per_block_period": 20,
                         "pair_separation_cells": 20},
         ("cells_per_block_period", "pair_separation_cells"), None),
    ], ids=["negative-inductance", "separation-at-block-period"])
    def test_cli_rejected_value_names_the_config_key(
            self, tmp_path, capsys, section, values, named, field):
        # a value a spec rejects is reported under the key the config sets,
        # not the spec's field name
        doc = yaml.safe_load(SMALL_FISHBONE_CFG)
        if section == "design.leaf":
            cell = doc["design"].pop("fishbone")
            del cell["num_periods"]
            doc["design"]["leaf"] = {**cell, "num_blocks": 3}
        target = doc
        for part in section.split("."):
            target = target[part]
        target.update(values)
        p = write_cfg(tmp_path, yaml.safe_dump(doc))
        rc = main(["design", "--config", str(p), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert section in err
        assert all(key in err for key in named)
        if field is not None:
            assert not re.search(rf"\b{field}\b", err)


def test_readme_python_api_block_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Python API"):]
    block = section[section.index("```python\n") + 10:section.index("```\n")]
    exec(compile(block, "README.md", "exec"), {})
    assert "Stopband" in capsys.readouterr().out

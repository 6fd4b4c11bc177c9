"""Run configuration: a strict, schema-validated YAML document.

Exactly one design variant (fishbone | leaf | netlist) must be present.
Unknown keys anywhere in the document fail the run before any computation;
numbers may be written as YAML scalars or strings ("6.22e9" is accepted,
since plain YAML treats bare exponents as strings).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .circuit import (
    FishboneSpec,
    LeafSpec,
    NonlinearInductorSpec,
    ResonatorSpec,
    UnitCellSpec,
)
from .dispersion import DEFAULT_GRID
from .errors import ConfigError
from .fwm import IntegrationOptions
from .twoport import FrequencyGrid

__all__ = ["RunConfig", "load_config"]


def _as_float(value, path: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: expected a number, got {value!r}") from None


def _as_int(value, path: str) -> int:
    f = _as_float(value, path)
    if f != int(f):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return int(f)


def _as_bool(value, path: str) -> bool:
    if isinstance(value, bool):
        return value
    raise ConfigError(f"{path}: expected true/false, got {value!r}")


class _Section:
    """Mapping wrapper that tracks key consumption for strict validation."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.data = data
        self.path = path
        self.seen: set = set()

    def __contains__(self, key):
        return key in self.data

    def get(self, key, default=None, required=False):
        self.seen.add(key)
        if key not in self.data:
            if required:
                raise ConfigError(f"{self.path}: missing required key '{key}'")
            return default
        return self.data[key]

    def child(self, key, required=False) -> "_Section | None":
        raw = self.get(key, required=required)
        if raw is None:
            return None
        return _Section(raw, f"{self.path}.{key}")

    def require_consumed(self, strict: bool):
        unknown = set(self.data) - self.seen
        if unknown and strict:
            raise ConfigError(
                f"{self.path}: unknown key(s) {sorted(unknown)!r}")

    def float_(self, key, default=None, required=False):
        v = self.get(key, default, required)
        return None if v is None else _as_float(v, f"{self.path}.{key}")

    def int_(self, key, default=None, required=False):
        v = self.get(key, default, required)
        return None if v is None else _as_int(v, f"{self.path}.{key}")

    def bool_(self, key, default=None):
        v = self.get(key, default)
        return default if v is None else _as_bool(v, f"{self.path}.{key}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    values: tuple


@dataclass(frozen=True)
class CalibrationSpec:
    target_peak_db: float
    tolerance_db: float = 0.1
    bracket_low: float = 1e-3
    bracket_high: float = 100e-3


@dataclass(frozen=True)
class RunConfig:
    design: object                 # FishboneSpec | LeafSpec | Path (netlist)
    design_kind: str               # "fishbone" | "leaf" | "netlist"
    frequency_grid: FrequencyGrid
    pump: tuple | None             # (f_hz, p_watts)
    signal_grid: FrequencyGrid | None
    integrator: IntegrationOptions
    calibration: CalibrationSpec | None
    sweep: SweepSpec | None
    dip_exclusion_width_hz: float | None
    output_directory: str
    raw: dict = field(repr=False, default_factory=dict)


def _parse_grid(sec: _Section, default=None) -> FrequencyGrid:
    if sec is None:
        return default
    try:
        grid = FrequencyGrid(
            start=sec.float_("start_hz", required=True),
            stop=sec.float_("stop_hz", required=True),
            points=sec.int_("points", required=True),
        )
    except ValueError as exc:
        raise ConfigError(f"{sec.path}: {exc}") from None
    sec.require_consumed(strict=True)
    return grid


def _parse_cell(sec: _Section) -> UnitCellSpec:
    cell = UnitCellSpec(
        inductor=NonlinearInductorSpec(
            l0=sec.float_("l_henries", required=True),
            i_star=sec.float_("i_star_amperes", required=True),
        ),
        shunt_capacitance=sec.float_("c_farads", required=True),
    )
    return cell


def _parse_design(sec: _Section, base_dir: Path, strict: bool):
    variants = [k for k in ("fishbone", "leaf", "netlist") if k in sec.data]
    if len(variants) != 1:
        raise ConfigError(
            f"{sec.path}: exactly one of fishbone | leaf | netlist required, "
            f"found {variants or 'none'}")
    kind = variants[0]
    if kind == "netlist":
        rel = sec.get("netlist", required=True)
        path = (base_dir / rel).resolve()
        if not path.exists():
            raise ConfigError(f"{sec.path}.netlist: file not found: {path}")
        sec.require_consumed(strict)
        return path, kind
    sub = sec.child(kind, required=True)
    try:
        design = _parse_spec(kind, sub)
    except ValueError as exc:
        # a value the spec rejects: its message names the field
        raise ConfigError(f"{sub.path}: {exc}") from None
    sub.require_consumed(strict)
    sec.require_consumed(strict)
    return design, kind


def _parse_spec(kind: str, sub: _Section):
    if kind == "fishbone":
        return FishboneSpec(
            base_cell=_parse_cell(sub),
            cells_per_period=sub.int_("cells_per_period", 22),
            loaded_cells=sub.int_("loaded_cells", 2),
            loaded_cells_every_third=sub.int_("loaded_cells_every_third", 4),
            capacitance_reduction_factor=sub.float_(
                "capacitance_reduction_factor", 5.0),
            num_periods=sub.int_("num_periods", required=True),
            physical_cell_length=sub.float_("physical_cell_length_meters", 8e-6),
        )
    return LeafSpec(
        base_cell=_parse_cell(sub),
        cells_per_block_period=sub.int_("cells_per_block_period", 340),
        resonator=ResonatorSpec(
            resonant_frequency=sub.float_("resonant_frequency_hz", 6e9),
            loaded_q=sub.float_("loaded_q", 70.0),
            pairs_per_block=sub.int_("pairs_per_block", 2),
            pair_separation_cells=sub.int_("pair_separation_cells", 6),
        ),
        num_blocks=sub.int_("num_blocks", required=True),
    )


def load_config(path, strict: bool = True) -> RunConfig:
    """Parse and validate a run configuration file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: YAML parse error: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    root = _Section(raw, str(path.name))
    design_sec = root.child("design")
    if design_sec is None:
        raise ConfigError(f"{path.name}: missing required section 'design'")
    design, kind = _parse_design(design_sec, path.parent, strict)

    analysis = root.child("analysis")
    pump = None
    signal_grid = None
    integrator = IntegrationOptions()
    calibration = None
    sweep_spec = None
    dip_width = None
    freq_grid = DEFAULT_GRID
    if analysis is not None:
        freq_grid = _parse_grid(analysis.child("frequency_grid"), DEFAULT_GRID)
        pump_sec = analysis.child("pump")
        if pump_sec is not None:
            pump = (pump_sec.float_("frequency_hz", required=True),
                    pump_sec.float_("power_watts", required=True))
            pump_sec.require_consumed(strict)
        signal_grid = _parse_grid(analysis.child("signal_grid"))
        integ = analysis.child("integrator")
        if integ is not None:
            # a field the section leaves out keeps its IntegrationOptions default
            integrator = IntegrationOptions(
                undepleted=integ.bool_("undepleted", integrator.undepleted),
                include_third_harmonic=integ.bool_(
                    "include_third_harmonic", integrator.include_third_harmonic),
                seed_level_db=integ.float_("seed_level_db",
                                           integrator.seed_level_db),
                rtol=integ.float_("rtol", integrator.rtol),
                atol=integ.float_("atol", integrator.atol),
                z0=integ.float_("z0_ohms", integrator.z0),
            )
            integ.require_consumed(strict)
        cal = analysis.child("calibration")
        if cal is not None:
            calibration = CalibrationSpec(
                target_peak_db=cal.float_("target_peak_db", required=True),
                tolerance_db=cal.float_("tolerance_db", 0.1),
                bracket_low=cal.float_("bracket_low_amperes", 1e-3),
                bracket_high=cal.float_("bracket_high_amperes", 100e-3),
            )
            cal.require_consumed(strict)
        sw = analysis.child("sweep")
        if sw is not None:
            parameter = sw.get("parameter", required=True)
            if "values" in sw:
                values = tuple(_as_float(v, f"{sw.path}.values")
                               for v in sw.get("values"))
            else:
                import numpy as np
                values = tuple(np.linspace(
                    sw.float_("start", required=True),
                    sw.float_("stop", required=True),
                    sw.int_("points", required=True)))
            sweep_spec = SweepSpec(parameter=parameter, values=values)
            sw.require_consumed(strict)
        dip_width = analysis.float_("dip_exclusion_width_hz")
        analysis.require_consumed(strict)

    output = root.child("output")
    out_dir = "."
    if output is not None:
        out_dir = output.get("directory", ".")
        output.require_consumed(strict)

    root.require_consumed(strict)
    return RunConfig(
        design=design, design_kind=kind, frequency_grid=freq_grid, pump=pump,
        signal_grid=signal_grid, integrator=integrator,
        calibration=calibration, sweep=sweep_spec,
        dip_exclusion_width_hz=dip_width, output_directory=out_dir, raw=raw,
    )


def effective_config(config: RunConfig) -> dict:
    """The validated configuration with all defaults materialized.

    Echoed into the run manifest so a result documents exactly what ran.
    """
    from dataclasses import asdict

    def clean(obj):
        if obj is None:
            return None
        return {k: v for k, v in asdict(obj).items()}

    doc = {
        "design_kind": config.design_kind,
        "design": (str(config.design) if config.design_kind == "netlist"
                   else clean(config.design)),
        "frequency_grid": clean(config.frequency_grid),
        "pump": (None if config.pump is None else
                 {"frequency_hz": config.pump[0], "power_watts": config.pump[1]}),
        "signal_grid": clean(config.signal_grid),
        "integrator": clean(config.integrator),
        "calibration": clean(config.calibration),
        "sweep": (None if config.sweep is None else
                  {"parameter": config.sweep.parameter,
                   "values": list(config.sweep.values)}),
        "dip_exclusion_width_hz": config.dip_exclusion_width_hz,
        "output_directory": config.output_directory,
    }
    return doc

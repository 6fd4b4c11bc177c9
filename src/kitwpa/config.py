"""Run configuration: a strict, schema-validated YAML document.

Exactly one design variant (fishbone | leaf | netlist) must be present.
Unknown keys anywhere in the document fail the run before any computation;
numbers may be written as YAML scalars or strings ("6.22e9" is accepted,
since plain YAML treats bare exponents as strings).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .analysis import CalibrationSpec, SweepAxis
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


_CONVERT = {"int": _as_int, "float": _as_float, "bool": _as_bool}
# config keys that carry their unit; every other field is its own key
_KEYS = {"resonant_frequency": "resonant_frequency_hz",
         "bracket_low": "bracket_low_amperes",
         "bracket_high": "bracket_high_amperes",
         "z0": "z0_ohms"}


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

    def float_(self, key, required=False):
        v = self.get(key, required=required)
        return None if v is None else _as_float(v, f"{self.path}.{key}")

    def int_(self, key, required=False):
        v = self.get(key, required=required)
        return None if v is None else _as_int(v, f"{self.path}.{key}")

    def fields_of(self, cls, required=()) -> dict:
        """Keyword arguments for cls from the keys this section sets: each
        int, float or bool field of cls, read under its config key.  A field
        the section leaves out keeps the default cls declares."""
        kwargs = {}
        for f in fields(cls):
            key = _KEYS.get(f.name, f.name)
            if f.type in _CONVERT and (key in self.data or f.name in required):
                kwargs[f.name] = _CONVERT[f.type](
                    self.get(key, required=True), f"{self.path}.{key}")
        return kwargs


@dataclass(frozen=True)
class RunConfig:
    design: object                 # FishboneSpec | LeafSpec | Path (netlist)
    design_kind: str               # "fishbone" | "leaf" | "netlist"
    frequency_grid: FrequencyGrid
    pump: tuple | None             # (f_hz, p_watts)
    signal_grid: FrequencyGrid | None
    integrator: IntegrationOptions
    calibration: CalibrationSpec | None
    sweep: SweepAxis | None
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
        return FishboneSpec(_parse_cell(sub), **sub.fields_of(
            FishboneSpec, required=("num_periods",)))
    return LeafSpec(_parse_cell(sub),
                    resonator=ResonatorSpec(**sub.fields_of(ResonatorSpec)),
                    **sub.fields_of(LeafSpec, required=("num_blocks",)))


def _parse_options(sec: _Section | None, cls, strict: bool, required=()):
    """cls from the keys the section sets, or None without the section."""
    if sec is None:
        return None
    options = cls(**sec.fields_of(cls, required))
    sec.require_consumed(strict)
    return options


def _parse_sweep(sec: _Section | None, strict: bool) -> SweepAxis | None:
    if sec is None:
        return None
    parameter = sec.get("parameter", required=True)
    if "values" in sec:
        values = tuple(_as_float(v, f"{sec.path}.values")
                       for v in sec.get("values"))
    else:
        values = tuple(np.linspace(sec.float_("start", required=True),
                                   sec.float_("stop", required=True),
                                   sec.int_("points", required=True)))
    sec.require_consumed(strict)
    return SweepAxis(parameter, values)


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

    # a missing analysis or output section is an empty one
    analysis = root.child("analysis") or _Section({}, "analysis")
    pump = None
    pump_sec = analysis.child("pump")
    if pump_sec is not None:
        pump = (pump_sec.float_("frequency_hz", required=True),
                pump_sec.float_("power_watts", required=True))
        pump_sec.require_consumed(strict)
    output = root.child("output") or _Section({}, "output")
    config = RunConfig(
        design=design, design_kind=kind,
        frequency_grid=_parse_grid(analysis.child("frequency_grid"),
                                   DEFAULT_GRID),
        pump=pump,
        signal_grid=_parse_grid(analysis.child("signal_grid")),
        integrator=(_parse_options(analysis.child("integrator"),
                                   IntegrationOptions, strict)
                    or IntegrationOptions()),
        calibration=_parse_options(analysis.child("calibration"),
                                   CalibrationSpec, strict,
                                   required=("target_peak_db",)),
        sweep=_parse_sweep(analysis.child("sweep"), strict),
        dip_exclusion_width_hz=analysis.float_("dip_exclusion_width_hz"),
        output_directory=output.get("directory", "."),
        raw=raw,
    )
    for sec in (analysis, output, root):
        sec.require_consumed(strict)
    return config


def effective_config(config: RunConfig) -> dict:
    """The validated configuration with all defaults materialized.

    Echoed into the run manifest so a result documents exactly what ran.
    """
    def clean(obj):
        return None if obj is None else asdict(obj)

    return {
        "design_kind": config.design_kind,
        "design": (str(config.design) if config.design_kind == "netlist"
                   else clean(config.design)),
        "frequency_grid": clean(config.frequency_grid),
        "pump": (None if config.pump is None else
                 {"frequency_hz": config.pump[0], "power_watts": config.pump[1]}),
        "signal_grid": clean(config.signal_grid),
        "integrator": clean(config.integrator),
        "calibration": clean(config.calibration),
        "sweep": clean(config.sweep),
        "dip_exclusion_width_hz": config.dip_exclusion_width_hz,
        "output_directory": config.output_directory,
    }

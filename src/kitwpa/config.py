"""Run configuration: a strict, schema-validated YAML document.

Exactly one design variant (fishbone | leaf | netlist) must be present.
Unknown keys anywhere in the document fail the run before any computation;
numbers may be written as YAML scalars or strings ("6.22e9" is accepted,
since plain YAML treats bare exponents as strings).
"""

from __future__ import annotations

import operator
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
_KEYS = {"l0": "l_henries",
         "i_star": "i_star_amperes",
         "shunt_capacitance": "c_farads",
         "resonant_frequency": "resonant_frequency_hz",
         "bracket_low": "bracket_low_amperes",
         "bracket_high": "bracket_high_amperes",
         "z0": "z0_ohms",
         "start": "start_hz",
         "stop": "stop_hz"}


class _Section:
    """Mapping wrapper that records the keys read and the child sections
    returned, so unknown keys are found once the whole document is read."""

    def __init__(self, data: dict, path: str):
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.data = data
        self.path = path
        self.seen: set = set()
        self.children: list = []

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
        sec = _Section(raw, f"{self.path}.{key}")
        self.children.append(sec)
        return sec

    def require_consumed(self):
        """Fail on the first key no parser read, children before parents."""
        for sec in self.children:
            sec.require_consumed()
        unknown = set(self.data) - self.seen
        if unknown:
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


_GRID_FIELDS = ("start", "stop", "points")


def _parse_design(sec: _Section, base_dir: Path):
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
        return path, kind
    sub = sec.child(kind, required=True)
    cell = _parse_options(sub, UnitCellSpec, required=("shunt_capacitance",),
                          inductor=_parse_options(sub, NonlinearInductorSpec,
                                                  required=("l0", "i_star")))
    if kind == "fishbone":
        return _parse_options(sub, FishboneSpec, required=("num_periods",),
                              base_cell=cell), kind
    return _parse_options(sub, LeafSpec, required=("num_blocks",),
                          base_cell=cell,
                          resonator=_parse_options(sub, ResonatorSpec)), kind


def _parse_options(sec: _Section | None, cls, required=(), **nested):
    """cls from the keys the section sets (plus the nested specs given), or
    None without the section.  A value cls rejects is a ConfigError whose
    message names the field."""
    if sec is None:
        return None
    try:
        return cls(**sec.fields_of(cls, required), **nested)
    except ValueError as exc:
        raise ConfigError(f"{sec.path}: {exc}") from None


def _parse_sweep(sec: _Section | None) -> SweepAxis | None:
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
    return SweepAxis(parameter, values)


_COMPARE = {">": operator.gt, ">=": operator.ge}


def _float_vs_zero(sec: _Section, key: str, op: str, required=False):
    """sec's number at key, which must be `op` 0 (op is ">" or ">=")."""
    value = sec.float_(key, required=required)
    if value is not None and not _COMPARE[op](value, 0.0):
        raise ConfigError(f"{sec.path}.{key}: must be {op} 0, got {value}")
    return value


def load_config(path) -> RunConfig:
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
    design, kind = _parse_design(design_sec, path.parent)

    # a missing analysis or output section is an empty one
    analysis = root.child("analysis") or _Section({}, "analysis")
    pump = None
    pump_sec = analysis.child("pump")
    if pump_sec is not None:
        pump = (_float_vs_zero(pump_sec, "frequency_hz", ">", required=True),
                _float_vs_zero(pump_sec, "power_watts", ">=", required=True))
    output = root.child("output") or _Section({}, "output")
    config = RunConfig(
        design=design, design_kind=kind,
        frequency_grid=(_parse_options(analysis.child("frequency_grid"),
                                       FrequencyGrid, required=_GRID_FIELDS)
                        or DEFAULT_GRID),
        pump=pump,
        signal_grid=_parse_options(analysis.child("signal_grid"),
                                   FrequencyGrid, required=_GRID_FIELDS),
        integrator=(_parse_options(analysis.child("integrator"),
                                   IntegrationOptions)
                    or IntegrationOptions()),
        calibration=_parse_options(analysis.child("calibration"),
                                   CalibrationSpec,
                                   required=("target_peak_db",)),
        sweep=_parse_sweep(analysis.child("sweep")),
        dip_exclusion_width_hz=_float_vs_zero(
            analysis, "dip_exclusion_width_hz", ">"),
        output_directory=output.get("directory", "."),
        raw=raw,
    )
    root.require_consumed()
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

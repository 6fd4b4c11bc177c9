"""Subcommand orchestration and file emission.

Every run writes its outputs plus a run_manifest.json recording the config
digest, tool version, wall-clock duration, and a content digest per emitted
file.  All numeric output uses fixed scientific formatting, so identical
configs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__
from .analysis import (
    OperatingPoint,
    calibrate_istar,
    gain_metrics,
    metrics_report_rows,
    sweep,
    sweep_csv_rows,
)
from .circuit import read_netlist, write_netlist
from .config import RunConfig, effective_config
from .dispersion import bloch_dispersion, device_dispersion, find_stopbands
from .errors import ConfigError
from .fwm import (
    gain_profile_csv_rows,
    harmonic_scan_csv_rows,
    integrate_gain,
    signal_frequencies,
    third_harmonic_scan,
)
# network_matrix is not called in this module; it is imported into it because
# bench/tracing.py rebinds it here to record spans
from .twoport import network_matrix  # noqa: F401
from .twoport import (cascade_periods, report_lines, sparams_to_csv_rows,
                      table_lines, to_s_parameters, walk_period,
                      write_touchstone)

__all__ = ["run", "SUBCOMMANDS"]

SUBCOMMANDS = ("design", "dispersion", "linear", "gain", "harmonics",
               "sweep", "calibrate")


def _expand(config: RunConfig):
    from .analysis import expand_design
    if config.design_kind == "netlist":
        try:
            return read_netlist(config.design)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return expand_design(config.design)


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _config_digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Emitter:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: list = []
        out_dir.mkdir(parents=True, exist_ok=True)

    def write_lines(self, name: str, lines):
        path = self.out_dir / name
        path.write_text("\n".join(lines) + "\n")
        self.files.append(path)
        return path

    def add(self, path: Path):
        self.files.append(path)

    def manifest(self, config_digest: str, duration: float,
                 effective: dict) -> Path:
        entries = []
        for p in self.files:
            digest = hashlib.sha256(p.read_bytes()).hexdigest()
            entries.append({"name": p.name, "sha256": digest})
        doc = {
            "config_digest": config_digest,
            "tool_version": __version__,
            "duration_seconds": round(duration, 3),
            "files": entries,
            "effective_config": effective,
        }
        path = self.out_dir / "run_manifest.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path


def _has_bloch_period(config, network) -> bool:
    # a spec declares its period; the period recovered from a netlist only
    # counts when it repeats
    return config.design_kind != "netlist" or network.repeats > 1


def _require_bloch_period(config, network):
    _require(_has_bloch_period(config, network),
             "netlist has no repeating period (its shortest period occurs "
             "only once); Bloch dispersion is unavailable")


def _bloch_curve(config, network):
    _require_bloch_period(config, network)
    return device_dispersion(network, config.frequency_grid)


def _dispersion_products(config, network, emit: _Emitter, need_bloch: bool):
    grid = config.frequency_grid
    f = grid.frequencies()
    # one walk of the period gives the Bloch curve and the full cascade
    period, tail = walk_period(network, f)
    curve = None
    if need_bloch or _has_bloch_period(config, network):
        _require_bloch_period(config, network)
        curve = bloch_dispersion(period, grid, network.cells_per_period)
    sp = to_s_parameters(cascade_periods(period, network.repeats, tail), f)
    if curve is not None:
        rows = sparams_to_csv_rows(sp, curve.phase_per_period,
                                   curve.attenuation_per_period,
                                   curve.in_stopband)
    else:
        rows = sparams_to_csv_rows(sp)
    emit.write_lines("dispersion.csv", rows)
    return curve, sp


def _stopband_rows(report):
    return table_lines(
        "f_low_hz,f_high_hz,center_hz,max_attenuation_per_period_nepers",
        [[b.f_low for b in report], [b.f_high for b in report],
         [b.center for b in report],
         [b.max_attenuation_per_period for b in report]])


def _operating_point(config, network, curve) -> OperatingPoint:
    f_p, p_p = config.pump
    return OperatingPoint(
        label=config.design_kind,
        pump_frequency=f_p,
        pump_power=p_p,
        i_star=network.i_star,
        total_cells=network.total_cells,
        k_cell_at_pump=float(curve.k_cell(f_p)),
        z0=config.integrator.z0,
    )


def run(subcommand: str, config: RunConfig, out_dir=None) -> dict:
    """Execute one subcommand; returns the manifest document."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    t0 = time.monotonic()
    out = Path(out_dir) if out_dir is not None else Path(config.output_directory)
    emit = _Emitter(out)

    needs_pump = subcommand in ("gain", "harmonics", "sweep", "calibrate")
    if needs_pump:
        _require(config.pump is not None,
                 f"'{subcommand}' requires an analysis.pump section")
    if subcommand in ("harmonics", "calibrate"):
        _require(config.pump[1] > 0, f"'{subcommand}' requires a positive "
                 "analysis.pump.power_watts")
    if subcommand in ("gain", "sweep", "calibrate"):
        _require(config.signal_grid is not None,
                 f"'{subcommand}' requires an analysis.signal_grid section")
    if subcommand in ("gain", "calibrate"):
        # the signal grid prepare_line accepts, with the length gain_metrics
        # needs, checked before any solve; a sweep records such points as
        # failures
        try:
            f_s = signal_frequencies(config.signal_grid, config.pump[0])
        except ValueError as exc:
            raise ConfigError(f"analysis.signal_grid: {exc}") from None
        _require(f_s.size >= 3, "analysis.signal_grid: metrics need at least "
                 "3 points besides the pump frequency")
    # sweep and calibrate expand the design themselves
    network = (None if subcommand in ("sweep", "calibrate")
               else _expand(config))

    if subcommand == "design":
        path = out / "device.net"
        write_netlist(network, path)
        emit.add(path)

    elif subcommand == "dispersion":
        curve, _ = _dispersion_products(config, network, emit, need_bloch=True)
        emit.write_lines("stopbands.csv", _stopband_rows(find_stopbands(curve)))

    elif subcommand == "linear":
        curve, sp = _dispersion_products(config, network, emit, need_bloch=False)
        path = out / "sparams.s2p"
        write_touchstone(sp, path)
        emit.add(path)

    elif subcommand == "gain":
        curve = _bloch_curve(config, network)
        stopbands = find_stopbands(curve)
        profile = integrate_gain(network, curve, config.pump,
                                 config.signal_grid, config.integrator,
                                 stopband_curve=curve)
        metrics = gain_metrics(profile, stopbands,
                               config.dip_exclusion_width_hz)
        emit.write_lines("gain.csv", gain_profile_csv_rows(profile))
        op = _operating_point(config, network, curve)
        text, csv = metrics_report_rows(metrics, op)
        emit.write_lines("metrics.txt", text)
        emit.write_lines("metrics.csv", csv)

    elif subcommand == "harmonics":
        curve = _bloch_curve(config, network)
        scan = third_harmonic_scan(network, curve, config.pump,
                                   config.integrator, stopband_curve=curve)
        emit.write_lines("harmonics.csv", harmonic_scan_csv_rows(scan))

    elif subcommand == "sweep":
        _require(config.sweep is not None,
                 "'sweep' requires an analysis.sweep section")
        _require(config.design_kind != "netlist",
                 "'sweep' needs a parametric design, not a raw netlist")
        result = sweep(
            config.design, config.pump, config.sweep,
            config.signal_grid, config.frequency_grid, config.integrator,
            dip_exclusion_width_hz=config.dip_exclusion_width_hz)
        emit.write_lines("sweep.csv", sweep_csv_rows(result))
        if result.failures:
            emit.write_lines("sweep_failures.txt", [
                f"index {i}: {kind}: {msg}"
                for i, kind, msg in result.failures])

    elif subcommand == "calibrate":
        _require(config.calibration is not None,
                 "'calibrate' requires an analysis.calibration section")
        _require(config.design_kind != "netlist",
                 "'calibrate' needs a parametric design, not a raw netlist")
        cal = config.calibration
        result = calibrate_istar(
            config.design, config.pump, cal.target_peak_db,
            config.signal_grid, config.frequency_grid, config.integrator,
            dip_exclusion_width_hz=config.dip_exclusion_width_hz,
            bracket=(cal.bracket_low, cal.bracket_high),
            tol_db=cal.tolerance_db)
        emit.write_lines("calibration.txt", report_lines([
            ("i_star_amperes", result.i_star),
            ("residual_db", result.residual_db),
            ("target_peak_db", result.target_peak_db),
            ("pump_frequency_hz", result.pump_frequency),
            ("pump_power_w", result.pump_power),
        ]))
        emit.write_lines("gain.csv", gain_profile_csv_rows(result.profile))
        text, csv = metrics_report_rows(result.metrics)
        emit.write_lines("metrics.txt", text)
        emit.write_lines("metrics.csv", csv)

    manifest_path = emit.manifest(_config_digest(config.raw),
                                  time.monotonic() - t0,
                                  effective_config(config))
    return json.loads(manifest_path.read_text())
